type t = {
  budget : int;
  queue : Memobj.t Queue.t;
  mutable held : int;
  mutable bypasses : int;
}

let create ~budget =
  assert (budget >= 0);
  { budget; queue = Queue.create (); held = 0; bypasses = 0 }

(* The newest entry is never evicted by its own push: a block bigger than
   the whole budget used to be bounced straight back out, which silently
   collapsed the use-after-free detection window to zero for large blocks.
   Older entries are evicted to make room; if the newcomer alone still
   exceeds the budget it stays anyway and the overrun is counted as a
   bypass, so callers can see how often the budget was overridden. *)
let push t obj =
  Queue.push obj t.queue;
  t.held <- t.held + obj.Memobj.block_len;
  let evicted = ref [] in
  while t.held > t.budget && Queue.length t.queue > 1 do
    let old = Queue.pop t.queue in
    t.held <- t.held - old.Memobj.block_len;
    evicted := old :: !evicted
  done;
  if t.held > t.budget then t.bypasses <- t.bypasses + 1;
  List.rev !evicted

let flush t =
  let all = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  t.held <- 0;
  all

let bytes_held t = t.held
let length t = Queue.length t.queue
let bypasses t = t.bypasses

let ids t =
  List.map (fun (o : Memobj.t) -> o.Memobj.id) (List.of_seq (Queue.to_seq t.queue))

type snapshot = {
  s_queue : Memobj.t list;  (* oldest first *)
  s_held : int;
  s_bypasses : int;
}

let snapshot t =
  {
    s_queue = List.of_seq (Queue.to_seq t.queue);
    s_held = t.held;
    s_bypasses = t.bypasses;
  }

let queued s = s.s_queue

let rec push_all q = function
  | [] -> ()
  | o :: rest ->
    Queue.push o q;
    push_all q rest

let restore t s =
  Queue.clear t.queue;
  push_all t.queue s.s_queue;
  t.held <- s.s_held;
  t.bypasses <- s.s_bypasses
