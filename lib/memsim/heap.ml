module Bitops = Giantsan_util.Bitops

type config = { arena_size : int; redzone : int; quarantine_budget : int }

let default_config =
  { arena_size = 1 lsl 20; redzone = 16; quarantine_budget = 256 * 1024 }

type free_error = Free_null | Invalid_free | Free_not_at_start | Double_free
type free_outcome = { freed : Memobj.t; evicted : Memobj.t list }

type t = {
  arena : Arena.t;
  oracle : Oracle.t;
  config : config;
  quarantine : Quarantine.t;
  free_cache : (int, int list ref) Hashtbl.t;  (* block_len -> block bases *)
  mutable brk : int;
  mutable next_id : int;
  mutable live_bytes : int;
  mutable pressure_flushes : int;
  mutable evict_hook : Memobj.t -> unit;
  (* Chaos hook: when >= 0, counts down one per successful malloc and the
     malloc after it hits zero raises [Out_of_memory]. -1 = disabled (the
     only cost on the hot path is one integer compare — no event counts). *)
  mutable oom_countdown : int;
}

let create config =
  assert (config.redzone >= 1);
  let arena = Arena.create ~size:config.arena_size in
  {
    arena;
    oracle = Oracle.create ~arena_size:(Arena.size arena);
    config;
    quarantine = Quarantine.create ~budget:config.quarantine_budget;
    free_cache = Hashtbl.create 64;
    (* Address 0 is NULL; leave a small unallocated guard at the bottom so
       near-null dereferences land on unallocated bytes. *)
    brk = 64;
    next_id = 0;
    live_bytes = 0;
    pressure_flushes = 0;
    evict_hook = ignore;
    oom_countdown = -1;
  }

let arena t = t.arena
let oracle t = t.oracle
let config t = t.config
let segment_count t = Arena.size t.arena / 8
let live_bytes t = t.live_bytes

(* Block layout: [left redzone][object, 8-aligned][right redzone].
   The left redzone is the configured redzone rounded up to 8 so the object
   base stays aligned; the right redzone absorbs the alignment padding of
   the object size, guaranteeing at least [redzone] poisoned bytes after
   the object while keeping the next block 8-aligned. *)
let layout config size =
  let left = Bitops.align_up 8 config.redzone in
  let right = Bitops.align_up 8 (size + config.redzone) - size in
  let block_len = left + size + right in
  (left, block_len)

let take_cached t block_len =
  match Hashtbl.find_opt t.free_cache block_len with
  | Some ({ contents = base :: rest } as cell) ->
    cell := rest;
    Some base
  | _ -> None

let put_cached t block_len base =
  match Hashtbl.find_opt t.free_cache block_len with
  | Some cell -> cell := base :: !cell
  | None -> Hashtbl.add t.free_cache block_len (ref [ base ])

(* First-fit fallback once the bump pointer is exhausted: take the smallest
   recycled block that fits, splitting off the remainder. Returns the block
   base and the length actually consumed (the whole block when the
   remainder is too small to manage on its own). Keeps long-running
   fragmented workloads alive, like a real allocator. *)
let take_fit t block_len =
  let best = ref None in
  Hashtbl.iter
    (fun len cell ->
      if len >= block_len && !cell <> [] then
        match !best with
        | Some (blen, _) when blen <= len -> ()
        | _ -> best := Some (len, cell))
    t.free_cache;
  match !best with
  | None -> None
  | Some (len, cell) -> (
    match !cell with
    | [] -> None
    | base :: rest ->
      cell := rest;
      let remainder = len - block_len in
      if remainder >= 32 then begin
        put_cached t remainder (base + block_len);
        Some (base, block_len)
      end
      else Some (base, len))

let recycle t (obj : Memobj.t) =
  obj.status <- Recycled;
  Oracle.release t.oracle obj;
  put_cached t obj.block_len obj.block_base

let pressure_flushes t = t.pressure_flushes
let quarantine_bypasses t = Quarantine.bypasses t.quarantine
let quarantine_length t = Quarantine.length t.quarantine
let quarantine_held t = Quarantine.bytes_held t.quarantine
let quarantine_ids t = Quarantine.ids t.quarantine
let set_evict_hook t f = t.evict_hook <- f
let chaos_oom_after t n = t.oom_countdown <- n

(* Last resort before [Out_of_memory]: flush the quarantine, recycle every
   block it held (notifying the runtime via the evict hook so shadow state
   follows), and retry the free-cache paths. Trades the temporal-error
   detection window for forward progress — graceful degradation under
   allocator pressure, surfaced through [pressure_flushes]. *)
let pressure_alloc t block_len =
  let held = Quarantine.flush t.quarantine in
  if held = [] then raise Out_of_memory;
  List.iter
    (fun obj ->
      recycle t obj;
      t.evict_hook obj)
    held;
  t.pressure_flushes <- t.pressure_flushes + 1;
  match take_cached t block_len with
  | Some base -> (base, block_len)
  | None -> (
    match take_fit t block_len with
    | Some (base, len) -> (base, len)
    | None -> raise Out_of_memory)

let malloc t ?(kind = Memobj.Heap) size =
  if size < 0 then invalid_arg "Heap.malloc: negative size";
  if t.oom_countdown >= 0 then
    if t.oom_countdown = 0 then begin
      t.oom_countdown <- -1;
      raise Out_of_memory
    end
    else t.oom_countdown <- t.oom_countdown - 1;
  (* a block larger than the whole arena can never be placed; refusing it
     here also keeps [layout]'s arithmetic from overflowing on huge sizes *)
  if size > Arena.size t.arena then raise Out_of_memory;
  let left, block_len = layout t.config size in
  let block_base, block_len =
    match take_cached t block_len with
    | Some base -> (base, block_len)
    | None ->
      if t.brk + block_len <= Arena.size t.arena then begin
        let base = t.brk in
        t.brk <- base + block_len;
        (base, block_len)
      end
      else (
        (* bump space gone: first-fit over recycled blocks *)
        match take_fit t block_len with
        | Some (base, len) -> (base, len)
        | None -> pressure_alloc t block_len)
  in
  let base = block_base + left in
  let obj =
    {
      Memobj.id = t.next_id;
      kind;
      base;
      size;
      block_base;
      block_len;
      status = Live;
    }
  in
  t.next_id <- t.next_id + 1;
  Oracle.claim t.oracle obj;
  t.live_bytes <- t.live_bytes + size;
  obj

let find_object t addr =
  if addr < 0 || addr >= Arena.size t.arena then None
  else Oracle.owner t.oracle addr

(* {1 Snapshot / restore (the fuzz-mode profile)}

   Everything the allocator can mutate is captured: arena bytes, the
   oracle's owner map, quarantine FIFO, the free cache (deep-copied — its
   cells are mutable refs), the scalar cursors, and — the subtle part —
   the [status] field of every reachable [Memobj.t]. Objects are shared by
   reference between the owner map, the quarantine queue and caller-held
   pointers, so restoring the maps alone would leave an object recycled
   after the snapshot still claiming [Recycled]; the snapshot therefore
   records (object, status) pairs for everything reachable and [restore]
   writes the statuses back (they also decide the oracle's byte states,
   which it derives from owner and status). Objects allocated after the
   snapshot become unreachable on restore and their status no longer
   matters.
   [Oracle.fold_owners] visits each owned block once; the dedupe by id
   exists only because a quarantined object still owns its block and so
   is reachable from both the owner map and the queue. *)

type snapshot = {
  s_arena : Arena.snapshot;
  s_oracle : Oracle.snapshot;
  s_quarantine : Quarantine.snapshot;
  s_free_cache : (int * int list) list;
  s_brk : int;
  s_next_id : int;
  s_live_bytes : int;
  s_pressure_flushes : int;
  s_oom_countdown : int;
  s_statuses : (Memobj.t * Memobj.status) list;
}

let snapshot t =
  let seen = Hashtbl.create 64 in
  let note acc (o : Memobj.t) =
    if Hashtbl.mem seen o.Memobj.id then acc
    else begin
      Hashtbl.add seen o.Memobj.id ();
      (o, o.Memobj.status) :: acc
    end
  in
  let q = Quarantine.snapshot t.quarantine in
  let statuses = Oracle.fold_owners t.oracle note [] in
  let statuses = List.fold_left note statuses (Quarantine.queued q) in
  {
    s_arena = Arena.snapshot t.arena;
    s_oracle = Oracle.snapshot t.oracle;
    s_quarantine = q;
    s_free_cache =
      Hashtbl.fold (fun len cell acc -> (len, !cell) :: acc) t.free_cache [];
    s_brk = t.brk;
    s_next_id = t.next_id;
    s_live_bytes = t.live_bytes;
    s_pressure_flushes = t.pressure_flushes;
    s_oom_countdown = t.oom_countdown;
    s_statuses = statuses;
  }

(* Restore allocates nothing beyond the free-cache cells it must rebuild
   (none for a pristine snapshot): the loops below are plain recursion, not
   closures over [t]. *)
let rec refill_free_cache cache = function
  | [] -> ()
  | (len, bases) :: rest ->
    Hashtbl.add cache len (ref bases);
    refill_free_cache cache rest

let rec write_statuses = function
  | [] -> ()
  | ((o : Memobj.t), st) :: rest ->
    o.Memobj.status <- st;
    write_statuses rest

let restore t s =
  Arena.restore t.arena s.s_arena;
  Oracle.restore t.oracle s.s_oracle;
  Quarantine.restore t.quarantine s.s_quarantine;
  Hashtbl.reset t.free_cache;
  refill_free_cache t.free_cache s.s_free_cache;
  t.brk <- s.s_brk;
  t.next_id <- s.s_next_id;
  t.live_bytes <- s.s_live_bytes;
  t.pressure_flushes <- s.s_pressure_flushes;
  t.oom_countdown <- s.s_oom_countdown;
  write_statuses s.s_statuses

let free t ptr =
  if ptr = 0 then Error Free_null
  else
    match find_object t ptr with
    | None -> Error Invalid_free
    | Some obj ->
      if obj.Memobj.status <> Live then Error Double_free
      else if ptr <> obj.Memobj.base then Error Free_not_at_start
      else begin
        obj.status <- Quarantined;
        t.live_bytes <- t.live_bytes - obj.size;
        let evicted =
          match obj.kind with
          | Heap -> Quarantine.push t.quarantine obj
          | Stack | Global ->
            (* Stack frames and globals are not quarantined: their memory is
               reusable as soon as the frame pops. *)
            [ obj ]
        in
        List.iter (recycle t) evicted;
        Ok { freed = obj; evicted }
      end
