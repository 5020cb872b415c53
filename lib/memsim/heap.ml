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
  (* The free cache (see "The free cache" below): slot [i] holds a block
     length in [cache_lens.(i)], or [no_len], and that length's recycled
     block bases in [cache_bases.(i)], newest first. *)
  mutable cache_lens : int array;
  mutable cache_bases : int list array;
  mutable cache_used : int;  (* slots holding a length *)
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

let no_len = -1
let cache_capacity = 64

let create config =
  assert (config.redzone >= 1);
  let arena = Arena.create ~size:config.arena_size in
  {
    arena;
    oracle = Oracle.create ~arena_size:(Arena.size arena);
    config;
    quarantine = Quarantine.create ~budget:config.quarantine_budget;
    cache_lens = Array.make cache_capacity no_len;
    cache_bases = Array.make cache_capacity [];
    cache_used = 0;
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

(* {1 The free cache}

   Recycled blocks by length, in an open-addressed int table: no hashing,
   no generic compare and no option on a hit. Capacity is a power of two,
   starting at [cache_capacity] and doubled before the table is half full;
   a length's probe starts at [block_len lsr 3] (lengths are multiples of
   8) and runs linearly. Nothing is ever deleted: a length whose stack
   empties keeps its slot for the next block of that length. *)

(* The slot holding [len], or the empty slot where it would go. *)
let rec probe (lens : int array) mask len i =
  let k = Array.unsafe_get lens i in
  if k = len || k = no_len then i else probe lens mask len ((i + 1) land mask)

let find_slot t len =
  let lens = t.cache_lens in
  let mask = Array.length lens - 1 in
  probe lens mask len ((len lsr 3) land mask)

let grow_cache t =
  let lens = t.cache_lens and bases = t.cache_bases in
  let cap = 2 * Array.length lens in
  t.cache_lens <- Array.make cap no_len;
  t.cache_bases <- Array.make cap [];
  for i = 0 to Array.length lens - 1 do
    let len = lens.(i) in
    if len <> no_len then begin
      let j = find_slot t len in
      t.cache_lens.(j) <- len;
      t.cache_bases.(j) <- bases.(i)
    end
  done

(* The slot holding [len], claimed for it if [len] is new. *)
let rec slot_for t len =
  let i = find_slot t len in
  if t.cache_lens.(i) = len then i
  else if 2 * (t.cache_used + 1) > Array.length t.cache_lens then begin
    grow_cache t;
    slot_for t len
  end
  else begin
    t.cache_lens.(i) <- len;
    t.cache_used <- t.cache_used + 1;
    i
  end

let put_cached t block_len base =
  let i = slot_for t block_len in
  t.cache_bases.(i) <- base :: t.cache_bases.(i)

(* The newest recycled block of exactly [block_len] bytes, or -1. An empty
   slot's stack is empty too, so a miss needs no key test. *)
let take_cached t block_len =
  let i = find_slot t block_len in
  match t.cache_bases.(i) with
  | base :: rest ->
    t.cache_bases.(i) <- rest;
    base
  | [] -> -1

(* First-fit fallback once the bump pointer is exhausted: take the smallest
   recycled block that fits, splitting off the remainder. Returns the block
   base and the length actually consumed (the whole block when the
   remainder is too small to manage on its own). Keeps long-running
   fragmented workloads alive, like a real allocator. *)
let take_fit t block_len =
  let lens = t.cache_lens and bases = t.cache_bases in
  let best = ref (-1) in
  for i = 0 to Array.length lens - 1 do
    let len = lens.(i) in
    (* empty slots hold [no_len], below every request *)
    if len >= block_len && (!best < 0 || len < lens.(!best)) then
      match bases.(i) with [] -> () | _ :: _ -> best := i
  done;
  if !best < 0 then None
  else
    let i = !best in
    match bases.(i) with
    | [] -> None
    | base :: rest ->
      let len = lens.(i) in
      bases.(i) <- rest;
      let remainder = len - block_len in
      if remainder >= 32 then begin
        put_cached t remainder (base + block_len);
        Some (base, block_len)
      end
      else Some (base, len)

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
  let base = take_cached t block_len in
  if base >= 0 then (base, block_len)
  else
    match take_fit t block_len with
    | Some (base, len) -> (base, len)
    | None -> raise Out_of_memory

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
    let base = take_cached t block_len in
    if base >= 0 then (base, block_len)
    else if t.brk + block_len <= Arena.size t.arena then begin
      let base = t.brk in
      t.brk <- base + block_len;
      (base, block_len)
    end
    else
      (* bump space gone: first-fit over recycled blocks *)
      match take_fit t block_len with
      | Some (base, len) -> (base, len)
      | None -> pressure_alloc t block_len
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
   oracle's owner map, quarantine FIFO, the free cache's (length, bases)
   pairs (the stacks are immutable lists, so they are shared), the scalar
   cursors, and — the subtle part — the [status] field of every reachable
   [Memobj.t]. Objects are shared by reference between the owner map, the
   quarantine queue and caller-held pointers, so restoring the maps alone
   would leave an object recycled after the snapshot still claiming
   [Recycled]; the snapshot therefore records (object, status) pairs for
   everything reachable and [restore] writes the statuses back (they also
   decide the oracle's byte states, which it derives from owner and
   status). Objects allocated after the snapshot become unreachable on
   restore and their status no longer matters.
   [Oracle.fold_owners] visits each owned block once. A quarantined object
   still owns its block until [recycle] releases it, so it is reachable
   from both the owner map and the queue: a queued object is skipped
   exactly when it is, physically, the owner at its [block_base]. *)

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

let note acc (o : Memobj.t) = (o, o.Memobj.status) :: acc

let note_unowned t acc (o : Memobj.t) =
  match Oracle.owner t.oracle o.Memobj.block_base with
  | Some owner when owner == o -> acc
  | Some _ | None -> note acc o

let cache_entries t =
  let acc = ref [] in
  for i = 0 to Array.length t.cache_lens - 1 do
    let len = t.cache_lens.(i) in
    if len <> no_len then acc := (len, t.cache_bases.(i)) :: !acc
  done;
  !acc

let snapshot t =
  let q = Quarantine.snapshot t.quarantine in
  let statuses = Oracle.fold_owners t.oracle note [] in
  let statuses =
    List.fold_left (note_unowned t) statuses (Quarantine.queued q)
  in
  {
    s_arena = Arena.snapshot t.arena;
    s_oracle = Oracle.snapshot t.oracle;
    s_quarantine = q;
    s_free_cache = cache_entries t;
    s_brk = t.brk;
    s_next_id = t.next_id;
    s_live_bytes = t.live_bytes;
    s_pressure_flushes = t.pressure_flushes;
    s_oom_countdown = t.oom_countdown;
    s_statuses = statuses;
  }

(* Restore allocates nothing: the free cache's table never shrinks, so the
   lengths of a snapshot of this heap fit without growing it, and the
   loops below are plain recursion, not closures over [t]. *)
let rec refill_cache t = function
  | [] -> ()
  | (len, bases) :: rest ->
    t.cache_bases.(slot_for t len) <- bases;
    refill_cache t rest

let rec write_statuses = function
  | [] -> ()
  | ((o : Memobj.t), st) :: rest ->
    o.Memobj.status <- st;
    write_statuses rest

let restore t s =
  Arena.restore t.arena s.s_arena;
  Oracle.restore t.oracle s.s_oracle;
  Quarantine.restore t.quarantine s.s_quarantine;
  (* an empty table restored to an empty cache (every fuzz exec that never
     recycles a block) is left alone *)
  if t.cache_used > 0 || s.s_free_cache <> [] then begin
    Array.fill t.cache_lens 0 (Array.length t.cache_lens) no_len;
    Array.fill t.cache_bases 0 (Array.length t.cache_bases) [];
    t.cache_used <- 0;
    refill_cache t s.s_free_cache
  end;
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
