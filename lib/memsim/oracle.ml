type byte_state = Unallocated | Addressable | Redzone | Freed

(* The owner map is two planes:
   - [heads]: a native-endian int32 per 8-byte segment, the head (first
     segment) of the block covering it, or -1;
   - [objs.(h / 2)]: the object whose block starts at segment [h]. Every
     block spans at least 2 segments, so two blocks never share a slot.
   [heads] holds no pointers, so claiming a block costs one write barrier,
   for its [objs] store, not one per segment. Byte states are not stored:
   {!state} derives them from the owner and its [status]. *)
type t = {
  heads : Bytes.t;
  objs : Memobj.t option array;
  size : int;
  dirty : snapshot Dirty.t;  (* in bytes; segment k is bytes [8k, 8k+8) *)
}

and snapshot = { s_heads : Bytes.t; s_objs : Memobj.t option array }

let create ~arena_size =
  let size = Int.max 64 (Giantsan_util.Bitops.align_up 8 arena_size) in
  let segments = size / 8 in
  {
    heads = Bytes.make (4 * segments) '\255';
    objs = Array.make ((segments + 1) / 2) None;
    size;
    dirty = Dirty.create ~size;
  }

let bad_range lo hi =
  invalid_arg (Printf.sprintf "Oracle: bad range [%d, %d)" lo hi)

(* Inlined, with the error path out of line: [owner] runs on every LFP
   and PAC access. *)
let[@inline] check t lo hi =
  if lo < 0 || hi > t.size || lo > hi then bad_range lo hi

(* Unchecked: every caller passes a segment of the arena. *)
external get_int32_unsafe : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set_int32_unsafe : Bytes.t -> int -> int32 -> unit
  = "%caml_bytes_set32u"

let head t seg = Int32.to_int (get_int32_unsafe t.heads (4 * seg))

(* The checks both block-granular mutators share. Returns the head
   segment of [obj]'s block (a tuple would allocate). *)
let block_head t (obj : Memobj.t) =
  let lo = obj.block_base in
  let hi = lo + obj.block_len in
  check t lo hi;
  assert (lo land 7 = 0 && obj.block_len land 7 = 0 && obj.block_len >= 16);
  Dirty.widen t.dirty ~lo ~hi;
  lo / 8

(* Blocks up to twice this many segments are filled by the store loop
   alone; longer ones get this many stores, then [double_heads]. The loop
   and the blits cost the same at about 28 segments (EXPERIMENTS.md,
   "Allocation-free write side"). *)
let seed_segments = 16

(* Heads [h, h + filled) all hold [h]: copy them onto the next [filled]
   (or fewer, at the end) until [h, h + n) is covered, one blit per
   doubling. The two ranges of a blit never overlap. *)
let rec double_heads heads h ~filled n =
  if filled < n then begin
    let c = Int.min filled (n - filled) in
    Bytes.unsafe_blit heads (4 * h) heads (4 * (h + filled)) (4 * c);
    double_heads heads h ~filled:(filled + c) n
  end

let claim t (obj : Memobj.t) =
  let h = block_head t obj in
  let n = obj.block_len / 8 in
  let seeded = if n <= 2 * seed_segments then n else seed_segments in
  let h32 = Int32.of_int h in
  for seg = h to h + seeded - 1 do
    set_int32_unsafe t.heads (4 * seg) h32
  done;
  double_heads t.heads h ~filled:seeded n;
  t.objs.(h / 2) <- Some obj

let release t (obj : Memobj.t) =
  let h = block_head t obj in
  Bytes.fill t.heads (4 * h) (4 * (obj.block_len / 8)) '\255';
  t.objs.(h / 2) <- None

let owner t addr =
  check t addr (addr + 1);
  let h = head t (addr lsr 3) in
  if h < 0 then None else t.objs.(h lsr 1)

(* [addr]'s state inside the block of its owner [o]. The owner map never
   holds a [Recycled] object: [Heap.recycle] releases the block first. *)
let object_state (o : Memobj.t) addr =
  if addr < o.base || addr >= o.base + o.size then Redzone
  else
    match o.status with
    | Live -> Addressable
    | Quarantined -> Freed
    | Recycled -> assert false

let state t addr =
  match owner t addr with None -> Unallocated | Some o -> object_state o addr

(* One owner lookup per object the range crosses, not one per byte: an
   addressable byte vouches for the rest of its object's bytes. *)
let first_bad t ~lo ~hi =
  check t lo hi;
  let rec go i =
    if i >= hi then None
    else
      match owner t i with
      | Some o when object_state o i = Addressable -> go (o.base + o.size)
      | _ -> Some i
  in
  go lo

let range_addressable t ~lo ~hi = Option.is_none (first_bad t ~lo ~hi)

let fold_owners t f acc =
  let rec go seg acc =
    if seg >= t.size / 8 then acc
    else if head t seg <> seg then go (seg + 1) acc
    else
      match t.objs.(seg / 2) with
      | Some o -> go (seg + 1) (f acc o)
      | None -> assert false
  in
  go 0 acc

let snapshot t =
  let s = { s_heads = Bytes.copy t.heads; s_objs = Array.copy t.objs } in
  Dirty.arm t.dirty s;
  s

(* The window is in bytes. The heads it touches are those of the segments
   overlapping it, [lo / 8, ceil (hi / 8)); every object slot a claim or
   release wrote since the snapshot is the slot of one of those heads. *)
let restore t s =
  assert (Bytes.length s.s_heads = Bytes.length t.heads);
  Dirty.rewind t.dirty s;
  let lo = Dirty.lo t.dirty and hi = Dirty.hi t.dirty in
  if lo < hi then begin
    let seg_lo = lo / 8 and seg_hi = (hi + 7) / 8 in
    Bytes.blit s.s_heads (4 * seg_lo) t.heads (4 * seg_lo)
      (4 * (seg_hi - seg_lo));
    let slot_lo = seg_lo / 2 and slot_hi = (seg_hi + 1) / 2 in
    Array.blit s.s_objs slot_lo t.objs slot_lo (slot_hi - slot_lo)
  end;
  Dirty.clear t.dirty
