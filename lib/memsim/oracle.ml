type byte_state = Unallocated | Addressable | Redzone | Freed

type t = {
  flags : Bytes.t;  (* one state byte per arena byte *)
  owners : Memobj.t option array;  (* one owner slot per 8-byte segment *)
  size : int;
  dirty : snapshot Dirty.t;  (* in bytes; owner segment k is bytes [8k, 8k+8) *)
}

and snapshot = { s_flags : Bytes.t; s_owners : Memobj.t option array }

let code = function
  | Unallocated -> '\000'
  | Addressable -> '\001'
  | Redzone -> '\002'
  | Freed -> '\003'

let decode = function
  | '\000' -> Unallocated
  | '\001' -> Addressable
  | '\002' -> Redzone
  | '\003' -> Freed
  | _ -> assert false

let create ~arena_size =
  let size = max 64 (Giantsan_util.Bitops.align_up 8 arena_size) in
  {
    flags = Bytes.make size '\000';
    owners = Array.make (size / 8) None;
    size;
    dirty = Dirty.create ~size;
  }

let check t lo hi =
  if lo < 0 || hi > t.size || lo > hi then
    invalid_arg (Printf.sprintf "Oracle: bad range [%d, %d)" lo hi)

let state t addr =
  check t addr (addr + 1);
  decode (Bytes.get t.flags addr)

let set_range t ~lo ~hi st =
  check t lo hi;
  Dirty.widen t.dirty ~lo ~hi;
  Bytes.fill t.flags lo (hi - lo) (code st)

let range_addressable t ~lo ~hi =
  check t lo hi;
  let rec go i = i >= hi || (Bytes.get t.flags i = '\001' && go (i + 1)) in
  go lo

let first_bad t ~lo ~hi =
  check t lo hi;
  let rec go i =
    if i >= hi then None
    else if Bytes.get t.flags i <> '\001' then Some i
    else go (i + 1)
  in
  go lo

let set_owner t ~lo ~hi obj =
  check t lo hi;
  Dirty.widen t.dirty ~lo ~hi;
  if hi > lo then
    for seg = lo / 8 to (hi - 1) / 8 do
      t.owners.(seg) <- obj
    done

let owner t addr =
  check t addr (addr + 1);
  t.owners.(addr / 8)

let fold_owners t f acc =
  Array.fold_left
    (fun acc slot -> match slot with Some o -> f acc o | None -> acc)
    acc t.owners

let snapshot t =
  let s = { s_flags = Bytes.copy t.flags; s_owners = Array.copy t.owners } in
  Dirty.arm t.dirty s;
  s

(* The window is in bytes; the owner slots it touches are the segments
   overlapping it, [lo / 8, ceil (hi / 8)). *)
let restore t s =
  assert (Bytes.length s.s_flags = t.size);
  Dirty.rewind t.dirty s;
  let lo = Dirty.lo t.dirty and hi = Dirty.hi t.dirty in
  if lo < hi then begin
    Bytes.blit s.s_flags lo t.flags lo (hi - lo);
    let seg_lo = lo / 8 and seg_hi = (hi + 7) / 8 in
    Array.blit s.s_owners seg_lo t.owners seg_lo (seg_hi - seg_lo)
  end;
  Dirty.clear t.dirty
