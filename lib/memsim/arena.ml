type t = { data : Bytes.t; size : int; dirty : snapshot Dirty.t }
and snapshot = Bytes.t

let create ~size =
  let size = Int.max 64 (Giantsan_util.Bitops.align_up 8 size) in
  { data = Bytes.make size '\000'; size; dirty = Dirty.create ~size }

let size t = t.size

let check_range t addr width =
  if addr < 0 || width < 0 || addr + width > t.size then
    invalid_arg
      (Printf.sprintf "Arena: access [%d, %d) outside arena of %d bytes" addr
         (addr + width) t.size)

let load t ~addr ~width =
  check_range t addr width;
  match width with
  | 1 -> Char.code (Bytes.get t.data addr)
  | 2 -> Bytes.get_uint16_le t.data addr
  | 4 -> Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFFFFFF
  | 8 -> Int64.to_int (Bytes.get_int64_le t.data addr)
  | _ -> invalid_arg "Arena.load: width must be 1, 2, 4 or 8"

let store t ~addr ~width v =
  check_range t addr width;
  Dirty.widen t.dirty ~lo:addr ~hi:(addr + width);
  match width with
  | 1 -> Bytes.set t.data addr (Char.chr (v land 0xFF))
  | 2 -> Bytes.set_uint16_le t.data addr (v land 0xFFFF)
  | 4 -> Bytes.set_int32_le t.data addr (Int32.of_int v)
  | 8 -> Bytes.set_int64_le t.data addr (Int64.of_int v)
  | _ -> invalid_arg "Arena.store: width must be 1, 2, 4 or 8"

let fill t ~addr ~len byte =
  check_range t addr len;
  Dirty.widen t.dirty ~lo:addr ~hi:(addr + len);
  Bytes.fill t.data addr len (Char.chr (byte land 0xFF))

let blit t ~src ~dst ~len =
  check_range t src len;
  check_range t dst len;
  Dirty.widen t.dirty ~lo:dst ~hi:(dst + len);
  Bytes.blit t.data src t.data dst len

let snapshot t =
  let s = Bytes.copy t.data in
  Dirty.arm t.dirty s;
  s

let restore t s =
  assert (Bytes.length s = t.size);
  Dirty.rewind t.dirty s;
  let lo = Dirty.lo t.dirty and hi = Dirty.hi t.dirty in
  if lo < hi then Bytes.blit s lo t.data lo (hi - lo);
  Dirty.clear t.dirty
