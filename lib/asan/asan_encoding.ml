module Shadow_mem = Giantsan_shadow.Shadow_mem
module Memobj = Giantsan_memsim.Memobj

let good = 0

let partial k =
  assert (k >= 1 && k <= 7);
  k

let heap_redzone = 0xfa
let freed = 0xfd
let stack_redzone = 0xf1
let global_redzone = 0xf9
let unallocated = 0xfe

let decode_signed v = if v >= 128 then v - 256 else v
let is_error_code v = v >= 128

let addressable_in_segment v =
  if v = 0 then 8 else if v >= 1 && v <= 7 then v else 0

let redzone_code = function
  | Memobj.Heap -> heap_redzone
  | Memobj.Stack -> stack_redzone
  | Memobj.Global -> global_redzone

let poison_alloc m (obj : Memobj.t) =
  let rz = redzone_code obj.kind in
  let base_seg = obj.base / 8 in
  let full = obj.size / 8 in
  let rem = obj.size mod 8 in
  (* left redzone *)
  Shadow_mem.fill_range m ~lo:(obj.block_base / 8) ~hi:base_seg rz;
  (* good segments *)
  Shadow_mem.fill_range m ~lo:base_seg ~hi:(base_seg + full) good;
  (* trailing partial segment, if the size is not 8-aligned *)
  let after = if rem > 0 then begin
      Shadow_mem.set m (base_seg + full) (partial rem);
      base_seg + full + 1
    end
    else base_seg + full
  in
  (* right redzone *)
  Shadow_mem.fill_range m ~lo:after ~hi:(Memobj.block_end obj / 8) rz

(* The segments the object's bytes touch; bounds as two lets, not a
   tuple, so freeing allocates nothing. *)
let poison_free m (obj : Memobj.t) =
  let lo = obj.base / 8 in
  let hi = if obj.size = 0 then lo else ((obj.base + obj.size - 1) / 8) + 1 in
  Shadow_mem.fill_range m ~lo ~hi freed

let poison_evict m (obj : Memobj.t) =
  Shadow_mem.fill_range m ~lo:(obj.block_base / 8) ~hi:(Memobj.block_end obj / 8)
    unallocated
