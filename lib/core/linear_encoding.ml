module Shadow_mem = Giantsan_shadow.Shadow_mem
module Memobj = Giantsan_memsim.Memobj

let max_run = 63

(* Every run ends in the same descending ramp max_run, .., 2, 1; positions
   further than [max_run] from the end saturate at [max_run]. One fixed
   ramp template plus a fill covers any run length in two batched writes. *)
let ramp =
  Bytes.init max_run (fun i -> Char.chr (max_run - i))

let poison_good_run m ~first_seg ~count =
  if count > 0 then begin
    let tail = Int.min count max_run in
    Shadow_mem.fill_range m ~lo:first_seg ~hi:(first_seg + count - tail) max_run;
    Shadow_mem.blit_pattern m ~lo:(first_seg + count - tail) ~pattern:ramp
      ~pat_off:(max_run - tail) ~len:tail
  end

let poison_alloc m (obj : Memobj.t) =
  let rz = State_code.redzone_code obj.kind in
  let base_seg = obj.base / 8 in
  let full = obj.size / 8 in
  let rem = obj.size mod 8 in
  Shadow_mem.fill_range m ~lo:(obj.block_base / 8) ~hi:base_seg rz;
  poison_good_run m ~first_seg:base_seg ~count:full;
  let after =
    if rem > 0 then begin
      Shadow_mem.set m (base_seg + full) (State_code.partial rem);
      base_seg + full + 1
    end
    else base_seg + full
  in
  Shadow_mem.fill_range m ~lo:after ~hi:(Memobj.block_end obj / 8) rz

let check m ~l ~r =
  assert (l land 7 = 0);
  if r <= l then true
  else begin
    let last_seg = (r - 1) / 8 in
    (* hop whole-good runs until the final (possibly partial) segment *)
    let rec hop p =
      if p > last_seg then true
      else begin
        let v = Shadow_mem.load m p in
        if v >= 1 && v <= max_run then
          if p + v > last_seg then
            (* the run covers through the last segment; the tail bytes of
               the last segment only matter when r is unaligned, and a good
               segment covers them too *)
            true
          else hop (p + v)
        else if p = last_seg then
          (* partial segment allowed only at the very end *)
          State_code.addressable_in_segment v >= ((r - 1) land 7) + 1
        else false
      end
    in
    hop (l / 8)
  end

let check_unaligned m ~l ~r = check m ~l:(l land lnot 7) ~r
