module Bitops = Giantsan_util.Bitops
module Memsim = Giantsan_memsim
module Memobj = Memsim.Memobj
module Heap = Memsim.Heap
module State_code = Giantsan_core.State_code
module Folding = Giantsan_core.Folding
module Report = Giantsan_sanitizer.Report

module IntMap = Map.Make (Int)

type status = Live | Quarantined

type obj = {
  o_id : int;
  o_kind : Memobj.kind;
  o_base : int;
  o_size : int;
  o_block_base : int;
  o_block_len : int;
  o_status : status;
}

type t = {
  arena_size : int;
  redzone : int;
  budget : int;
  objects : obj IntMap.t;  (* live + quarantined; recycled objects vanish *)
  data : int IntMap.t;  (* arena byte -> value; absent = 0 *)
  fifo : int list;  (* quarantined heap object ids, oldest first *)
  held : int;
  bypasses : int;
  live_bytes : int;
}

let create (config : Heap.config) =
  {
    (* Arena.create rounds the same way, so the model and the real arena
       agree on where "outside" begins. *)
    arena_size = max 64 (Bitops.align_up 8 config.Heap.arena_size);
    redzone = config.Heap.redzone;
    budget = config.Heap.quarantine_budget;
    objects = IntMap.empty;
    data = IntMap.empty;
    fifo = [];
    held = 0;
    bypasses = 0;
    live_bytes = 0;
  }

let arena_size t = t.arena_size
let segments t = t.arena_size / 8
let live_bytes t = t.live_bytes
let quarantine_ids t = t.fifo
let quarantine_held t = t.held
let quarantine_length t = List.length t.fifo
let quarantine_bypasses t = t.bypasses

let obj_block_end o = o.o_block_base + o.o_block_len

let find_object t addr =
  if addr < 0 || addr >= t.arena_size then None
  else
    IntMap.fold
      (fun _ o acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if addr >= o.o_block_base && addr < obj_block_end o then Some o
          else None)
      t.objects None

(* ------------------------------------------------------------------ *)
(* Allocation: a specification operation parameterized by the          *)
(* implementation's placement choice (Fiat-style nondeterminism).      *)
(* ------------------------------------------------------------------ *)

type placement = {
  p_id : int;
  p_base : int;
  p_block_base : int;
  p_block_len : int;
}

let placement_of_obj (o : Memobj.t) =
  {
    p_id = o.Memobj.id;
    p_base = o.Memobj.base;
    p_block_base = o.Memobj.block_base;
    p_block_len = o.Memobj.block_len;
  }

(* The model does not choose where blocks go — the allocator does. The
   spec's job is to validate that the choice is one the paper's layout
   permits: an 8-aligned block inside the arena (above the null guard),
   with a full left redzone, at least the layout's right redzone, and no
   overlap with any block whose memory is still spoken for. *)
let alloc t ~kind ~size (p : placement) =
  let left = Bitops.align_up 8 t.redzone in
  let min_len = left + size + (Bitops.align_up 8 (size + t.redzone) - size) in
  if size < 0 then Error "negative size"
  else if IntMap.mem p.p_id t.objects then Error "id reused while still owned"
  else if
    p.p_base land 7 <> 0 || p.p_block_base land 7 <> 0
    || p.p_block_len land 7 <> 0
  then Error "misaligned placement"
  else if p.p_base <> p.p_block_base + left then
    Error "object base not at the left-redzone boundary"
  else if p.p_block_len < min_len then Error "block smaller than the layout"
  else if p.p_block_base < 64 then Error "block inside the null guard"
  else if p.p_block_base + p.p_block_len > t.arena_size then
    Error "block past the arena end"
  else if
    IntMap.exists
      (fun _ o ->
        not
          (p.p_block_base + p.p_block_len <= o.o_block_base
          || obj_block_end o <= p.p_block_base))
      t.objects
  then Error "block overlaps a live or quarantined block"
  else
    let o =
      {
        o_id = p.p_id;
        o_kind = kind;
        o_base = p.p_base;
        o_size = size;
        o_block_base = p.p_block_base;
        o_block_len = p.p_block_len;
        o_status = Live;
      }
    in
    Ok
      {
        t with
        objects = IntMap.add o.o_id o t.objects;
        live_bytes = t.live_bytes + size;
      }

(* ------------------------------------------------------------------ *)
(* Free and the FIFO quarantine                                        *)
(* ------------------------------------------------------------------ *)

let evict t id = { t with objects = IntMap.remove id t.objects }

(* Mirror of Quarantine.push: append, evict oldest while over budget but
   never the newcomer itself, count a bypass when the newcomer alone still
   exceeds the budget. *)
let quarantine_push t o =
  let fifo = t.fifo @ [ o.o_id ] in
  let held = t.held + o.o_block_len in
  let rec drain fifo held t =
    match fifo with
    | oldest :: rest when held > t.budget && rest <> [] ->
      let ob = IntMap.find oldest t.objects in
      drain rest (held - ob.o_block_len) (evict t oldest)
    | _ -> (fifo, held, t)
  in
  let fifo, held, t = drain fifo held t in
  let bypasses = if held > t.budget then t.bypasses + 1 else t.bypasses in
  { t with fifo; held; bypasses }

let free t ~ptr =
  if ptr = 0 then Error Heap.Free_null
  else
    match find_object t ptr with
    | None -> Error Heap.Invalid_free
    | Some o ->
      if o.o_status <> Live then Error Heap.Double_free
      else if ptr <> o.o_base then Error Heap.Free_not_at_start
      else
        let o = { o with o_status = Quarantined } in
        let t =
          {
            t with
            objects = IntMap.add o.o_id o t.objects;
            live_bytes = t.live_bytes - o.o_size;
          }
        in
        Ok
          (match o.o_kind with
          | Memobj.Heap -> quarantine_push t o
          | Memobj.Stack | Memobj.Global ->
            (* not quarantined: reusable as soon as the frame pops *)
            evict t o.o_id)

let flush_quarantine t =
  let t = List.fold_left evict t t.fifo in
  { t with fifo = []; held = 0 }

(* ------------------------------------------------------------------ *)
(* Arena data as a finite map                                          *)
(* ------------------------------------------------------------------ *)

let peek_byte t addr =
  match IntMap.find_opt addr t.data with Some v -> v | None -> 0

let write_byte t addr v =
  { t with data = IntMap.add addr (v land 0xff) t.data }

(* Clamp semantics of Interceptors.clamped_fill: negative destinations are
   a no-op, the tail past the arena is silently dropped. *)
let memset t ~dst ~n byte =
  if dst < 0 then t
  else
    let n = min n (t.arena_size - dst) in
    let rec go t i = if i >= n then t else go (write_byte t (dst + i) byte) (i + 1) in
    go t 0

(* Clamp semantics of Interceptors.clamped_blit, with memmove overlap
   behaviour: read everything before writing anything. *)
let memmove t ~src ~dst ~n =
  if src < 0 || dst < 0 then t
  else
    let n = min n (min (t.arena_size - src) (t.arena_size - dst)) in
    if n <= 0 then t
    else
      let bytes = List.init n (fun i -> peek_byte t (src + i)) in
      List.fold_left
        (fun (t, i) v -> (write_byte t (dst + i) v, i + 1))
        (t, 0) bytes
      |> fst

let blit_exact t ~src ~dst ~len = memmove t ~src ~dst ~n:len

(* ------------------------------------------------------------------ *)
(* Ground truth per byte, and the reference shadow                     *)
(* ------------------------------------------------------------------ *)

type byte_state = Unallocated | Addressable | Redzone | Freed

let byte_state t addr =
  match find_object t addr with
  | None -> Unallocated
  | Some o ->
    if addr >= o.o_base && addr < o.o_base + o.o_size then
      match o.o_status with Live -> Addressable | Quarantined -> Freed
    else Redzone

let range_addressable t ~lo ~hi =
  hi <= lo
  || lo >= 0
     && hi <= t.arena_size
     && (let rec go a = a >= hi || (byte_state t a = Addressable && go (a + 1)) in
         go lo)

(* The one shadow code a segment inside an object's block must carry: left
   redzone, folded good run with degree [degree_at (count - j)], trailing
   partial, right redzone — freed codes over the payload once the object is
   quarantined (§4.1). Shared verbatim with the chaos self-check, so the
   model and the live audit can never disagree about what "correct" means. *)
let code_in_object ~live ~kind ~base ~size seg =
  let base_seg = base / 8 in
  let full = size / 8 in
  let rem = size mod 8 in
  let rz = State_code.redzone_code kind in
  if seg < base_seg then rz
  else if seg < base_seg + full then
    if live then
      State_code.folded (Folding.degree_at ~good_segments:(base_seg + full - seg))
    else State_code.freed
  else if seg = base_seg + full && rem > 0 then
    if live then State_code.partial rem else State_code.freed
  else rz

(* One pass over the object table instead of an owner lookup per segment:
   blocks never overlap, so painting each block over an unallocated
   background gives every segment its owner's [code_in_object]. *)
let shadow_array t =
  let out = Array.make (segments t) State_code.unallocated in
  IntMap.iter
    (fun _ o ->
      for seg = o.o_block_base / 8 to (obj_block_end o / 8) - 1 do
        out.(seg) <-
          code_in_object ~live:(o.o_status = Live) ~kind:o.o_kind ~base:o.o_base
            ~size:o.o_size seg
      done)
    t.objects;
  out

(* ------------------------------------------------------------------ *)
(* Report classification, mirroring Report.classify_access             *)
(* ------------------------------------------------------------------ *)

let classify t ~addr ~base =
  if addr < 64 then Report.Null_dereference
  else if addr >= t.arena_size then Report.Wild_access
  else
    match byte_state t addr with
    | Freed -> Report.Use_after_free
    | Unallocated -> Report.Wild_access
    | Redzone | Addressable -> (
      match find_object t addr with
      | None -> Report.Wild_access
      | Some o ->
        let underflow =
          match base with Some b -> addr < b | None -> addr < o.o_base
        in
        (match o.o_kind with
        | Memobj.Heap ->
          if underflow then Report.Heap_buffer_underflow
          else Report.Heap_buffer_overflow
        | Memobj.Stack ->
          if underflow then Report.Stack_buffer_underflow
          else Report.Stack_buffer_overflow
        | Memobj.Global -> Report.Global_buffer_overflow))
