module Memsim = Giantsan_memsim

let arena (san : Sanitizer.t) = Memsim.Heap.arena san.Sanitizer.heap

let collect checks = List.filter_map Fun.id checks

(* Walk to the NUL byte (or the arena's end). The walk itself never
   reports: whatever range it touched is handed to the tool's own
   [check_region], so a tool is only credited with what its shadow actually
   detects. (An earlier version fabricated a [Wild_access] report for
   unterminated strings in the interceptor, crediting every tool — Native
   included — with a detection its shadow never made, which over-credited
   weak tools in differential runs.) *)
let scan_string (san : Sanitizer.t) ~addr =
  let a = arena san in
  let limit = Memsim.Arena.size a in
  let rec scan i =
    if addr >= 0 && addr + i < limit then
      if Memsim.Arena.load a ~addr:(addr + i) ~width:1 = 0 then (i, true)
      else scan (i + 1)
    else (i, false)
  in
  scan 0

let strlen_checked (san : Sanitizer.t) ~addr =
  let len, terminated = scan_string san ~addr in
  (* Terminated: validate the string plus its NUL as one region.
     Unterminated: validate the bytes the scan walked — at least one byte,
     so a pointer already outside the arena still exercises the tool's
     shadow (which is total: out-of-range segments read as unallocated). *)
  let hi =
    if terminated then addr + len + 1 else Int.max (addr + len) (addr + 1)
  in
  (len, terminated, collect [ san.Sanitizer.check_region ~lo:addr ~hi ])

let strlen (san : Sanitizer.t) ~addr =
  let len, _, reports = strlen_checked san ~addr in
  (len, reports)

(* A tool with no detector (Native) reaches the data operation even when
   the scan ran wild; clamp to the arena so the simulated undefined
   behaviour stays a missed detection instead of crashing the harness. *)
let clamped_blit (san : Sanitizer.t) ~src ~dst ~len =
  if src >= 0 && dst >= 0 then begin
    let limit = Memsim.Arena.size (arena san) in
    let n = Int.min len (Int.min (limit - src) (limit - dst)) in
    if n > 0 then Memsim.Arena.blit (arena san) ~src ~dst ~len:n
  end

let clamped_fill (san : Sanitizer.t) ~addr ~len byte =
  if addr >= 0 then begin
    let limit = Memsim.Arena.size (arena san) in
    let n = Int.min len (limit - addr) in
    if n > 0 then Memsim.Arena.fill (arena san) ~addr ~len:n byte
  end

let strcpy (san : Sanitizer.t) ~dst ~src =
  let len, terminated, src_reports = strlen_checked san ~addr:src in
  let dst_reports =
    collect [ san.Sanitizer.check_region ~lo:dst ~hi:(dst + len + 1) ]
  in
  let reports = src_reports @ dst_reports in
  if reports = [] then
    clamped_blit san ~src ~dst ~len:(if terminated then len + 1 else len);
  reports

let strncpy (san : Sanitizer.t) ~dst ~src ~n =
  if n <= 0 then []
  else begin
    let len, _, src_reports = strlen_checked san ~addr:src in
    let copy = Int.min n (len + 1) in
    let reports =
      (if copy < n then src_reports
       else collect [ san.Sanitizer.check_region ~lo:src ~hi:(src + n) ])
      @ collect [ san.Sanitizer.check_region ~lo:dst ~hi:(dst + n) ]
    in
    if reports = [] then begin
      clamped_blit san ~src ~dst ~len:copy;
      if copy < n then clamped_fill san ~addr:(dst + copy) ~len:(n - copy) 0
    end;
    reports
  end

let strcat (san : Sanitizer.t) ~dst ~src =
  let dlen, dst_reports = strlen san ~addr:dst in
  if dst_reports <> [] then dst_reports
  else strcpy san ~dst:(dst + dlen) ~src

let memmove (san : Sanitizer.t) ~dst ~src ~n =
  if n <= 0 then []
  else begin
    let reports =
      collect
        [
          san.Sanitizer.check_region ~lo:src ~hi:(src + n);
          san.Sanitizer.check_region ~lo:dst ~hi:(dst + n);
        ]
    in
    if reports = [] then clamped_blit san ~src ~dst ~len:n;
    reports
  end

let memset (san : Sanitizer.t) ~dst ~n ~byte =
  if n <= 0 then []
  else begin
    let reports = collect [ san.Sanitizer.check_region ~lo:dst ~hi:(dst + n) ] in
    if reports = [] then clamped_fill san ~addr:dst ~len:n byte;
    reports
  end

let calloc (san : Sanitizer.t) ~count ~size =
  assert (count >= 0 && size >= 0);
  let total = count * size in
  let obj = san.Sanitizer.malloc total in
  if total > 0 then
    Memsim.Arena.fill (arena san) ~addr:obj.Memsim.Memobj.base ~len:total 0;
  obj

let realloc (san : Sanitizer.t) ~ptr ~size =
  if ptr = 0 then Ok (san.Sanitizer.malloc size)
  else
    match Memsim.Heap.find_object san.Sanitizer.heap ptr with
    | Some old
      when old.Memsim.Memobj.status = Memsim.Memobj.Live
           && old.Memsim.Memobj.base = ptr ->
      let fresh = san.Sanitizer.malloc size in
      let keep = Int.min size old.Memsim.Memobj.size in
      if keep > 0 then
        Memsim.Arena.blit (arena san) ~src:ptr
          ~dst:fresh.Memsim.Memobj.base ~len:keep;
      (match san.Sanitizer.free ptr with
      | None -> Ok fresh
      | Some r -> Error r)
    | _ -> (
      (* wild / mid-object / stale pointer: let free's detector speak *)
      match san.Sanitizer.free ptr with
      | Some r -> Error r
      | None ->
        Error
          (Report.make ~kind:Report.Invalid_free ~addr:ptr ~size:0
             ~detected_by:san.Sanitizer.name))
