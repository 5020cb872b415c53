module Memsim = Giantsan_memsim
module Histogram = Giantsan_telemetry.Histogram

(* History-caching state (§4.3), generalized from the original single
   quasi-bound slot into a small MRU window history (the UM's two-slot
   recent-segment idiom). Each window [w_lo, w_hi) records a span of
   absolute addresses proven addressable at the time it was stored; a
   window is empty iff w_lo >= w_hi. Slot 0 is the most recently used;
   [cache_note] merges overlapping/adjacent windows and evicts the least
   recent when the slots overflow, so an evicted bound is always one that
   was itself proven — eviction can never manufacture a claim. Carrying
   windows (a lower AND an upper edge) instead of a single upper bound is
   what lets descending and strided access streams hit cache: the fix for
   the fig11 reverse-traversal regression. *)
type window = { mutable w_lo : int; mutable w_hi : int }
type cache = { mutable cache_base : int; windows : window array }

let mru_slots = 3

let new_cache ~base =
  { cache_base = base;
    windows = Array.init mru_slots (fun _ -> { w_lo = 0; w_hi = 0 }) }

let cache_windows c =
  Array.to_list c.windows
  |> List.filter_map (fun w ->
         if w.w_lo < w.w_hi then Some (w.w_lo, w.w_hi) else None)

(* Quasi-bound view for telemetry and compatibility: how far above
   [cache_base] the cache currently vouches. *)
let cache_ub c =
  let ub = ref 0 in
  for k = 0 to Array.length c.windows - 1 do
    let w = c.windows.(k) in
    if w.w_lo < w.w_hi && w.w_lo <= c.cache_base && w.w_hi > c.cache_base
    then ub := Int.max !ub (w.w_hi - c.cache_base)
  done;
  !ub

(* The window helpers below move window {e contents} between slots, never
   the window records, and use no closures, options or lists: a cache hit
   or a merge allocates nothing. *)

(* Shift slots [0, k) one place towards the back (slot [k] is
   overwritten), freeing slot 0. *)
let shift_back ws k =
  for j = k downto 1 do
    let src = ws.(j - 1) and dst = ws.(j) in
    dst.w_lo <- src.w_lo;
    dst.w_hi <- src.w_hi
  done

let cache_hit c ~lo ~hi =
  hi <= lo
  ||
  let ws = c.windows in
  let n = Array.length ws in
  let k = ref 0 in
  while
    !k < n
    &&
    let w = ws.(!k) in
    not (w.w_lo < w.w_hi && w.w_lo <= lo && hi <= w.w_hi)
  do
    incr k
  done;
  !k < n
  && begin
       (* promote the covering window to the MRU front *)
       let k = !k in
       let w = ws.(k) in
       let wlo = w.w_lo and whi = w.w_hi in
       shift_back ws k;
       ws.(0).w_lo <- wlo;
       ws.(0).w_hi <- whi;
       true
     end

let cache_note c ~lo ~hi =
  if hi > lo then begin
    let ws = c.windows in
    let n = Array.length ws in
    (* union with every overlapping-or-adjacent window, to fixpoint (a
       grown union can newly touch a window an earlier pass skipped);
       [absorbed] is a bit set over the slots *)
    let glo = ref lo and ghi = ref hi in
    let absorbed = ref 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      for k = 0 to n - 1 do
        let w = ws.(k) in
        if
          !absorbed land (1 lsl k) = 0
          && w.w_lo < w.w_hi
          && w.w_lo <= !ghi
          && !glo <= w.w_hi
        then begin
          glo := Int.min !glo w.w_lo;
          ghi := Int.max !ghi w.w_hi;
          absorbed := !absorbed lor (1 lsl k);
          changed := true
        end
      done
    done;
    (* surviving disjoint windows keep their recency order, compacted to
       the front ([keep] of them); then they step back one slot behind the
       merged window, and the least recent falls off *)
    let keep = ref 0 in
    for k = 0 to n - 1 do
      let w = ws.(k) in
      if !absorbed land (1 lsl k) = 0 && w.w_lo < w.w_hi then begin
        let dst = ws.(!keep) in
        dst.w_lo <- w.w_lo;
        dst.w_hi <- w.w_hi;
        incr keep
      end
    done;
    shift_back ws (Int.min !keep (n - 1));
    ws.(0).w_lo <- !glo;
    ws.(0).w_hi <- !ghi;
    for k = !keep + 1 to n - 1 do
      ws.(k).w_lo <- 0;
      ws.(k).w_hi <- 0
    done
  end

type t = {
  name : string;
  heap : Memsim.Heap.t;
  counters : Counters.t;
  hists : Histogram.set;
  shadow_loads : unit -> int;
  shadow_stores : unit -> int;
  malloc : ?kind:Memsim.Memobj.kind -> int -> Memsim.Memobj.t;
  free : int -> Report.t option;
  access : base:int -> addr:int -> width:int -> Report.t option;
  check_region : lo:int -> hi:int -> Report.t option;
  new_cache : base:int -> cache;
  cached_access : cache -> off:int -> width:int -> Report.t option;
  flush_cache : cache -> Report.t option;
  snapshot : unit -> unit;
  restore : unit -> unit;
}

let report_access ~name heap counters ~anchor ~addr ~size =
  counters.Counters.errors <- counters.Counters.errors + 1;
  let r =
    Report.make
      ~kind:(Report.classify_access heap ~addr ~anchor)
      ~addr ~size ~detected_by:name
  in
  Giantsan_telemetry.Trace.emit_report ~tool:name
    ~kind:(Report.kind_name r.Report.kind) ~addr;
  Some r

module Registry = struct
  type cell = {
    c_name : string;
    c_counters : Counters.t;
    c_hists : Histogram.set;
  }

  (* [on] follows the initialized-before-fork discipline (flip it only while
     no worker domain runs); [cells] is the one piece of cross-domain shared
     state in the system, so pushes and reads go through a mutex. Snapshot
     aggregation is commutative (counter addition, histogram merge) and the
     result is sorted by name, so the summary is deterministic no matter
     which domain registered first. *)
  let on = ref false
  let lock = Mutex.create ()
  let cells : cell list ref = ref []
  let enable () = on := true
  let disable () = on := false
  let is_on () = !on
  let clear () = Mutex.protect lock (fun () -> cells := [])

  let register t =
    if !on then
      Mutex.protect lock (fun () ->
          cells :=
            { c_name = t.name; c_counters = t.counters; c_hists = t.hists }
            :: !cells)

  let snapshot () =
    let cells = Mutex.protect lock (fun () -> !cells) in
    let by_name = Hashtbl.create 8 in
    List.iter
      (fun c ->
        match Hashtbl.find_opt by_name c.c_name with
        | None ->
          let acc = Counters.create () in
          Counters.add acc c.c_counters;
          Hashtbl.replace by_name c.c_name
            (acc, Histogram.merge_set (Histogram.create_set ()) c.c_hists)
        | Some (acc, hists) ->
          Counters.add acc c.c_counters;
          Hashtbl.replace by_name c.c_name
            (acc, Histogram.merge_set hists c.c_hists))
      cells;
    Hashtbl.fold
      (fun name (acc, hists) l -> (name, Counters.to_assoc acc, hists) :: l)
      by_name []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
end

let free_error_report ~name ~addr err =
  let kind =
    match err with
    | Memsim.Heap.Free_null -> None
    | Memsim.Heap.Invalid_free -> Some Report.Invalid_free
    | Memsim.Heap.Free_not_at_start -> Some Report.Free_not_at_start
    | Memsim.Heap.Double_free -> Some Report.Double_free
  in
  Option.map
    (fun kind -> Report.make ~kind ~addr ~size:0 ~detected_by:name)
    kind

(* The runtime skeleton every backend shares: allocator bookkeeping, the
   free-error path, the one snapshot slot and registration. A backend
   supplies its metadata plane (hooks and a capture that returns its own
   restorer) and its checks; the checks are stored exactly as passed, so a
   check call costs no extra indirection. [detector:false] (Native) reports
   nothing and emits no trace events. *)
let make ~name ?(detector = true) ~heap ~counters ~hists
    ?(loads = fun () -> 0) ?(stores = fun () -> 0)
    ?(on_malloc = fun _ -> ()) ?(on_free = fun ~freed:_ ~evicted:_ -> ())
    ?(plane = fun () () -> ()) ~access ~check_region ~cached_access
    ?(flush_cache = fun _ -> None) () =
  let malloc ?kind size =
    counters.Counters.mallocs <- counters.Counters.mallocs + 1;
    let obj = Memsim.Heap.malloc heap ?kind size in
    on_malloc obj;
    if detector then
      Giantsan_telemetry.Trace.emit_malloc ~tool:name
        ~base:obj.Memsim.Memobj.base ~size
        ~kind:(Memsim.Memobj.kind_name obj.Memsim.Memobj.kind);
    obj
  in
  let free ptr =
    counters.Counters.frees <- counters.Counters.frees + 1;
    if detector then Giantsan_telemetry.Trace.emit_free ~tool:name ~addr:ptr;
    match Memsim.Heap.free heap ptr with
    | Ok { Memsim.Heap.freed; evicted } ->
      on_free ~freed ~evicted;
      None
    | Error _ when not detector ->
      (* no detector: invalid frees go unnoticed (they would corrupt a
         real heap) *)
      None
    | Error err ->
      let r = free_error_report ~name ~addr:ptr err in
      (match r with
      | Some { Report.kind; _ } ->
        counters.Counters.errors <- counters.Counters.errors + 1;
        Giantsan_telemetry.Trace.emit_report ~tool:name
          ~kind:(Report.kind_name kind) ~addr:ptr
      | None -> ());
      r
  in
  (* One slot is all the fuzz-mode profile needs: each exec restores to the
     same pristine point, and re-snapshotting overwrites it. *)
  let slot = ref None in
  let snapshot () =
    let saved = Counters.create () in
    Counters.add saved counters;
    slot := Some (Memsim.Heap.snapshot heap, plane (), saved)
  in
  let restore () =
    match !slot with
    | None -> invalid_arg "Sanitizer.restore: no snapshot taken"
    | Some (hs, restore_plane, saved) ->
      Memsim.Heap.restore heap hs;
      restore_plane ();
      Counters.reset counters;
      Counters.add counters saved
  in
  let t =
    { name; heap; counters; hists; shadow_loads = loads;
      shadow_stores = stores; malloc; free; access; check_region; new_cache;
      cached_access; flush_cache; snapshot; restore }
  in
  Registry.register t;
  t
