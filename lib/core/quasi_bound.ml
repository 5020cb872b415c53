module Shadow_mem = Giantsan_shadow.Shadow_mem
module Counters = Giantsan_sanitizer.Counters
module San = Giantsan_sanitizer.Sanitizer

type result = Ok_cached | Ok_checked | Bad of int

(* Record the overflow side [base, hi_checked) just proven safe, extended
   by the folded segment at [probe] (Figure 9 lines 6-7: one extra
   metadata load enlarges the bound past the access). The extension is
   anchored at the probe's segment start — the sound reading documented in
   DESIGN.md — and can never shrink what the check itself proved. *)
let refresh_above m (c : Counters.t) (cache : San.cache) ~hi_checked ~probe =
  c.cache_updates <- c.cache_updates + 1;
  let v = Shadow_mem.load m (probe / 8) in
  let ext = (probe land lnot 7) + State_code.covered_bytes v in
  San.cache_note cache ~lo:cache.San.cache_base ~hi:(max hi_checked ext)

let access m (c : Counters.t) (cache : San.cache) ~off ~width =
  let base = cache.San.cache_base in
  if off >= 0 then begin
    if San.cache_hit cache ~lo:base ~hi:(base + off + width) then begin
      c.cache_hits <- c.cache_hits + 1;
      Ok_cached
    end
    else begin
      let outcome = Region_check.check m ~l:base ~r:(base + off + width) in
      Region_check.count c outcome;
      match outcome with
      | Region_check.Bad a -> Bad a
      | Region_check.Safe_fast | Region_check.Safe_slow
      | Region_check.Safe_word ->
        refresh_above m c cache ~hi_checked:(base + off + width)
          ~probe:(base + off);
        Ok_checked
    end
  end
  else begin
    let addr = base + off in
    (* Underflow side [addr, base). The original Figure 9 lines 9-11 issue
       a dedicated CI(y + off, y) on EVERY such access — the single-sided
       summary had no lower bound, which is the §5.4 limitation that made
       reverse traversals pathological (fig11). The window history caches
       the low side too: a miss pays the dedicated check once, then
       extends the proven window down to the fold-derived run floor
       ([Folding.lower_bound], O(log) loads), so a descending or strided
       stream hits cache from the second access on. *)
    let low =
      (* the hit query spans the whole anchored gap [addr, base), the same
         extent the dedicated check proves — hit and miss give the access
         identical protection *)
      if San.cache_hit cache ~lo:addr ~hi:base then begin
        c.cache_hits <- c.cache_hits + 1;
        `Hit
      end
      else begin
        c.underflow_checks <- c.underflow_checks + 1;
        let o1 = Region_check.check_unaligned m ~l:addr ~r:base in
        Region_check.count c o1;
        match o1 with
        | Region_check.Bad a -> `Bad a
        | Region_check.Safe_fast | Region_check.Safe_slow
        | Region_check.Safe_word ->
          c.cache_updates <- c.cache_updates + 1;
          let floor = Folding.lower_bound m ~addr in
          San.cache_note cache
            ~lo:(min floor (addr land lnot 7))
            ~hi:base;
          `Checked
      end
    in
    match low with
    | `Bad a -> Bad a
    | (`Hit | `Checked) as low ->
      if off + width > 0 then begin
        (* the non-negative tail [base, base + off + width) is an ordinary
           overflow-side region: consult the history before re-checking *)
        if San.cache_hit cache ~lo:base ~hi:(base + off + width) then begin
          c.cache_hits <- c.cache_hits + 1;
          if low = `Hit then Ok_cached else Ok_checked
        end
        else begin
          let o2 = Region_check.check m ~l:base ~r:(base + off + width) in
          Region_check.count c o2;
          match o2 with
          | Region_check.Bad a -> Bad a
          | Region_check.Safe_fast | Region_check.Safe_slow
          | Region_check.Safe_word ->
            (* refresh after a successful tail check, exactly like the
               positive path — the tail used to be checked and forgotten,
               so straddling writes re-verified the same region forever *)
            refresh_above m c cache ~hi_checked:(base + off + width)
              ~probe:base;
            Ok_checked
        end
      end
      else if low = `Hit then Ok_cached
      else Ok_checked
  end

let flush m (c : Counters.t) (cache : San.cache) =
  (* Figure 9 line 14, per history window in MRU order: everything the
     cache ever vouched for is re-verified, so a mid-loop free inside ANY
     window — upper or lower side — is caught at loop exit. *)
  let ws = cache.San.windows in
  let k = ref 0 and bad = ref None in
  while !bad = None && !k < Array.length ws do
    let w = ws.(!k) in
    if w.San.w_lo < w.San.w_hi then begin
      let outcome =
        Region_check.check_unaligned m ~l:w.San.w_lo ~r:w.San.w_hi
      in
      Region_check.count c outcome;
      match outcome with
      | Region_check.Bad a -> bad := Some a
      | Region_check.Safe_fast | Region_check.Safe_slow
      | Region_check.Safe_word ->
        ()
    end;
    incr k
  done;
  !bad
