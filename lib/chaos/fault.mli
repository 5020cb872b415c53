(** Fault-plan types and the seeded fault matrix.

    Four planes, one per trust boundary the runtime degrades across:
    shadow-byte corruption, allocator pressure, execution faults in the
    domain pool, and corrupt on-disk inputs. A plan never carries wall
    clock or ambient randomness — every knob is drawn from one splitmix64
    stream, so [matrix ~seed] is a pure function and the whole chaos run
    reproduces byte-for-byte. *)

type shadow_fault =
  | Bit_flip of { pick : int; mask : int }
      (** xor a shadow byte with [mask] (1..255, so the byte must change) *)
  | Stale_free of { pick : int }
      (** overwrite a live (folded/partial) segment with the freed code *)
  | Overclaim_code of { pick : int }
      (** overwrite a guarded (error-code) segment with the good code —
          the dangerous direction: real violations could be missed *)
  | Misfold of { degree : int }
      (** arm {!Giantsan_core.Folding.Overstate_last} so subsequent
          poisoning overstates the last segment's degree *)
  | Window_trim of { pick : int }
      (** the fuzz-mode restore plane: snapshot at the injection point,
          run the scenario tail, then trim one segment off the dirty
          window, chosen by [pick]'s parity
          ({!Giantsan_shadow.Shadow_mem.chaos_trim_window}), before
          restoring — the under-repaired shadow must be flagged by the
          shadow-vs-oracle selfcheck *)

type alloc_fault =
  | Oom_at of int  (** {!Giantsan_memsim.Heap.chaos_oom_after} countdown *)
  | Tiny_arena of int  (** churn a workload inside an [n]-byte arena *)
  | Quarantine_thrash of { budget : int; churn : int }
  | Fragmentation of { allocs : int; size : int }

type exec_fault =
  | Task_raise of { at : int; tasks : int; jobs : int }
  | Pathological_shard of { heavy : int; repeat : int; jobs : int }

type input_fault =
  | Corrupt_corpus of { seed : int }
  | Corrupt_ndjson of { seed : int }

type plane = Shadow | Alloc | Exec | Input

val plane_name : plane -> string

type spec =
  | F_shadow of shadow_fault
  | F_alloc of alloc_fault
  | F_exec of exec_fault
  | F_input of input_fault

type cell = {
  cell_id : string;
  plane : plane;
  spec : spec;
  scenario_seed : int;  (** victim-workload seed, where applicable *)
  inject_after : int;  (** steps executed before the fault lands *)
}

val spec_name : spec -> string

val matrix : seed:int -> cell list
(** The full fault schedule for one chaos round: every plane represented,
    ~15 cells, all parameters drawn deterministically from [seed]. *)
