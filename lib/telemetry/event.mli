(** Typed trace events. One constructor per observable runtime action;
    every event carries the emitting tool's name so a multi-tool replay
    interleaves cleanly in one stream. Events carry no timestamps — the
    stream is a pure function of the executed scenario, which is what
    makes same-seed traces byte-identical (the determinism the fuzzer's
    divergence triage relies on). *)

type path = Fast | Slow

type t =
  | Malloc of { tool : string; base : int; size : int; kind : string }
  | Free of { tool : string; addr : int }
  | Access of { tool : string; addr : int; width : int; path : path }
  | Shadow_load of { tool : string; count : int }
  | Cache_hit of { tool : string; off : int }
  | Cache_update of { tool : string; ub : int }
  | Region_check of {
      tool : string;
      lo : int;
      hi : int;
      path : path;
      loads : int;
    }
  | Report of { tool : string; kind : string; addr : int }
  | Phase_begin of { name : string }
  | Phase_end of { name : string }
  (* Service-plane events ([lib/service]): tenant-scoped and stamped with
     the injected {!Clock}'s nanoseconds ([t_ns]) — virtual in tests/CI,
     so flight-recorder dumps stay byte-deterministic. *)
  | Service_op of {
      tenant : int;
      op : string;  (** "alloc" | "free" | "access" | "region" | "oob" *)
      slot : int;  (** tenant-local pointer register *)
      arg : int;  (** alloc: size; access/region: byte offset; else 0 *)
      width : int;  (** access: width; region: length; else 0 *)
      latency_ns : int;
      t_ns : int;
    }
  | Service_report of { tenant : int; kind : string; addr : int; t_ns : int }
      (** a sanitizer report produced while serving a tenant request *)
  | Slo_breach of {
      tenant : int;
      slo : string;  (** "p999" | "error_rate" | "ops_per_sec" *)
      value : float;
      limit : float;
      t_ns : int;
    }
  | Tenant_state of { tenant : int; state : string; t_ns : int }
      (** watchdog escalation: "breached" / "degraded" / "quarantined" *)
  | Tenant_fault of { tenant : int; detail : string; t_ns : int }
      (** a planted or detected fault attributed to one tenant *)
  | Tenant_backend of { tenant : int; backend : string; t_ns : int }
      (** policy re-partitioning: the tenant was rebuilt on [backend]
          (a {!Giantsan_policy.Backend.name}) *)

val name : t -> string
(** The NDJSON ["ev"] tag: "malloc", "free", "access", "shadow_load",
    "cache_hit", "cache_update", "region_check", "report", "phase_begin",
    "phase_end", "service_op", "service_report", "slo_breach",
    "tenant_state", "tenant_fault", "tenant_backend". *)

val all_names : string list
(** Every tag [name] can produce — the whitelist the strict
    [check-ndjson] validator accepts (unknown kinds are a named error
    unless [--lax]). *)

val to_json : seq:int -> t -> Json.t
(** One NDJSON line's worth: an object with ["seq"], ["ev"] and the
    event's own fields. *)
