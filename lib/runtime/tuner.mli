(** §6-style schedule auto-tuning by grid search.

    The paper's prototype uses manually defined schedules plus grid
    search over schedule parameters; this module enumerates the
    recursion-scheduling lattice for a model — fusion, specialization,
    dynamic batching, persistence, unrolling (with the model's
    block-local flag), recursive refactoring — filters out combinations
    that are invalid for the model's structure kind or rejected by the
    Appendix-D register-pressure check, costs each candidate on the
    target backend, and returns them ranked.  {!tune2} is the one
    search: with [~plan_budget:0] it is that options-only grid search,
    and with a budget it also sweeps loop plans per options point. *)

(** {2 Level 2: loop-schedule parameters}

    The second search level sweeps loop-level schedule parameters —
    lane bindings, on-chip staging per parameter tensor, power-of-two
    tile sizes — as serializable {!Cortex_ilir.Schedule.plan}s applied
    post-lowering via [Lower.apply_plan].  Candidates are pruned by a
    static on-chip-capacity check before they are even applied, and by
    the {!Cortex_roofline.Roofline.lower_bound_us} bound before a whole
    plan sweep starts. *)

val bind_targets : Cortex_ilir.Ir.program -> string list
(** Serial constant-extent loops (canonical names) that are lane-bind
    candidates. *)

val tile_targets : Cortex_ilir.Ir.program -> (string * string * int * int) list
(** Directly nested constant-extent loop pairs
    [(outer, inner, extent_outer, extent_inner)]. *)

val stage_targets : Cortex_ilir.Ir.program -> (string * string * float) list
(** [(outermost loop, parameter tensor, on-chip bytes)] staging
    candidates. *)

val loop_plans : Cortex_lower.Lower.compiled -> Cortex_ilir.Schedule.plan list
(** The plan lattice for one compiled artifact, most promising first
    and starting with the empty plan; a tuning budget truncates the
    tail.  It binds at most 12 loops and stages at most 3 parameter
    regions; staging candidates above 8 MB are dropped up front — they
    cannot fit any backend's on-chip storage next to the persisted
    weights. *)

val tune_loops :
  ?budget:int ->
  ?linearize_us:float ->
  Cortex_lower.Lower.compiled ->
  backend:Cortex_backend.Backend.t ->
  Cortex_linearizer.Linearizer.t ->
  (Cortex_ilir.Schedule.plan * Runtime.report) list
(** Evaluate up to [budget] (default 16) plans against an
    already-linearized input, keeping only feasible ones (register
    pressure + on-chip capacity), fastest first.  The empty plan (the
    artifact as compiled) is always included and wins ties, so the
    result is never empty — this is what the serving engine's plan
    cache runs on a class miss.  The budget counts candidate plans, not
    wall time, so tuning is deterministic. *)

type plan_candidate = {
  pc_options : Cortex_lower.Lower.options;
  pc_label : string;  (** options label, e.g. "fuse+spec+batch+persist" *)
  pc_plan : Cortex_ilir.Schedule.plan;
  pc_report : Runtime.report;
}

val pc_full_label : plan_candidate -> string
(** ["<options label> | <plan>"]. *)

val tune2 :
  ?plan_budget:int ->
  Cortex_models.Models_common.t ->
  backend:Cortex_backend.Backend.t ->
  Cortex_ds.Structure.t ->
  plan_candidate list
(** Two-level search: every structurally valid options point crossed
    with up to [plan_budget] (default 16) loop plans, pruned by the
    App. D register check, the on-chip capacity check and the roofline
    bound; all feasible candidates ranked fastest first.  With
    [~plan_budget:0] every candidate carries the empty plan: the
    options lattice alone, one candidate per feasible options point. *)

val best2 :
  ?plan_budget:int ->
  Cortex_models.Models_common.t ->
  backend:Cortex_backend.Backend.t ->
  Cortex_ds.Structure.t ->
  plan_candidate
(** The head of {!tune2}; raises [Invalid_argument] when no candidate
    is feasible. *)

val plan_feasible :
  backend:Cortex_backend.Backend.t ->
  Cortex_lower.Lower.compiled ->
  Runtime.report ->
  bool
(** Both feasibility checks — App. D register pressure and on-chip
    capacity — against a (possibly plan-applied) compiled artifact and
    its costed report.  [tune_loops]/[tune2] apply this internally;
    exposed so callers (the CLI, CI) can re-assert a winning plan. *)
