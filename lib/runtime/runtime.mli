(** The end-to-end Cortex runtime: compile a recursive model, linearize
    inputs, execute numerically or cost it on a simulated backend.

    This is the layer the examples and the benchmark harness talk to.
    [execute] runs the compiled kernels through the ILIR interpreter
    (real numbers, used at small hidden sizes and in every test);
    [simulate] costs the same compiled kernels with the static cost
    analysis and prices the counts on a backend model (used at the
    paper's hidden sizes). *)

open Cortex_ilir
module Linearizer = Cortex_linearizer.Linearizer
module M = Cortex_models.Models_common

type compiled = Cortex_lower.Lower.compiled

val compile :
  ?obs:Cortex_obs.Obs.t ->
  ?options:Cortex_lower.Lower.options ->
  Cortex_ra.Ra.t ->
  compiled
(** [obs] profiles the lowering passes on the ["compile"] wall-clock
    track ({!Cortex_lower.Lower.lower}). *)

val options_for :
  ?base:Cortex_lower.Lower.options -> M.t -> Cortex_lower.Lower.options
(** [base] (default [Lower.default]), unchanged: a model's schedule
    facts live in its program ({!Cortex_ra.Ra.facts}), so there is
    nothing to merge.  Kept only because the repository benchmark
    calls it; it goes with the benchmark's next re-anchor. *)

type execution = {
  exec_compiled : compiled;
  exec_bound : Cortex_lower.Lower.bound;
}

val execute_lin :
  ?preload:(Cortex_lower.Lower.bound -> unit) ->
  compiled ->
  params:(string -> Cortex_tensor.Tensor.t) ->
  Linearizer.t ->
  execution
(** Bind an already-linearized input (a single structure or a serving
    engine's forest) and run the kernels numerically.  [preload] runs
    after parameter binding and before the kernels — the serving
    engine's sessions use it ({!Cortex_lower.Lower.state_rows}) to
    seed a conversation's persistent hidden states into the context so
    a delta run over the grown tail continues from them.  A session
    step's view holds only its boundary rows (the old nodes its nodes
    read as children) and its own nodes, so the run binds and
    precomputes O(delta) rows, not the conversation.  One call may seed
    boundary rows for {e several} sessions at once: a packed
    multi-session window ({!Cortex_linearizer.Linearizer.pack}) lays
    every member's boundary rows out below its step nodes, and the
    engine preloads each member's rows at their packed ids before the
    single launch sequence. *)

val execute :
  compiled ->
  params:(string -> Cortex_tensor.Tensor.t) ->
  Cortex_ds.Structure.t ->
  execution
(** Linearize, bind, run the kernels numerically.  Thin wrapper around
    {!execute_lin}; kept as the convenient one-structure entry point —
    for streams of requests, use [Cortex.Engine] instead. *)

val state :
  execution -> string -> Cortex_ds.Node.t -> Cortex_tensor.Tensor.t

type report = {
  latency : Cortex_backend.Backend.latency;
  cost : Cost.t;
  linearize_us : float;  (** simulated host charge before the kernels *)
  device_memory_bytes : float;
      (** peak device footprint: parameters + global tensors + the
          linearizer's arrays *)
  num_nodes : int;
  occupancy : float;
      (** flop-weighted mean lane occupancy on this backend
          ({!Cortex_backend.Backend.mean_occupancy}) — how full the
          machine was where the work was *)
}

val simulate_lin :
  ?lock_free:bool ->
  ?linearize_us:float ->
  compiled ->
  backend:Cortex_backend.Backend.t ->
  Linearizer.t ->
  report
(** Statically cost the compiled kernels against an already-linearized
    input and price them on [backend] — the engine-reusable core of
    {!simulate}, and the one pricing call of the engine, the plan
    cache's tuner, the paper tables and the benchmark.  It binds only
    the UF table ({!Cortex_lower.Lower.bind_ufs}): no interpreter
    context and no state tensors are allocated, and the cost walk is
    compiled once per program ({!Cortex_ilir.Cost.analyze}).
    [linearize_us] (default 0) is recorded verbatim in the report; the
    serving engine passes a session token's priced restore and 0
    otherwise. *)

val simulate :
  ?lock_free:bool ->
  compiled ->
  backend:Cortex_backend.Backend.t ->
  Cortex_ds.Structure.t ->
  report
(** Linearize, statically cost the compiled kernels against the
    concrete structure and price them on [backend], charging the
    linearization its {!Cortex_linearizer.Linearizer.priced_us} — so the
    report is a pure function of its inputs.  [lock_free]
    selects the faster global-barrier implementation (default false:
    the paper's Cortex uses the lock-based one, §7.2).  Thin wrapper
    around {!simulate_lin}; for streams of requests, use
    [Cortex.Engine]. *)

val total_ms : report -> float
(** Simulated end-to-end inference latency in milliseconds: device
    time plus the report's [linearize_us] (§7.5: linearization runs on
    the host before any tensor computation). *)

val scale_report : report -> float -> report
(** The report with its device-side latency scaled by a factor
    ({!Cortex_backend.Backend.scale_latency}) — the serving engine's
    straggler pricing.  Cost counts, traffic and the host-side
    linearization time are unchanged. *)

(** Register-pressure schedule validity (Appendix D). *)
module Schedule_check : sig
  type verdict = Valid | Invalid of string

  val check :
    backend:Cortex_backend.Backend.t ->
    hidden:int ->
    states:int ->
    Cortex_lower.Lower.options ->
    cost:Cost.t ->
    verdict
  (** Rejects schedules whose register demand exceeds the backend's
      persistence budget: persistence + unrolling is out (live child
      states double), and persistence + loop peeling is out for models
      whose persisted weights already nearly fill the budget (the
      TreeLSTM case the appendix describes). *)

  val check_capacity :
    backend:Cortex_backend.Backend.t ->
    Cortex_lower.Lower.options ->
    cost:Cost.t ->
    verdict
  (** On-chip capacity feasibility of a (possibly plan-scheduled)
      program: persisted weights plus the liveness-planned
      Shared/Register temporary footprint
      ([Cost.onchip_planned_bytes], the {!Cortex_ilir.Mem_plan} arena
      high-water mark over all temporaries, staging buffers added by
      [Lower.apply_plan] included) must fit the backend's
      [onchip_capacity_bytes].  Buffers whose live ranges never
      intersect share arena space, so this admits schedules the
      sum-of-buffers worst case would reject. *)
end
