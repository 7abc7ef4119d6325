(** Synthetic request traces for the serving engine.

    A trace is a time-stamped stream of inference requests — the input
    of [Engine.run_trace].  Arrival times are in microseconds on the
    engine's simulated clock (the same clock the backend latency model
    prices device time on); the optional per-request deadline is an
    absolute point on the same clock. *)

type event = {
  at_us : float;
  deadline_us : float option;
      (** absolute completion deadline on the simulated clock; a request
          finishing after it still completes but counts as an SLO miss *)
  structure : Cortex_ds.Structure.t;
}

type t = event list
(** Sorted by arrival time ([Engine.run_trace] rejects unsorted
    traces with a typed error). *)

val poisson :
  ?deadline_us:float ->
  Cortex_util.Rng.t ->
  rate_rps:float ->
  duration_ms:float ->
  gen:(Cortex_util.Rng.t -> Cortex_ds.Structure.t) ->
  t
(** Open-loop Poisson arrivals at [rate_rps] requests/second for
    [duration_ms] of simulated time; each request's structure is drawn
    from [gen] (e.g. an SST-length parse tree, a grid DAG).
    [deadline_us] is {e relative}: each event's absolute deadline is its
    arrival plus [deadline_us].  Deterministic in the rng seed.  Raises
    [Invalid_argument] unless the rate and duration are finite and
    positive and the deadline is positive (a [nan] fails each check). *)

val of_structures :
  ?spacing_us:float -> ?deadline_us:float -> Cortex_ds.Structure.t list -> t
(** A degenerate trace: the [i]-th structure arrives at
    [i * spacing_us] (default 0 — everything arrives at once, the
    offered-load-saturated case used by the batching-policy sweeps),
    with absolute deadline [arrival + deadline_us] when given.  Raises
    [Invalid_argument] unless the spacing is finite and non-negative and
    the deadline is positive (a [nan] fails each check). *)

val length : t -> int
val num_nodes : t -> int
(** Total nodes across all requests. *)
