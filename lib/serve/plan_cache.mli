(** Per-shape-class cache of tuned loop-schedule plans.

    The serving engine compiles a model once, but the best loop
    schedule depends on the backend a window lands on and on how much
    parallelism its linearized batch exposes — captured here by the
    dispatcher's size class ({!Dispatch.size_bucket}).  On the first
    window of a (backend, class) pair the cache runs a loop-schedule
    search ({!Cortex_runtime.Tuner.tune_loops}) under a candidate-count
    budget — deterministic by construction — applies the winning plan
    with [Lower.apply_plan], and keeps the applied artifact; later
    windows of the class reuse it.

    The search's host wall time is recorded in the stats and through
    {!Cortex_obs.Obs} ("plan_cache.tune_ms"), but never charged to the
    simulated device clock: the simulation must stay a pure function of
    (seed, spec, trace) for the fault tests' determinism, and plan
    tuning is a once-per-class deployment cost, not a per-request
    one. *)

type entry = {
  pe_backend : string;  (** [Backend.short] of the tuned-for device *)
  pe_bucket : int;  (** {!Dispatch.size_bucket} of the window's nodes *)
  pe_packed : bool;
      (** tuned on a packed multi-session window — packed windows key
          separately from regular forest windows of the same size class
          (their level-merged batch tables are shaped differently) *)
  pe_plan : Cortex_ilir.Schedule.plan;  (** winning plan; [[]] = default *)
  pe_compiled : Cortex_lower.Lower.compiled;  (** plan applied *)
  pe_default_us : float;  (** simulated latency of the default schedule *)
  pe_tuned_us : float;  (** simulated latency under the winning plan *)
  pe_tune_ms : float;  (** host wall time the search took *)
}

type stats = {
  pc_entries : int;
  pc_hits : int;
  pc_misses : int;  (** = number of searches run *)
  pc_tune_ms : float;  (** total host wall time spent tuning *)
}

type t

val create : ?budget:int -> unit -> t
(** [budget] (default 16) caps the candidate plans evaluated per class;
    it counts plans, not wall time, so a given artifact and
    linearization always tune to the same winner. *)

val find_or_tune :
  ?obs:Cortex_obs.Obs.t ->
  ?packed:bool ->
  t ->
  compiled:Cortex_lower.Lower.compiled ->
  backend:Cortex_backend.Backend.t ->
  lin:Cortex_linearizer.Linearizer.t ->
  nodes:int ->
  entry * bool
(** The entry for the window's (backend, size-class, packed), tuning on
    first contact.  [packed] (default [false]) selects the packed
    multi-session key space.  The boolean is [true] on a cache hit. *)

val preload :
  t ->
  backend_short:string ->
  bucket:int ->
  plan:Cortex_ilir.Schedule.plan ->
  compiled:Cortex_lower.Lower.compiled ->
  default_us:float ->
  tuned_us:float ->
  unit
(** Seed the cache with a plan tuned ahead of time (a bundle's tuned
    plans): the plan is applied to [compiled] now, so the first window
    of the class is a hit and no search runs ([pe_tune_ms = 0]).
    Bundles only carry regular-window plans, so preloads always land in
    the unpacked key space. *)

val stats : t -> stats
val hit_rate : stats -> float
val entries : t -> entry list
(** All entries, sorted by (backend, bucket, packed) for deterministic
    reporting. *)
