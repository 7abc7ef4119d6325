(** The observability handle: a span tracer over two clocks plus a
    metrics registry, exportable as Chrome trace-event JSON.

    Cortex's serving engine runs on a {e simulated} microsecond clock
    (arrivals, device busy windows, retries, failovers) while its
    compiler and inspector run on the {e host wall clock} (lowering
    passes in [Lower], linearizer runs in [Shape_cache]).  One [Obs.t]
    records spans from both domains on named tracks, keeps a
    {!Metrics.t} registry next to them, and exports everything as one
    Chrome trace: wall-clock tracks under the ["compile (wall clock)"]
    process, simulated tracks (one per device, plus the request arrival
    track and the enclosing drain span) under ["serve (simulated
    clock)"].

    {b Zero interference.}  The handle is passed as an option
    everywhere ([Engine.create ?obs], [Runtime.compile ?obs], ...); the
    default [None] path records nothing and pays nothing.  Recording
    only ever {e reads} the simulation's values — it never feeds a
    measurement back into a decision — so a drain with [obs] installed
    produces bitwise-identical results and an identical summary to the
    same drain without it (pinned by the zero-interference property
    test).

    {b Determinism.}  Simulated-clock spans are deterministic: the
    simulated clock never reads the host.  Wall-clock spans measure the
    real host by default ({!Measured}); for byte-diffable traces, create
    the handle with the {!Logical} clock — every clock read then returns
    the next tick of a monotone counter, so span {e ordering} survives
    but two identical runs serialize identically (what CI diffs).

    One handle records one serving drain: device clocks restart at each
    drain, so profiling a second drain into the same handle would break
    per-track monotonicity.  {!reset} the handle (or create a fresh
    one) between profiled drains. *)

(** How wall-clock spans are timestamped. *)
type clock =
  | Measured  (** real host time ([Unix.gettimeofday]) *)
  | Logical
      (** a monotone tick counter: deterministic, order-preserving,
          meaningless durations — for byte-diffable traces *)

type t

val create : ?clock:clock -> unit -> t
(** A fresh handle (default {!Measured}). *)

(** {2 Recording}

    [track] names the horizontal lane the event lands on (["compile"],
    ["inspector"], ["device 0"], ...).  Tracks are created on first
    use.  Within one track, {b spans must be sequential or properly
    nested} — the exporter emits begin/end pairs and {!Validate}
    rejects overlap. *)

val wall_span :
  t option ->
  track:string ->
  ?args:(string * Chrome_trace.value) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [wall_span obs ~track name f] runs [f ()] inside a wall-clock span
    (begin/end read the handle's clock).  [None] just runs [f] — call
    sites stay branch-free.  Exceptions propagate; the span is recorded
    only on normal return. *)

val sim_span :
  t option ->
  track:string ->
  ?args:(string * Chrome_trace.value) list ->
  name:string ->
  start_us:float ->
  end_us:float ->
  unit ->
  unit
(** Record a complete simulated-clock span with explicit endpoints (the
    serving engine's device windows).  Requires [end_us >= start_us]. *)

val sim_instant :
  t option ->
  track:string ->
  ?args:(string * Chrome_trace.value) list ->
  name:string ->
  ts_us:float ->
  unit ->
  unit
(** Record a simulated-clock point event (request arrivals). *)

val incr : t option -> ?by:int -> string -> unit
val set_gauge : t option -> string -> float -> unit
val observe : t option -> string -> float -> unit
(** Metrics shorthands that are no-ops on [None]. *)

val sim_bounds : t -> (float * float) option
(** Least and greatest simulated timestamp recorded so far ([None] when
    no sim event was recorded) — what the engine stamps its enclosing
    ["drain"] span with. *)

val snapshot : t option -> Metrics.snapshot option
(** [Metrics.snapshot] of the registry, [None] on [None]. *)

val wall_us : t -> track:string -> name:string -> float
(** Summed duration of the wall spans named [name] on [track] (0 if none). *)

(** {2 Export} *)

val events : t -> Chrome_trace.event list
(** The recorded profile as a deterministic Chrome event list: process
    and track metadata first, then per track (in first-use order) the
    balanced begin/end sequence of its spans merged with its instants
    in timestamp order.  Raises [Invalid_argument] if some track's
    spans overlap without nesting (a recording bug — the engine and
    compiler produce sequential-or-nested spans by construction). *)

val to_json : t -> string
(** {!events} serialized canonically ({!Chrome_trace.to_json}) — with a
    {!Logical} clock, byte-identical across identical runs. *)

val write_json : t -> string -> unit
(** {!to_json} written to a file. *)

val reset : t -> unit
(** Drop all spans, instants and metrics; the logical clock restarts. *)
