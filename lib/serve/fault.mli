(** A seeded, deterministic fault model for the serving simulation.

    The engine built in the earlier serving PRs assumes a perfect fleet:
    no device ever dies, no kernel ever aborts, no window ever runs
    slow.  This module gives the simulated devices a failure model the
    engine can inject into its per-device clocks and respond to —
    fail-stop ({e this device is gone from time t}), transient kernel
    faults ({e a window's execution aborts with probability p inside
    this interval}) and stragglers ({e this device runs k times slower
    inside this interval}).

    Everything is deterministic in a single seed: the injector derives
    one {!Cortex_util.Rng.t} stream per device via [Rng.split], so the
    transient draws and backoff jitter of one device never perturb
    another's, and two runs with the same seed, spec and trace take
    bit-identical decisions.  Times are microseconds on the engine's
    simulated clock (the same clock arrivals and device pricing use). *)

type fault =
  | Fail_stop of { device : int; at_us : float }
      (** the device fails permanently at [at_us]: windows in flight
          abort at that instant and must fail over *)
  | Transient of { device : int; prob : float; from_us : float; until_us : float }
      (** a window dispatched on the device inside [from_us, until_us)
          aborts with probability [prob] (detected at what would have
          been its completion; the wasted execution still occupies the
          device) *)
  | Straggler of { device : int; factor : float; from_us : float; until_us : float }
      (** device-side latency of windows dispatched inside
          [from_us, until_us) is multiplied by [factor] *)

type spec = fault list
(** [device = -1] (spelled [*] in the grammar) applies a fault to every
    device. *)

val parse : string -> (spec, string) result
(** Parse the CLI fault grammar: semicolon-separated faults, each
    [kind@device:args] with [device] an index or [*]:
    {v
      failstop@1:5000                fail-stop device 1 at t=5000us
      transient@*:0.05,0,1e6        every window in [0,1e6) aborts w.p. 0.05
      straggler@0:3,2000,8000       device 0 runs 3x slower in [2000,8000)
    v}
    Validates: [at >= 0], [0 < prob <= 1], [factor >= 1],
    [from <= until].  Two clauses of the same kind naming the same
    device (or both naming [*]) are rejected as duplicates.  Every
    error names the offending clause: its 1-based position, its text
    and what was wrong with it (including which argument of a
    wrong-arity clause failed to parse). *)

val to_string : spec -> string
(** Inverse of {!parse} (up to float formatting). *)

(** {2 Retry policy} *)

type retry = {
  max_retries : int;  (** transient re-executions per window before it is lost *)
  backoff_base_us : float;  (** first backoff step; also the jitter bound *)
  backoff_cap_us : float;  (** exponential backoff is capped here *)
}

val default_retry : retry
(** [{ max_retries = 4; backoff_base_us = 50.0; backoff_cap_us = 800.0 }] *)

(** {2 The injector} *)

type t
(** One drain's worth of fault decisions: the spec plus one rng stream
    per device, all derived from a single seed. *)

val create : seed:int -> devices:int -> spec -> t
(** Raises [Invalid_argument] if the spec names a device index
    [>= devices]. *)

val fail_at : t -> int -> float
(** When the device fail-stops ([infinity] if never): the earliest
    matching {!Fail_stop}. *)

val latency_factor : t -> device:int -> at_us:float -> float
(** Product of the {!Straggler} factors covering a dispatch at [at_us]
    on [device] (1.0 when none). *)

val draw_transient : t -> device:int -> at_us:float -> bool
(** Whether a window dispatched at [at_us] on [device] aborts with a
    transient fault.  Draws one uniform from the device's stream per
    covering {!Transient}; consumes no randomness when none covers, so
    fault-free devices stay deterministic regardless of spec order. *)

val backoff_us : t -> device:int -> attempt:int -> float
(** Capped exponential backoff with jitter for re-dispatching after the
    [attempt]-th transient abort:
    [min cap (base * 2^attempt) + uniform [0, base)] drawn from the
    device's stream, with {!default_retry}'s base and cap. *)
