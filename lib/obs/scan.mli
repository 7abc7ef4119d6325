(** Read-side queries over a Chrome trace-event stream.

    {!Obs} writes spans; this module answers questions about them.  The
    FMECA campaign's detectability scoring needs exactly two: {e when
    did a named signal first appear on the simulated clock}, and {e was
    that before or after the first SLO-visible damage} (the
    ["slo_damage"] instant the engine stamps).  Both are pure functions
    of the event list, so a scan over a saved trace file gives the same
    answer as a scan over a live {!Obs.events} stream.

    Only [sim]-clock events count: wall-clock spans are host-dependent
    and would make detectability nondeterministic. *)

type detection =
  | No_damage  (** the run hurt nothing; detectability is moot *)
  | Undetected
      (** damage occurred but none of the candidate signals ever fired *)
  | Lead of float
      (** a signal fired [lead] simulated microseconds {e before} (or
          exactly at) the first damage — the monitoring window an
          operator had *)
  | Lagged of float
      (** the first signal fired [lag] simulated microseconds {e after}
          the damage — monitoring only confirms what the SLO already
          shows *)

val detect :
  signals:string list -> damage:float option -> Chrome_trace.event list -> detection
(** Classify how observable a failure mode was: [damage] is the first
    SLO-visible damage time ([Engine.slo.slo_first_damage_us]), the
    [signals] are the event names that count as early warning (fault
    spans like ["abort"]/["transient"], degrade instants, …).  The
    earliest sim occurrence of any signal is compared against the
    damage instant. *)

val detection_to_string : detection -> string
(** ["none"], ["undetected"], ["lead 123.0us"], ["lag 45.0us"] — fixed
    format, diffable. *)
