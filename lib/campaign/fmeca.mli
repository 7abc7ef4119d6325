(** The FMECA reliability campaign: enumerate, score and rank the
    serving stack's failure modes.

    Three PRs built the machinery — deterministic fault {e injection}
    (the [Fault] grammar), the {e instruments} ([Obs] spans and
    [Metrics] counters) and the SLO accounting in [Engine.summary] —
    but nothing says {e which} failure modes actually hurt.  This
    module is the classic FMECA answer: a fixed grid of failure modes
    spanning every component family of the stack (device fail-stops,
    transient kernel-abort rates, straggler magnitudes, queue-cap
    pressure, degrade watermarks, shape-cache pressure, session
    re-pins), one seeded fault-injected {!Cortex_serve.Engine} run per
    mode, and a ranked criticality table scored by the textbook
    product:

    - {b severity} (1..10) — SLO damage against a fault-free baseline
      run of the same workload: lost and shed fractions, the
      deadline-miss delta and the goodput loss, combined as
      [0.50*(lost+shed) + 0.80*miss_delta + 0.30*goodput_loss]
      (clamped to [0, 1], then scaled to 1..10);
    - {b occurrence} (1..10) — the mode's declared injection rate,
      compressed as [1 + round(9 * sqrt rate)] so rare-but-real events
      are not rounded to oblivion;
    - {b detectability} (1..10, {e higher = worse}) — scanned from the
      run's Chrome trace ({!Cortex_obs.Scan}): how many simulated
      microseconds of warning the fault spans gave before the first
      SLO-visible damage ([slo_first_damage_us]); 10 when no warning
      span ever fired.  (The engine moves its [faults.*] counters only
      where it records an abort or transient span, so a counter never
      moves on an undetected run.)

    [RPN = S * O * D], ranked descending with a deterministic
    tie-break.  No simulated number reads the host clock and every run
    records on an [Obs.Logical] clock, so the whole campaign is a pure
    function of its seed: two same-seed runs render byte-identical
    tables — the property CI diffs, and the reason a rank change is a
    reviewable regression rather than noise. *)

module Engine = Cortex_serve.Engine
module Scan = Cortex_obs.Scan

type mode = {
  fm_id : string;  (** stable identifier, e.g. ["transient-0.1"] *)
  fm_family : string;
      (** component family: ["device"], ["transient"], ["straggler"],
          ["queue"], ["degrade"], ["cache"], ["session"] *)
  fm_desc : string;  (** one-line human description *)
  fm_grammar : string;
      (** the {!Cortex_serve.Fault} grammar injected ([""] for pure
          configuration-pressure modes, which run under an empty spec) *)
  fm_rate : float;  (** declared occurrence rate in [0, 1] *)
}

type score = {
  sc_mode : mode;
  sc_severity : int;  (** 1..10 *)
  sc_occurrence : int;  (** 1..10 *)
  sc_detectability : int;  (** 1..10, higher = harder to see coming *)
  sc_rpn : int;  (** severity * occurrence * detectability *)
  sc_completed : int;
  sc_lost : int;
  sc_shed : int;
  sc_miss_delta : float;
      (** deadline-miss fraction minus the baseline's (clamped at 0) *)
  sc_goodput_loss : float;
      (** [1 - goodput/goodput_baseline] (clamped to [0, 1]) *)
  sc_damage_us : float option;
      (** [slo_first_damage_us] of the mode's run *)
  sc_detection : Scan.detection;
      (** how the fault spans relate to that first damage *)
}

type result = {
  res_seed : int;
  res_rows : score list;  (** ranked: highest RPN first *)
}

val families : unit -> string list
(** The component families the grid covers, sorted. *)

val modes : ?families:string list -> unit -> mode list
(** The mode grid, optionally filtered to the named families (unknown
    names simply match nothing).  Grid order, not rank order. *)

val run : ?families:string list -> seed:int -> unit -> result
(** Run the campaign: one fault-injected engine drain per mode over a
    shared seeded workload (Poisson SST arrivals with deadlines;
    session modes add growing pinned conversations), plus one
    fault-free baseline per workload variant for the severity deltas.
    Deterministic in [seed]. *)

val run_mode : seed:int -> mode -> Engine.summary * Cortex_obs.Chrome_trace.event list
(** Re-run one grid mode (same engine, workload and seed as {!run})
    and return its summary plus the full Chrome trace event stream —
    what [cortex fmeca --trace-out] writes for the top-k modes.
    Raises [Invalid_argument] for a mode not on the grid. *)

val table : result -> string
(** The ranked criticality table as aligned text — byte-identical
    across same-seed runs. *)

val json_lines : result -> string
(** The table as a JSON array, one object per line (the
    [BENCH_fmeca.json] artifact): rank, mode, family, S/O/D, RPN, the
    raw severity inputs, the detection classification and the
    grammar. *)

val load_ranking : string -> ((string * int) list, string) Stdlib.result
(** Parse a {!json_lines} document back to [(mode id, rank)] pairs —
    what [--baseline-diff] reads from the committed artifact.  The text
    must be a non-empty JSON array of objects, each with a string
    [mode] and a positive integer [rank]; anything else is an [Error]
    naming the offset or the row, never an exception. *)

val diff_ranking : baseline:(string * int) list -> result -> string list
(** Rank changes of [result] against a previously saved ranking: one
    human-readable line per moved, new or dropped mode; empty when the
    ranking is unchanged. *)
