(** The cross-request serving engine.

    The paper's dynamic batching (§4.2, App. B) batches the independent
    nodes {e within} one input structure.  A production server instead
    sees a stream of small independent requests — the setting Cavs and
    Jeong et al.'s recursion work attack with {e cross-instance} dynamic
    batching.  This engine closes that gap: it owns one compiled model
    (model persistence, §5.3 — compile once, serve forever) and
    processes a queue of inference requests by {e forest linearization}:
    the structures of a batch window are merged and linearized as one
    forest ({!Cortex_linearizer.Linearizer.run_forest}), so a single
    kernel sequence — one launch per level — covers every request in the
    window, amortizing kernel launches and filling the device's lanes
    with the union of the requests' per-level batches.

    The engine is the intended public entry point of the stack; the
    lower-level [Runtime.compile]/[execute]/[simulate] functions remain
    as documented thin wrappers for single-structure use.

    Two ways in:
    - {b serving simulation}: {!submit} requests with arrival times (or
      {!run_trace} a whole {!Trace.t}), then {!drain}; windows form
      according to the {!policy}, each window's forest is linearized for
      real (through a shape-keyed cache — repeated shapes skip the
      inspector and are payload-rebound instead), a
      {!Dispatch.policy} spreads the windows across the engine's
      simulated devices (possibly heterogeneous), and you get
      per-request reports plus throughput/p50/p99 aggregates,
      per-device utilization/occupancy accounting and cache hit rates;
    - {b numeric execution}: {!execute} a forest of structures and read
      bitwise-exact per-request states back through the span tables
      (also shape-cached; a hit is bitwise identical to a cold run).

    {b Fault tolerance.}  With a {!Fault.spec} installed the drain plays
    its windows against an imperfect fleet: fail-stopped devices leave
    the dispatch pool (in-flight windows abort at the instant of death
    and {e fail over} to a survivor, re-dispatching the layout they
    already have — never re-linearizing, and a session re-pins with its
    growing layout as it is), transient kernel aborts are {e retried}
    with capped exponential backoff until the retry budget runs out, and
    stragglers are priced through
    {!Cortex_backend.Backend.scale_latency}.  Under overload the engine
    {e sheds} load at an optional queue cap (a typed {!Shed} rejection,
    not an exception) and can {e degrade} its batching policy past a
    queue-depth watermark.  Per-request deadlines feed an SLO block in
    the summary: on-time counts, deadline misses and goodput (on-time
    completions per second) next to raw throughput.

    No simulated number reads the host clock: a drain charges no
    inspector time (only a spilled session's priced restore), so every
    summary is a pure function of (config, seed, trace) and runs can be
    diffed byte-for-byte in CI.  The inspector's host time goes to
    [obs] wall spans on the ["inspector"] track. *)

module Linearizer = Cortex_linearizer.Linearizer
module Runtime = Cortex_runtime.Runtime
module M = Cortex_models.Models_common

(** {2 Batching policies} *)

type bucketing =
  | Fifo  (** window over the queue in arrival order *)
  | By_size
      (** bucket queued requests by size (power-of-two node count)
          before windowing, so a window's trees are similarly shaped and
          the forest's levels stay uniformly wide *)

type policy = {
  max_batch : int;  (** close a window when it holds this many requests *)
  max_wait_us : float;
      (** ... or when the oldest member has waited this long *)
  bucketing : bucketing;
}

val default_policy : policy
(** [{ max_batch = 8; max_wait_us = 200.0; bucketing = Fifo }] *)

(** {2 Errors} *)

type error =
  | Kind_mismatch of {
      expected : Cortex_ds.Structure.kind;
      got : Cortex_ds.Structure.kind;
    }
      (** e.g. a DAG (shared subtrees) submitted to a tree model — the
          guard that keeps per-child traversal from revisiting nodes *)
  | Rejected of Linearizer.rejection
      (** fanout beyond the model's [max_children], mixed kinds, … *)
  | Shed of { cap : int }
      (** the queue was at its cap — load shedding, counted in the
          summary's SLO block, not a caller error *)
  | Unsorted_trace of { index : int; at_us : float; prev_us : float }
      (** [run_trace] saw an event arriving before its predecessor *)
  | No_session_deltas
      (** a [session] submitted to an engine whose schedule cannot serve
          a delta ({!Cortex_lower.Lower.delta_compatible}) *)

exception Error of error

val error_to_string : error -> string

(** {2 Configuration} *)

(** Everything {!create} is configured by, grouped by concern.
    {!Config.default} is the all-defaults engine; {!Config.make}
    overrides a base record field by field.

    {!Config.to_string}/{!Config.of_string} give the record a stable
    [key=value] textual form: what [cortex serve --config FILE] reads,
    what a bundle's manifest embeds, and what [cortex serve] turns each
    engine flag into (one key line appended after the file's or the
    bundle's text, so the flag wins).  The two runtime objects — the
    [obs] handle and the [params] resolver — are carried by the record
    but never serialized. *)
module Config : sig
  type compile = {
    options : Cortex_lower.Lower.options option;
        (** lowering options as the user chose them; [None] =
            [Lower.default].  The model's own schedule facts come with
            its program ({!Cortex_ra.Ra.facts}). *)
    lock_free : bool;
        (** price the lock-free global barrier (§7.2) *)
    params : (string -> Cortex_tensor.Tensor.t) option;
        (** parameter resolver; enables numeric serving (each completed
            window also executes numerically and per-request root
            outputs land in [summary.results]) *)
  }

  type dispatch = {
    batching : policy;  (** window formation: size/timeout/bucketing *)
    selection : Dispatch.policy;
        (** which simulated device a ready window lands on *)
    devices : Cortex_backend.Backend.t list option;
        (** the simulated fleet, possibly heterogeneous; [None] =
            [[ backend ]] at {!create} *)
    cache_capacity : int option;
        (** shape-cache bound ({!Shape_cache.create}); [0] disables *)
  }

  type reliability = {
    queue_cap : int option;
        (** {!submit} sheds ([Error (Shed _)]) past this depth *)
    degrade_watermark : int option;
        (** a drain finding more than this many queued requests halves
            [max_batch] and forces [By_size] for that drain *)
    faults : Fault.spec option;
        (** install a fault model; drains inject its faults from
            [seed] *)
    seed : int;
        (** fault-injector rng seed; transients retry with
            {!Fault.default_retry}'s budget and backoff *)
  }

  type observability = {
    obs : Cortex_obs.Obs.t option;
        (** spans + metrics handle; recording is read-only (observed and
            unobserved drains are bitwise identical) *)
  }

  type tuning = {
    autotune : bool;
        (** stand up a {!Plan_cache}: first window of each (backend,
            size-class) runs a loop-schedule search, later windows
            reuse the tuned artifact *)
    tune_budget : int option;
        (** candidate-count budget per class (default 16) — a count,
            not wall time, so serving stays deterministic *)
  }

  type t = {
    compile : compile;
    dispatch : dispatch;
    reliability : reliability;
    observability : observability;
    tuning : tuning;
    sessions : Session_store.config;
        (** the bounded session table: accounted-bytes budget, idle
            TTL, spill directory and packing
            ({!Session_store.config}; the default is unbounded with
            in-memory spills — the PR 7 behaviour) *)
  }

  val default : t
  (** The all-defaults engine: FIFO windows of 8 / 200 us,
      round-robin over [[ backend ]], unbounded queue and cache, no
      faults, no observability, no tuning, unbounded sessions. *)

  val make :
    ?base:t ->
    ?policy:policy ->
    ?options:Cortex_lower.Lower.options ->
    ?lock_free:bool ->
    ?dispatch:Dispatch.policy ->
    ?devices:Cortex_backend.Backend.t list ->
    ?cache_capacity:int ->
    ?queue_cap:int ->
    ?degrade_watermark:int ->
    ?faults:Fault.spec ->
    ?seed:int ->
    ?params:(string -> Cortex_tensor.Tensor.t) ->
    ?obs:Cortex_obs.Obs.t ->
    ?autotune:bool ->
    ?tune_budget:int ->
    ?session_budget_bytes:int ->
    ?session_ttl_us:float ->
    ?session_spill_dir:string ->
    ?session_pack_window:int ->
    ?session_pack_wait_us:float ->
    unit ->
    t
  (** [base] (default {!default}) with each passed argument's field
      replaced; [policy] is [dispatch.batching], [dispatch] is
      [dispatch.selection] and the [session_*] arguments set
      [sessions].  [session_pack_window] > 1 turns on
      multi-session delta packing (see {!summary}); the default of 1
      keeps every session token its own size-1 window. *)

  val to_string : t -> string
  (** Deterministic [key=value] lines, in this order: [max_batch],
      [max_wait_us], [bucketing] ([fifo]|[by_size]), [selection],
      [devices] (comma-separated backend names), [cache_capacity],
      [lock_free], [options] ({!Cortex_lower.Lower.options_to_string}),
      [queue_cap], [degrade_watermark], [faults] ({!Fault.to_string}),
      [seed], [autotune], [tune_budget], [sessions.budget_bytes],
      [sessions.ttl_us], [sessions.spill_dir], [sessions.pack_window]
      and [sessions.pack_wait_us].  Unset optionals are omitted;
      [sessions.pack_window] / [sessions.pack_wait_us] print only when
      set away from their defaults, so bundles built before packing
      existed stay byte-identical.  [obs] and [params] are not
      serialized. *)

  val of_string : string -> (t, string) result
  (** Parse {!to_string}'s form (newline- or tab-separated lines; [#]
      comments and blank lines ignored) over {!default}, one line at a
      time in order: a key bound twice takes its last line's value, so
      appending lines to a text overrides it.  [Error] carries a
      human-readable reason (unknown key, malformed value, unknown
      backend name…). *)
end

(** {2 Engine lifecycle} *)

type t

val create :
  ?config:Config.t ->
  model:Cortex_ra.Ra.t ->
  backend:Cortex_backend.Backend.t ->
  unit ->
  t
(** Compile [model] once (per [config.compile.options], default
    {!Cortex_lower.Lower.default}) and stand up an empty queue
    configured by [config] (default {!Config.default}).  [backend] is
    the single-request pricing device for {!run_one} and the default
    fleet when [config.dispatch.devices] is unset.  Raises
    [Invalid_argument] on malformed config values (non-positive
    [max_batch], negative caps, empty device list, a fault spec that
    does not fit the fleet). *)

val of_spec :
  ?config:Config.t ->
  M.t ->
  backend:Cortex_backend.Backend.t ->
  t
(** {!create} on the spec's program. *)

val of_bundle :
  ?config:Config.t ->
  ?expect_model:string ->
  Cortex_bundle.Bundle.t ->
  backend:Cortex_backend.Backend.t ->
  t
(** Stand up an engine from an ahead-of-time compiled bundle
    ([cortex build]): the bundle's artifact is installed as-is — {e
    zero} lowering passes run at serve time (pinned by the Obs test
    counting ["lower"] wall spans) — and any tuned plans ride along
    into the plan cache, so first contact with their (backend,
    size-class) is a hit with no search.

    [config] (default: parsed from the bundle's embedded config text)
    configures everything else.  Bundle weights are {e not}
    auto-installed as [params]; pass
    [Config.make ~params:(Bundle.resolver b) ()] to serve numerically.

    Raises [Bundle.Error (Backend_mismatch _)] when the artifact was
    built for a different backend than [backend],
    [Bundle.Error (Model_mismatch _)] when [expect_model] disagrees
    with the bundle's recorded model name, and
    [Bundle.Error (Corrupt_section _)] when no [config] is supplied
    and the bundle's embedded config text does not parse. *)

val compiled : t -> Cortex_lower.Lower.compiled
val backend : t -> Cortex_backend.Backend.t
val cache_stats : t -> Shape_cache.stats
(** Cumulative shape-cache counters (regular windows and {!execute}). *)

val pending : t -> int
(** Requests queued and not yet drained. *)

val plan_cache_stats : t -> Plan_cache.stats option
(** Cumulative plan-cache counters when [autotune] is on. *)

val config : t -> Config.t
(** The configuration the engine was created with. *)

(** {2 Serving simulation} *)

val submit :
  t ->
  ?arrival_us:float ->
  ?deadline_us:float ->
  ?session:string ->
  Cortex_ds.Structure.t ->
  (int, error) result
(** Validate a request against the compiled model (kind, fanout, and
    for a [session] a schedule that serves deltas) and enqueue it;
    returns its request id.  [arrival_us] (default 0)
    stamps the simulated arrival clock; [deadline_us] is the {e
    absolute} completion deadline on the same clock (default none — the
    request can never miss).  The queue cap is checked {e before}
    validation — an overloaded server drops before it parses — so a
    shed invalid request counts as shed, not rejected.

    [session] pins the request to a named growing conversation, served
    on the session's pinned device, alone or packed with other sessions'
    delta tokens ([sessions.pack_window]), each token as one step of
    the session's {!Cortex_linearizer.Linearizer.growing} layout, never
    through the shape cache.  When the structure is the previous one
    plus appended nodes (same [Node.t] values, new nodes on top) the
    step is only the delta, over pre-seeded hidden states; any other
    structure is served cold, as one step of the whole structure (and
    a different conversation drops the persisted state). *)

val submit_exn :
  t ->
  ?arrival_us:float ->
  ?deadline_us:float ->
  ?session:string ->
  Cortex_ds.Structure.t ->
  int
(** {!submit}, raising {!Error} on rejection (including {!Shed}). *)

type request_report = {
  rr_id : int;
  rr_nodes : int;
  rr_window : int;  (** index of the window that served it *)
  rr_window_size : int;  (** how many requests shared that window *)
  rr_device : int;  (** index of the device the window ran on *)
  rr_arrival_us : float;
  rr_deadline_us : float;  (** absolute; [infinity] when none was set *)
  rr_queue_us : float;  (** arrival -> window dispatch *)
  rr_linearize_us : float;
      (** simulated host charge before dispatch: the priced restore of a
          spilled session's token, 0 otherwise (the inspector's host
          time is on the [obs] ["inspector"] track, not the simulated
          clock) *)
  rr_device_us : float;  (** simulated device latency of the window *)
  rr_total_us : float;  (** arrival -> completion *)
  rr_on_time : bool;  (** completed at or before its deadline *)
}

type window_report = {
  wr_index : int;
  wr_size : int;
  wr_nodes : int;
  wr_device : int;  (** index of the device it (finally) ran on *)
  wr_cache_hit : bool;
      (** whether the forest numbering came out of the shape cache *)
  wr_attempts : int;
      (** executions charged against the retry budget (1 = clean run;
          failover re-dispatches after a fail-stop are not counted) *)
  wr_dispatch_us : float;
  wr_report : Runtime.report;  (** full backend report for the forest *)
  wr_session : string option;
      (** the session this (size-1, device-pinned) window belongs to;
          [None] for regular batched windows and for packed windows *)
  wr_packed : string list;
      (** member session names of a packed multi-session window, in
          pack order; [[]] for regular and size-1 session windows *)
}

type device_report = {
  dr_index : int;
  dr_backend : Cortex_backend.Backend.t;
  dr_failed : bool;  (** fail-stopped during this drain *)
  dr_windows : int;
  dr_requests : int;
  dr_nodes : int;
  dr_busy_us : float;  (** total time occupied by windows *)
  dr_utilization : float;
      (** busy time over the drain's makespan — the classic
          open-systems utilization; near 1 means this device is the
          bottleneck, near 0 that dispatch starved it *)
  dr_occupancy : float;
      (** busy-time-weighted mean lane occupancy of the windows it ran
          ({!Cortex_backend.Backend.mean_occupancy}) — how full the
          device's lanes were {e while} it was busy *)
}

type aggregate = {
  num_requests : int;
  num_windows : int;
  mean_window : float;  (** requests per window *)
  throughput_rps : float;  (** completed requests per simulated second *)
  mean_us : float;  (** mean request latency (arrival -> completion) *)
  p50_us : float;
  p99_us : float;
  makespan_us : float;
}

(** SLO accounting for one drain. *)
type slo = {
  slo_seed : int;  (** the engine's fault-injection seed, for the report *)
  slo_degraded : bool;  (** the drain ran with the degraded policy *)
  slo_completed : int;
  slo_lost : int;
      (** requests whose window exhausted retries or found no live
          device *)
  slo_shed : int;  (** submissions bounced off the queue cap *)
  slo_rejected : int;  (** submissions that failed validation *)
  slo_transients : int;  (** transient aborts observed *)
  slo_retries : int;  (** re-executions after a transient abort *)
  slo_failovers : int;  (** re-dispatches after an in-flight fail-stop *)
  slo_deadline_misses : int;  (** completed, but after the deadline *)
  slo_on_time : int;
  slo_goodput_rps : float;
      (** on-time completions per simulated second, against
          [aggregate.throughput_rps]'s all-completions count *)
  slo_first_damage_us : float option;
      (** the earliest SLO-visible damage on the simulated clock — the
          first shed arrival, lost window, or passed deadline; [None]
          when the drain hurt nothing.  The FMECA campaign measures
          detectability lead against this instant. *)
}

(** Per-session counters, cumulative over the session's lifetime: they
    are kept per name, so evictions and restores do not reset them, and
    only {!close_session} drops them.  [sn_nodes], [sn_device],
    [sn_bytes] and [sn_materializations] describe the live session
    instead. *)
type session_report = {
  sn_name : string;
  sn_nodes : int;  (** nodes of the session's current structure *)
  sn_windows : int;  (** tokens served: [sn_extends + sn_cold] *)
  sn_delta_nodes : int;  (** nodes served through layout steps *)
  sn_extends : int;  (** windows served as deltas (layout steps) *)
  sn_cold : int;  (** windows served cold: the whole conversation as one step *)
  sn_materializations : int;
      (** regrowths of the session's current layout
          ({!Cortex_linearizer.Linearizer.regrowths}; a restore reseeds
          a fresh one, so this restarts at 0): a conversation
          that outgrows the layout's capacity is copied into tables
          twice as large.  That copy is the session's only O(n) layout
          rebuild, and doubling keeps a token's host cost amortized
          O(delta). *)
  sn_rebinds : int;
      (** re-pins of a previously pinned session to another device: its
          pinned device failed, or a packed window it joined runs on
          another member's device *)
  sn_packed : int;
      (** tokens of this session served inside packed multi-session
          windows (a subset of [sn_extends]) *)
  sn_deadline_misses : int;
      (** tokens that completed after their deadline *)
  sn_device : int;  (** pinned device index; -1 before the first window *)
  sn_bytes : int;
      (** accounted bytes: the conversation's layout
          ({!Cortex_linearizer.Linearizer.layout_bytes}) plus the state
          rows it pins — what the session-table budget prices *)
  sn_evictions : int;  (** times this name was evicted (spilled) *)
  sn_restores : int;
      (** times a spill of this name was accepted by a restore (a refused
          spill is consumed and counts nothing) *)
}

type plan_report = {
  pr_backend : string;  (** [Backend.short] *)
  pr_bucket : int;  (** {!Dispatch.size_bucket} shape class *)
  pr_plan : string;  (** serialized plan; ["default"] if the empty plan won *)
  pr_default_us : float;  (** simulated latency of the default schedule *)
  pr_tuned_us : float;  (** simulated latency under the winning plan *)
}

type summary = {
  aggregate : aggregate;
  requests : request_report list;  (** by request id; completed only *)
  windows : window_report list;
  device_reports : device_report list;  (** one per device, in index order *)
  cache : Shape_cache.stats;
      (** cumulative shape-cache counters at the end of this drain *)
  slo : slo;
  results : (int * Cortex_tensor.Tensor.t) list;
      (** with [params]: each completed request's root output (first
          declared model output at its structure's first root), by
          request id *)
  sessions : session_report list;
      (** one per live session, by name; sessions persist across
          drains (an evicted session is not live — it reappears here
          after a restore) *)
  session_table : Session_store.stats;
      (** bounded-table accounting at the end of this drain: live
          sessions and bytes against the budget, spills/restores and
          their cumulative priced costs *)
  packed_windows : int;
      (** the [windows] with [wr_packed <> []]: their level batches
          merged several sessions' layout steps, each saving its members'
          worth of per-level kernel launches minus one *)
  packed_tokens : int;  (** the [wr_size] sum of those windows *)
  metrics : Cortex_obs.Metrics.snapshot option;
      (** with [obs]: the metrics registry at the end of this drain —
          request/fault counters, queue and utilization gauges, latency
          and window-size histograms; [None] when no handle is
          installed *)
  plans : plan_report list;
      (** with [autotune]: one line per tuned (backend, size-class),
          sorted, with default-vs-tuned simulated latency *)
  plan_cache : Plan_cache.stats option;
      (** with [autotune]: cumulative hit/miss counters and the host
          wall time spent tuning *)
}

val drain : t -> summary
(** Play everything queued through the engine's simulated devices, in
    named stages over one drain state.  {e Form windows} of regular
    requests per the engine's {!policy} (degraded past the watermark)
    and {e form packs} of session tokens (several sessions' delta tokens
    share a window when [sessions.pack_window] > 1).  Then, item by item
    in ready order: {e serve} each session token (restore a spill, then
    one step of its session's layout: a delta, or the whole structure
    from base 0 when it is served cold — a regular window's forest is
    linearized once through the shape cache instead); {e price} the
    window on a device (under [autotune], regular and packed windows
    run plans tuned in separate key spaces, size-1 session windows
    untuned); {e dispatch} it with attempts and retries on a live device
    (a session's pinned one while it survives) from [max(device free,
    ready)], through the fault model: stragglers scale the price,
    transients abort-and-retry with backoff, fail-stops abort in flight
    and fail over; and {e account} the result — re-account every member
    session; a lost window's sessions serve their next token cold.  A
    session item runs one eviction pass once all its windows have
    played.  Last, {e summarize}.  Device clocks
    and fault streams are fresh per drain; the shape cache and session
    table persist.  An explicit drain is a flush: the trailing partial
    window is ready at its last member's arrival.  Empties the queue and
    resets the shed/rejected counters into the summary. *)

val run_trace : t -> Trace.t -> summary
(** {!submit} every event of the trace at its arrival time (with its
    deadline), then {!drain}.  A {!Shed} result is tolerated and
    counted; any other rejection raises {!Error}.  Raises
    [Error (Unsorted_trace _)] if the trace is not sorted by arrival
    time. *)

val sessions : t -> session_report list
(** Live sessions, by name.  A session is created by the first
    {!submit}[ ~session] under its name and lives (layout, pinned
    device, persisted states, counters) until {!close_session}. *)

val session_state :
  t -> string -> string -> Cortex_ds.Node.t -> Cortex_tensor.Tensor.t option
(** [session_state t name st node] is a copy of a node's persisted row
    of state [st] in live session [name] (by the node's identity in the
    conversation) — [None] when the session, node or state is unknown,
    or the engine serves without [params]. *)

val close_session : t -> string -> unit
(** Drop a session for good: its layout, device pin and
    persisted states are released, and any held spill — record and
    file — is discarded.  The shape cache holds nothing of a session's.
    Unknown names are ignored. *)

(** {2 Bounded session table}

    Sessions are priced ([Linearizer.layout_bytes] of the current
    conversation plus the state rows it pins) and accounted against
    [Config.sessions]: after every session item (once, after all of
    its windows have played and re-accounted their members) and at the
    end of every drain, sessions idle past [ttl_us] expire and — if the
    survivors still exceed [budget_bytes] — sessions are evicted in
    policy order (LRU by default) until the table fits.  The table is
    {!Session_store}'s, the one place live sessions are kept.  An
    evicted session's rows are spilled as a
    {!Cortex_runtime.Checkpoint} session section, one [[n; dims]]
    tensor per state (in memory, or one file per session under
    [spill_dir]); when its conversation comes back — grown, under the
    same name — the spill is checked by tensor shapes and by a content
    digest over the prefix and the rows, its rows are adopted, and the
    next token serves as a delta with its boundary states preloaded: bitwise identical to a
    never-evicted run, and the deterministic priced restore cost is
    charged to that token.  A spill that fails a check is consumed and
    counts no restore; its token serves cold.  With a [spill_dir],
    restore also works across a full engine restart from a bundle. *)

val session_table_stats : t -> Session_store.stats
(** The bounded-table accounting right now (between drains). *)

val set_session_budget : t -> int option -> unit
(** Change the accounted-bytes budget in place ([None] = unbounded).
    Takes effect at the next eviction pass — the next session item or
    drain end. *)

val evict_session : t -> string -> bool
(** Evict one live session immediately (spilling its restorable
    state), regardless of budget and TTL — operational lever and test
    hook.  [false] when the name is not live. *)

val run_one : t -> Cortex_ds.Structure.t -> Runtime.report
(** Single-request convenience: validate, linearize and price one
    structure on the engine's backend, charging the linearization its
    {!Cortex_linearizer.Linearizer.priced_us} — what
    [Runtime.compile] + [Runtime.simulate] used to spell per call
    site, minus the recompilation. *)

(** {2 Numeric execution} *)

type execution

val execute :
  t ->
  params:(string -> Cortex_tensor.Tensor.t) ->
  Cortex_ds.Structure.t list ->
  execution
(** Validate and forest-linearize the requests, then run the compiled
    kernels numerically over the merged forest (one pass serves every
    request).  Raises {!Error} on a malformed request. *)

val execute_one :
  t ->
  params:(string -> Cortex_tensor.Tensor.t) ->
  Cortex_ds.Structure.t ->
  execution

val state :
  execution -> ?request:int -> string -> Cortex_ds.Node.t -> Cortex_tensor.Tensor.t
(** [state e ~request st node] reads state [st] of [node] {e of request
    [request]'s original structure} (default request 0) out of the
    executed forest, through the linearizer's span tables.  Bitwise
    identical to executing that request alone. *)

val forest : execution -> Linearizer.forest
(** The forest linearization backing this execution. *)
