(** The session table: the engine's live sessions, their state rows,
    their byte budget and their spills.

    PR 7's sessions hold per-node hidden states on their device forever
    — a million-user fleet cannot.  This module is the one table of
    live sessions.  A session holds its pinned device, its counters, its
    one layout (a {!Cortex_linearizer.Linearizer.growing}), its state
    rows — one growable matrix per state, row [i] for request-local
    node [i] — and its accounted bytes (layout plus rows, priced by
    {!Cortex_linearizer.Linearizer.layout_bytes} and [state_rows_bytes])
    and last-use simulated timestamp.  The store decides {e which}
    sessions a pass must evict ({!victims}: TTL expiries first, then
    least-recently-used until the table fits the budget), writes an
    evicted session's rows as a {!Cortex_runtime.Checkpoint} session
    section, and restores that spill when the conversation is
    re-admitted.  The engine plays windows; it keeps no session table of
    its own.

    Spills live in memory by default, or as one [.csx] file per session
    under [spill_dir] — the file-backed form is what lets a
    conversation survive a full engine restart from a bundle.

    Spill and restore costs are {e priced}, not measured: a
    deterministic function of the byte count (fixed overhead plus a
    bytes-over-bandwidth term, like the backend latency models), so
    drains that evict stay byte-reproducible. *)

type config = {
  budget_bytes : int option;
      (** Accounted-bytes ceiling across live sessions; [None] = unbounded. *)
  ttl_us : float option;
      (** Idle time after which a session expires; [None] = never. *)
  spill_dir : string option;
      (** Directory for spill files; [None] keeps spills in memory. *)
  pack_window : int;
      (** Most session tokens one packed forest window may merge;
          1 disables packing (every token is its own size-1 window,
          the PR 7 behaviour). *)
  pack_wait_us : float;
      (** How far past a pack's first member arrival a later token may
          land and still join it; 0 packs only same-instant tokens. *)
}

val default_config : config
(** Unbounded, no TTL, in-memory spills, packing off — the PR 7
    behaviour. *)

type stats = {
  st_live : int;  (** Sessions in the table. *)
  st_bytes : int;  (** Their accounted bytes. *)
  st_budget_bytes : int option;  (** The ceiling in force, if any. *)
  st_spilled : int;  (** Sessions currently evicted with a spill held. *)
  st_evictions : int;  (** Cumulative evictions (TTL + budget). *)
  st_expired : int;  (** Of which TTL expiries. *)
  st_spills : int;  (** Cumulative spill records written. *)
  st_restores : int;  (** Cumulative spills accepted by a restore. *)
  st_spilled_bytes : int;  (** Cumulative serialized bytes spilled. *)
  st_spill_us : float;  (** Cumulative priced spill cost. *)
  st_restore_us : float;  (** Cumulative priced cost of those restores. *)
}

(** A name's lifetime counters.  They are kept per name, not per live
    session, so they survive evict/restore cycles; only {!forget} drops
    them. *)
type counters = {
  mutable c_extends : int;  (** windows served from a layout step *)
  mutable c_cold : int;  (** windows served cold: the layout seeded afresh *)
  mutable c_rebinds : int;  (** re-pins of a previously pinned session *)
  mutable c_delta_nodes : int;  (** nodes served via layout steps *)
  mutable c_packed : int;  (** windows served inside a packed window *)
  mutable c_deadline_misses : int;  (** tokens completed past deadline *)
  mutable c_evictions : int;  (** times the name was evicted *)
  mutable c_restores : int;  (** spills of the name accepted by a restore *)
}

(** A live session.  The engine serves tokens through the fields up to
    [sx_layout]; the rows and the accounting belong to the store. *)
type session = {
  sx_name : string;
  sx_counters : counters;  (** the name's record, shared across evictions *)
  mutable sx_structure : Cortex_ds.Structure.t option;  (** last structure served *)
  mutable sx_device : int option;
      (** pinned device index; an eviction drops it *)
  mutable sx_restored_base : int option;
      (** [Some b]: the first [b] nodes were just restored from a spill —
          the next token's step trusts the content digest instead of
          physical prefix identity (meaningless across an eviction) *)
  sx_layout : Cortex_linearizer.Linearizer.growing;
  mutable sx_rows : float array array;
      (** one matrix per state of the store's row format *)
  mutable sx_num_rows : int;  (** rows [0, sx_num_rows) hold persisted states *)
  mutable sx_bytes : int;  (** accounted bytes at the last {!touch} *)
  mutable sx_last_us : float;  (** last use, simulated *)
}

type t

val create :
  ?config:config ->
  model:string ->
  max_children:int ->
  states:(string * int array) list ->
  unit ->
  t
(** An empty table for sessions of program [model] (the name a spill
    is checked against) with child tables [max_children] wide.
    [states] is the row format: each persisted state's name and
    per-node dims, [[]] when the engine keeps no rows.  With a
    file-backed [spill_dir] the directory is created on first spill,
    not here. *)

val set_budget : t -> int option -> unit
(** Change the byte ceiling in place — takes effect at the next
    eviction pass (the harness's budget-shrink lifecycle op). *)

val find : t -> string -> session option
(** The live session of that name. *)

val session : t -> string -> session
(** Find or create: a new session has no structure, no rows and no
    pin, and points at its name's counters (fresh unless the name was
    evicted before); it is accounted at its first {!touch}. *)

val sessions : t -> session list
(** Every live session, in no particular order. *)

val held_spills : t -> (string * int * counters) list
(** Every name evicted with a spill held and no live session, in no
    particular order: the name, the node count its spill covers and
    its lifetime counters. *)

val touch : t -> session -> now_us:float -> unit
(** Re-account a live session at its current size, last used at
    [now_us].  A session that has left the table is left alone. *)

val reset : session -> unit
(** Drop the session's structure and rows: a different conversation
    took over its name, or a lost window left its rows incomplete.
    The counters stay. *)

val load_row : t -> session -> int -> into:float array array -> at:int -> unit
(** [load_row t sx node ~into ~at] blits [node]'s row of every state
    into [into.(k)], the bound storage of the format's [k]-th state,
    as row [at].  Raises [Failure] when [node] has no persisted row. *)

val save_row : t -> session -> int -> from:float array array -> at:int -> unit
(** The reverse: persist row [at] of [from] as [node]'s rows, growing
    the matrices as needed. *)

val row : t -> session -> string -> int -> Cortex_tensor.Tensor.t option
(** A copy of one node's persisted row of one state, shaped as the
    state's dims; [None] for an unknown state or a node with no row. *)

val victims : t -> now_us:float -> (session * [ `Ttl | `Budget ]) list
(** The sessions an eviction pass at [now_us] must remove, in eviction
    order: every live session idle past [ttl_us] first, then — if the
    survivors still exceed [budget_bytes] — least-recently-used
    sessions until the table fits.  Deterministic: ties break on the session
    name.  Empty when neither bound is configured or the table fits; with
    no TTL and the running byte total within the budget it returns at
    once, without looking at a session. *)

val evict : t -> session -> expired:bool -> float
(** Take a live session out of the table.  Its conversation's rows are
    spilled — in memory, or as a file under [spill_dir] — for
    re-admission; a session with no structure keeps no spill.  Returns
    the priced spill cost in microseconds (0 without a spill) and folds
    it into {!stats}.  A session not in the table is left alone. *)

val restore : t -> session -> Cortex_ds.Structure.t -> float option
(** Re-admit a spilled conversation into a session that holds none: if
    a spill is held under its name it is consumed (record and file),
    checked against the incoming structure (model, strict growth,
    tensor shapes, and a content digest over the prefix and the rows),
    the layout is reseeded over the prefix and the rows refilled.
    [Some cost], the priced restore, on success: the next token serves
    as a delta with its boundary rows preloaded.  [None] when nothing is
    held, or when the spill is refused — the session is then {!reset}
    and its token serves cold. *)

val forget : t -> string -> unit
(** Remove every trace of [name]: the live session, spill record,
    spill file, lifetime counters ([Engine.close_session]). *)

val stats : t -> stats

val spill_cost_us : bytes:int -> float
(** The deterministic price of spilling [bytes]. *)

val restore_cost_us : bytes:int -> float
(** The deterministic price of restoring [bytes]. *)
