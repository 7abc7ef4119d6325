(** Bounded session-table accounting: budgets, LRU/TTL eviction and
    spill/restore bookkeeping for the engine's pinned sessions.

    PR 7's sessions hold per-node hidden states on their device forever
    — a million-user fleet cannot.  This module is the pure bookkeeping
    half of the bounded table: it tracks each live session's accounted
    bytes (layout + state rows, priced by
    {!Cortex_linearizer.Linearizer.layout_bytes} and
    [state_rows_bytes]) and its last-use simulated timestamp, decides
    {e which} sessions a drain must evict ({!victims}: TTL expiries
    first, then least-recently-used until the table fits the budget),
    and holds the spilled {!Cortex_runtime.Checkpoint} session sections
    until the conversation is re-admitted.  The engine keeps the sessions
    themselves; the store never touches tensors or devices.

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
  st_live : int;  (** Sessions currently accounted (live in the engine). *)
  st_bytes : int;  (** Their accounted bytes. *)
  st_budget_bytes : int option;  (** The ceiling in force, if any. *)
  st_spilled : int;  (** Sessions currently evicted with a spill held. *)
  st_evictions : int;  (** Cumulative evictions (TTL + budget). *)
  st_expired : int;  (** Of which TTL expiries. *)
  st_spills : int;  (** Cumulative spill records written. *)
  st_restores : int;  (** Cumulative spill records consumed. *)
  st_spilled_bytes : int;  (** Cumulative serialized bytes spilled. *)
  st_spill_us : float;  (** Cumulative priced spill cost. *)
  st_restore_us : float;  (** Cumulative priced restore cost. *)
}

type t

val create : ?config:config -> unit -> t
(** A store with no live sessions.  With a file-backed [spill_dir] the
    directory is created on first spill, not here. *)

val config : t -> config

val set_budget : t -> int option -> unit
(** Change the byte ceiling in place — takes effect at the next
    eviction pass (the harness's budget-shrink lifecycle op). *)

val touch : t -> string -> bytes:int -> now_us:float -> unit
(** Account [name] as live at [bytes] total, last used at [now_us].
    Creates the entry on first touch (admission and re-admission both
    land here). *)

val victims : t -> now_us:float -> (string * [ `Ttl | `Budget ]) list
(** The sessions an eviction pass at [now_us] must remove, in eviction
    order: every live session idle past [ttl_us] first, then — if the
    survivors still exceed [budget_bytes] — least-recently-used
    sessions until the table fits.  Deterministic: ties break on the session
    name.  Empty when neither bound is configured or the table fits; with
    no TTL and the running byte total within the budget it returns at
    once, without looking at a session. *)

val spill : t -> string -> data:string -> expired:bool -> float
(** Evict [name]: drop its live accounting and hold [data] (a
    serialized checkpoint session section) for re-admission — in
    memory, or as a file under [spill_dir].  Returns the priced spill
    cost in microseconds and folds it into {!stats}. *)

val drop : t -> string -> unit
(** Evict [name] without keeping a spill (counts the eviction, not a
    spill): used when there is no state worth keeping. *)

val has_spill : t -> string -> bool
(** A spill is held for [name] — in memory or on disk (a fresh engine
    finds the files its predecessor wrote). *)

val restore : t -> string -> (string * float) option
(** Consume the spill held for [name]: the serialized bytes and the
    priced restore cost in microseconds.  Removes the record (and the
    file).  [None] when nothing is held. *)

val forget : t -> string -> unit
(** Remove every trace of [name]: live accounting, spill record, spill
    file, per-session counters ([Engine.close_session]). *)

val evictions_of : t -> string -> int
(** Cumulative evictions of [name], surviving evict/restore cycles. *)

val restores_of : t -> string -> int
(** Cumulative restores of [name]. *)

val stats : t -> stats

val spill_cost_us : bytes:int -> float
(** The deterministic price of spilling [bytes]. *)

val restore_cost_us : bytes:int -> float
(** The deterministic price of restoring [bytes]. *)
