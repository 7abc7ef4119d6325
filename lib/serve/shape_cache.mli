(** Shape-keyed linearization cache.

    Relay-style whole-program compilation leaves the inspector — the
    linearizer's host-side traversal — as the serving hot path.  But
    repeated requests overwhelmingly repeat {e shapes} (the same parse
    topology over different words, the same grid over different
    payloads), and every array the linearizer produces except the
    payload table is a pure function of the shape.  This cache keys
    cold linearizations by {!Cortex_linearizer.Linearizer.shape_key}
    (an exact canonical encoding — equality on keys {e is} shape
    equality, no collision handling needed) and serves repeats by
    payload re-binding ({!Linearizer.rebind_forest}): O(nodes) stores
    into a fresh payload table instead of a full traversal, numbering
    and child tables shared.

    One cache serves one compiled model: the numbering also depends on
    the model's [max_children] (child-table width), which the owning
    engine passes as a constant. *)

module Linearizer = Cortex_linearizer.Linearizer

type t

type stats = { hits : int; misses : int; entries : int }

val create : ?capacity:int -> unit -> t
(** An empty cache holding at most [capacity] shapes (default 1024).
    When the table fills, it is dropped wholesale (epoch eviction) —
    hot shapes re-enter within a request or two.  [capacity = 0]
    disables caching: every lookup is a miss that stores nothing (used
    by the benches' cold-path comparisons). *)

val find_or_linearize :
  ?obs:Cortex_obs.Obs.t ->
  t ->
  max_children:int ->
  Cortex_ds.Structure.t list ->
  Linearizer.forest * bool
(** The forest linearization of [structures], and whether it was served
    from the cache.  On a miss, runs
    {!Linearizer.run_forest}[ ~max_children] and caches the result; on a
    hit, re-binds the requests' payloads into the cached numbering.
    Raises {!Linearizer.Rejected} exactly as [run_forest] would (a
    rejection counts as neither hit nor miss): both counters move only
    after the work the cache accounts for actually succeeded.  Every
    entry is a forest this function linearized itself, so a hit's key
    always matches its forest.

    [obs] records the inspector work as a wall-clock span on the
    ["inspector"] track ([linearize] for a miss, [rebind] for a hit)
    and bumps the [cache.hits]/[cache.misses] counters. *)

val stats : t -> stats
(** Cumulative hit/miss counters and current entry count. *)

val hit_rate : stats -> float
(** Hits over lookups, 0 when no lookups happened. *)

val clear : t -> unit
(** Drop all entries and zero the counters. *)
