(** Data structure linearization (§4.2 and Appendix B of the paper).

    At inference time the linearizer — the inspector of the
    inspector-executor pair — traverses the pointer-linked input
    structure on the host CPU and lays it out as arrays for the compiled
    loop nests to iterate over.  No tensor computation happens here
    (property P.1 lets all control flow be resolved from the structure
    alone).

    Numbering scheme (Appendix B): nodes are renumbered such that
    (i) every child is numbered strictly higher than each of its
    parents, (ii) nodes in a dynamic batch occupy a contiguous id range,
    and (iii) all leaves are numbered higher than all internal nodes.
    Consequence: a dynamic batch is representable as a
    [(batch_begin, batch_length)] pair and a leaf check is the single
    comparison [n >= leaf_begin] instead of a memory load. *)

type t = {
  structure : Cortex_ds.Structure.t;
  num_nodes : int;
  num_leaves : int;
  max_children : int;
  new_of_old : int array;  (** creation id -> linearized id *)
  old_of_new : int array;  (** linearized id -> creation id *)
  leaf_begin : int;  (** leaves are exactly [leaf_begin, num_nodes) *)
  child : int array array;
      (** [child.(k).(n)] is the linearized id of the [k]-th child of
          node [n], or [-1] past its fanout; [k < max_children]. *)
  num_children : int array;
  payload : int array;  (** model input payloads, by linearized id *)
  level_of : int array;
      (** dynamic-batching level by linearized id: 0 for leaves,
          [1 + max over children] otherwise. *)
  batches : (int * int) array;
      (** all dynamic batches in execution order — the leaf batch first,
          then internal levels bottom-up; each is
          [(batch_begin, batch_length)]. *)
  postorder : int array;
      (** linearized ids in the order the recursive program would visit
          them (children-first DFS) — the execution order when dynamic
          batching is off. *)
}

type rejection =
  | Fanout_exceeded of { node : int; arity : int; max_children : int }
      (** A node's arity exceeds what the compiled model admits —
          running anyway would silently mis-number the child tables. *)
  | Mixed_kinds of Cortex_ds.Structure.kind * Cortex_ds.Structure.kind
      (** A forest mixes structure kinds. *)
  | Empty_forest
  | Empty_structure
      (** A structure with no nodes — linearizing it would emit a
          phantom [(0, 0)] batch (one kernel launch over nothing). *)
  | Empty_delta  (** A {!delta} with no nodes. *)
  | Bad_delta of string
      (** A {!delta} that does not describe growth of its request — bad
          ids, foreign nodes or unreachable nodes.  The caller should
          fall back to a cold {!run_forest}. *)

exception Rejected of rejection
(** Typed input-validation failure, raised by {!run} and {!run_forest}
    instead of crashing (or worse, silently mis-numbering) on malformed
    inputs. *)

val rejection_to_string : rejection -> string

val run : ?max_children:int -> Cortex_ds.Structure.t -> t
(** Linearize.  Cost is O(nodes * max_children); §7.5 measures its wall
    clock.

    [max_children] overrides the structure's declared fanout bound with
    the *model's* — the produced child tables then have exactly the
    width the compiled kernels index, which is what lets one compiled
    model serve structures built with differing declarations.  Raises
    {!Rejected} ([Fanout_exceeded]) if any node's actual arity exceeds
    the bound. *)

(** {2 Forest linearization (cross-request batching)}

    The serving engine merges the structures of several concurrent
    inference requests into one linearized {e forest} so a single kernel
    sequence covers the whole batch window.  The Appendix-B numbering
    already makes per-level dynamic batches contiguous; linearizing the
    merged forest therefore batches {e across} requests for free, and
    each request additionally occupies a contiguous id range {e within}
    every level (requests are merged in submission order). *)

type span = {
  span_structure : Cortex_ds.Structure.t;  (** the original request *)
  span_ids : int array;
      (** request-local node id -> linearized forest id *)
  span_levels : (int * int) array;
      (** per level, the [(begin, length)] range of this request's nodes
          within the forest numbering — contiguous by construction *)
}

type forest = {
  lin : t;  (** the linearization of the merged forest *)
  spans : span array;  (** one per request, in submission order *)
}

val run_forest : ?max_children:int -> Cortex_ds.Structure.t list -> forest
(** Merge the requests' structures and linearize the forest.  Raises
    {!Rejected} on an empty list, mixed structure kinds, or a fanout
    violation (checked per request, against the request's own node
    ids). *)

val shape_key : ?max_children:int -> Cortex_ds.Structure.t list -> string
(** The canonical shape encoding of a forest: the fanout bound, kinds,
    node counts, root ids and per-node children ids — everything the
    numbering depends on, payloads excluded.  Equal keys iff
    {!run_forest} under the same [max_children] produces identical
    numberings, so a shape-keyed cache needs no collision handling.
    [max_children] defaults as in {!run_forest} (the maximum declared
    bound across the requests); pass the model's bound when the cache
    serves compiled models — the bound is the child-table width, so
    equal shapes under different bounds are different layouts. *)

val rebind_forest : forest -> Cortex_ds.Structure.t list -> forest
(** [rebind_forest cached structures] reuses a cached numbering for a
    forest whose {!shape_key} equals the cached one: the requests are
    re-merged (an O(nodes) structure copy — [Structure.merge_mapped]'s
    id assignment depends on topology alone, so the cached numbering
    tables stay valid), payloads are re-bound through the span maps
    into a fresh payload table, the spans' [span_structure]s point at
    the new requests, and every other array is shared with the cached
    run (they are pure functions of the shape).  The result satisfies
    {!check_forest} and is indistinguishable from a cold {!run_forest}
    of the same requests; only the numbering/batching/span work is
    skipped.  Raises [Invalid_argument] on a request count or node
    count mismatch (the cheap prefix of shape equality — callers are
    expected to key on {!shape_key}). *)

(** {2 Delta linearization (incremental growth)}

    Interactive workloads grow structures incrementally — token by
    token for sequences, node by node for trees.  {!extend} states that
    growth as a {!delta} against a linearized forest and returns the
    grown forest.  It validates the delta, appends it and runs a cold
    {!run_forest}, so it costs what a cold run costs; it stays for the
    repository benchmark's replay.  What serving grows is a
    {{!growing}growing layout}: a session's per-token work there is
    O(delta). *)

type delta = {
  d_request : int;  (** which request of the forest grows *)
  d_roots : Cortex_ds.Node.t list;
      (** the grown request's new root list (new roots graft over old
          ones; an old root may remain a root) *)
  d_nodes : Cortex_ds.Node.t array;
      (** the appended nodes, ids continuing the request's dense range;
          children may be old nodes (physically) or earlier delta
          nodes *)
}

val extend : forest -> delta -> forest
(** [extend f delta] returns the forest of the grown requests —
    identical, array for array, to a cold {!run_forest} of them at the
    forest's child-table width (it is one).  Raises {!Rejected}
    ([Empty_delta], [Bad_delta], [Fanout_exceeded]) when the delta is
    not growth of its request. *)

val check_forest : forest -> unit
(** {!check} on the merged linearization, plus the span invariants:
    spans partition the id space, every request edge/payload/arity maps
    through [span_ids], and each request's per-level ranges are
    contiguous.  Raises [Failure] on violation. *)

val leaf_batch : t -> int * int
(** The leaf partition produced for specialized leaf checks. *)

val internal_batches : t -> (int * int) array
(** Batches of internal nodes only, in execution order. *)

val is_leaf : t -> int -> bool
(** The single-comparison leaf check of Appendix B. *)

val check : t -> unit
(** Validates every invariant documented above against the original
    structure; raises [Failure] on violation.  Used by the test suite
    and cheap enough to run in examples. *)

val memory_bytes : t -> int
(** Footprint of the produced arrays (for the memory accounting).
    Equal to [layout_bytes] over this linearization's node count, batch
    count and child-table width. *)

val priced_us : t -> float
(** The simulated host cost of producing this layout, in µs: [num_nodes]
    times a per-node constant for its structure kind (trees and
    sequences share one), calibrated to the paper's §7.5 figures. *)

val layout_bytes : num_nodes:int -> num_batches:int -> max_children:int -> int
(** The closed form behind {!memory_bytes}: the device bytes of the four
    resolved tables for a layout of [num_nodes] nodes in [num_batches]
    level batches at child-table width [max_children].  A single
    structure of height [h] linearizes into [h + 1] batches, so the
    session table can price a conversation without linearizing it.
    0 when [num_nodes <= 0]. *)

val state_rows_bytes : num_nodes:int -> bytes_per_node:int -> int
(** Device bytes of the per-node hidden-state rows a pinned session
    keeps between tokens: [num_nodes * bytes_per_node], 0 for an empty
    conversation.  [bytes_per_node] is the sum over the model's state
    tensors of one node's row bytes. *)

(** {2 Growing layouts (pinned sessions)}

    A pinned conversation keeps one layout for its whole life, and
    every token the serving engine serves is one {!step} of it: a delta
    {e grows} it, a cold token {e seeds} it afresh from base 0.  A
    growing layout is child, payload and level rows at per-session
    {e layout ids}, handed out in push order and stable until the next
    {!seed} or {!reseed}, in tables that double when they fill up (so n
    nodes cost O(n) copying in total).  The layout's tables are the
    session's record ({!layout_row}, {!layout_height}).

    A token's {!step} is a [t] in its own compact id space, fresh
    arrays of [k + d] rows.  Rows [\[0, k)] are the step's {e boundary}:
    the distinct layout rows below its base that its nodes read as
    children, in first-read order, each with its real payload and
    level, no children and no batch, so their state rows can be
    preloaded.  Rows [\[k, k + d)] are the step's [d] nodes in batch
    order — the leaf run first, possibly empty, then one batch per
    level run, children first — with their children remapped.
    Everything the executor sizes by the node count is then O(delta),
    not O(conversation).  A {!seed} has no boundary, so its view is the
    whole structure.  Layout ids are not the Appendix-B numbering —
    children precede their parents — so a step's level runs, not the id
    order, carry the dependence order. *)

type growing
(** A mutable growing layout. *)

type step = private {
  step_view : t;
      (** The step's view: [num_nodes] is [k + d] and [leaf_begin] is
          [k]; [new_of_old], [old_of_new] and [postorder] are empty:
          the executor never reads them. *)
  step_nodes : Cortex_ds.Node.t array;  (** the step's nodes, in view batch order *)
  step_base : int;
      (** the layout's size before the step: node ids and layout ids
          below it were laid out earlier; 0 for a {!seed} *)
  step_boundary : int array;
      (** the layout ids of view rows [\[0, k)]; empty for a {!seed} *)
}
(** One token's nodes, as {!seed} or {!grow} laid them out. *)

val empty_layout : max_children:int -> growing
(** A layout with nothing laid out, whose child tables are
    [max_children] wide. *)

val seed : growing -> Cortex_ds.Structure.t -> step
(** [seed g s] drops what [g] held and lays all of [s] out as one step
    from base 0, as {!grow} lays out a delta.  It raises nothing; the
    caller bounds every arity by the child-table width. *)

val reseed : growing -> Cortex_ds.Structure.t -> prefix:int -> unit
(** [reseed g s ~prefix] drops what [g] held and lays out nodes
    [0, prefix) of [s] at layout ids [0, prefix), in node-id order, with
    room for all of [s]: a restore reseeds the spilled prefix, whose
    content the caller has checked. *)

val grow : growing -> Cortex_ds.Structure.t -> step option
(** [grow g s] lays out the nodes of [s] past the layout's size and
    returns their {!step}.  O(delta): the prefix is the caller's
    promise (the engine checks it by physical identity or by a content
    digest); every appended node is checked for its arity (within the
    child-table width) and for children that are members of [s]
    ([Cortex_ds.Structure.create] already orders them first).  [None],
    with [g] unchanged, when [s] does not grow the layout by at least
    one such node. *)

val layout_id : growing -> int -> int
(** [layout_id g id] is the layout id of request-local node [id]. *)

val view_id : growing -> int -> int
(** [view_id g lid] is the row of layout id [lid] in the view of [g]'s
    latest step: [k + lid - step_base] for a step node, the boundary
    slot for a boundary row.  [lid] must be one of that step's rows. *)

type row = {
  row_payload : int;
  row_level : int;
  row_children : int array;  (** the children's layout ids *)
}

val layout_row : growing -> int -> row
(** [layout_row g lid] is what the layout holds at layout id [lid]. *)

val layout_height : growing -> int
(** The highest level laid out since the last {!seed} or {!reseed}: a
    layout of height [h] prices as [h + 1] level batches. *)

val regrowths : growing -> int
(** How many times the layout's allocated tables doubled — its only
    O(n) rebuild. *)

(** {2 Packed steps (multi-session batching)}

    When several pinned conversations grow during the same drain tick,
    their steps can merge into one packed window: per level, the
    members' batch runs concatenate into a single contiguous packed
    batch, so the level launches once for the whole pack instead of
    once per session.  Ids below [pk_base] are the members' boundary
    rows laid end to end — never iterated by any batch, present only so
    each member's boundary state rows have a row to be preloaded into;
    ids at and above [pk_base] are the step nodes grouped by level.
    {!pack_id} translates a member's view id into the packed numbering
    on both sides of that boundary. *)

type packed = {
  pk_view : t;
      (** the merged window: batch table over the packed step nodes,
          node-id space covering every member's view *)
  pk_members : int;  (** how many steps were merged *)
  pk_base : int;  (** packed ids below this are boundary rows *)
  pk_boundary_off : int array;
      (** member -> offset of its boundary rows in the packed numbering *)
  pk_delta_base : int array;
      (** member -> its view's first step row (= its boundary size) *)
  pk_delta_of : int array array;
      (** member -> (view id - delta base) -> packed id *)
}

val pack : step -> step list -> packed
(** [pack first rest] merges the members' steps, each of its own
    layout, into one packed window.  Members keep their
    pack-order position within every level batch, so the merge — and
    everything priced or executed from it — is deterministic in the
    member order.  It raises nothing: a step {!grow} built tiles its
    nodes by construction, and the members share a child-table width
    and a structure kind because one engine creates all of them.
    O(max_children * sum of the members' view sizes): a pack costs its
    steps and their boundary rows, not its conversations. *)

val pack_id : packed -> member:int -> int -> int
(** [pack_id p ~member vid] is the packed id of [member]'s view id
    [vid] — a boundary row below the member's delta base, a step node
    at or above it. *)
