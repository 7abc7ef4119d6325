(** A complete input data structure: one or more roots plus metadata.

    The user of the Recursive API must declare the *kind* of structure
    (sequence, tree or DAG) and the maximum number of children per node
    (§3 of the paper); both are verified here at construction time.  A
    [t] may hold several independent roots — that is how a batch of
    trees is presented to the linearizer. *)

type kind = Sequence | Tree | Dag

type t = private {
  kind : kind;
  max_children : int;
  roots : Node.t list;
  nodes : Node.t array;  (** every reachable node, indexed by [Node.id] *)
}

exception Invalid of string

val create : kind:kind -> max_children:int -> Node.t list -> t
(** Walks the roots, collects all reachable nodes and verifies:
    node ids are dense in [0, n) and no two reachable nodes share an
    id; every child's id is below its
    parent's (so the structure is acyclic, and node-id order lists
    children before parents); fanout is within [max_children];
    sequences are chains; trees have a unique parent per node.  Raises
    [Invalid] otherwise. *)

val append : t -> roots:Node.t list -> added:Node.t array -> t
(** [append base ~roots ~added] grows [base] in place of a full
    re-[create]: [added] nodes must carry ids continuing [base]'s dense
    range, may only link member nodes with strictly smaller ids (so
    acyclicity is structural), must all be reachable from the new
    [roots], and every old root must either remain a root or be linked
    by an appended node.  Tree/Sequence single-parent rules are
    re-verified.  The result shares [base]'s node values — physical
    equality of the common prefix is what lets the serving engine
    recognise a grown conversation.  Raises [Invalid] otherwise. *)

val num_nodes : t -> int
val num_leaves : t -> int

val height : t -> int
(** Length in edges of the longest root-to-leaf path (0 for a single
    node). *)

val level : t -> int array
(** [level t].(id) is the node's height above the leaves: 0 for leaves,
    [1 + max over children] otherwise.  This is the dynamic-batching
    level: all nodes of one level are mutually independent. *)

val level_widths : t -> int array
(** Number of nodes per level, index 0 = leaves. *)

val parents_count : t -> int array
(** Number of parents per node (can exceed 1 only in a DAG). *)

val merge : t list -> t
(** Concatenates several structures of the same kind into one (node ids
    are renumbered); this is how a batch is formed.  Inputs must agree
    on [max_children]; use {!merge_mapped} to relax that. *)

val merge_mapped : t list -> t * int array array
(** Like {!merge} but additionally returns, per input structure, the
    mapping from its node ids to the merged structure's node ids — the
    serving engine uses this to read per-request results back out of a
    batched forest.  Inputs may disagree on [max_children]; the merged
    structure declares the maximum.  Each input's nodes occupy a
    contiguous id range of the merged structure, in input order. *)
