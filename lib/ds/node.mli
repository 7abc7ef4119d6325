(** Pointer-linked recursive data structure nodes.

    These are the runtime inputs of a recursive model (Fig. 2, stage 5 of
    the paper): parse trees, DAGs or sequences built of heap nodes linked
    by child pointers.  The linearizer (stage 6) lowers them to arrays.

    Nodes carry a creation id that is unique within their structure and
    *distinct from* the linearizer's numbering; and an integer payload
    whose meaning is model-specific (a word id for parse-tree leaves, a
    pixel/feature index for DAG-RNN cells, [-1] for "no input"). *)

type t = private { id : int; payload : int; children : t array }

type builder
(** Allocates nodes with sequential ids starting at 0. *)

val builder : unit -> builder

val builder_from : int -> builder
(** [builder_from n] allocates ids starting at [n] — used to append
    nodes to an existing structure whose ids already cover [0, n). *)

val make : builder -> ?payload:int -> t list -> t
(** [make b children] allocates a fresh node.  In a DAG the same node
    value may appear in several child lists. *)

val is_leaf : t -> bool
val num_children : t -> int
val child : t -> int -> t
