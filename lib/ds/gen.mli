(** Synthetic dataset generators (Table 2 of the paper).

    - TreeFC uses perfect binary trees of height 7;
    - TreeGRU / TreeLSTM / MV-RNN use the Stanford Sentiment Treebank —
      we substitute a synthetic treebank whose sentence-length
      distribution matches SST (see DESIGN.md);
    - DAG-RNN uses synthetic 10x10 grid DAGs;
    - the GRNN comparison (Fig. 9) uses length-100 sequences. *)

val vocab_size : int
(** Vocabulary used by parse-tree leaves (word-id payloads). *)

val null_word : int
(** Payload of internal parse-tree nodes (= [vocab_size]): they carry no
    word, and models reserve a zero embedding row at this index so their
    input contribution is the zero vector. *)

val perfect_tree : Cortex_util.Rng.t -> ?vocab:int -> height:int -> unit -> Structure.t
(** Perfect binary tree with [height] levels: [2^(height-1)] leaves and
    [2^height - 1] nodes.  Leaves carry random word ids from [vocab]. *)

val sst_sentence_length : Cortex_util.Rng.t -> int
(** A sentence length drawn from the SST-like distribution
    (mean ~19.2, std ~9.1, clipped to [3, 60]). *)

val sst_tree : Cortex_util.Rng.t -> ?vocab:int -> ?len:int -> unit -> Structure.t
(** A random binary parse tree over [len] leaves (random bracketing);
    [len] defaults to a draw from [sst_sentence_length].  Leaf payloads
    are drawn from [vocab] (default [vocab_size]); internal nodes get
    the null word [vocab]. *)

val sst_batch : Cortex_util.Rng.t -> ?vocab:int -> batch:int -> unit -> Structure.t
(** [batch] independent SST-like trees merged into one structure. *)

val perfect_batch :
  Cortex_util.Rng.t -> ?vocab:int -> batch:int -> height:int -> unit -> Structure.t

val grid_dag : rows:int -> cols:int -> Structure.t
(** DAG-RNN dependency DAG for one south-east sweep over a [rows] x
    [cols] image grid: cell (i,j) depends on (i-1,j) and (i,j-1); cell
    (0,0) is the unique leaf; the unique root is (rows-1, cols-1).
    Payload of each node is its flat pixel index. *)

val grid_batch : batch:int -> rows:int -> cols:int -> Structure.t

val sequence : Cortex_util.Rng.t -> ?vocab:int -> len:int -> unit -> Structure.t
(** Chain of [len] nodes; the head of the sequence is the leaf and the
    last element is the root.  Payloads are random word ids drawn from
    [vocab]. *)

(** {2 Incremental growth}

    A growing conversation for the serving engine's sessions: each step
    appends nodes via {!Structure.append}, so successive structures
    share their prefix nodes physically.  Sequences grow by one token
    (the new token is the new root); trees and DAGs grow left-branching
    (a new leaf plus a new root over [old root; new leaf]). *)

type growth

val growth_start :
  Cortex_util.Rng.t -> ?vocab:int -> kind:Structure.kind -> unit -> growth
(** A one-node conversation (a single leaf with a random payload). *)

val growth_structure : growth -> Structure.t
(** The current structure (shared with the previous step's prefix). *)

val grow_one : Cortex_util.Rng.t -> growth -> Structure.t
(** Grow by one token and return the new current structure. *)

val conversation :
  Cortex_util.Rng.t -> ?vocab:int -> kind:Structure.kind -> tokens:int -> unit ->
  Structure.t list
(** A whole conversation in token order: the one-node start, then
    [tokens] structures each grown by {!grow_one} from the one before. *)

val random_tree : Cortex_util.Rng.t -> max_nodes:int -> max_children:int -> Structure.t
(** Arbitrary-shape random tree for property tests. *)

val random_dag : Cortex_util.Rng.t -> max_nodes:int -> max_children:int -> Structure.t
(** Random DAG (acyclic by construction: children have smaller ids). *)
