(** Penn-Treebank-style s-expression parse trees.

    The Stanford Sentiment Treebank distributes its parse trees in PTB
    bracketing, one tree per line, e.g.

      (3 (2 (2 The) (2 movie)) (4 (3 (2 was) (3 great)) (2 .)))

    where every node carries a sentiment label (0-4) and leaves carry
    tokens.  This module parses that format into {!Structure.t} inputs
    for the recursive models: leaves receive word-id payloads from a
    {!vocab} (built on the fly or supplied), internal nodes receive the
    null word.  Node labels are returned side-by-side keyed by node id,
    so a classifier head can be trained/evaluated against them. *)

type vocab
(** Mutable token -> word-id mapping. *)

val vocab : unit -> vocab
val vocab_size : vocab -> int

val word_id : vocab -> string -> int
(** Id of a token, assigning the next free id to unseen tokens. *)

val lookup : vocab -> string -> int option
(** Id of a token if present (for frozen evaluation vocabularies). *)

val null_word : vocab -> int
(** The reserved no-word id internal nodes carry (always 0; embedding
    tables built for a treebank vocabulary should zero row 0). *)

type tree = {
  structure : Structure.t;
  labels : int array;  (** sentiment label per node id; -1 when absent *)
  tokens : string array;  (** token per node id; "" for internal nodes *)
}

exception Parse_error of string * int
(** Message and byte position. *)

val parse : vocab -> string -> tree
(** Parse one tree.  Accepts labelled nodes [(label child ...)],
    label-less nodes [(child ...)], and bare tokens at the leaves.
    Raises {!Parse_error} on malformed input. *)

val parse_many : vocab -> string -> tree list
(** Parse a whole file's contents (one tree per line; blank lines
    skipped). *)

val to_string : tree -> string
(** Render back to PTB bracketing; [parse] of the result yields an
    isomorphic tree. *)

val merge : tree list -> Structure.t
(** Batch the parsed trees into one structure for inference. *)

val sample_sst : string
(** A small embedded sample in SST format (8 sentences) so examples and
    tests run without any data files. *)
