(** Direct recursive evaluation of RA programs.

    This is the executable semantics of the Recursive API: it walks the
    pointer-linked structure exactly as the user's recursive program
    would (children before parents, memoized for DAGs) and evaluates
    every operator numerically.  The compiled pipeline — linearizer +
    lowered ILIR — must agree with this evaluator bit-for-bit on every
    input; the property tests enforce that. *)

type t
(** Evaluation result: per-node operator values. *)

val run :
  Ra.t ->
  params:(string -> Cortex_tensor.Tensor.t) ->
  Cortex_ds.Structure.t ->
  t
(** Evaluates the program on a structure.  [params] resolves each
    declared parameter name; shapes are checked against the
    declaration.  Raises [Ra.Invalid_program] on malformed programs and
    [Invalid_argument] on shape mismatches. *)

val state : t -> string -> Cortex_ds.Node.t -> Cortex_tensor.Tensor.t
(** Value of a state at a node. *)
