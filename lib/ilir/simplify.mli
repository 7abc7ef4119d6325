(** Expression simplification and interval analysis over the ILIR.

    The paper (§A.1) uses the Z3 SMT solver to simplify expressions
    containing uninterpreted functions, mainly to prove bounds checks
    redundant (loop peeling, §A.5) and to clean up lowered index
    arithmetic.  This module is the native substitute: a linear
    normalizer over atoms (variables and UF calls are atoms) combined
    with interval arithmetic seeded by loop ranges and UF range
    metadata.  It decides the same class of facts Cortex needs. *)

type env
(** Known integer ranges for variables (inclusive). *)

val empty_env : env
val bind_range : env -> Ir.Var.t -> lo:Ir.expr -> hi:Ir.expr -> env
(** Functional update: the returned env knows [lo <= v <= hi].  Bounds
    may be symbolic (e.g. [hi = batch_len(b) - 1]), which is what lets
    the prover cancel UF terms the way the paper leans on Z3. *)

val prove : env -> Ir.expr -> bool option
(** [prove env cond] is [Some true]/[Some false] when the boolean
    expression is decided by linear normalization + intervals, [None]
    otherwise.  Sound: never returns a wrong verdict. *)

val expr : Ir.expr -> Ir.expr
(** Algebraic simplification: constant folding, [x*0], [x+0], [x*1],
    [select] with constant condition, nested add/mul flattening via the
    linear normal form, [min]/[max] with equal arguments. *)

val stmt : Ir.stmt -> Ir.stmt
(** Simplifies every contained expression; prunes [If] branches whose
    condition is decided (possibly using ranges of enclosing loop
    variables, which it accumulates while descending); removes empty
    loops and flattens [Seq]s. *)
