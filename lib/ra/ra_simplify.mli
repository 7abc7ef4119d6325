(** Constant propagation over RA expressions (§4.3 of the paper).

    Specialization substitutes the recursive case's child references
    with the states' initial values at the leaves; this module then
    folds the constants through, which is what removes the child-sum
    matrix-vector products from the leaf loop nests (the dominant win
    the paper attributes to specialization), and detects operators whose
    leaf value no longer depends on the node at all so the lowerer can
    hoist them out of the per-leaf loop. *)

val leaf_substitute : Ra.t -> Ra.rexpr -> Ra.rexpr
(** Replace [ChildSum] with zero and fixed-child state references with
    the state's initial value ([Zero] or its init parameter). *)

val fold : Ra.rexpr -> Ra.rexpr
(** Algebraic constant folding: [x*0 -> 0], [x+0 -> x], [x*1 -> x],
    [Sum] of a body without the reduction axis -> scaled body, [Sum] of
    zero -> zero, nonlinearities of constants evaluated. *)

val node_dependent : ops:Ra.op list -> Ra.rexpr -> bool
(** True when the expression's value can differ between nodes: it reads
    the payload, a child, or a temp whose defining operator (looked up
    in [ops]) is node-dependent.  Hoisting applies to leaf operators
    that are not node-dependent after substitution and folding. *)

val const_propagate : Ra.op list -> Ra.op list
(** Fold each operator's body, propagating operators that become
    constants into their consumers (in definition order).  This is the
    §4.3 constant propagation that deletes the child-sum matrix-vector
    products from specialized leaf nests. *)
