(** Loop scheduling primitives over ILIR statements.

    These are the tensor-compiler-style transformations of §5: loop
    splitting/tiling, unrolling, vectorization/parallelization marks,
    loop peeling for variable bounds (§A.5), loop reordering, lane
    binding, on-chip staging and loop fusion.  Loops are addressed by
    their loop-variable name; [canonicalize] (run by the lowerer) makes
    names unique across a whole program so a serialized plan can be
    replayed against any compiled model. *)

exception Schedule_error of string

val split : name:string -> factor:int -> Ir.stmt -> Ir.stmt
(** Split loop [name] into [name_o] / [name_i] with a bounds guard in
    the body.  Safe for variable (UF) extents. *)

val split_peeled : name:string -> factor:int -> Ir.stmt -> Ir.stmt
(** Split with loop peeling: a guard-free main loop over full chunks
    plus a remainder loop (§A.5: the bounds check runs only for the
    last few iterations).  Both loops keep the original loop kind. *)

val unroll : name:string -> Ir.stmt -> Ir.stmt
(** Fully unroll a constant-extent loop into a [Seq] of instances. *)

val reorder : outer:string -> inner:string -> Ir.stmt -> Ir.stmt
(** Interchange two perfectly nested loops ([inner] directly inside
    [outer], no intervening statements).  Raises [Schedule_error] when
    they are not perfectly nested. *)

val bind : name:string -> Ir.loop_kind -> Ir.stmt -> Ir.stmt
(** Map loop [name] onto the backend's parallel lanes ([Parallel]) or
    machine width ([Vectorized]).  Raises [Schedule_error] for
    [Serial]/[Unrolled] — binding is specifically a lane mapping. *)

val tile :
  outer:string ->
  inner:string ->
  factor_outer:int ->
  factor_inner:int ->
  Ir.stmt ->
  Ir.stmt
(** 2-D tiling of a perfect nest: [outer]/[inner] become
    [outer_o > inner_o > outer_i > inner_i] so a
    [factor_outer x factor_inner] tile is innermost.  The outer tile
    loops keep the original loop kinds; the intra-tile loops are
    [Serial].  Requires constant extents that the factors divide
    exactly, so the result stays guard-free (and the cost model's
    multiplicative fast path still applies). *)

val stage : loop:string -> tensor:string -> Ir.stmt -> Ir.stmt * Ir.tensor
(** Promote every read of [tensor] under loop [loop] into a fresh
    on-chip ([Shared]) copy, populated by an explicit vectorized
    copy-in nest emitted just before the loop.  Returns the rewritten
    statement and the new staging tensor (the caller must add it to the
    program's temporaries).  Requires: [tensor] has constant extents,
    is off-chip ([Param]/[Global]), and is only read — never written —
    under the loop. *)

val fuse_loops : first:string -> second:string -> Ir.stmt -> Ir.stmt
(** Fuse two adjacent loops (consecutive members of a [Seq]) with
    structurally equal extents into one loop running both bodies.
    Conservative safety check: the two bodies must touch disjoint
    tensors (no write/read, write/write overlap) and contain no
    [Barrier], so interleaving iterations cannot reorder dependent
    effects. *)

val loop_names : Ir.stmt -> string list
(** Loop variable names in syntactic (pre-order) program order, each
    name listed once (for schedule discovery and the tuner). *)

val canonicalize : Ir.program -> Ir.program
(** Rename loop variables so every loop name is unique across the whole
    program: the first occurrence of a base name keeps it, later ones
    become [name~2], [name~3], ... in pre-order across kernels.  Run by
    the lowerer so plans address loops unambiguously. *)

(** {2 Serializable schedule plans}

    A plan is an ordered list of directives applied by
    [Lower.apply_plan]; the textual form round-trips through
    [plan_to_string]/[plan_of_string] and is what the plan cache and
    CLI print. *)

type directive =
  | Split of { loop : string; factor : int }
  | Split_peeled of { loop : string; factor : int }
  | Unroll of { loop : string }
  | Reorder of { outer : string; inner : string }
  | Tile of { outer : string; inner : string; factor_outer : int; factor_inner : int }
  | Bind of { loop : string; kind : Ir.loop_kind }
  | Stage of { loop : string; tensor : string }
  | Fuse of { first : string; second : string }

type plan = directive list

val directive_loops : directive -> string list
(** Loop names a directive addresses (used to locate its kernel). *)

val apply_directive : directive -> Ir.stmt -> Ir.stmt * Ir.tensor list
(** Apply one directive; the tensor list holds any staging tensors the
    directive introduced (to be appended to the program temporaries). *)

val plan_to_string : plan -> string
(** ["default"] for the empty plan, else [;]-joined directives, e.g.
    ["bind(h_j,vec);stage(b,W_f);tile(h_i,h_j,8,8)"]. *)

val plan_of_string : string -> plan
(** Inverse of [plan_to_string]; raises [Schedule_error] on malformed
    input. *)
