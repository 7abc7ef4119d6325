(** The Irregular Loops IR (§5 of the paper).

    The ILIR is the loop-based, data-structure-agnostic representation
    recursion is lowered into.  It extends a tensor-compiler IR with the
    three features §5 calls out: (1) non-affine index expressions,
    represented as {e uninterpreted functions} of loop variables whose
    runtime meaning is supplied by the data structure linearizer;
    (2) loops with variable (UF-valued) bounds; (3) a conditional
    operator.  Tensors and loops carry {e named dimensions} (§A.2) so
    bounds reasoning can relate loops to tensor dimensions even when the
    correspondence is not one-to-one. *)

(** Named dimensions (§A.2): identifiers shared between tensor
    dimensions and the loops that iterate them. *)
module Dim : sig
  type t = { dname : string; did : int }

  val fresh : string -> t
end

(** Uninterpreted integer functions (§5.1): the compile-time handle on
    linearizer outputs such as [child(k, n)] or [batch_len(b)].
    [range] is an inclusive bound on the result when one is statically
    known; the simplifier's interval analysis consumes it the way the
    paper's prototype feeds facts to Z3. *)
module Uf : sig
  type t = { uname : string; uid : int; arity : int; range : (int * int) option }

  val fresh : ?range:int * int -> string -> arity:int -> t
end

module Var : sig
  type t = { vname : string; vid : int }

  val fresh : string -> t
  val equal : t -> t -> bool
  val name : t -> string
end

(** Memory spaces.  [Param] marks model weights (the candidates for
    model persistence); [Shared]/[Register] are on-chip. *)
type space = Param | Global | Shared | Register

val space_name : space -> string

type binop = Add | Sub | Mul | Div | Mod | Min | Max
type cmpop = Lt | Le | Gt | Ge | Eq | Ne

type expr =
  | Int of int
  | Flt of float
  | Var of Var.t
  | Binop of binop * expr * expr
  | Cmp of cmpop * expr * expr  (** 1 when true, 0 when false *)
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Select of expr * expr * expr  (** cond, then, else *)
  | Load of tensor * expr list
  | UfCall of Uf.t * expr list
  | Math of Cortex_tensor.Nonlinear.kind * expr

and tensor = {
  tname : string;
  tid : int;  (** identity: two tensors alias iff their ids are equal *)
  dims : Dim.t list;
  extents : expr list;  (** per-dimension extents; may contain UF calls *)
  space : space;
}

type loop_kind =
  | Serial
  | Parallel  (** maps to GPU thread blocks / CPU cores *)
  | Vectorized  (** maps to thread lanes / SIMD *)
  | Unrolled

type stmt =
  | For of { v : Var.t; extent : expr; kind : loop_kind; dim : Dim.t option; body : stmt }
  | Let of Var.t * expr * stmt
  | Store of tensor * expr list * expr
  | If of expr * stmt * stmt option  (** the conditional operator, §5.2 *)
  | Seq of stmt list
  | Barrier  (** global synchronization point *)
  | Nop

(** The unit of device launch.  [PerInternalBatch b] kernels are
    launched once per internal dynamic batch with [b] bound to the batch
    index — the shape execution takes when kernel fusion is off and each
    operator is its own launch. *)
type launch = Once | PerInternalBatch of Var.t

type kernel = { kname : string; launch : launch; body : stmt }

type program = {
  pname : string;
  params : tensor list;
  inputs : tensor list;
  temporaries : tensor list;
  outputs : tensor list;
  kernels : kernel list;
}

(** How a program's kernels are launched, in order. *)
type launch_group =
  | Single of kernel  (** a [Once] kernel *)
  | Batch_run of (Var.t * kernel) list
      (** a maximal run of consecutive [PerInternalBatch] kernels, each
          with its batch variable; it executes batch-major — for each
          batch in order, every kernel of the run — the launch
          interleaving an unfused framework performs along the
          dependence-carrying batch sequence *)

val launch_groups : program -> launch_group list

(** {2 Constructors} *)

val tensor : ?space:space -> string -> Dim.t list -> expr list -> tensor
(** Fresh tensor; raises [Invalid_argument] when [dims] and [extents]
    disagree in length. *)

val int : int -> expr
val flt : float -> expr

val for_ : ?kind:loop_kind -> ?dim:Dim.t -> Var.t -> expr -> stmt -> stmt
val seq : stmt list -> stmt
(** Flattens the singleton case. *)

(** {2 Traversals} *)

val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a
(** Pre-order fold over an expression and all subexpressions, including
    index expressions of loads and UF calls. *)

val fold_stmt : expr:('a -> expr -> 'a) -> stmt:('a -> stmt -> 'a) -> 'a -> stmt -> 'a
(** Pre-order fold over a statement tree; [expr] also visits loop
    extents, bound values, indices and stored values. *)

val map_expr : (expr -> expr option) -> expr -> expr
(** Top-down rewriting: where [f] returns [Some e'], the subtree is
    replaced (and not descended into); otherwise children are mapped. *)

val map_stmt :
  ?expr:(expr -> expr option) -> ?stmt:(stmt -> stmt option) -> stmt -> stmt

val subst_var_stmt : Var.t -> expr -> stmt -> stmt

val reset_ids : unit -> unit
(** Set the global dim/var/uf/tensor id counters back to zero. *)

val claim_ids : program -> unit
(** Advance the global dim/var/uf/tensor id counters past every id the
    program uses.  Call before minting fresh ids into an existing
    program (a lowered one, or one read back from a bundle): they must
    not collide with its ids, or two distinct objects would alias in
    the id-keyed tables the interpreter and schedulers build. *)

(** {2 Printing} *)

val cmpop_name : cmpop -> string
val expr_to_string : expr -> string
val stmt_to_string : stmt -> string
val program_to_string : program -> string
