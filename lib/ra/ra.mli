(** The Recursive API (§3 of the paper).

    A recursive model is a DAG of per-node operators over feature axes.
    Each operator produces, for every node of the input structure, a
    small dense tensor (its [dims]); operator bodies may read model
    parameters, earlier operators of the same node ([Temp]), and the
    recursively computed states of the node's children ([ChildState] /
    [ChildSum]) — never of the node itself (property P.2) and never of a
    sibling's result (property P.3).  All control flow is a function of
    the input structure (property P.1).

    A program has a recursive case and an optional leaf case.  When the
    leaf case is [None] (child-sum style models), leaves evaluate the
    recursive case with an empty child set: [ChildSum] contributes the
    zero tensor and a fixed-child reference ([Child k]) of a missing
    child reads the state's declared initial value (§4.3).  That is
    what makes leaf computations constant-foldable and hoistable when
    the program is specialized.

    Operators carry a [phase]: within one dynamic batch, operators of
    phase [p+1] read, across parallel lanes, values produced in phase
    [p] (e.g. a matrix-vector product over a gated vector), so lowering
    separates phases with a synchronization point.  Most models are
    single-phase; GRU-style cells have two. *)

type bop = Add | Sub | Mul | Div | Min | Max

type child_sel =
  | Child of int  (** fixed child position, e.g. left/right *)
  | Current  (** the iterated child inside [ChildSum] *)

type ridx =
  | IAxis of string  (** an output or reduction axis *)
  | IConst of int
  | IPayload  (** this node's integer payload (e.g. word id) *)

type rexpr =
  | Const of float
  | Param of string * ridx list
  | ChildState of string * child_sel * ridx list
  | Temp of string * ridx list  (** an earlier operator of this node *)
  | Binop of bop * rexpr * rexpr
  | Math of Cortex_tensor.Nonlinear.kind * rexpr
  | Sum of string * int * rexpr  (** reduction axis: name, extent, body *)
  | ChildSum of rexpr  (** sum of the body over this node's children *)

type op = {
  op_name : string;
  op_axes : (string * int) list;  (** output axes: name and extent *)
  op_body : rexpr;
  op_phase : int;
  op_precompute : bool;
      (** operator depends only on parameters and the node payload; it
          is hoisted into an upfront kernel over all nodes at once
          (GRNN-style input matrix multiplications). *)
}

type init =
  | Zero  (** the common zero initial state, special-cased by §4.3 *)
  | Init_param of string  (** a learned initial-state parameter *)

type state = {
  st_name : string;
  st_op : string;  (** operator whose value is published as this state *)
  st_init : init;  (** value a [ChildState] reference sees below a leaf *)
}

(** What the model itself fixes about its §7.4 schedules.  The
    lowerer reads these from the program it lowers, under the user's
    [refactor] and [unroll] options; no caller copies them in. *)
type facts = {
  refactor_publish : string list;
      (** recursive-case operators that refactoring must also publish
          to global memory, because moving the final phase across the
          recursion backedge makes the deferred phase read them from
          the child (a GRU cell's gate [z], and for the full cell also
          its child-sum) *)
  refactor_removes_barrier : bool;
      (** whether moving the final phase across the backedge removes
          the inter-phase barrier: §7.4 found it does for the
          simplified GRU cell but not for the full child-sum TreeGRU,
          whose deferred combine still feeds a synchronized
          matrix-vector stage *)
  block_local_unroll : bool;
      (** whether each unroll group fits one thread block, so the
          parent-phase synchronization is free (TreeRNN, §7.4) *)
}

val no_facts : facts
(** Nothing to publish, refactoring removes the barrier, unroll groups
    are not block-local: what a model without §7.4 facts compiles to. *)

type t = {
  name : string;
  kind : Cortex_ds.Structure.kind;
  max_children : int;
  params : (string * int list) list;
  rec_ops : op list;
  leaf_ops : op list option;
  states : state list;
  outputs : string list;  (** states read out at the roots *)
  facts : facts;
}

val op : ?phase:int -> ?precompute:bool -> string -> axes:(string * int) list -> rexpr -> op

val ( + ) : rexpr -> rexpr -> rexpr
val ( - ) : rexpr -> rexpr -> rexpr
val ( * ) : rexpr -> rexpr -> rexpr
val tanh_ : rexpr -> rexpr
val relu_ : rexpr -> rexpr

exception Invalid_program of string

val validate : t -> unit
(** Checks: unique op names; temps reference earlier ops; states name
    existing ops of both cases with equal dims; axis references are
    bound; parameter arities match declared shapes; [Current] appears
    only under [ChildSum]; [Child k] is within [max_children] and only
    used when a leaf case exists; leaf operators reference no children;
    precompute operators reference no children or temps that are not
    themselves precompute; phases are dense from 0; the facts' publish
    list names operators of the recursive case.
    Raises [Invalid_program] otherwise. *)

val op_dims : op -> int list
val find_op : op list -> string -> op
val state_by_name : t -> string -> state
val num_phases : op list -> int
val rexpr_to_string : rexpr -> string
val to_string : t -> string
