(** Shared scaffolding for the model zoo (Table 2 of the paper).

    A {!t} bundles the RA program, a deterministic parameter
    initializer and the dataset generator the paper pairs with the
    model.  The model's §7.4 schedule facts (refactoring publication
    list, whether refactoring removes the barrier, block-local
    unrolling) live in the program itself ({!Cortex_ra.Ra.facts}).

    Models come in two variants: [Full] includes the input
    matrix-vector products, hoisted to one upfront kernel exactly as the
    GRNN-style schedules do (§7.1); [Recursive_only] drops the input
    terms — the "recursive portion" used for the Cavs comparison and
    Fig. 7. *)

open Cortex_ra

type variant = Full | Recursive_only

type t = {
  name : string;
  program : Ra.t;
  init_params : Cortex_util.Rng.t -> string -> Cortex_tensor.Tensor.t;
      (** Builds the whole parameter table on first use per generator;
          embedding tables have their null-word row zeroed. *)
  dataset : Cortex_util.Rng.t -> batch:int -> Cortex_ds.Structure.t;
}

val make_params :
  specs:(string * int list) list ->
  zero_rows:(string * int) list ->
  Cortex_util.Rng.t ->
  string ->
  Cortex_tensor.Tensor.t
(** Uniform [-0.35, 0.35) initialization, memoized per call chain:
    partially apply to an rng to obtain the resolver.  [zero_rows]
    zeroes row [r] of the named rank >= 1 tensors (null-word embedding
    rows). *)

val matvec : w:string -> x:(Ra.ridx list -> Ra.rexpr) -> hidden:int -> Ra.rexpr
(** [sum_j w[i,j] * x[j]] over output axis ["i"]. *)

val emb_x : emb:string -> Ra.ridx list -> Ra.rexpr
(** [emb[payload, idx]]: the node's embedded input. *)

val gate :
  ?x:Ra.rexpr ->
  u:string ->
  over:(Ra.ridx list -> Ra.rexpr) ->
  bias:string ->
  hidden:int ->
  Cortex_tensor.Nonlinear.kind ->
  Ra.rexpr
(** [nl (x + U . over + bias[i])] — the standard RNN gate body over
    output axis ["i"] with reduction axis ["j"]. *)
