(** RA -> ILIR lowering (§4 of the paper).

    Lowering turns the recursive model into loop nests over the
    linearizer's arrays: recursion becomes iteration over dynamic
    batches (or a serialized topological order when dynamic batching is
    off), data-structure accesses become uninterpreted-function calls,
    and every temporary is made explicit (§4.1).  The produced
    {!compiled} artifact carries the ILIR program plus the
    uninterpreted-function handles the runtime must bind against a
    concrete {!Cortex_linearizer.Linearizer.t}.

    Optimizations implemented here:
    - {b specialization} (§3.1): separate leaf and internal loop nests;
      child references in the leaf version are replaced by the states'
      initial values and constant-folded, which deletes the child-sum
      matrix-vector products from the leaf nests;
    - {b computation hoisting + constant propagation} (§4.3): leaf
      operators that become node-independent are computed once in the
      setup kernel instead of per leaf;
    - {b child-state caching} (§A.3): child states read inside
      reductions are staged into an on-chip cache tensor with an extra
      child dimension, turning H^2 indirect global reads into H;
    - {b dense intermediate layouts} (§5.1, Fig. 5): under fusion,
      per-node temporaries live in scratchpad tensors indexed by the
      batch position rather than the node id;
    - {b kernel fusion}: one kernel for the whole model with barriers
      between dynamic batches, versus one kernel per operator per batch;
    - {b unrolling} and {b recursive refactoring} (§3.1, §7.4): see
      {!Cortex_linearizer.Unrolling} and the [refactor] option. *)

open Cortex_ilir
open Cortex_ra

(** The schedule a user chooses.  What the model fixes about its §7.4
    schedules (the refactoring publication list, whether refactoring
    removes the inter-phase barrier, block-local unroll groups) is not
    here: lowering reads it from the program's {!Cortex_ra.Ra.facts},
    under [refactor] and [unroll]. *)
type options = {
  dynamic_batch : bool;
  specialize : bool;
  fuse : bool;
  persist : bool;  (** model persistence; consumed by the backend model *)
  unroll : bool;
  refactor : bool;
  barrier_mode : Cortex_ilir.Barrier.mode;
}

val default : options
(** Everything on (the "Cortex" configuration): dynamic batching,
    specialization, fusion, persistence; no unrolling or refactoring;
    carrier barrier placement. *)

val baseline : options
(** Everything off except dynamic batching — the leftmost bar of
    Fig. 10a. *)

val options_to_string : options -> string
(** Canonical textual form: comma-joined flag tokens
    (e.g. ["dynamic_batch,specialize,fuse,persist,unroll"]), plus
    [barrier=conservative] for the non-default barrier placement.
    {!default} prints as ["default"], the all-off record as ["none"].
    Round-trips through {!options_of_string}; bundle manifests and
    [Engine.Config] files store this form. *)

val options_of_string : string -> options option
(** Inverse of {!options_to_string}; [None] on an unknown token. *)

type ufs = {
  u_num_nodes : Ir.Uf.t;
  u_num_leaves : Ir.Uf.t;
  u_leaf_begin : Ir.Uf.t;
  u_num_internal : Ir.Uf.t;
  u_num_batches : Ir.Uf.t;  (** batch-loop trip count *)
  u_batch_begin : Ir.Uf.t;
  u_batch_len : Ir.Uf.t;
  u_max_batch_len : Ir.Uf.t;
  u_child : Ir.Uf.t;  (** child(k, n) *)
  u_num_children : Ir.Uf.t;
  u_payload : Ir.Uf.t;
  u_order : Ir.Uf.t;  (** execution order without dynamic batching *)
  u_sched_node : Ir.Uf.t;  (** node table for unrolled batches *)
  u_role : Ir.Uf.t;  (** 1 when an unrolled batch is a parent phase *)
  u_needs_sync : Ir.Uf.t;  (** 1 when a batch needs a global barrier *)
}

type compiled = {
  ra : Ra.t;
  options : options;
  prog : Ir.program;
  ufs : ufs;
  state_tensors : (string * Ir.tensor) list;
  param_tensors : (string * Ir.tensor) list;
  aliases : (Ir.tensor * Ir.tensor) list;
      (** pairs that must share storage (global state and its on-chip
          mirror under unrolling) *)
  phases : int;  (** phases of the recursive case *)
}

exception Lowering_error of string

val lower : ?obs:Cortex_obs.Obs.t -> ?options:options -> Ra.t -> compiled
(** Validates the program and options (unrolling and refactoring only
    for trees and sequences; refactoring needs >= 2 phases; unrolling
    requires specialization) and produces the compiled artifact.

    [obs] records the passes (validate, declare, assemble, under an
    enclosing [lower] span) as wall-clock spans on the ["compile"]
    track; the default [None] records nothing.

    Loop names in the produced program are canonical
    ({!Schedule.canonicalize}): unique across the whole program and
    stable for a given (model, options), so schedule plans can address
    them. *)

val apply_plan : Schedule.plan -> compiled -> compiled
(** Apply a loop-schedule plan to a compiled model: each directive is
    routed to the unique kernel containing its (canonical) target loop,
    staging tensors are added to the program's temporaries, and touched
    kernels are re-simplified.  The empty plan returns the artifact
    unchanged.  Raises {!Schedule.Schedule_error} when a directive's
    loop is missing/ambiguous or its legality checks fail — the tuner
    treats that as an infeasible candidate. *)

type uf_table = {
  uf_resolver : Ir.Uf.t -> int array -> int;
  num_batch_launches : int;
      (** launches of each [PerInternalBatch] kernel: the batch table's
          length *)
}
(** Pricing's binding of a linearized input: the batch table the
    compiled batch loop iterates over ([Unrolling]'s schedule when the
    compilation unrolled), [max_batch_len], and the program's
    uninterpreted functions over the linearizer's arrays.

    [uf_resolver u] looks [u] up on partial application, so a caller
    that resolves a UF once (the compiled cost walk, once per window)
    calls the linearizer's array directly.  Calling a UF the artifact
    does not define raises [Interp.Runtime_error "unbound uninterpreted
    function <name>"]. *)

val bind_ufs : compiled -> Cortex_linearizer.Linearizer.t -> uf_table
(** Builds the UF table and nothing else: no interpreter context and no
    state tensors, so pricing a window ({!Cortex_ilir.Cost.analyze},
    [Runtime.simulate_lin]) allocates O(batches), not O(nodes x
    hidden). *)

type bound = {
  ctx : Cortex_ilir.Interp.context;
  lin : Cortex_linearizer.Linearizer.t;
  uf_resolver : Ir.Uf.t -> int array -> int;  (** the UF table's *)
  num_batch_launches : int;  (** the UF table's *)
}

val bind :
  ?count:bool ->
  compiled ->
  Cortex_linearizer.Linearizer.t ->
  bound
(** For execution: builds an interpreter context on top of
    {!bind_ufs}'s table, with every uninterpreted function bound,
    state tensors allocated and zero-filled, and aliases wired to
    shared storage.  Parameters still need [Interp.bind_tensor] before
    running.  [count] turns on the interpreter's load/store/flop
    counters. *)

val state_value :
  bound -> compiled -> string -> Cortex_ds.Node.t -> Cortex_tensor.Tensor.t
(** Read a state of one node (by original node) out of the executed
    context. *)

val state_value_lin :
  bound -> compiled -> string -> int -> Cortex_tensor.Tensor.t
(** Same, addressed by linearized id — the serving engine reads
    per-request results out of a batched forest through its span
    tables, where the original nodes belong to a different (pre-merge)
    structure. *)

val state_dims : compiled -> (string * int array) list
(** Each state's per-node feature dims, in [state_tensors] order: one
    node's row of a state is the product of its dims in floats. *)

val state_rows : bound -> compiled -> string -> float array
(** A state's bound storage, node-major: linearized node [i]'s row is
    the [w] floats at [i * w], [w] the product of its {!state_dims}.
    The serving engine blits a session's persisted rows into it before
    a run and out of it after.  Raises [Failure] on an unknown state. *)

val delta_compatible : options -> bool
(** Whether delta-view serving (re-running only the grown tail with
    pre-seeded states) is sound for these options: the specialized
    dynamic-batching pipeline ([dynamic_batch], [specialize], [fuse]),
    without unrolling (schedules from the full linearization) or
    refactoring (publishes cross-node temporaries that are not
    states). *)
