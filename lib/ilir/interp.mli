(** Numerical executor for ILIR programs.

    Executes compiled kernels numerically over real tensors — this is
    the "target" our code generation retargets to, playing the role the
    CUDA/C backends play in the paper's prototype.  Every entry point
    first compiles its expression, statement or program into OCaml
    closures against the context, then runs them:

    - variables become lexically scoped slots in unboxed [int] and
      [float] frames, typed by the value they hold (int unless a [Flt],
      [Load] or [Math] is involved; only a [Select] whose branches
      differ in type needs a boxed {!value});
    - uninterpreted functions and nonlinearities are resolved once;
    - each tensor is resolved to its storage, shape and strides on its
      first access, so unbound temporaries are still allocated lazily
      and zero-filled.

    The compiled code performs the same float operations in the same
    order as a direct walk of the tree, so results are bitwise
    identical.  Every run-time check stays and raises {!Runtime_error}
    when execution reaches it, never at compile time: per-dimension
    bounds and rank on each load and store (naming the tensor), integer
    division or modulo by zero, an unbound variable or uninterpreted
    function, and a float used where an int is required.

    Parallel and vectorized loops run serially (the ILIR's parallel
    loops are data-race-free between barriers, so the serial order is a
    valid schedule).  With [~count:true] the executor also counts
    loads, stores and FLOPs per memory space, which the tests
    cross-check against the static cost walker; the counter updates are
    compiled in only then. *)

type value = Vi of int | Vf of float

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable flops : int;
  mutable loads_by_space : int array;  (** indexed by [space_index] *)
  mutable stores_by_space : int array;
}

val space_index : Ir.space -> int

type context

val create : ?count:bool -> num_internal_batches:int -> unit -> context
(** [count] enables the load/store/flop counters (default off). *)

val counters : context -> counters

val num_internal_batches : context -> int
(** The per-batch launch count this context was created with. *)

val bind_uf : context -> Ir.Uf.t -> (int array -> int) -> unit
val bind_uf0 : context -> Ir.Uf.t -> int -> unit
(** Bind a nullary UF to a constant (e.g. [num_leaves()]). *)

val bind_tensor : context -> Ir.tensor -> Cortex_tensor.Tensor.t -> unit
(** Provide storage for a tensor (parameters, inputs, or outputs the
    caller wants to inspect).  Unbound temporaries/outputs are allocated
    zero-filled on first use, with extents evaluated in the context. *)

val get_tensor : context -> Ir.tensor -> Cortex_tensor.Tensor.t
(** Storage of a tensor; allocates if not yet bound. *)

val eval_expr : context -> (int * value) list -> Ir.expr -> value
(** Evaluate an expression under variable bindings (vid -> value; the
    first binding of a vid wins). *)

val run_stmt : context -> (int * value) list -> Ir.stmt -> unit

val run_program : context -> Ir.program -> unit
(** Compiles every kernel once, then runs them in the order of
    {!Ir.launch_groups}: a batch-major run of per-batch kernels is
    launched once per internal batch with the batch variable bound. *)

exception Runtime_error of string
