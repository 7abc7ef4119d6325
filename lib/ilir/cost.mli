(** Static cost analysis of scheduled ILIR programs.

    Walks a program against a *concrete* linearized input (the
    uninterpreted functions are bound to the linearizer's arrays) and
    produces exact FLOP and byte counts per memory space, split into
    *segments* — the regions between global barriers.

    The walk is compiled once per program, on the first [analyze] of
    it, and kept while the program lives (a weak table keyed by the
    program's physical identity; one domain prices at a time).
    Per program, once: loop variables and [Let]s become int slots;
    float-valuedness and multipliability are decided; every
    {e multipliable} subtree — no branch, no barrier, only
    constant-extent loops — folds into a constant summary (its counts,
    raw Param bytes and lane factors); and the parameter sizes, the
    on-chip footprint and the {!Mem_plan} arena are computed.
    Per window: the UFs are resolved once, then the walk iterates only
    the loops a summary cannot cover (UF-valued extents over non-
    multipliable bodies, such as a node's child loop), adding each
    summary scaled by its multiplier in O(1).  So a window costs
    O(batches + nodes x non-multipliable statements) and allocates its
    segments and little else; no multipliable loop nest is re-walked
    per node.  On 8-tree SST windows of TreeLSTM at hidden 256 (~300
    nodes) a whole [Runtime.simulate_lin] takes ~0.1 ms and allocates
    ~5 KB on a 2-vCPU Xeon host; compiling a program's walk adds
    ~0.4 ms to its first window.

    Every count is a sum of integer-valued floats far below 2^53, so
    pre-summing a subtree gives the same bits as walking it.  The
    backend model (lib/backend) converts these counts into simulated
    latency.  Segments carry the maximum concurrent lane count so the
    backend can model occupancy, and the set of parameter tensors they
    touch so it can model model persistence (persistent weights are
    fetched once; otherwise once per segment, i.e. per dynamic batch). *)

type segment = {
  flops : float;
  dep_flops : float;
      (** subset of [flops] issued on a loop-carried dependency chain:
          reductions accumulating into a Register temporary whose
          innermost enclosing loop is Serial.  Each FMA waits on the
          previous one, so backends price these at their serial issue
          rate; a schedule that binds the reduction loop onto lanes (or
          unrolls it into distinct accumulators) moves the work back to
          full throughput *)
  reads : float array;  (** bytes read per [Interp.space_index] *)
  writes : float array;  (** bytes written per space *)
  lanes : float;  (** max concurrent lanes while this segment ran *)
  param_raw : (int * float) list;
      (** raw bytes read per Param tensor (by id): the demand stream
          before any caching; gather-style accesses (embedding rows)
          touch far less than the tensor's footprint *)
}

type kernel_cost = { kname : string; launches : int; segments : segment list }
(** [segments] concatenates the segments of all launches in order. *)

type t = {
  kernels : kernel_cost list;
  param_total_bytes : float;  (** distinct Param bytes across the program *)
  param_sizes : (int * float) list;  (** bytes per Param tensor id *)
  barrier_count : int;  (** total global barriers executed *)
  onchip_peak_bytes : float;
      (** resident footprint of constant-extent Shared/Register
          temporaries (staging buffers, fixed-shape caches,
          accumulators) — checked against the backend's on-chip
          capacity for schedule feasibility.  Scratch whose extent
          depends on the linearized input is streamed, not resident,
          and is priced through on-chip bandwidth instead *)
  onchip_planned_bytes : float;
      (** the same buffers after static memory planning
          ({!Mem_plan.plan}): temporaries whose live ranges never
          intersect share arena space, so this is the footprint that
          must actually be resident together.  Always
          [<= onchip_peak_bytes]; capacity feasibility checks use
          this *)
}

val bytes_per_elem : int
(** 4: the models run in fp32 on the paper's hardware. *)

val analyze :
  uf:(Ir.Uf.t -> int array -> int) ->
  num_internal_batches:int ->
  Ir.program ->
  t
(** [uf] is applied once per UF the program's control flow calls
    ([Lower.bind_ufs]'s resolver looks the UF up then).
    Raises [Failure] on control flow that depends on tensor data or an
    unbound loop variable, and whatever [uf] raises (an unbound UF's
    [Interp.Runtime_error]).  A [Let] whose value does not evaluate
    binds 0. *)

val total_flops : t -> float
val global_traffic : t -> float
(** Bytes moved to/from off-chip memory, excluding parameters (which the
    backend accounts for separately depending on persistence). *)

val onchip_traffic : t -> float
val total_launches : t -> int
