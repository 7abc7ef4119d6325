(** C/CUDA-flavoured code emission from the ILIR.

    The reference prototype in the paper generates CUDA/C through TVM's
    codegen; this environment cannot invoke nvcc, so the interpreter is
    the executing target — but the lowered kernels still print as the
    code a device backend would compile.  The emitter maps:

    - tensors to flat [float*] buffers with explicit row-major indexing
      and a memory-space qualifier comment ([__shared__] etc.);
    - uninterpreted functions to [const int*] lookup tables produced by
      the linearizer ([child(k, n)] becomes [ds_child[k * num_nodes + n]]
      and nullary functions become scalar kernel arguments);
    - [Parallel] loops to block-parallel loops, [Vectorized] loops to
      thread-lane loops, [Unrolled] loops to [#pragma unroll];
    - [Barrier] to a grid-wide synchronization ([grid.sync()]).

    The output is deterministic and human-readable; the test suite
    checks its structure, and `cortex dump-c MODEL` prints it. *)

val program : Ir.program -> string
(** Emit every kernel of the program, preceded by the buffer/lookup
    signature derived from its tensors and uninterpreted functions. *)
