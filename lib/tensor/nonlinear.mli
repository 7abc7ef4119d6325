(** Nonlinear activation functions.

    §A.5 of the paper: Cortex uses rational approximations of [tanh] and
    [sigmoid] so the generated loops vectorize on CPUs.  We provide the
    same approximations, and the test suite bounds their error against
    [Stdlib.tanh].  Every execution path — the compiled loops, the RA
    evaluator and constant folding — uses the rational forms, so the
    correctness oracle compares like with like. *)

val tanh_rational : float -> float
(** Padé-style rational approximation of tanh, clamped to [-1, 1];
    absolute error below 3e-3 on all of R and below 1e-4 on [-3, 3]. *)

val sigmoid_rational : float -> float
(** [sigmoid_rational x = (1 + tanh_rational (x/2)) / 2]. *)

val relu : float -> float

type kind = Tanh | Sigmoid | Relu | Identity

val apply : kind -> float -> float
(** Dispatch using the rational forms for tanh/sigmoid. *)

val name : kind -> string
val flops : kind -> int
(** FLOP charge used by the cost model for one application. *)
