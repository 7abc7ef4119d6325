(** Appendix C: roofline operational-intensity analysis of TreeFC.

    For a batch of [b] trees of [n] nodes each with hidden size [h],
    the model performs [F = b*n*(4*h^2 + h)] FLOPs in every framework;
    what differs is the bytes moved to/from off-chip memory.  The
    operational intensity [O = F / B] quantifies exploited reuse:
    [O_cortex > O_dynet > O_pytorch] (Fig. 14). *)

type quantities = {
  flops : float;  (** F *)
  bytes : float;  (** B_framework *)
  intensity : float;  (** O = F / B *)
}

val cortex : n:int -> b:int -> h:int -> quantities
(** Weights and bias read once (persisted); hidden states touched once
    per edge. *)

val dynet : n:int -> b:int -> h:int -> quantities
(** Weights re-read for every dynamic batch (one per tree level =
    [log2] of the node count for perfect trees); states + contiguity
    copies. *)

val pytorch : n:int -> b:int -> h:int -> quantities
(** Every operand spills to global memory around each per-node kernel
    call. *)

val asymptotic_cortex : b:int -> n0:int -> float
(** The paper's closed form under [n ~ h = n0 >> b >= 1]:
    [O ~ b*n0 / (3b + 2)]. *)

val asymptotic_dynet : b:int -> n0:int -> float
(** [O ~ b*n0 / (5b + 8*log2 n0)]. *)

val asymptotic_pytorch : unit -> float
(** [~ 0.5]. *)

val lower_bound_us :
  flops:float -> bytes:float -> peak_flops:float -> mem_bw:float -> float
(** [max(flops / peak_flops, bytes / mem_bw)]: the latency floor any
    schedule of a program with these counts must respect on a machine
    with these peaks.  The two-level tuner prunes a schedule family
    when even this bound cannot beat the best latency found so far. *)
