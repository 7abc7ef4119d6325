(** Static memory planning: per-tensor live ranges over a lowered
    program and greedy first-fit packing into one reusable arena.

    The worst case charges every constant-extent temporary its own
    buffer for the whole run; a lowered program touches its buffers in
    phases, and buffers whose live ranges never intersect can share
    arena space.  The arena high-water mark is the {e planned} peak
    footprint — what {!Cost.analyze} records as
    [onchip_planned_bytes] and capacity checks compare against the
    backend's on-chip storage, instead of the sum-of-buffers worst
    case.

    Liveness is static and conservative: each Load/Store advances an
    event clock, a tensor's range is the hull of its access events,
    widened to the full interval of any loop (or per-batch kernel
    launch) containing one of its accesses — iteration 2 may read what
    iteration 1 wrote, so two tensors used in the same loop always
    conflict.  The packing never aliases two simultaneously-live
    buffers (the property tests pin this). *)

type placement = {
  pl_tensor : Ir.tensor;
  pl_bytes : int;
  pl_offset : int;  (** byte offset in the arena *)
  pl_first : int;  (** first event of the live range, inclusive *)
  pl_last : int;  (** last event, inclusive *)
}

type t = {
  arena_bytes : int;  (** planned peak: max of [offset + bytes] *)
  worst_bytes : int;
      (** every planned buffer charged its own aligned allocation —
          the sum-of-buffers baseline the arena packs against *)
  placements : placement list;
  unplanned : Ir.tensor list;
      (** temporaries of the requested spaces whose extent depends on
          the linearized input: streamed scratch, not statically
          packable (and not charged by either number) *)
}

val ranges_overlap : placement -> placement -> bool
(** Live-range intersection (inclusive endpoints). *)

val offsets_overlap : placement -> placement -> bool
(** Arena-interval intersection ([[offset, offset + bytes)]). *)

val static_bytes :
  ?uf:(Ir.Uf.t -> int array -> int) -> bytes_per_elem:int -> Ir.tensor -> int option
(** A tensor's size in bytes when its extents evaluate: compile-time
    constants (and integer arithmetic over them) always, UF calls when
    [uf] — a linearization's [Lower.uf_resolver] — is supplied.  [None]
    when an extent names a loop variable or tensor data, divides by
    zero, or its UF raises.  The one tensor sizer: the planner, the cost
    analysis and the runtime's device-memory footprint all use it. *)

val plan :
  ?bytes_per_elem:int ->
  ?align:int ->
  ?uf:(Ir.Uf.t -> int array -> int) ->
  spaces:Ir.space list ->
  Ir.program ->
  t
(** Pack the statically-sized tensors of [spaces] (default alignment 64
    bytes, fp32 elements) first-fit on offset, candidates ordered by
    (first event, size descending) — deterministic for a given program.
    Without [uf], only compile-time-constant extents are sized (the
    capacity-check configuration, safe before any input is seen); with
    [uf] — a bound linearization's [Lower.uf_resolver] — UF-valued
    extents such as [max_batch_len()] resolve too, giving the concrete
    planned-vs-worst footprint the bundle manifest and the bench
    report. *)

val to_string : t -> string
