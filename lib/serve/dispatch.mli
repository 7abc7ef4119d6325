(** Multi-device dispatch for the serving engine.

    The engine's drain plays batch windows through a set of simulated
    devices, each with its own free-time clock and accounting.  The
    dispatch policy decides which device a ready window lands on; the
    window then occupies that device from [max(device free, ready)]
    until completion, priced on {e that device's} backend model —
    device lists may be heterogeneous (2 GPUs + 1 Intel host, say). *)

module Backend = Cortex_backend.Backend

type policy =
  | Round_robin  (** cycle through the devices in index order *)
  | Least_loaded
      (** earliest-free device (ties to the lowest index) — the work
          balancer of choice for heterogeneous device lists, where the
          faster device frees up more often *)
  | Size_affinity
      (** route by the window's power-of-two node-count bucket
          ([bucket mod num_devices]) — windows of similar shape share a
          device, keeping each device's working set (and a per-device
          shape cache, were it split) homogeneous *)

val policy_to_string : policy -> string

val policy_of_string : string -> policy option
(** Accepts the long names and the abbreviations [rr]/[ll]/[sa]. *)

(** One simulated device: its backend model, free-time clock, and
    cumulative accounting for the drain's device reports. *)
type device = {
  dev_index : int;
  dev_backend : Backend.t;
  mutable dev_free_us : float;
      (** when the device next falls idle; [neg_infinity] when it has
          never run (so a window dispatches at its own ready time, even
          a negative one) *)
  mutable dev_busy_us : float;
  mutable dev_windows : int;
  mutable dev_requests : int;
  mutable dev_nodes : int;
  mutable dev_occ_weight : float;  (** busy-time-weighted occupancy sum *)
  mutable dev_failed : bool;
      (** fail-stopped: the device takes no further windows; set by the
          engine's fault handling via {!fail} *)
}

type t

val create : policy:policy -> Backend.t list -> t
(** Fresh idle devices, one per backend, in list order.  Raises
    [Invalid_argument] on an empty list. *)

val devices : t -> device array
val policy : t -> policy

val fail : device -> unit
(** Mark a device fail-stopped: {!select} never picks it again. *)

val alive : t -> int
(** How many devices have not fail-stopped. *)

val size_bucket : int -> int
(** [size_bucket n] is [floor (log2 (max 1 n))]: node counts
    [2^b .. 2^(b+1)-1] share bucket [b]. *)

val select : t -> nodes:int -> device
(** Pick the device for a window of [nodes] total nodes, per the
    policy, among the devices that have not {!fail}-stopped:
    round-robin advances its cursor past dead devices, least-loaded
    folds over the survivors, size-affinity redistributes its buckets
    over the survivors in index order.  Raises [Invalid_argument] when
    every device has failed. *)

val commit :
  device ->
  dispatch_us:float ->
  completion_us:float ->
  requests:int ->
  nodes:int ->
  occupancy:float ->
  unit
(** Record a window's execution on its device: advances the free clock
    to [completion_us] and accumulates busy time, window/request/node
    counts and busy-weighted occupancy. *)

val mean_occupancy : device -> float
(** Busy-time-weighted mean occupancy of everything committed so far
    (0 for an idle device). *)
