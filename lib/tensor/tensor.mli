(** Dense float tensors.

    This is the numeric substrate standing in for cuBLAS / MKL /
    OpenBLAS in the paper's stack: everything that actually computes
    values — the model reference implementations, the baseline framework
    simulators and the ILIR interpreter — goes through these operations.
    Data is stored row-major in a flat [float array]. *)

type t = private { shape : Shape.t; data : float array }

val create : Shape.t -> float -> t
(** Filled with a constant. *)

val zeros : Shape.t -> t

val init : Shape.t -> (int array -> float) -> t
(** [init shape f] fills each cell from its multi-index. *)

val of_array : Shape.t -> float array -> t
(** Shares (does not copy) the array; length must equal [numel shape]. *)

val scalar : float -> t
(** Rank-0 tensor. *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit
val get_flat : t -> int -> float
val set_flat : t -> int -> float -> unit

val numel : t -> int
val dim : t -> int -> int
(** Extent of one dimension. *)

val copy : t -> t

val reshape : t -> Shape.t -> t
(** Shares data; element counts must match. *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
(** Pointwise; shapes must be equal. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Hadamard product. *)

val scale : float -> t -> t
val add_ : t -> t -> unit
(** In-place accumulate: [add_ dst src]. *)

val matmul : t -> t -> t
(** [matmul a b] for a:(m,k) b:(k,n) -> (m,n). *)

val matvec : t -> t -> t
(** [matvec a x] for a:(m,k) x:(k) -> (m). *)

val transpose : t -> t
(** Rank-2 transpose. *)

val concat : axis:int -> t -> t -> t
(** Concatenate two tensors along [axis]; other extents must match. *)

val row : t -> int -> t
(** [row m i] copies row [i] of a rank-2 tensor into a rank-1 tensor. *)

val sum : t -> float
val dot : t -> t -> float

val rand_uniform : Cortex_util.Rng.t -> Shape.t -> lo:float -> hi:float -> t

val approx_equal : ?tol:float -> t -> t -> bool
(** Same shape and all elements within an absolute+relative tolerance. *)

val max_abs_diff : t -> t -> float
val to_string : ?max_elems:int -> t -> string
