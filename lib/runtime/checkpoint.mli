(** Parameter checkpoints: a small, stable binary format for model
    parameter tables.

    Models are trained elsewhere (Cortex, like the paper's prototype, is
    an inference compiler); this module persists and restores the
    [(name, tensor)] parameter tables the runtime binds, so weights can
    be shipped with an application.  Format: a magic string, a tensor
    count, then per tensor its name, shape and row-major float64
    payload, all little-endian.  The format is independent of the host's
    OCaml version (no [Marshal]).

    One hardened reader serves both byte sources: files ({!read},
    {!read_manifest}) and in-memory strings ({!of_string},
    {!manifest_of_string} — bundles embed a checkpoint as a section). *)

type t = (string * Cortex_tensor.Tensor.t) list

type manifest = (string * int array) list
(** Parameter names and shapes, without the payloads. *)

exception Corrupt of string

val write : out_channel -> t -> unit

val to_string : t -> string
(** The serialized bytes as a string (what {!write} would emit). *)

val read : in_channel -> t
(** Raises {!Corrupt} on bad magic or truncated data.  Hardened against
    adversarial headers: tensor counts, name lengths and payload sizes
    are bounded against the bytes actually remaining in the channel
    (when it is seekable) {e before} any allocation, and the extent
    product is overflow-checked — a bit-flipped header fails fast with
    {!Corrupt} instead of attempting a huge allocation. *)

val read_manifest : in_channel -> manifest
(** Names and shapes only — payloads are seek-skipped, never copied.
    Same hardening and {!Corrupt} behaviour as {!read}. *)

val of_string : string -> t
(** {!read} from in-memory bytes. *)

val manifest_of_string : string -> manifest
(** {!read_manifest} from in-memory bytes. *)

val save : string -> t -> unit
(** Write to a file path. *)

val load : string -> t
(** Read from a file path. *)

(** {2 Session-state sections}

    A spilled serving session: the model it belongs to, how many nodes
    of conversation prefix its state rows cover, a content digest of
    that prefix (the engine refuses to graft spilled states onto a
    different conversation), and the per-node hidden states as a plain
    tensor table.  Float64 payloads round-trip bitwise, so an evicted
    conversation restores exactly.  The reader shares the hardened
    [src] walk with the parameter format: truncation, implausible
    lengths, overflow extents and wrong-model payloads all raise
    {!Corrupt} — never [Marshal] failures. *)

type session_state = {
  ss_model : string;  (** [Ra] program name the states were computed under. *)
  ss_nodes : int;  (** Conversation prefix length the states cover. *)
  ss_digest : string;  (** Content digest of that prefix. *)
  ss_states : t;  (** Per-node hidden-state rows. *)
}

val session_to_string : session_state -> string

val session_of_string : ?expect_model:string -> string -> session_state
(** Parse a session section from in-memory bytes.  With [expect_model],
    a payload written for a different model raises {!Corrupt} before
    any tensor is materialized. *)

val save_session : string -> session_state -> unit
(** Write a session section to a file path. *)

val load_session : ?expect_model:string -> string -> session_state
(** Read a session section from a file path. *)

val resolver : t -> string -> Cortex_tensor.Tensor.t
(** Lookup function in the shape model specs expect; raises
    [Invalid_argument] for unknown names. *)

val of_spec :
  Cortex_models.Models_common.t -> seed:int -> t
(** Materialize a model's initializer into a checkpointable table. *)
