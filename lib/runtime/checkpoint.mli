(** Parameter checkpoints: a small, stable binary format for model
    parameter tables.

    Models are trained elsewhere (Cortex, like the paper's prototype, is
    an inference compiler); this module persists and restores the
    [(name, tensor)] parameter tables the runtime binds, so weights can
    be shipped with an application.  Format: a magic string, a tensor
    count, then per tensor its name, shape and row-major float64
    payload, all little-endian.  The format is independent of the host's
    OCaml version (no [Marshal]).

    One hardened reader parses every byte source in place: a bounded
    cursor over an immutable string and a [\[pos, stop)] range.  Files
    ({!load}, {!load_session}, {!read_manifest}) are read once into a
    string; bundles hand their weights section's range to
    {!of_string}.  Each tensor's payload is decoded in one loop straight
    into its storage, and every writer fills one buffer sized up front,
    so neither direction allocates per value. *)

type t = (string * Cortex_tensor.Tensor.t) list

type manifest = (string * int array) list
(** Parameter names and shapes, without the payloads. *)

exception Corrupt of string

val byte_size : t -> int
(** [String.length (to_string t)], computed from names and shapes. *)

val blit : t -> bytes -> int -> unit
(** [blit t b pos] writes the bytes of [to_string t] into [b] at [pos]
    (a bundle writes its weights section in place this way). *)

val to_string : t -> string
(** The serialized bytes. *)

val of_string : ?pos:int -> ?len:int -> string -> t
(** Parse the table held in [s.[pos, pos + len)] (the whole string by
    default).  Raises {!Corrupt} on bad magic, truncated data or bytes
    left in the range after the last tensor.
    Hardened against adversarial headers: tensor counts, name lengths
    and payload sizes are bounded against the bytes left in the range
    {e before} any allocation, and the payload's byte count is
    overflow-checked — a bit-flipped header fails fast with {!Corrupt}
    instead of attempting a huge allocation.  Raises [Invalid_argument]
    when the range is not inside [s]. *)

val manifest_of_string : ?pos:int -> ?len:int -> string -> manifest
(** Names and shapes only — payloads are skipped in place, never
    decoded.  Same hardening and {!Corrupt} behaviour as {!of_string}. *)

val read_manifest : in_channel -> manifest
(** {!manifest_of_string} over the rest of the channel. *)

val save : string -> t -> unit
(** Write to a file path. *)

val load : string -> t
(** Read a file path once and parse it with {!of_string}. *)

(** {2 Session-state sections}

    A spilled serving session: the model it belongs to, how many nodes
    [n] of conversation prefix its state rows cover, a content digest
    (the engine digests that prefix and the rows, so it refuses to
    graft spilled states onto a different conversation, or damaged
    rows onto any), and the hidden states as a plain tensor
    table — one tensor per state, named by the state and shaped
    [[n; dims]], row [i] for node [i].  Float64 payloads round-trip
    bitwise, so an evicted conversation restores exactly.  The reader shares the hardened
    cursor walk with the parameter format: truncation, implausible
    lengths, overflow extents and wrong-model payloads all raise
    {!Corrupt} — never [Marshal] failures. *)

type session_state = {
  ss_model : string;  (** [Ra] program name the states were computed under. *)
  ss_nodes : int;  (** Conversation prefix length the states cover. *)
  ss_digest : string;  (** Content digest, as its writer computed it. *)
  ss_states : t;  (** One [[n; dims]] tensor of rows per state. *)
}

val session_to_string : session_state -> string

val session_of_string : ?expect_model:string -> string -> session_state
(** Parse a session section from in-memory bytes.  With [expect_model],
    a payload written for a different model raises {!Corrupt} before
    any tensor is materialized. *)

val save_session : string -> session_state -> unit
(** Write a session section to a file path. *)

val load_session : ?expect_model:string -> string -> session_state
(** Read a file path once and parse it with {!session_of_string}. *)

val resolver : t -> string -> Cortex_tensor.Tensor.t
(** Lookup function in the shape model specs expect; raises
    [Invalid_argument] for unknown names. *)

val of_spec :
  Cortex_models.Models_common.t -> seed:int -> t
(** Materialize a model's initializer into a checkpointable table. *)
