(** Ahead-of-time compiled artifacts ("bundles"): everything
    [cortex serve] needs to answer requests with zero compiler
    invocations — the lowered program with its canonical loop names,
    tuned schedule plans, the backend identity the artifact was priced
    for, the lowering options, and optionally the parameter table
    (through the hardened {!Cortex_runtime.Checkpoint} codec).

    Wire format (all integers little-endian i64): magic ["CORTEXB1"],
    version, a 16-byte MD5 digest over the concatenated section
    payloads, a section table (name and payload length, each bounded
    against the bytes remaining), then the payloads.  The digest is
    verified {e before} any payload is parsed — a bit-flipped file
    fails with {!Digest_mismatch} rather than reaching [Marshal];
    truncation fails with {!Truncated} before any allocation.  Serving
    refuses artifacts whose recorded backend or model disagree with the
    request ({!Backend_mismatch}, {!Model_mismatch} — raised by
    [Engine.of_bundle]). *)

module Lower = Cortex_lower.Lower
module Checkpoint = Cortex_runtime.Checkpoint

type plan_entry = {
  bp_backend : string;  (** [Backend.short] of the backend tuned for *)
  bp_bucket : int;  (** [Dispatch.size_bucket] of the tuned shape class *)
  bp_plan : Cortex_ilir.Schedule.plan;
  bp_default_us : float;  (** simulated latency of the empty plan *)
  bp_tuned_us : float;  (** simulated latency of the tuned plan *)
}

type t = {
  b_version : int;
  b_model : string;
  b_size : string;
  b_backend : string;
  b_options : Lower.options;
  b_config : string;  (** opaque [Engine.Config] text ([""] when absent) *)
  b_compiled : Lower.compiled;
  b_plans : plan_entry list;
  b_weights : Checkpoint.t;
  b_planned_onchip_bytes : int;
      (** liveness-planned Shared/Register arena (static extents) *)
  b_worst_onchip_bytes : int;  (** sum-of-buffers worst case, same set *)
  b_digest : string;  (** MD5 over the section payloads, hex *)
  b_manifest : (string * string) list;
}

type error =
  | Bad_magic of string
  | Unsupported_version of int
  | Truncated of { what : string; need : int; left : int }
  | Digest_mismatch of { expected : string; got : string }
  | Missing_section of string
  | Corrupt_section of { section : string; reason : string }
  | Backend_mismatch of { bundle : string; requested : string }
  | Model_mismatch of { bundle : string; requested : string }

exception Error of error

val error_to_string : error -> string

val create :
  ?config:string ->
  ?plans:plan_entry list ->
  ?weights:Checkpoint.t ->
  ?extra_manifest:(string * string) list ->
  model:string ->
  size:string ->
  backend:string ->
  Lower.compiled ->
  t
(** Build a bundle in memory; the manifest (including the static
    planned/worst on-chip footprint from {!Cortex_ilir.Mem_plan}, then
    [extra_manifest] — e.g. the UF-resolved footprint [cortex build]
    measures on its sample linearization) and the content digest are
    computed here, deterministically, by one encode. *)

val encode : t -> string
(** The serialized bytes {!save} writes: one buffer sized up front,
    the weights encoded straight into it. *)

val decode : string -> t
(** Parse and validate serialized bytes; raises {!Error}.  Sections are
    ranges into the string, and the weights decode straight into their
    tensors, so the payload is never copied. *)

val save : string -> t -> unit
val load : string -> t
(** Raises {!Error} ({!Bad_magic}, {!Unsupported_version},
    {!Truncated}, {!Digest_mismatch}, {!Missing_section},
    {!Corrupt_section}) and [Sys_error] on unreadable files. *)

val resolver : t -> string -> Cortex_tensor.Tensor.t
(** Parameter lookup over the bundled weights, in the shape
    [Engine.create]'s [params] expects. *)

type info = {
  i_digest : string;
  i_manifest : (string * string) list;
  i_sections : (string * int) list;  (** name, payload bytes *)
  i_weights : Checkpoint.manifest;  (** shapes only, no payload copy *)
  i_plans : (string * int * string) list;
      (** backend, bucket, plan string *)
}

val inspect : string -> info
(** Validate header bounds and the digest and summarize the artifact —
    without unmarshalling the compiled program or materializing any
    tensor, so inspection is cheap and safe even on files {!load} would
    reject later. *)

val info_to_string : info -> string
