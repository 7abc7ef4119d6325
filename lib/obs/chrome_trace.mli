(** Chrome trace-event JSON: the event model, a canonical serializer and
    a parser, both over the shared codec {!Cortex_util.Json}.

    The {{:https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU}
    trace-event format} is the de-facto interchange for span profiles:
    [chrome://tracing], Perfetto and speedscope all open it.  This
    module keeps just the subset the observability layer emits —
    duration begin/end pairs ([B]/[E]), instants ([i]) and the metadata
    events that name processes and threads ([M]) — and serializes it
    {e canonically}: a fixed field order, a fixed float format and a
    deterministic event order, so two identical runs produce
    byte-identical files (the property CI diffs).

    The parser accepts both the bare-array form and the
    [{"traceEvents": [...]}] object form, and tolerates unknown fields
    and phases it does not model (skipping them), so externally produced
    traces can still be fed to {!Validate}. *)

type phase =
  | Begin  (** ["B"] — span opens at [ts_us] *)
  | End  (** ["E"] — the most recent unmatched [Begin] on the track closes *)
  | Instant  (** ["i"] — a point event *)
  | Metadata  (** ["M"] — names a process or thread *)

type value = Int of int | Float of float | Str of string | Bool of bool
(** Argument payloads ([args] in the JSON). *)

type event = {
  ev_name : string;
  ev_cat : string;  (** clock domain: ["wall"] or ["sim"] (or [""]) *)
  ev_ph : phase;
  ev_ts_us : float;
  ev_pid : int;
  ev_tid : int;
  ev_args : (string * value) list;
}

val event :
  ?cat:string ->
  ?args:(string * value) list ->
  name:string ->
  ph:phase ->
  ts_us:float ->
  pid:int ->
  tid:int ->
  unit ->
  event

val process_name : pid:int -> string -> event
(** The [M] event naming a process. *)

val thread_name : pid:int -> tid:int -> string -> event
(** The [M] event naming a thread (a track). *)

val to_json : event list -> string
(** The canonical serialization: a [{"traceEvents": [...]}] object, one
    event per line, fields in a fixed order, timestamps as [%.3f]
    microseconds.  Events are emitted in the given order — the caller
    (normally {!Obs.events}) is responsible for a deterministic order. *)

val parse : string -> (event list, string) result
(** Parse a trace-event JSON document (either form).  Unknown phases
    and fields are skipped; a malformed document or an event missing a
    required field is an [Error] with a human-readable reason. *)
