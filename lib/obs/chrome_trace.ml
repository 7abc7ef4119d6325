module Json = Cortex_util.Json

type phase = Begin | End | Instant | Metadata

type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts_us : float;
  ev_pid : int;
  ev_tid : int;
  ev_args : (string * value) list;
}

let event ?(cat = "") ?(args = []) ~name ~ph ~ts_us ~pid ~tid () =
  { ev_name = name; ev_cat = cat; ev_ph = ph; ev_ts_us = ts_us; ev_pid = pid;
    ev_tid = tid; ev_args = args }

let process_name ~pid name =
  event ~name:"process_name" ~ph:Metadata ~ts_us:0.0 ~pid ~tid:0
    ~args:[ ("name", Str name) ] ()

let thread_name ~pid ~tid name =
  event ~name:"thread_name" ~ph:Metadata ~ts_us:0.0 ~pid ~tid
    ~args:[ ("name", Str name) ] ()

(* ---------- serialization ---------- *)

let phase_to_string = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Metadata -> "M"

(* One fixed float format for every float in the file: plain decimal
   (JSON has no infinities, and %h-style hex floats are not JSON), with
   enough digits to round-trip the sub-microsecond part. *)
let float_to_json v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let value_to_json = function
  | Int i -> string_of_int i
  | Float f -> float_to_json f
  | Str s -> "\"" ^ Json.escape s ^ "\""
  | Bool b -> if b then "true" else "false"

let event_to_json e =
  let args =
    match e.ev_args with
    | [] -> ""
    | args ->
      Printf.sprintf ",\"args\":{%s}"
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (Json.escape k) (value_to_json v)) args))
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":%d%s}"
    (Json.escape e.ev_name) (Json.escape e.ev_cat) (phase_to_string e.ev_ph)
    (float_to_json e.ev_ts_us) e.ev_pid e.ev_tid args

let to_json events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (event_to_json e))
    events;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

(* ---------- parsing ---------- *)

let phase_of_string = function
  | "B" -> Some Begin
  | "E" -> Some End
  | "i" | "I" -> Some Instant
  | "M" -> Some Metadata
  | _ -> None

let event_of_json j =
  match j with
  | Json.Obj fields ->
    let str k = match List.assoc_opt k fields with Some (Json.Str s) -> Some s | _ -> None in
    let num k = match List.assoc_opt k fields with Some (Json.Num f) -> Some f | _ -> None in
    let ph =
      match str "ph" with
      | None -> Error "event missing \"ph\""
      | Some p -> (match phase_of_string p with Some ph -> Ok (Some ph) | None -> Ok None)
    in
    (match ph with
     | Error e -> Error e
     | Ok None -> Ok None (* unmodeled phase: skip *)
     | Ok (Some ph) ->
       (match str "name", num "ts" with
        | None, _ -> Error "event missing \"name\""
        | _, None -> Error "event missing \"ts\""
        | Some name, Some ts ->
          let args =
            match List.assoc_opt "args" fields with
            | Some (Json.Obj kvs) ->
              List.filter_map
                (fun (k, v) ->
                  match v with
                  | Json.Str s -> Some (k, Str s)
                  | Json.Bool b -> Some (k, Bool b)
                  | Json.Num f ->
                    if Float.is_integer f && Float.abs f <= 1e15 then
                      Some (k, Int (int_of_float f))
                    else Some (k, Float f)
                  | _ -> None)
                kvs
            | _ -> []
          in
          Ok
            (Some
               {
                 ev_name = name;
                 ev_cat = Option.value (str "cat") ~default:"";
                 ev_ph = ph;
                 ev_ts_us = ts;
                 ev_pid = (match num "pid" with Some p -> int_of_float p | None -> 0);
                 ev_tid = (match num "tid" with Some t -> int_of_float t | None -> 0);
                 ev_args = args;
               })))
  | _ -> Error "trace event is not an object"

let parse text =
  let events_of items =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest -> (
        match event_of_json j with
        | Error e -> Error e
        | Ok None -> go acc rest
        | Ok (Some ev) -> go (ev :: acc) rest)
    in
    go [] items
  in
  match Json.of_string text with
  | exception Json.Parse_error msg -> Error msg
  | Json.Arr items -> events_of items
  | Json.Obj fields -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Json.Arr items) -> events_of items
    | _ -> Error "no \"traceEvents\" array in trace object")
  | _ -> Error "trace document is neither an array nor an object"
