module Rng = Cortex_util.Rng

type fault =
  | Fail_stop of { device : int; at_us : float }
  | Transient of { device : int; prob : float; from_us : float; until_us : float }
  | Straggler of { device : int; factor : float; from_us : float; until_us : float }

type spec = fault list

(* ---------- the spec grammar ---------- *)

let device_to_string d = if d < 0 then "*" else string_of_int d

let fault_to_string = function
  | Fail_stop { device; at_us } ->
    Printf.sprintf "failstop@%s:%g" (device_to_string device) at_us
  | Transient { device; prob; from_us; until_us } ->
    Printf.sprintf "transient@%s:%g,%g,%g" (device_to_string device) prob from_us
      until_us
  | Straggler { device; factor; from_us; until_us } ->
    Printf.sprintf "straggler@%s:%g,%g,%g" (device_to_string device) factor from_us
      until_us

let to_string spec = String.concat ";" (List.map fault_to_string spec)

let ( let* ) r f = Result.bind r f

(* Every parse error names the offending clause: its 1-based position
   in the semicolon-separated spec and its text, so a user can fix a
   long grammar string without bisecting it by hand. *)
let clause_err ~clause str fmt =
  Printf.ksprintf
    (fun msg -> Error (Printf.sprintf "fault clause %d (%S): %s" clause str msg))
    fmt

let parse_device ~clause str s =
  let s = String.trim s in
  if s = "*" then Ok (-1)
  else
    match int_of_string_opt s with
    | Some d when d >= 0 -> Ok d
    | _ -> clause_err ~clause str "bad device %S (expected an index or *)" s

let parse_floats ~clause str s =
  let parts = String.split_on_char ',' s in
  let rec go acc pos = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
      match float_of_string_opt (String.trim p) with
      | Some f -> go (f :: acc) (pos + 1) rest
      | None -> clause_err ~clause str "bad number %S at argument %d" p pos)
  in
  go [] 1 parts

(* The arity each kind expects, spelled out so a wrong count names what
   was missing instead of a generic complaint. *)
let arity_of = function
  | "failstop" -> "at_us (1 number)"
  | "transient" -> "prob,from_us,until_us (3 numbers)"
  | "straggler" -> "factor,from_us,until_us (3 numbers)"
  | _ -> assert false

let parse_one ~clause str =
  let* kind, rest =
    match String.index_opt str '@' with
    | Some i ->
      Ok
        ( String.trim (String.sub str 0 i),
          String.sub str (i + 1) (String.length str - i - 1) )
    | None -> clause_err ~clause str "missing @device"
  in
  let* dev, args =
    match String.index_opt rest ':' with
    | Some i ->
      Ok (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))
    | None -> clause_err ~clause str "missing :args after the device"
  in
  let* device = parse_device ~clause str dev in
  let* nums = parse_floats ~clause str args in
  match (kind, nums) with
  | "failstop", [ at_us ] ->
    if at_us >= 0.0 then Ok (Fail_stop { device; at_us })
    else clause_err ~clause str "fail time must be >= 0"
  | "transient", [ prob; from_us; until_us ] ->
    if not (prob > 0.0 && prob <= 1.0) then
      clause_err ~clause str "probability must be in (0, 1]"
    else if from_us > until_us then clause_err ~clause str "from > until"
    else Ok (Transient { device; prob; from_us; until_us })
  | "straggler", [ factor; from_us; until_us ] ->
    if not (factor >= 1.0) then clause_err ~clause str "straggler factor must be >= 1"
    else if from_us > until_us then clause_err ~clause str "from > until"
    else Ok (Straggler { device; factor; from_us; until_us })
  | (("failstop" | "transient" | "straggler") as kind), got ->
    clause_err ~clause str "wrong arity for %s: expected %s, got %d" kind
      (arity_of kind) (List.length got)
  | _ ->
    clause_err ~clause str "unknown kind %S (failstop | transient | straggler)" kind

let kind_key = function
  | Fail_stop _ -> "failstop"
  | Transient _ -> "transient"
  | Straggler _ -> "straggler"

let fault_device = function
  | Fail_stop { device; _ } | Transient { device; _ } | Straggler { device; _ } ->
    device

let parse s =
  let parts =
    List.filter
      (fun (_, p) -> String.trim p <> "")
      (List.mapi (fun i p -> (i + 1, p)) (String.split_on_char ';' s))
  in
  (* Duplicate targets are rejected: two clauses of the same kind
     naming the same device (or both the wildcard) would silently
     compose — a doubled transient draw, two fail times — which is
     never what a sweep means.  The error names both clauses. *)
  let seen = Hashtbl.create 8 in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (clause, p) :: rest ->
      let str = String.trim p in
      let* f = parse_one ~clause str in
      let key = (kind_key f, fault_device f) in
      (match Hashtbl.find_opt seen key with
       | Some first ->
         clause_err ~clause str "duplicate %s for device %s (first at clause %d)"
           (kind_key f)
           (device_to_string (fault_device f))
           first
       | None ->
         Hashtbl.add seen key clause;
         go (f :: acc) rest)
  in
  go [] parts

(* ---------- retry policy ---------- *)

type retry = {
  max_retries : int;
  backoff_base_us : float;
  backoff_cap_us : float;
}

let default_retry = { max_retries = 4; backoff_base_us = 50.0; backoff_cap_us = 800.0 }

(* ---------- the injector ---------- *)

type t = { spec : spec; inj_seed : int; streams : Rng.t array }

let create ~seed ~devices spec =
  List.iter
    (fun f ->
      let d = fault_device f in
      if d >= devices then
        invalid_arg
          (Printf.sprintf "Fault.create: fault %s names device %d of %d"
             (fault_to_string f) d devices))
    spec;
  let root = Rng.create seed in
  (* One independent stream per device, split in index order: the draws
     of device i never move device j's stream, so adding a fault on one
     device cannot perturb another's decisions. *)
  let streams = Array.make (max 1 devices) root in
  for i = 0 to devices - 1 do
    streams.(i) <- Rng.split root
  done;
  { spec; inj_seed = seed; streams }

let matches device fault_dev = fault_dev < 0 || fault_dev = device

let fail_at t device =
  List.fold_left
    (fun acc f ->
      match f with
      | Fail_stop { device = d; at_us } when matches device d -> Float.min acc at_us
      | _ -> acc)
    infinity t.spec

let latency_factor t ~device ~at_us =
  List.fold_left
    (fun acc f ->
      match f with
      | Straggler { device = d; factor; from_us; until_us }
        when matches device d && at_us >= from_us && at_us < until_us ->
        acc *. factor
      | _ -> acc)
    1.0 t.spec

let draw_transient t ~device ~at_us =
  List.fold_left
    (fun aborted f ->
      match f with
      | Transient { device = d; prob; from_us; until_us }
        when matches device d && at_us >= from_us && at_us < until_us ->
        (* Draw even when already aborted: the number of draws per
           dispatch depends only on the spec and the dispatch time, so
           the stream position stays aligned across runs. *)
        let u = Rng.uniform t.streams.(device) in
        aborted || u < prob
      | _ -> aborted)
    false t.spec

let backoff_us t ~device ~attempt =
  let retry = default_retry in
  let expo = retry.backoff_base_us *. (2.0 ** float_of_int attempt) in
  Float.min retry.backoff_cap_us expo
  +. Rng.float t.streams.(device) retry.backoff_base_us
