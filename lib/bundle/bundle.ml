open Cortex_ilir
module Lower = Cortex_lower.Lower
module Checkpoint = Cortex_runtime.Checkpoint

(* Ahead-of-time compiled artifacts: everything `cortex serve` needs to
   answer requests without invoking the compiler — the lowered program
   (canonical loop names included), tuned schedule plans, the backend
   the artifact was priced for, and optionally the parameter table.

   Wire format, all integers little-endian i64:

     magic "CORTEXB1" | version | digest (16 raw MD5 bytes)
     | nsections | { name_len | name | payload_len } * nsections
     | payloads, concatenated in table order

   The digest is MD5 over the concatenated payload bytes; it is
   verified BEFORE any payload is parsed, so a bit-flipped file dies
   with {!Digest_mismatch} rather than reaching [Marshal.from_string].
   Every length read from the header is bounded against the bytes
   actually remaining (the checkpoint reader's adversarial posture),
   so truncation dies with {!Truncated} before any allocation.

   Sections (current version 2; version 1 marshalled a [Lower.compiled]
   whose options carried the model's schedule facts, so it is refused):
     "manifest"  key=value lines, human-readable (model, backend,
                 options, planned/worst on-chip footprint, counts)
     "compiled"  [Lower.compiled], marshalled — pure data, no closures
     "plans"     one tuned plan per line:
                 backend,bucket,default_us,tuned_us,plan
     "weights"   a [Checkpoint] table (may be empty: zero tensors) *)

let magic = "CORTEXB1"
let version = 2

type plan_entry = {
  bp_backend : string;  (* Backend.short *)
  bp_bucket : int;  (* Dispatch.size_bucket of the tuned shape class *)
  bp_plan : Schedule.plan;
  bp_default_us : float;
  bp_tuned_us : float;
}

type t = {
  b_version : int;
  b_model : string;
  b_size : string;
  b_backend : string;
  b_options : Lower.options;
  b_config : string;  (* opaque Engine.Config text ("" when absent) *)
  b_compiled : Lower.compiled;
  b_plans : plan_entry list;
  b_weights : Checkpoint.t;
  b_planned_onchip_bytes : int;
  b_worst_onchip_bytes : int;
  b_digest : string;  (* MD5 over the section payloads, hex *)
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

let error_to_string = function
  | Bad_magic m -> Printf.sprintf "bad magic %S (not a cortex bundle)" m
  | Unsupported_version v -> Printf.sprintf "unsupported bundle version %d" v
  | Truncated { what; need; left } ->
    Printf.sprintf "truncated bundle: %s needs %d bytes, %d left" what need left
  | Digest_mismatch { expected; got } ->
    Printf.sprintf "digest mismatch: manifest says %s, payload hashes to %s" expected
      got
  | Missing_section s -> Printf.sprintf "missing section %S" s
  | Corrupt_section { section; reason } ->
    Printf.sprintf "corrupt section %S: %s" section reason
  | Backend_mismatch { bundle; requested } ->
    Printf.sprintf "bundle was built for backend %s, serving requested %s" bundle
      requested
  | Model_mismatch { bundle; requested } ->
    Printf.sprintf "bundle holds model %s, serving requested %s" bundle requested

let fail e = raise (Error e)

(* ---------- encoding ---------- *)

let plan_line e =
  (* The plan string goes last: directives contain commas, the first
     four fields never do. *)
  Printf.sprintf "%s,%d,%.3f,%.3f,%s" e.bp_backend e.bp_bucket e.bp_default_us
    e.bp_tuned_us
    (Schedule.plan_to_string e.bp_plan)

let plans_text plans = String.concat "\n" (List.map plan_line plans)

let manifest_text manifest =
  String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) manifest)

(* A section is its name, its payload length and a writer that fills
   the payload in place, so the weights are encoded straight into the
   file's buffer. *)
let sections_of_bundle b =
  let text name s =
    (name, String.length s, fun buf pos -> Bytes.blit_string s 0 buf pos (String.length s))
  in
  [
    text "manifest" (manifest_text b.b_manifest);
    text "compiled" (Marshal.to_string b.b_compiled []);
    text "plans" (plans_text b.b_plans);
    ("weights", Checkpoint.byte_size b.b_weights, Checkpoint.blit b.b_weights);
  ]

(* The whole file in one buffer sized up front: the payloads first,
   then the header with their digest.  Returns the buffer and the
   digest in hex. *)
let encode_bytes b =
  let sections = sections_of_bundle b in
  let header =
    List.fold_left
      (fun acc (name, _, _) -> acc + 16 + String.length name)
      (String.length magic + 32) sections
  in
  let size = List.fold_left (fun acc (_, len, _) -> acc + len) header sections in
  let buf = Bytes.create size in
  let pos = ref header in
  List.iter
    (fun (_, len, fill) ->
      fill buf !pos;
      pos := !pos + len)
    sections;
  let digest = Digest.subbytes buf header (size - header) in
  pos := 0;
  let i64 v =
    Bytes.set_int64_le buf !pos (Int64.of_int v);
    pos := !pos + 8
  in
  let str s =
    Bytes.blit_string s 0 buf !pos (String.length s);
    pos := !pos + String.length s
  in
  str magic;
  i64 version;
  str digest;
  i64 (List.length sections);
  List.iter
    (fun (name, len, _) ->
      i64 (String.length name);
      str name;
      i64 len)
    sections;
  (buf, Digest.to_hex digest)

let encode b = Bytes.unsafe_to_string (fst (encode_bytes b))

(* ---------- creation ---------- *)

let create ?(config = "") ?(plans = []) ?(weights = []) ?(extra_manifest = []) ~model
    ~size ~backend (compiled : Lower.compiled) =
  (* The concrete planned-vs-worst numbers want resolved UF extents,
     but a bundle is built before any input exists — record the
     static-extent plan here; `cortex build` passes the resolved
     numbers from its sample linearization as [extra_manifest]. *)
  let mp = Mem_plan.plan ~spaces:[ Ir.Shared; Ir.Register ] compiled.Lower.prog in
  let planned = mp.Mem_plan.arena_bytes in
  let worst = mp.Mem_plan.worst_bytes in
  let manifest =
    [
      ("format", magic);
      ("version", string_of_int version);
      ("model", model);
      ("size", size);
      ("backend", backend);
      ("options", Lower.options_to_string compiled.Lower.options);
      (* Tab-joined onto one manifest line; Engine.Config.of_string
         splits on tabs as well as newlines.  (';' and '|' both occur
         in legitimate values — fault specs and publication lists.) *)
      ("config", String.concat "\t" (String.split_on_char '\n' (String.trim config)));
      ("plans", string_of_int (List.length plans));
      ("weights", string_of_int (List.length weights));
      ("planned_onchip_bytes", string_of_int planned);
      ("worst_onchip_bytes", string_of_int worst);
    ]
    @ extra_manifest
  in
  let b =
    {
      b_version = version;
      b_model = model;
      b_size = size;
      b_backend = backend;
      b_options = compiled.Lower.options;
      b_config = config;
      b_compiled = compiled;
      b_plans = plans;
      b_weights = weights;
      b_planned_onchip_bytes = planned;
      b_worst_onchip_bytes = worst;
      b_digest = "";
      b_manifest = manifest;
    }
  in
  { b with b_digest = snd (encode_bytes b) }

(* ---------- decoding ---------- *)

type reader = { data : string; mutable pos : int }

let left r = String.length r.data - r.pos

(* Claim the next [n] bytes; returns where they start. *)
let take r ~what n =
  if n < 0 || n > left r then fail (Truncated { what; need = n; left = left r });
  let p = r.pos in
  r.pos <- p + n;
  p

let take_string r ~what n = String.sub r.data (take r ~what n) n
let take_i64 r ~what = Int64.to_int (String.get_int64_le r.data (take r ~what 8))

let read_header r =
  let m = take_string r ~what:"magic" (String.length magic) in
  if m <> magic then fail (Bad_magic m);
  let v = take_i64 r ~what:"version" in
  if v <> version then fail (Unsupported_version v);
  let digest = take_string r ~what:"digest" 16 in
  let nsections = take_i64 r ~what:"section count" in
  if nsections < 0 || nsections > 64 then
    fail (Corrupt_section { section = "(table)"; reason = "implausible section count" });
  let table =
    List.init nsections (fun _ ->
        let name_len = take_i64 r ~what:"section name length" in
        if name_len < 0 || name_len > 256 then
          fail
            (Corrupt_section { section = "(table)"; reason = "implausible name length" });
        let name = take_string r ~what:"section name" name_len in
        let payload_len = take_i64 r ~what:"payload length" in
        if payload_len < 0 then
          fail (Corrupt_section { section = name; reason = "negative payload length" });
        (name, payload_len))
  in
  (digest, table)

(* Sections stay ranges [(name, (pos, len))] into [data]; the digest is
   verified over the payload range in place, before any parse. *)
let decode_sections data =
  let r = { data; pos = 0 } in
  let digest, table = read_header r in
  let payload_start = r.pos in
  let sections =
    List.map (fun (name, len) -> (name, (take r ~what:("section " ^ name) len, len))) table
  in
  if left r <> 0 then
    fail
      (Corrupt_section
         { section = "(file)"; reason = Printf.sprintf "%d trailing bytes" (left r) });
  let got = Digest.substring data payload_start (String.length data - payload_start) in
  if got <> digest then
    fail
      (Digest_mismatch
         { expected = Digest.to_hex digest; got = Digest.to_hex got });
  (Digest.to_hex digest, sections)

let section sections name =
  match List.assoc_opt name sections with
  | Some range -> range
  | None -> fail (Missing_section name)

let section_string data sections name =
  let pos, len = section sections name in
  String.sub data pos len

(* The weights section's range goes to the checkpoint cursor as is. *)
let section_weights (parse : ?pos:int -> ?len:int -> string -> 'a) data sections =
  let pos, len = section sections "weights" in
  try parse ~pos ~len data
  with Checkpoint.Corrupt reason -> fail (Corrupt_section { section = "weights"; reason })

let parse_manifest text =
  List.filter_map
    (fun line ->
      match String.index_opt line '=' with
      | None -> None
      | Some i ->
        Some
          (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)))
    (String.split_on_char '\n' text)

let manifest_get manifest key =
  match List.assoc_opt key manifest with
  | Some v -> v
  | None ->
    fail (Corrupt_section { section = "manifest"; reason = "missing key " ^ key })

let parse_plan_line line =
  match String.split_on_char ',' line with
  | backend :: bucket :: default_us :: tuned_us :: rest when rest <> [] -> (
    let plan_str = String.concat "," rest in
    try
      {
        bp_backend = backend;
        bp_bucket = int_of_string bucket;
        bp_plan = Schedule.plan_of_string plan_str;
        bp_default_us = float_of_string default_us;
        bp_tuned_us = float_of_string tuned_us;
      }
    with _ ->
      fail (Corrupt_section { section = "plans"; reason = "malformed entry: " ^ line }))
  | _ -> fail (Corrupt_section { section = "plans"; reason = "malformed entry: " ^ line })

let parse_plans text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse_plan_line

let decode data =
  let digest, sections = decode_sections data in
  let manifest = parse_manifest (section_string data sections "manifest") in
  let compiled_bytes = section_string data sections "compiled" in
  let compiled : Lower.compiled =
    try Marshal.from_string compiled_bytes 0
    with Failure reason | Invalid_argument reason ->
      fail (Corrupt_section { section = "compiled"; reason })
  in
  let plans = parse_plans (section_string data sections "plans") in
  let weights = section_weights Checkpoint.of_string data sections in
  let int_key key =
    try int_of_string (manifest_get manifest key)
    with Failure _ ->
      fail (Corrupt_section { section = "manifest"; reason = "bad integer for " ^ key })
  in
  {
    b_version = version;
    b_model = manifest_get manifest "model";
    b_size = manifest_get manifest "size";
    b_backend = manifest_get manifest "backend";
    b_options = compiled.Lower.options;
    b_config = manifest_get manifest "config";
    b_compiled = compiled;
    b_plans = plans;
    b_weights = weights;
    b_planned_onchip_bytes = int_key "planned_onchip_bytes";
    b_worst_onchip_bytes = int_key "worst_onchip_bytes";
    b_digest = digest;
    b_manifest = manifest;
  }

(* ---------- files ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let save path b =
  let buf, _ = encode_bytes b in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc buf)

let load path = decode (read_file path)

(* ---------- inspection ---------- *)

type info = {
  i_digest : string;
  i_manifest : (string * string) list;
  i_sections : (string * int) list;
  i_weights : Checkpoint.manifest;
  i_plans : (string * int * string) list;
}

(* Verifies header bounds and the digest, parses the manifest, plan
   strings and the weights *shapes* — never materializes a tensor or
   unmarshals the compiled program, so inspection is cheap and safe on
   files that would fail to load. *)
let inspect path =
  let data = read_file path in
  let digest, sections = decode_sections data in
  let manifest = parse_manifest (section_string data sections "manifest") in
  let plans = parse_plans (section_string data sections "plans") in
  let weights = section_weights Checkpoint.manifest_of_string data sections in
  {
    i_digest = digest;
    i_manifest = manifest;
    i_sections = List.map (fun (name, (_, len)) -> (name, len)) sections;
    i_weights = weights;
    i_plans =
      List.map
        (fun e -> (e.bp_backend, e.bp_bucket, Schedule.plan_to_string e.bp_plan))
        plans;
  }

let resolver b = Checkpoint.resolver b.b_weights

let info_to_string i =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digest  %s\n" i.i_digest);
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%-22s %s\n" k v))
    i.i_manifest;
  Buffer.add_string buf "sections:\n";
  List.iter
    (fun (name, bytes) ->
      Buffer.add_string buf (Printf.sprintf "  %-10s %d bytes\n" name bytes))
    i.i_sections;
  if i.i_plans <> [] then begin
    Buffer.add_string buf "plans:\n";
    List.iter
      (fun (backend, bucket, plan) ->
        Buffer.add_string buf (Printf.sprintf "  %-6s bucket %-4d %s\n" backend bucket plan))
      i.i_plans
  end;
  if i.i_weights <> [] then begin
    Buffer.add_string buf "weights:\n";
    List.iter
      (fun (name, shape) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-22s [%s]\n" name
             (String.concat ", " (Array.to_list (Array.map string_of_int shape)))))
      i.i_weights
  end;
  Buffer.contents buf
