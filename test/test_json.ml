(* The JSON codec under adversarial input, and the committed BENCH
   files it writes.

   [Json.of_string] either returns a value or raises [Json.Parse_error],
   nothing else; the two public readers on top of it, [Chrome_trace.parse]
   and [Fmeca.load_ranking], never raise and answer [Error] for every
   document the codec rejects.  The inputs are random byte strings,
   every prefix and random single-byte changes of an exported trace and
   of the committed FMECA ranking. *)

open Cortex
module Json = Cortex_util.Json

let read path = In_channel.with_open_bin path In_channel.input_all

(* A short profiled chaos serve, exported the way [--profile] writes it. *)
let trace_text =
  let spec = Models.Tree_lstm.spec ~vocab:50 ~hidden:8 () in
  let obs = Obs.create ~clock:Obs.Logical () in
  let engine =
    Engine.of_spec
      ~config:
        (Engine.Config.make ~devices:[ Backend.gpu; Backend.gpu ]
           ~faults:
             [ Fault.Transient { device = -1; prob = 0.3; from_us = 0.0; until_us = infinity } ]
           ~seed:42
           ~params:(spec.Models.Common.init_params (Rng.create 7))
           ~obs ())
      spec ~backend:Backend.gpu
  in
  ignore
    (Engine.run_trace engine
       (Trace.poisson (Rng.create 3) ~rate_rps:20000.0 ~duration_ms:0.5
          ~gen:(fun rng -> Gen.sst_tree rng ~vocab:50 ())));
  Chrome_trace.to_json (Obs.events obs)

let fmeca_text = read "../BENCH_fmeca.json"

(* Feed [doc] to the codec and both readers: nothing but [Parse_error]
   may escape, and a rejected document is an [Error] for both.  Returns
   whether the codec accepted it. *)
let total doc =
  let accepted =
    match Json.of_string doc with
    | _ -> true
    | exception Json.Parse_error _ -> false
  in
  let reader name f =
    match f doc with
    | Ok _ when not accepted -> QCheck.Test.fail_reportf "%s accepted what the codec rejects" name
    | _ -> ()
    | exception e -> QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e)
  in
  reader "Chrome_trace.parse" Chrome_trace.parse;
  reader "Fmeca.load_ranking" Fmeca.load_ranking;
  accepted

(* Random bytes, half the time drawn from JSON's own punctuation so the
   parser gets past its first character. *)
let random_doc =
  let json_char =
    QCheck.Gen.oneofl
      [ '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; 'u'; '0'; '9'; 'e'; '-'; '.'; ' '; 't'; 'n' ]
  in
  QCheck.make ~print:String.escaped
    QCheck.Gen.(string_size ~gen:(oneof [ char; json_char ]) (int_range 0 64))

let test_random_bytes =
  QCheck.Test.make ~name:"random bytes" ~count:2000 random_doc (fun doc ->
      ignore (total doc);
      true)

(* Every strict prefix of a document that is an array or an object,
   trailing whitespace aside, is malformed. *)
let prefixes name text =
  QCheck.Test.make ~name:(name ^ " prefixes") ~count:300
    QCheck.(make ~print:string_of_int Gen.(int_range 0 (String.length (String.trim text) - 1)))
    (fun n -> not (total (String.sub text 0 n)))

let byte_changes name text =
  QCheck.Test.make ~name:(name ^ " single-byte changes") ~count:500
    QCheck.(make ~print:(fun (i, c) -> Printf.sprintf "byte %d := %C" i c)
              Gen.(pair (int_range 0 (String.length text - 1)) char))
    (fun (i, c) ->
      let b = Bytes.of_string text in
      Bytes.set b i c;
      ignore (total (Bytes.to_string b));
      true)

(* The pristine documents read back. *)
let test_pristine () =
  (match Chrome_trace.parse trace_text with
   | Ok events -> Alcotest.(check bool) "trace has events" true (events <> [])
   | Error e -> Alcotest.failf "exported trace rejected: %s" e);
  match Fmeca.load_ranking fmeca_text with
  | Ok rows -> Alcotest.(check bool) "ranking has rows" true (rows <> [])
  | Error e -> Alcotest.failf "BENCH_fmeca.json rejected: %s" e

(* Numbers are RFC 8259's and finite.  Each malformed number is a
   [Parse_error] at the byte offset named here, and a trace holding one
   is rejected by [Chrome_trace.parse]. *)
let span ~ph ~ts ~pid ~tid =
  Printf.sprintf {|{"name":"drain","cat":"sim","ph":"%s","ts":%s,"pid":%s,"tid":%s}|} ph ts
    pid tid

let test_strict_numbers () =
  List.iter
    (fun (doc, offset) ->
      match Json.of_string doc with
      | _ -> Alcotest.failf "accepted %s" doc
      | exception Json.Parse_error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s names offset %d" doc e offset)
          true
          (String.ends_with ~suffix:(Printf.sprintf " at offset %d" offset) e))
    [
      ("[1e400]", 1); ("[-1e400]", 1); ("[+1]", 1); ("[02]", 2); ("[1.]", 3);
      ("[-]", 2); ("[.5]", 1); ("[1e]", 3); ("[1e+]", 4); ("[-01]", 3);
    ];
  List.iter
    (fun (ts, pid, tid) ->
      let doc =
        Printf.sprintf "[%s,%s]" (span ~ph:"B" ~ts ~pid ~tid) (span ~ph:"E" ~ts ~pid ~tid)
      in
      match Chrome_trace.parse doc with
      | Ok _ -> Alcotest.failf "trace accepted: %s" doc
      | Error _ -> ())
    [ ("1e400", "2", "1"); ("-1e400", "2", "1"); ("+1", "02", "1.") ];
  match Json.of_string "[0, -0, 1.5, 2e3, 1E-2, -12.25e+1, 1e308]" with
  | Json.Arr vs ->
    Alcotest.(check (list (float 0.0))) "RFC numbers read back"
      [ 0.0; -0.0; 1.5; 2000.0; 0.01; -122.5; 1e308 ]
      (List.map (function Json.Num f -> f | _ -> nan) vs)
  | _ -> Alcotest.fail "not an array"

(* Every JSON file the bench writes is an array of objects.  Their
   records are hand-formatted, so only a parse shows they are JSON. *)
let test_bench_files () =
  List.iter
    (fun name ->
      match Json.of_string (read ("../BENCH_" ^ name ^ ".json")) with
      | Json.Arr (_ :: _ as rows) ->
        List.iteri
          (fun i row ->
            match row with
            | Json.Obj (_ :: _) -> ()
            | _ -> Alcotest.failf "BENCH_%s.json: row %d is not an object" name (i + 1))
          rows
      | _ -> Alcotest.failf "BENCH_%s.json is not a non-empty array" name
      | exception Json.Parse_error e -> Alcotest.failf "BENCH_%s.json: %s" name e)
    [
      "autotune"; "bundle"; "bundle_host"; "fmeca"; "incremental"; "incremental_host";
      "packing"; "sessions";
    ]

let () =
  Alcotest.run "json"
    [
      ( "codec",
        Alcotest.test_case "pristine" `Quick test_pristine
        :: Alcotest.test_case "strict-numbers" `Quick test_strict_numbers
        :: List.map QCheck_alcotest.to_alcotest
             [
               test_random_bytes;
               prefixes "trace" trace_text;
               byte_changes "trace" trace_text;
               prefixes "fmeca" fmeca_text;
               byte_changes "fmeca" fmeca_text;
             ] );
      ("bench-files", [ Alcotest.test_case "arrays-of-objects" `Quick test_bench_files ]);
    ]
