(* The FMECA campaign: grid coverage, same-seed determinism, score
   structure, trace validity of ranked modes and the JSON artifact
   round-trip the CI baseline diff depends on. *)

open Cortex

(* A two-family slice keeps each test to a handful of engine drains;
   the full 22-mode grid is exercised by the bench harness and CI. *)
let slice = [ "queue"; "transient" ]

let run_slice = lazy (Fmeca.run ~families:slice ~seed:11 ())

(* ---------- the grid ---------- *)

let test_grid_coverage () =
  let ms = Fmeca.modes () in
  Alcotest.(check bool) "at least 20 failure modes" true (List.length ms >= 20);
  let fams = Fmeca.families () in
  Alcotest.(check bool) "at least 5 component families" true (List.length fams >= 5);
  (* every family the modes claim is in the published list, and
     every published family has at least one mode *)
  List.iter
    (fun (m : Fmeca.mode) ->
      Alcotest.(check bool)
        (Printf.sprintf "family %s of %s is published" m.Fmeca.fm_family m.Fmeca.fm_id)
        true
        (List.mem m.Fmeca.fm_family fams))
    ms;
  List.iter
    (fun fam ->
      Alcotest.(check bool)
        (Printf.sprintf "family %s has a mode" fam)
        true
        (List.exists (fun (m : Fmeca.mode) -> m.Fmeca.fm_family = fam) ms))
    fams;
  (* mode ids are unique: they key the ranking diff *)
  let ids = List.map (fun (m : Fmeca.mode) -> m.Fmeca.fm_id) ms in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* every non-empty grammar on the grid is valid *)
  List.iter
    (fun (m : Fmeca.mode) ->
      if m.Fmeca.fm_grammar <> "" then
        match Fault.parse m.Fmeca.fm_grammar with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s grammar invalid: %s" m.Fmeca.fm_id e)
    ms;
  (* declared rates are probabilities *)
  List.iter
    (fun (m : Fmeca.mode) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s rate in (0,1]" m.Fmeca.fm_id)
        true
        (m.Fmeca.fm_rate > 0.0 && m.Fmeca.fm_rate <= 1.0))
    ms

let test_family_filter () =
  let ms = Fmeca.modes ~families:slice () in
  Alcotest.(check bool) "filter keeps something" true (List.length ms > 0);
  List.iter
    (fun (m : Fmeca.mode) ->
      Alcotest.(check bool) "only sliced families" true
        (List.mem m.Fmeca.fm_family slice))
    ms;
  Alcotest.(check int) "unknown family matches nothing" 0
    (List.length (Fmeca.modes ~families:[ "meteor" ] ()))

(* ---------- determinism: the property CI diffs ---------- *)

let test_same_seed_same_table () =
  let a = Fmeca.run ~families:slice ~seed:11 () in
  let b = Fmeca.run ~families:slice ~seed:11 () in
  Alcotest.(check string) "byte-identical tables" (Fmeca.table a) (Fmeca.table b);
  Alcotest.(check string) "byte-identical json" (Fmeca.json_lines a)
    (Fmeca.json_lines b)

(* ---------- score structure ---------- *)

let test_score_structure () =
  let res = Lazy.force run_slice in
  let rows = res.Fmeca.res_rows in
  Alcotest.(check int) "one score per sliced mode"
    (List.length (Fmeca.modes ~families:slice ()))
    (List.length rows);
  List.iter
    (fun (sc : Fmeca.score) ->
      let id = sc.Fmeca.sc_mode.Fmeca.fm_id in
      let in_scale what v =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s in 1..10 (got %d)" id what v)
          true (v >= 1 && v <= 10)
      in
      in_scale "severity" sc.Fmeca.sc_severity;
      in_scale "occurrence" sc.Fmeca.sc_occurrence;
      in_scale "detectability" sc.Fmeca.sc_detectability;
      Alcotest.(check int)
        (Printf.sprintf "%s rpn = s*o*d" id)
        (sc.Fmeca.sc_severity * sc.Fmeca.sc_occurrence * sc.Fmeca.sc_detectability)
        sc.Fmeca.sc_rpn;
      (* damage time and detection must agree: a mode that damaged
         nothing is No_damage, and vice versa *)
      match (sc.Fmeca.sc_damage_us, sc.Fmeca.sc_detection) with
      | None, Scan.No_damage | Some _, (Scan.Undetected | Scan.Lead _ | Scan.Lagged _)
        -> ()
      | None, d ->
        Alcotest.failf "%s: no damage but detection %s" id (Scan.detection_to_string d)
      | Some t, Scan.No_damage ->
        Alcotest.failf "%s: damage at %.1fus but detection none" id t)
    rows;
  (* ranked: RPN non-increasing *)
  let rec check_sorted = function
    | (a : Fmeca.score) :: (b : Fmeca.score) :: rest ->
      Alcotest.(check bool)
        (Printf.sprintf "rpn %d >= %d" a.Fmeca.sc_rpn b.Fmeca.sc_rpn)
        true
        (a.Fmeca.sc_rpn >= b.Fmeca.sc_rpn);
      check_sorted (b :: rest)
    | _ -> ()
  in
  check_sorted rows;
  (* the slice must separate: a hard queue cap under overload outranks
     a 2% transient rate that retries absorb *)
  let rank id =
    let rec go i = function
      | [] -> Alcotest.failf "mode %s missing from ranking" id
      | (sc : Fmeca.score) :: rest ->
        if sc.Fmeca.sc_mode.Fmeca.fm_id = id then i else go (i + 1) rest
    in
    go 1 rows
  in
  Alcotest.(check bool) "queue-cap-4 outranks transient-0.02" true
    (rank "queue-cap-4" < rank "transient-0.02")

(* ---------- ranked-mode traces validate ---------- *)

let test_top_mode_trace_valid () =
  let res = Lazy.force run_slice in
  let top = List.hd res.Fmeca.res_rows in
  let summary, events = Fmeca.run_mode ~seed:11 top.Fmeca.sc_mode in
  Alcotest.(check bool) "trace non-empty" true (List.length events > 0);
  (match Obs_validate.check events with
   | Ok () -> ()
   | Error e ->
     Alcotest.failf "top mode %s trace invalid: %s" top.Fmeca.sc_mode.Fmeca.fm_id
       (Obs_validate.error_to_string e));
  (* the re-run reproduces the campaign's damage time *)
  Alcotest.(check bool) "same damage as the campaign run" true
    (summary.Engine.slo.Engine.slo_first_damage_us = top.Fmeca.sc_damage_us);
  match Fmeca.run_mode ~seed:11 { top.Fmeca.sc_mode with Fmeca.fm_id = "meteor" } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "off-grid mode accepted"

(* ---------- the JSON artifact round-trip ---------- *)

let test_json_roundtrip () =
  let res = Lazy.force run_slice in
  let doc = Fmeca.json_lines res in
  match Fmeca.load_ranking doc with
  | Error e -> Alcotest.failf "load_ranking failed: %s" e
  | Ok ranking ->
    Alcotest.(check int) "every row loads" (List.length res.Fmeca.res_rows)
      (List.length ranking);
    List.iteri
      (fun i (sc : Fmeca.score) ->
        let id = sc.Fmeca.sc_mode.Fmeca.fm_id in
        match List.assoc_opt id ranking with
        | Some r -> Alcotest.(check int) (id ^ " rank") (i + 1) r
        | None -> Alcotest.failf "mode %s missing after round-trip" id)
      res.Fmeca.res_rows;
    Alcotest.(check (list string)) "self-diff is empty" []
      (Fmeca.diff_ranking ~baseline:ranking res);
    (* perturb the baseline: the diff must call out every move *)
    let perturbed =
      match ranking with
      | (a, ra) :: (b, rb) :: rest -> (a, rb) :: (b, ra) :: rest
      | _ -> Alcotest.fail "ranking too small to perturb"
    in
    Alcotest.(check bool) "a rank swap is detected" true
      (List.length (Fmeca.diff_ranking ~baseline:perturbed res) >= 2);
    Alcotest.(check bool) "a dropped mode is detected" true
      (List.exists
         (fun line ->
           let has needle s =
             let nl = String.length needle and sl = String.length s in
             let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
             scan 0
           in
           has "new at rank" line)
         (Fmeca.diff_ranking ~baseline:(List.tl ranking) res))

let test_load_ranking_rejects_garbage () =
  let row = {|{"rank": 1, "mode": "queue-cap-4", "family": "queue"}|} in
  List.iter
    (fun (label, doc) ->
      match Fmeca.load_ranking doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" label
      | exception e -> Alcotest.failf "%s raised %s" label (Printexc.to_string e))
    [
      ("empty document", "");
      ("empty array", "[\n]\n");
      ("illegal escape", "[\n  {\"rank\": 1, \"mode\": \"a\\q\"}\n]\n");
      ("non-JSON line", {|garbage "rank": 3 "mode": "queue-cap-4"|});
      ("truncated document", "[\n  " ^ row ^ ",\n  {\"rank\": 2, \"mo");
      ("zero rank", {|[{"rank": 0, "mode": "queue-cap-4"}]|});
      ("negative rank", {|[{"rank": -3, "mode": "queue-cap-4"}]|});
      ("fractional rank", {|[{"rank": 1.5, "mode": "queue-cap-4"}]|});
      ("string rank", {|[{"rank": "1", "mode": "queue-cap-4"}]|});
      ("row with no mode", "[\n  " ^ row ^ ",\n  {\"rank\": 2, \"family\": \"queue\"}\n]\n");
      ("row that is not an object", "[\n  " ^ row ^ ",\n  [2, \"queue-cap-4\"]\n]\n");
    ]

let () =
  Alcotest.run "fmeca"
    [
      ( "grid",
        [
          Alcotest.test_case "coverage" `Quick test_grid_coverage;
          Alcotest.test_case "family-filter" `Quick test_family_filter;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same-seed-same-table" `Quick test_same_seed_same_table ]
      );
      ( "scores",
        [ Alcotest.test_case "structure" `Quick test_score_structure ] );
      ( "traces",
        [ Alcotest.test_case "top-mode-validates" `Quick test_top_mode_trace_valid ] );
      ( "artifact",
        [
          Alcotest.test_case "json-roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects-garbage" `Quick test_load_ranking_rejects_garbage;
        ] );
    ]
