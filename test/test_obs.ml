(* The observability layer: Chrome-trace serialization, span recording
   over both clocks, the trace validator's typed invariants, and the two
   load-bearing properties — recording interferes with nothing, and
   profiled runs are byte-identical under the logical clock. *)

open Cortex
module M = Models.Common
module CT = Chrome_trace

let gpu = Backend.gpu
let small_spec = Models.Tree_lstm.spec ~vocab:50 ~hidden:8 ()

(* ---------- chrome trace serialization ---------- *)

let test_json_roundtrip () =
  let events =
    [
      CT.process_name ~pid:1 "proc";
      CT.thread_name ~pid:1 ~tid:1 "track";
      CT.event ~cat:"wall"
        ~args:[ ("k", CT.Int 3); ("f", CT.Float 1.5); ("s", CT.Str "x\"y"); ("b", CT.Bool true) ]
        ~name:"span" ~ph:CT.Begin ~ts_us:10.0 ~pid:1 ~tid:1 ();
      CT.event ~cat:"wall" ~name:"span" ~ph:CT.End ~ts_us:20.5 ~pid:1 ~tid:1 ();
      CT.event ~cat:"sim" ~name:"tick" ~ph:CT.Instant ~ts_us:15.25 ~pid:2 ~tid:1 ();
    ]
  in
  let json = CT.to_json events in
  match CT.parse json with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok back ->
    Alcotest.(check int) "same count" (List.length events) (List.length back);
    Alcotest.(check bool) "round-trips structurally" true (events = back);
    Alcotest.(check string) "canonical re-serialization" json (CT.to_json back)

let test_parse_bare_array () =
  match CT.parse {|[{"name":"a","cat":"","ph":"B","ts":1,"pid":1,"tid":1},
                    {"name":"a","cat":"","ph":"E","ts":2,"pid":1,"tid":1},
                    {"name":"flow","ph":"s","ts":1,"pid":1,"tid":1}]|} with
  | Error e -> Alcotest.failf "bare array rejected: %s" e
  | Ok events ->
    (* The unmodeled "s" (flow) phase is skipped, not an error. *)
    Alcotest.(check int) "two modeled events" 2 (List.length events);
    Alcotest.(check bool) "phases" true
      (List.map (fun e -> e.CT.ev_ph) events = [ CT.Begin; CT.End ])

let test_parse_rejects () =
  List.iter
    (fun (label, doc) ->
      match CT.parse doc with
      | Ok _ -> Alcotest.failf "%s accepted" label
      | Error _ -> ())
    [
      ("trailing garbage", "[] x");
      ("unterminated string", {|[{"name":"a|});
      ("missing name", {|[{"cat":"","ph":"B","ts":1,"pid":1,"tid":1}]|});
      ("missing ts", {|[{"name":"a","ph":"B","pid":1,"tid":1}]|});
      ("no traceEvents", {|{"other":[]}|});
      ("scalar document", "42");
    ]

(* ---------- span recording ---------- *)

let test_logical_clock_nesting () =
  let obs = Obs.create ~clock:Obs.Logical () in
  let o = Some obs in
  let v =
    Obs.wall_span o ~track:"compile" "outer" (fun () ->
        Obs.wall_span o ~track:"compile" "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "wall_span returns f's value" 42 v;
  let shape =
    List.filter_map
      (fun e ->
        match e.CT.ev_ph with
        | CT.Begin -> Some ("B " ^ e.CT.ev_name)
        | CT.End -> Some ("E " ^ e.CT.ev_name)
        | _ -> None)
      (Obs.events obs)
  in
  Alcotest.(check (list string)) "balanced, outer encloses inner"
    [ "B outer"; "B inner"; "E inner"; "E outer" ] shape;
  (* Logical ticks are strictly monotone begin-to-end. *)
  let ts =
    List.filter_map
      (fun e -> if e.CT.ev_ph = CT.Metadata then None else Some e.CT.ev_ts_us)
      (Obs.events obs)
  in
  Alcotest.(check (list (float 0.0))) "tick order" [ 1.0; 2.0; 3.0; 4.0 ] ts

let test_none_handle_is_passthrough () =
  Alcotest.(check int) "wall_span on None just runs f" 7
    (Obs.wall_span None ~track:"t" "s" (fun () -> 7));
  (* The metric shorthands must be callable on None. *)
  Obs.incr None "c";
  Obs.set_gauge None "g" 1.0;
  Obs.observe None "h" 1.0;
  Obs.sim_span None ~track:"t" ~name:"s" ~start_us:0.0 ~end_us:1.0 ();
  Alcotest.(check bool) "no snapshot on None" true (Obs.snapshot None = None)

let test_sim_span_rejects_backwards () =
  let obs = Some (Obs.create ()) in
  try
    Obs.sim_span obs ~track:"d" ~name:"w" ~start_us:10.0 ~end_us:5.0 ();
    Alcotest.fail "backwards sim span accepted"
  with Invalid_argument _ -> ()

let test_overlapping_spans_rejected_at_export () =
  let obs = Obs.create () in
  let o = Some obs in
  Obs.sim_span o ~track:"d" ~name:"a" ~start_us:0.0 ~end_us:10.0 ();
  Obs.sim_span o ~track:"d" ~name:"b" ~start_us:5.0 ~end_us:15.0 ();
  try
    ignore (Obs.events obs);
    Alcotest.fail "improper overlap exported"
  with Invalid_argument _ -> ()

let test_reset () =
  let obs = Obs.create ~clock:Obs.Logical () in
  let o = Some obs in
  Obs.wall_span o ~track:"compile" "s" (fun () -> ());
  Obs.incr o "c";
  Obs.reset obs;
  Alcotest.(check int) "no events after reset" 0 (List.length (Obs.events obs));
  (match Obs.snapshot o with
   | Some snap -> Alcotest.(check bool) "metrics dropped" true (snap = Metrics.empty_snapshot)
   | None -> Alcotest.fail "snapshot disappeared");
  (* The logical clock restarts: a fresh span gets ticks 1 and 2 again. *)
  Obs.wall_span o ~track:"compile" "s" (fun () -> ());
  let ts =
    List.filter_map
      (fun e -> if e.CT.ev_ph = CT.Metadata then None else Some e.CT.ev_ts_us)
      (Obs.events obs)
  in
  Alcotest.(check (list (float 0.0))) "clock restarted" [ 1.0; 2.0 ] ts

(* ---------- metrics ---------- *)

let test_metrics_snapshot () =
  let m = Metrics.create () in
  Metrics.incr m "b";
  Metrics.incr m ~by:4 "a";
  Metrics.set m "g" 0.5;
  List.iter (Metrics.observe m "lat") [ 4.0; 1.0; 2.0; 3.0 ];
  let snap = Metrics.snapshot m in
  Alcotest.(check bool) "counters name-sorted" true
    (List.map fst snap.Metrics.counters = [ "a"; "b" ]);
  Alcotest.(check int) "counter accumulates" 4 (List.assoc "a" snap.Metrics.counters);
  Alcotest.(check (float 1e-9)) "gauge last write" 0.5 (List.assoc "g" snap.Metrics.gauges);
  let h = List.assoc "lat" snap.Metrics.histograms in
  Alcotest.(check int) "hist count" 4 h.Metrics.hs_count;
  Alcotest.(check (float 1e-9)) "hist mean" 2.5 h.Metrics.hs_mean;
  Alcotest.(check (float 1e-9)) "hist p50 matches Stats" (Stats.p50 [ 1.0; 2.0; 3.0; 4.0 ]) h.Metrics.hs_p50;
  Alcotest.(check (float 1e-9)) "hist max" 4.0 h.Metrics.hs_max;
  Alcotest.(check int) "hist buckets count everything" 4
    (Array.fold_left ( + ) 0 h.Metrics.hs_hist.Stats.h_counts);
  (* Two structurally equal registries render identically. *)
  let m' = Metrics.create () in
  Metrics.set m' "g" 0.5;
  Metrics.incr m' ~by:4 "a";
  Metrics.incr m' "b";
  List.iter (Metrics.observe m' "lat") [ 4.0; 1.0; 2.0; 3.0 ];
  Alcotest.(check string) "render is insertion-order independent"
    (Metrics.render snap) (Metrics.render (Metrics.snapshot m'))

(* ---------- the validator's typed invariants ---------- *)

let ev ?(cat = "") ?(ph = CT.Begin) ?(tid = 1) name ts =
  CT.event ~cat ~name ~ph ~ts_us:ts ~pid:1 ~tid ()

let check_error label expected events =
  match Obs_validate.check events with
  | Ok () -> Alcotest.failf "%s: accepted" label
  | Error e ->
    let tag = function
      | Obs_validate.Non_monotone _ -> "non-monotone"
      | Obs_validate.End_without_begin _ -> "end-without-begin"
      | Obs_validate.Mismatched_end _ -> "mismatched-end"
      | Obs_validate.Unclosed_begin _ -> "unclosed-begin"
      | Obs_validate.Outside_drain _ -> "outside-drain"
    in
    Alcotest.(check string) label expected (tag e);
    (* Every error renders to something human-readable. *)
    Alcotest.(check bool) "message non-empty" true
      (String.length (Obs_validate.error_to_string e) > 0)

let test_validate_minimal_cases () =
  Alcotest.(check bool) "empty trace valid" true (Obs_validate.check [] = Ok ());
  Alcotest.(check bool) "balanced pair valid" true
    (Obs_validate.check [ ev "a" 1.0; ev ~ph:CT.End "a" 2.0 ] = Ok ());
  check_error "backwards timestamps" "non-monotone"
    [ ev "a" 5.0; ev ~ph:CT.End "a" 1.0 ];
  check_error "stray end" "end-without-begin" [ ev ~ph:CT.End "a" 1.0 ];
  check_error "wrong name" "mismatched-end" [ ev "a" 1.0; ev ~ph:CT.End "b" 2.0 ];
  check_error "open at track end" "unclosed-begin" [ ev "a" 1.0 ];
  (* A drain span on one sim track; a sim event beyond it on another. *)
  check_error "event past the drain" "outside-drain"
    [
      ev ~cat:"sim" "drain" 0.0;
      ev ~cat:"sim" ~ph:CT.End "drain" 10.0;
      ev ~cat:"sim" ~ph:CT.Instant ~tid:2 "late" 20.0;
    ];
  (* Metadata is exempt from every timestamp rule. *)
  Alcotest.(check bool) "metadata out of order tolerated" true
    (Obs_validate.check [ ev "a" 1.0; CT.thread_name ~pid:1 ~tid:1 "t"; ev ~ph:CT.End "a" 2.0 ]
     = Ok ())

(* ---------- profiled chaos runs ---------- *)

let chaos_trace =
  Trace.poisson ~deadline_us:4000.0 (Rng.create 17) ~rate_rps:20000.0
    ~duration_ms:5.0
    ~gen:(fun rng -> Gen.sst_tree rng ~vocab:50 ())

let chaos_faults =
  [
    Fault.Transient { device = -1; prob = 0.2; from_us = 0.0; until_us = infinity };
    Fault.Fail_stop { device = 0; at_us = 2500.0 };
  ]

let profiled_run ?obs () =
  let policy = { Engine.max_batch = 8; max_wait_us = 300.0; bucketing = Engine.Fifo } in
  let engine =
    Engine.of_spec
      ~config:
        (Engine.Config.make ~policy ~dispatch:Dispatch.Least_loaded
           ~devices:[ gpu; gpu ] ~faults:chaos_faults ~seed:42
           ~params:(small_spec.M.init_params (Rng.create 7))
           ?obs ())
      small_spec ~backend:gpu
  in
  Engine.run_trace engine chaos_trace

let profiled_events () =
  let obs = Obs.create ~clock:Obs.Logical () in
  ignore (profiled_run ~obs ());
  Obs.events obs

let test_chaos_profile_validates () =
  let events = profiled_events () in
  Alcotest.(check bool) "has a drain span" true
    (List.exists (fun e -> e.CT.ev_name = "drain" && e.CT.ev_ph = CT.Begin) events);
  Alcotest.(check bool) "has device spans" true
    (List.exists (fun e -> e.CT.ev_name = "window") events);
  Alcotest.(check bool) "has arrivals" true
    (List.exists (fun e -> e.CT.ev_name = "arrival" && e.CT.ev_ph = CT.Instant) events);
  Alcotest.(check bool) "has compile spans" true
    (List.exists (fun e -> e.CT.ev_name = "lower") events);
  (* The fail-stop at 2.5 ms actually aborted something in flight. *)
  Alcotest.(check bool) "has an abort span" true
    (List.exists (fun e -> e.CT.ev_name = "abort") events);
  match Obs_validate.check events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "profile invalid: %s" (Obs_validate.error_to_string e)

let test_compile_only_profile_validates () =
  (* No drain recorded: the containment invariant is vacuous and the
     wall-clock spans must stand on their own. *)
  let obs = Obs.create ~clock:Obs.Logical () in
  ignore (Runtime.compile ~obs small_spec.M.program);
  match Obs_validate.check (Obs.events obs) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "compile profile invalid: %s" (Obs_validate.error_to_string e)

(* Corrupt real exported profiles, one per invariant, and demand the
   matching typed rejection. *)

let test_corrupted_profiles_rejected () =
  let events = profiled_events () in
  let key e = (e.CT.ev_pid, e.CT.ev_tid) in
  (* Non-monotone: push the first event of some track past its successor. *)
  let first = List.find (fun e -> e.CT.ev_ph <> CT.Metadata) events in
  let second =
    List.find (fun e -> e != first && e.CT.ev_ph <> CT.Metadata && key e = key first) events
  in
  check_error "timestamps reordered" "non-monotone"
    (List.map
       (fun e -> if e == first then { e with CT.ev_ts_us = second.CT.ev_ts_us +. 1.0 } else e)
       events);
  (* End-without-begin: drop the outermost begin of the compile track. *)
  let rec drop_first_begin = function
    | [] -> []
    | e :: rest when e.CT.ev_ph = CT.Begin -> rest
    | e :: rest -> e :: drop_first_begin rest
  in
  check_error "a begin removed" "end-without-begin" (drop_first_begin events);
  (* Mismatched end: rename the first end. *)
  let renamed =
    let done_ = ref false in
    List.map
      (fun e ->
        if (not !done_) && e.CT.ev_ph = CT.End then begin
          done_ := true;
          { e with CT.ev_name = "corrupted" }
        end
        else e)
      events
  in
  check_error "an end renamed" "mismatched-end" renamed;
  (* Unclosed begin: drop the final end (the drain span's close). *)
  let last = List.nth events (List.length events - 1) in
  Alcotest.(check bool) "trace ends on an end event" true (last.CT.ev_ph = CT.End);
  check_error "an end removed" "unclosed-begin"
    (List.filter (fun e -> e != last) events);
  (* Outside drain: append a sim instant past the drain's extent. *)
  let requests_track =
    List.find
      (fun e ->
        e.CT.ev_ph = CT.Metadata && e.CT.ev_name = "thread_name"
        && List.assoc_opt "name" e.CT.ev_args = Some (CT.Str "requests"))
      events
  in
  let horizon =
    List.fold_left (fun m e -> Float.max m e.CT.ev_ts_us) 0.0 events
  in
  check_error "sim event past the drain" "outside-drain"
    (events
     @ [
         CT.event ~cat:"sim" ~name:"late" ~ph:CT.Instant ~ts_us:(horizon +. 1e6)
           ~pid:requests_track.CT.ev_pid ~tid:requests_track.CT.ev_tid ();
       ])

(* ---------- zero interference (property) ---------- *)

(* Over random (model, trace, fault spec): a chaos drain with the
   handle installed must produce the very same summary — per-request
   reports, SLO block, windows, device accounting and numeric results,
   bitwise — as the same drain without it.

   One normalization is required and it is not about observability:
   each [Engine.of_spec] compiles afresh, and IR tensor ids come from a
   process-global counter, so the raw [Cost.t] inside each window report
   (its [param_sizes] are keyed by tensor id) differs between ANY two
   engines in one process, observed or not.  We therefore compare the
   cost through its id-independent derived quantities and everything
   else bitwise.  The metrics snapshot exists only on the observed
   side; [canon_summary] clears it. *)
let canon_summary (s : Engine.summary) =
  let canon_cost (c : Cost.t) =
    ( Cost.total_flops c,
      Cost.global_traffic c,
      Cost.onchip_traffic c,
      Cost.total_launches c,
      c.Cost.barrier_count,
      c.Cost.param_total_bytes,
      List.length c.Cost.param_sizes )
  in
  let canon_report (r : Runtime.report) =
    ( r.Runtime.latency,
      canon_cost r.Runtime.cost,
      r.Runtime.linearize_us,
      r.Runtime.device_memory_bytes,
      r.Runtime.num_nodes,
      r.Runtime.occupancy )
  in
  let windows =
    List.map
      (fun (w : Engine.window_report) ->
        ( w.Engine.wr_index,
          w.Engine.wr_size,
          w.Engine.wr_nodes,
          w.Engine.wr_device,
          w.Engine.wr_cache_hit,
          w.Engine.wr_attempts,
          w.Engine.wr_dispatch_us,
          canon_report w.Engine.wr_report ))
      s.Engine.windows
  in
  ({ s with Engine.windows = []; metrics = None }, windows)

let test_zero_interference =
  QCheck.Test.make ~name:"obs-on equals obs-off bitwise" ~count:10
    QCheck.(triple (int_range 0 2) (int_range 0 999) (int_range 0 3))
    (fun (mi, seed, fi) ->
      let spec =
        match mi with
        | 0 -> Models.Tree_lstm.spec ~vocab:50 ~hidden:8 ()
        | 1 -> Models.Tree_rnn.spec ~vocab:50 ~hidden:8 ()
        | _ -> Models.Tree_gru.spec ~vocab:50 ~hidden:8 ()
      in
      let faults =
        match fi with
        | 0 -> []
        | 1 -> [ Fault.Transient { device = -1; prob = 0.3; from_us = 0.0; until_us = infinity } ]
        | 2 -> [ Fault.Fail_stop { device = 0; at_us = 1000.0 } ]
        | _ ->
          [
            Fault.Straggler { device = 0; factor = 2.0; from_us = 0.0; until_us = 3000.0 };
            Fault.Transient { device = -1; prob = 0.1; from_us = 0.0; until_us = infinity };
          ]
      in
      let trace =
        Trace.poisson ~deadline_us:4000.0 (Rng.create seed) ~rate_rps:10000.0
          ~duration_ms:3.0
          ~gen:(fun rng -> Gen.sst_tree rng ~vocab:50 ())
      in
      let run ?obs () =
        let policy = { Engine.max_batch = 8; max_wait_us = 300.0; bucketing = Engine.Fifo } in
        let engine =
          Engine.of_spec
            ~config:
              (Engine.Config.make ~policy ~dispatch:Dispatch.Least_loaded
                 ~devices:[ gpu; gpu ] ~faults ~seed
                 ~params:(spec.M.init_params (Rng.create 7))
                 ?obs ())
            spec ~backend:gpu
        in
        Engine.run_trace engine trace
      in
      let observed = run ~obs:(Obs.create ~clock:Obs.Logical ()) () in
      let bare = run () in
      observed.Engine.metrics <> None && canon_summary observed = canon_summary bare)

(* ---------- determinism of profiled runs ---------- *)

let test_profiled_run_byte_identical () =
  let profile () =
    let obs = Obs.create ~clock:Obs.Logical () in
    let s = profiled_run ~obs () in
    let metrics =
      match s.Engine.metrics with
      | Some snap -> Metrics.render snap
      | None -> Alcotest.fail "no metrics snapshot"
    in
    (Obs.to_json obs, metrics)
  in
  let j1, m1 = profile () in
  let j2, m2 = profile () in
  Alcotest.(check string) "trace JSON byte-identical" j1 j2;
  Alcotest.(check string) "metric snapshot byte-identical" m1 m2;
  (* And the canonical JSON survives its own parser: what CI diffs is
     also what validate-trace re-checks. *)
  match CT.parse j1 with
  | Error e -> Alcotest.failf "exported trace does not re-parse: %s" e
  | Ok events -> (
    match Obs_validate.check events with
    | Ok () -> ()
    | Error e -> Alcotest.failf "re-parsed trace invalid: %s" (Obs_validate.error_to_string e))

let () =
  Alcotest.run "obs"
    [
      ( "chrome-trace",
        [
          Alcotest.test_case "json-roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "bare-array" `Quick test_parse_bare_array;
          Alcotest.test_case "parse-rejects" `Quick test_parse_rejects;
        ] );
      ( "recording",
        [
          Alcotest.test_case "logical-nesting" `Quick test_logical_clock_nesting;
          Alcotest.test_case "none-passthrough" `Quick test_none_handle_is_passthrough;
          Alcotest.test_case "backwards-span" `Quick test_sim_span_rejects_backwards;
          Alcotest.test_case "overlap-rejected" `Quick test_overlapping_spans_rejected_at_export;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "metrics",
        [ Alcotest.test_case "snapshot" `Quick test_metrics_snapshot ] );
      ( "validate",
        [
          Alcotest.test_case "minimal-cases" `Quick test_validate_minimal_cases;
          Alcotest.test_case "chaos-profile" `Quick test_chaos_profile_validates;
          Alcotest.test_case "compile-only" `Quick test_compile_only_profile_validates;
          Alcotest.test_case "corrupted-rejected" `Quick test_corrupted_profiles_rejected;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest test_zero_interference;
          Alcotest.test_case "byte-identical" `Quick test_profiled_run_byte_identical;
        ] );
    ]
