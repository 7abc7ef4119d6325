(* Fault-tolerant serving: the fault spec grammar, chaos-mode
   determinism, retry/failover/straggler behavior, deadlines, load
   shedding and degraded batching. *)

open Cortex
module M = Models.Common

let gpu = Backend.gpu
let small_spec = Models.Tree_lstm.spec ~vocab:50 ~hidden:8 ()

let sst_trees seed n =
  let rng = Rng.create seed in
  List.init n (fun _ -> Gen.sst_tree rng ~vocab:50 ())

(* ---------- the fault grammar ---------- *)

let test_parse_roundtrip () =
  let src = "failstop@1:5000;transient@*:0.05,0,1e6;straggler@0:3,2000,8000" in
  match Fault.parse src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok spec ->
    Alcotest.(check int) "three faults" 3 (List.length spec);
    (match spec with
     | [ Fault.Fail_stop f; Fault.Transient t; Fault.Straggler s ] ->
       Alcotest.(check int) "failstop device" 1 f.device;
       Alcotest.(check (float 0.0)) "failstop at" 5000.0 f.at_us;
       Alcotest.(check int) "transient wildcard" (-1) t.device;
       Alcotest.(check (float 0.0)) "transient prob" 0.05 t.prob;
       Alcotest.(check (float 0.0)) "transient until" 1e6 t.until_us;
       Alcotest.(check (float 0.0)) "straggler factor" 3.0 s.factor
     | _ -> Alcotest.fail "wrong constructors");
    (* to_string must re-parse to the same spec *)
    (match Fault.parse (Fault.to_string spec) with
     | Ok spec' -> Alcotest.(check bool) "round-trips" true (spec = spec')
     | Error e -> Alcotest.failf "rendered spec did not re-parse: %s" e)

let test_parse_rejects () =
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "failstop@1:-5" (* negative time *);
      "transient@0:1.5,0,10" (* prob > 1 *);
      "transient@0:0,0,10" (* prob = 0 is not a fault *);
      "straggler@0:0.5,0,10" (* factor < 1 *);
      "straggler@0:2,10,5" (* from > until *);
      "meteor@0:1" (* unknown kind *);
      "failstop@x:5" (* bad device *);
      "failstop@1" (* missing args *);
    ]

let test_parse_duplicate_targets () =
  (* Two clauses of the same kind on the same target are a spec bug,
     not a sweep; the error names both clause positions. *)
  let expect_dup src =
    match Fault.parse src with
    | Ok _ -> Alcotest.failf "accepted duplicate spec %S" src
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S error mentions the duplicate: %s" src e)
        true
        (let has needle =
           let nl = String.length needle and el = String.length e in
           let rec scan i = i + nl <= el && (String.sub e i nl = needle || scan (i + 1)) in
           scan 0
         in
         has "duplicate" && has "first at clause 1")
  in
  expect_dup "failstop@0:5;failstop@0:10";
  expect_dup "transient@*:0.5,0,10;transient@*:0.2,0,20";
  expect_dup "straggler@2:2,0,10;failstop@2:5;straggler@2:4,20,30";
  (* Same kind on different devices is a legitimate sweep... *)
  (match Fault.parse "failstop@0:5;failstop@1:10" with
   | Ok spec -> Alcotest.(check int) "distinct devices accepted" 2 (List.length spec)
   | Error e -> Alcotest.failf "distinct devices rejected: %s" e);
  (* ...and so are different kinds on the same device. *)
  match Fault.parse "failstop@0:5;straggler@0:2,0,10" with
  | Ok spec -> Alcotest.(check int) "distinct kinds accepted" 2 (List.length spec)
  | Error e -> Alcotest.failf "distinct kinds rejected: %s" e

let test_parse_error_positions () =
  (* Every error must name the offending clause's 1-based position and
     its text, so a long spec is debuggable from the message alone. *)
  let expect src fragment =
    match Fault.parse src with
    | Ok _ -> Alcotest.failf "accepted %S" src
    | Error e ->
      let has needle =
        let nl = String.length needle and el = String.length e in
        let rec scan i = i + nl <= el && (String.sub e i nl = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S error %S mentions %S" src e fragment)
        true (has fragment)
  in
  expect "failstop@0:5;meteor@1:2" "clause 2";
  expect "failstop@0:5;meteor@1:2" "unknown kind";
  expect "failstop@0:5;transient@1:0.5,0,10;straggler@x:2,0,10" "clause 3";
  expect "transient@0:0.5,abc,10" "argument 2";
  expect "straggler@0:2,0,1,9" "wrong arity";
  expect "failstop" "missing @device";
  expect "failstop@0" "missing :args";
  expect "failstop@0:" "argument 1"

(* QCheck: any well-formed spec survives [to_string] then [parse]
   structurally intact.  Floats are generated on dyadic grids so the
   %g rendering is exact. *)
let fault_roundtrip_test =
  let open QCheck in
  let gen =
    let open Gen in
    let device = oneofl [ -1; 0; 1; 2; 3 ] in
    let time = map float_of_int (int_bound 10000) in
    let until_of from =
      oneof [ return infinity; map (fun d -> from +. float_of_int d) (int_bound 10000) ]
    in
    let fault =
      int_bound 2 >>= fun kind ->
      device >>= fun device ->
      match kind with
      | 0 -> map (fun at_us -> Fault.Fail_stop { device; at_us }) time
      | 1 ->
        map (fun k -> float_of_int k /. 16.0) (int_range 1 16) >>= fun prob ->
        time >>= fun from_us ->
        map
          (fun until_us -> Fault.Transient { device; prob; from_us; until_us })
          (until_of from_us)
      | _ ->
        map (fun k -> 1.0 +. (float_of_int k /. 4.0)) (int_bound 16) >>= fun factor ->
        time >>= fun from_us ->
        map
          (fun until_us -> Fault.Straggler { device; factor; from_us; until_us })
          (until_of from_us)
    in
    (* Deduplicate (kind, device) targets: the parser rejects them by
       design, and the generator must stay inside the valid grammar. *)
    let dedup spec =
      let seen = Hashtbl.create 8 in
      List.filter
        (fun f ->
          let key =
            match f with
            | Fault.Fail_stop { device; _ } -> ("failstop", device)
            | Fault.Transient { device; _ } -> ("transient", device)
            | Fault.Straggler { device; _ } -> ("straggler", device)
          in
          if Hashtbl.mem seen key then false
          else (
            Hashtbl.add seen key ();
            true))
        spec
    in
    map dedup (list_size (int_range 1 6) fault)
  in
  let print spec = Fault.to_string spec in
  QCheck.Test.make ~name:"to_string/parse round-trip" ~count:500
    (QCheck.make ~print gen)
    (fun spec ->
      match Fault.parse (Fault.to_string spec) with
      | Ok spec' -> spec' = spec
      | Error e -> QCheck.Test.fail_reportf "rendered spec did not re-parse: %s" e)

let test_create_validates_devices () =
  let spec = [ Fault.Fail_stop { device = 3; at_us = 0.0 } ] in
  (try
     ignore (Fault.create ~seed:1 ~devices:2 spec);
     Alcotest.fail "device 3 accepted on a 2-device fleet"
   with Invalid_argument _ -> ());
  ignore (Fault.create ~seed:1 ~devices:4 spec)

(* ---------- chaos-mode determinism ---------- *)

let chaos_trace =
  Trace.poisson ~deadline_us:4000.0 (Rng.create 17) ~rate_rps:20000.0
    ~duration_ms:5.0
    ~gen:(fun rng -> Gen.sst_tree rng ~vocab:50 ())

let chaos_engine ?(devices = 2) ?queue_cap ?degrade_watermark ~faults ~seed () =
  let policy = { Engine.max_batch = 8; max_wait_us = 300.0; bucketing = Engine.Fifo } in
  Engine.of_spec
    ~config:
      (Engine.Config.make ~policy ~dispatch:Dispatch.Least_loaded
         ~devices:(List.init devices (fun _ -> gpu))
         ?queue_cap ?degrade_watermark ~faults ~seed ())
    small_spec ~backend:gpu

(* Everything the CLI prints, rendered canonically. *)
let render (s : Engine.summary) =
  let slo = s.Engine.slo in
  let a = s.Engine.aggregate in
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d|%.6f/%.6f/%.6f/%.6f|%s"
    slo.Engine.slo_completed slo.Engine.slo_lost slo.Engine.slo_shed
    slo.Engine.slo_rejected slo.Engine.slo_transients slo.Engine.slo_retries
    slo.Engine.slo_failovers slo.Engine.slo_deadline_misses a.Engine.throughput_rps
    a.Engine.p99_us a.Engine.makespan_us slo.Engine.slo_goodput_rps
    (String.concat ";"
       (List.map
          (fun (r : Engine.request_report) ->
            Printf.sprintf "%d:%.6f:%b" r.Engine.rr_id r.Engine.rr_total_us
              r.Engine.rr_on_time)
          s.Engine.requests))

let test_chaos_determinism () =
  let faults =
    [
      Fault.Transient { device = -1; prob = 0.2; from_us = 0.0; until_us = infinity };
      Fault.Straggler { device = 0; factor = 2.0; from_us = 0.0; until_us = 2000.0 };
    ]
  in
  let run () = render (Engine.run_trace (chaos_engine ~faults ~seed:42 ()) chaos_trace) in
  Alcotest.(check string) "same seed, same summary" (run ()) (run ())

(* ---------- transient faults: retries keep results bitwise identical ---------- *)

let test_transient_bitwise_identical () =
  let params = small_spec.M.init_params (Rng.create 7) in
  let run faults =
    let policy = { Engine.max_batch = 4; max_wait_us = 300.0; bucketing = Engine.Fifo } in
    let engine =
      Engine.of_spec
        ~config:
          (Engine.Config.make ~policy ~dispatch:Dispatch.Least_loaded
             ~devices:[ gpu; gpu ] ~faults ~seed:3 ~params ())
        small_spec ~backend:gpu
    in
    List.iteri
      (fun i s ->
        ignore (Engine.submit_exn engine ~arrival_us:(50.0 *. float_of_int i) s))
      (sst_trees 29 12);
    Engine.drain engine
  in
  let clean = run [] in
  let faulty =
    run [ Fault.Transient { device = -1; prob = 0.5; from_us = 0.0; until_us = infinity } ]
  in
  Alcotest.(check bool) "faults actually fired" true
    (faulty.Engine.slo.Engine.slo_retries > 0);
  Alcotest.(check int) "nothing lost" 0 faulty.Engine.slo.Engine.slo_lost;
  Alcotest.(check int) "all completed" 12 faulty.Engine.slo.Engine.slo_completed;
  Alcotest.(check int) "results for every request" 12
    (List.length faulty.Engine.results);
  (* The property the retry design pins: a retried window re-dispatches
     the same linearization, so completed requests' numbers cannot
     depend on the fault history. *)
  List.iter2
    (fun (id_c, t_c) (id_f, t_f) ->
      Alcotest.(check int) "same request ids" id_c id_f;
      Alcotest.(check bool)
        (Printf.sprintf "request %d bitwise identical to fault-free" id_c)
        true
        (Tensor.max_abs_diff t_c t_f = 0.0))
    clean.Engine.results faulty.Engine.results

let test_retry_budget_exhausts () =
  (* prob = 1: every execution aborts, so every window burns its full
     retry budget and is lost. *)
  let faults =
    [ Fault.Transient { device = -1; prob = 1.0; from_us = 0.0; until_us = infinity } ]
  in
  let engine = chaos_engine ~devices:1 ~faults ~seed:5 () in
  List.iter (fun s -> ignore (Engine.submit_exn engine s)) (sst_trees 31 4);
  let s = Engine.drain engine in
  Alcotest.(check int) "nothing completes" 0 s.Engine.slo.Engine.slo_completed;
  Alcotest.(check int) "everything lost" 4 s.Engine.slo.Engine.slo_lost;
  (* 4 requests, max_batch 8: one window, 1 + max_retries executions. *)
  Alcotest.(check int) "budget spent"
    (1 + Fault.default_retry.Fault.max_retries)
    s.Engine.slo.Engine.slo_transients;
  Alcotest.(check int) "retries counted"
    Fault.default_retry.Fault.max_retries
    s.Engine.slo.Engine.slo_retries

(* ---------- fail-stop and failover ---------- *)

let test_failstop_failover_no_loss () =
  (* Probe run: find a window mid-flight on some device, then kill that
     device at the window's midpoint and require a failover with zero
     lost requests.  Chaos mode makes the probe's timings exact. *)
  let probe = Engine.run_trace (chaos_engine ~devices:4 ~faults:[] ~seed:42 ()) chaos_trace in
  let w = List.hd probe.Engine.windows in
  let completion =
    w.Engine.wr_dispatch_us
    +. w.Engine.wr_report.Runtime.latency.Backend.total_us
  in
  let midpoint = (w.Engine.wr_dispatch_us +. completion) /. 2.0 in
  let faults = [ Fault.Fail_stop { device = w.Engine.wr_device; at_us = midpoint } ] in
  let s = Engine.run_trace (chaos_engine ~devices:4 ~faults ~seed:42 ()) chaos_trace in
  Alcotest.(check bool) "failover happened" true
    (s.Engine.slo.Engine.slo_failovers >= 1);
  Alcotest.(check int) "zero lost" 0 s.Engine.slo.Engine.slo_lost;
  Alcotest.(check int) "every request completed"
    probe.Engine.slo.Engine.slo_completed s.Engine.slo.Engine.slo_completed;
  let dead = List.nth s.Engine.device_reports w.Engine.wr_device in
  Alcotest.(check bool) "device marked failed" true dead.Engine.dr_failed;
  (* No window may run on the dead device after its death. *)
  List.iter
    (fun (win : Engine.window_report) ->
      if win.Engine.wr_device = w.Engine.wr_device then
        Alcotest.(check bool) "dispatched before the death" true
          (win.Engine.wr_dispatch_us < midpoint))
    s.Engine.windows

let test_all_devices_dead () =
  let faults = [ Fault.Fail_stop { device = 0; at_us = 0.0 } ] in
  let engine = chaos_engine ~devices:1 ~faults ~seed:1 () in
  List.iter (fun s -> ignore (Engine.submit_exn engine s)) (sst_trees 37 3);
  let s = Engine.drain engine in
  Alcotest.(check int) "nothing completes" 0 s.Engine.slo.Engine.slo_completed;
  Alcotest.(check int) "everything lost" 3 s.Engine.slo.Engine.slo_lost

(* ---------- stragglers ---------- *)

let test_straggler_scales_latency () =
  let run faults =
    let policy = { Engine.max_batch = 8; max_wait_us = 300.0; bucketing = Engine.Fifo } in
    let engine =
      Engine.of_spec
        ~config:(Engine.Config.make ~policy ~devices:[ gpu ] ~faults ~seed:2 ())
        small_spec ~backend:gpu
    in
    List.iter (fun s -> ignore (Engine.submit_exn engine s)) (sst_trees 41 4);
    Engine.drain engine
  in
  let clean = run [] in
  let slow =
    run [ Fault.Straggler { device = 0; factor = 5.0; from_us = 0.0; until_us = infinity } ]
  in
  let device_us (s : Engine.summary) =
    (List.hd s.Engine.windows).Engine.wr_report.Runtime.latency.Backend.total_us
  in
  Alcotest.(check (float 1e-6)) "window priced 5x"
    (5.0 *. device_us clean) (device_us slow);
  Alcotest.(check bool) "p99 grows" true
    (slow.Engine.aggregate.Engine.p99_us > clean.Engine.aggregate.Engine.p99_us)

(* ---------- deadlines ---------- *)

let test_deadline_boundary () =
  (* Probe the deterministic completion time, then pin the <= boundary:
     a deadline exactly at completion is on time, a hair earlier is a
     miss. *)
  let run deadline_us =
    let engine = chaos_engine ~devices:1 ~faults:[] ~seed:1 () in
    ignore (Engine.submit_exn engine ?deadline_us (List.hd (sst_trees 43 1)));
    Engine.drain engine
  in
  let probe = run None in
  let completion = (List.hd probe.Engine.requests).Engine.rr_total_us in
  Alcotest.(check int) "no deadline, no miss" 0
    probe.Engine.slo.Engine.slo_deadline_misses;
  let exact = run (Some completion) in
  Alcotest.(check int) "deadline at completion is on time" 0
    exact.Engine.slo.Engine.slo_deadline_misses;
  Alcotest.(check bool) "on-time flag set" true
    (List.hd exact.Engine.requests).Engine.rr_on_time;
  let tight = run (Some (completion -. 0.5)) in
  Alcotest.(check int) "a hair earlier misses" 1
    tight.Engine.slo.Engine.slo_deadline_misses;
  Alcotest.(check bool) "on-time flag cleared" false
    (List.hd tight.Engine.requests).Engine.rr_on_time;
  (* Missing the deadline still completes the request — goodput drops,
     throughput does not. *)
  Alcotest.(check int) "still completed" 1 tight.Engine.slo.Engine.slo_completed;
  Alcotest.(check (float 1e-9)) "zero goodput" 0.0
    tight.Engine.slo.Engine.slo_goodput_rps

let test_deadline_shorter_than_linearization () =
  (* Device time is > 0, so an impossible deadline (arrival + epsilon)
     must always miss. *)
  let engine = Engine.of_spec small_spec ~backend:gpu in
  ignore
    (Engine.submit_exn engine ~arrival_us:100.0 ~deadline_us:100.001
       (List.hd (sst_trees 47 1)));
  let s = Engine.drain engine in
  Alcotest.(check int) "completed" 1 s.Engine.slo.Engine.slo_completed;
  Alcotest.(check int) "missed" 1 s.Engine.slo.Engine.slo_deadline_misses

(* ---------- load shedding and the queue cap ---------- *)

let test_queue_cap_zero () =
  let engine = chaos_engine ~queue_cap:0 ~faults:[] ~seed:1 () in
  List.iter
    (fun s ->
      match Engine.submit engine s with
      | Error (Engine.Shed { cap }) -> Alcotest.(check int) "cap reported" 0 cap
      | Ok _ -> Alcotest.fail "cap-0 queue accepted a request"
      | Error e -> Alcotest.failf "wrong error: %s" (Engine.error_to_string e))
    (sst_trees 53 3);
  let s = Engine.drain engine in
  Alcotest.(check int) "all shed" 3 s.Engine.slo.Engine.slo_shed;
  Alcotest.(check int) "none completed" 0 s.Engine.slo.Engine.slo_completed

let test_queue_cap_one_drains_and_reopens () =
  let engine = chaos_engine ~queue_cap:1 ~faults:[] ~seed:1 () in
  let trees = sst_trees 59 3 in
  (match Engine.submit engine (List.nth trees 0) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "first submit failed: %s" (Engine.error_to_string e));
  (match Engine.submit engine (List.nth trees 1) with
   | Error (Engine.Shed _) -> ()
   | _ -> Alcotest.fail "second submit should shed");
  let s = Engine.drain engine in
  Alcotest.(check int) "one completed" 1 s.Engine.slo.Engine.slo_completed;
  Alcotest.(check int) "one shed" 1 s.Engine.slo.Engine.slo_shed;
  (* The drain emptied the queue: the cap admits again. *)
  (match Engine.submit engine (List.nth trees 2) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "post-drain submit failed: %s" (Engine.error_to_string e));
  let s2 = Engine.drain engine in
  Alcotest.(check int) "shed counter was reset" 0 s2.Engine.slo.Engine.slo_shed

let test_shed_vs_reject_accounting () =
  (* The cap is the front door: an invalid request bounces as [Rejected]
     only while there is queue room; at the cap everything sheds,
     invalid or not. *)
  let engine = chaos_engine ~queue_cap:2 ~faults:[] ~seed:1 () in
  let good = sst_trees 61 3 in
  let bad =
    (* a DAG submitted to a tree model *)
    let b = Node.builder () in
    let shared = Node.make b ~payload:1 [] in
    let l = Node.make b ~payload:2 [ shared ] in
    let r = Node.make b ~payload:3 [ shared ] in
    let root = Node.make b ~payload:4 [ l; r ] in
    Structure.create ~kind:Structure.Dag ~max_children:2 [ root ]
  in
  (match Engine.submit engine (List.nth good 0) with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "good request bounced");
  (match Engine.submit engine bad with
   | Error (Engine.Kind_mismatch _) -> ()
   | _ -> Alcotest.fail "invalid request below the cap must reject");
  (match Engine.submit engine (List.nth good 1) with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "good request bounced");
  (* Queue is now at the cap (the rejected request never queued). *)
  (match Engine.submit engine bad with
   | Error (Engine.Shed _) -> ()
   | _ -> Alcotest.fail "at the cap, even an invalid request sheds");
  let s = Engine.drain engine in
  Alcotest.(check int) "completed" 2 s.Engine.slo.Engine.slo_completed;
  Alcotest.(check int) "one rejected" 1 s.Engine.slo.Engine.slo_rejected;
  Alcotest.(check int) "one shed" 1 s.Engine.slo.Engine.slo_shed

(* QCheck: the SLO ledger is a partition.  Under any combination of a
   fail-stop, a transient rate and a queue cap, every submission
   attempt lands in exactly one of completed / lost / shed / rejected —
   no request is double-counted and none evaporates. *)
let slo_partition_test =
  let bad_dag () =
    (* a DAG submitted to a tree model: rejected at the front door *)
    let b = Node.builder () in
    let shared = Node.make b ~payload:1 [] in
    let l = Node.make b ~payload:2 [ shared ] in
    let r = Node.make b ~payload:3 [ shared ] in
    let root = Node.make b ~payload:4 [ l; r ] in
    Structure.create ~kind:Structure.Dag ~max_children:2 [ root ]
  in
  QCheck.Test.make ~name:"completed+lost+shed+rejected = submissions" ~count:25
    QCheck.(
      quad (int_range 0 99) (int_range 1 12) (int_range 1 10) (int_range 0 5000))
    (fun (seed, cap, prob10, fail_at) ->
      let faults =
        [
          Fault.Fail_stop { device = 0; at_us = float_of_int fail_at };
          Fault.Transient
            {
              device = -1;
              prob = float_of_int prob10 /. 10.0;
              from_us = 0.0;
              until_us = infinity;
            };
        ]
      in
      let engine = chaos_engine ~devices:2 ~queue_cap:cap ~faults ~seed () in
      let attempts = ref 0 in
      let submit structure arrival_us =
        incr attempts;
        ignore (Engine.submit engine ~arrival_us structure)
      in
      List.iteri
        (fun i s ->
          let at = 120.0 *. float_of_int i in
          submit s at;
          (* an invalid request rides along every 4th slot: it must be
             accounted (rejected below the cap, shed at it), never
             dropped silently *)
          if i mod 4 = 3 then submit (bad_dag ()) at)
        (sst_trees (seed + 100) 16);
      let s = Engine.drain engine in
      let slo = s.Engine.slo in
      let total =
        slo.Engine.slo_completed + slo.Engine.slo_lost + slo.Engine.slo_shed
        + slo.Engine.slo_rejected
      in
      if total <> !attempts then
        QCheck.Test.fail_reportf
          "partition broken: %d+%d+%d+%d = %d, but %d submissions (seed %d cap %d p %.1f fail@%d)"
          slo.Engine.slo_completed slo.Engine.slo_lost slo.Engine.slo_shed
          slo.Engine.slo_rejected total !attempts seed cap
          (float_of_int prob10 /. 10.0)
          fail_at
      else true)

(* ---------- degraded batching ---------- *)

let test_degrade_watermark () =
  let run watermark =
    let engine = chaos_engine ?degrade_watermark:watermark ~faults:[] ~seed:1 () in
    List.iter (fun s -> ignore (Engine.submit_exn engine s)) (sst_trees 67 10);
    Engine.drain engine
  in
  let normal = run None in
  Alcotest.(check bool) "no watermark, not degraded" false
    normal.Engine.slo.Engine.slo_degraded;
  let degraded = run (Some 4) in
  Alcotest.(check bool) "past the watermark, degraded" true
    degraded.Engine.slo.Engine.slo_degraded;
  (* max_batch 8 halves to 4 *)
  List.iter
    (fun (w : Engine.window_report) ->
      Alcotest.(check bool) "windows halved" true (w.Engine.wr_size <= 4))
    degraded.Engine.windows;
  Alcotest.(check int) "still serves everything" 10
    degraded.Engine.slo.Engine.slo_completed;
  let under = run (Some 100) in
  Alcotest.(check bool) "under the watermark, normal policy" false
    under.Engine.slo.Engine.slo_degraded

(* ---------- goodput under overload with a cap ---------- *)

let test_goodput_under_cap () =
  (* Heavy overload on one device: a queue cap sheds the excess instead
     of queuing it past the deadline; goodput (on-time completions per
     second) stays within 10% of the uncapped fault-free run while the
     p99 stays bounded by the uncapped run's (whose queue grows without
     bound, blowing both its tail latency and its deadline misses). *)
  let trace =
    Trace.poisson ~deadline_us:8000.0 (Rng.create 71) ~rate_rps:100000.0
      ~duration_ms:5.0
      ~gen:(fun rng -> Gen.sst_tree rng ~vocab:50 ())
  in
  let run queue_cap =
    Engine.run_trace (chaos_engine ~devices:1 ?queue_cap ~faults:[] ~seed:9 ()) trace
  in
  let free = run None in
  let capped = run (Some 64) in
  Alcotest.(check bool) "the cap actually shed load" true
    (capped.Engine.slo.Engine.slo_shed > 0);
  let g_free = free.Engine.slo.Engine.slo_goodput_rps in
  let g_cap = capped.Engine.slo.Engine.slo_goodput_rps in
  Alcotest.(check bool)
    (Printf.sprintf "goodput within 10%% (%.0f vs %.0f)" g_cap g_free)
    true
    (g_cap >= 0.9 *. g_free);
  Alcotest.(check bool)
    (Printf.sprintf "p99 bounded (%.0f vs %.0f)" capped.Engine.aggregate.Engine.p99_us
       free.Engine.aggregate.Engine.p99_us)
    true
    (capped.Engine.aggregate.Engine.p99_us
     <= free.Engine.aggregate.Engine.p99_us)

(* ---------- trace hygiene ---------- *)

let test_unsorted_trace_rejected () =
  let trees = sst_trees 73 2 in
  let trace =
    [
      { Trace.at_us = 100.0; deadline_us = None; structure = List.nth trees 0 };
      { Trace.at_us = 50.0; deadline_us = None; structure = List.nth trees 1 };
    ]
  in
  let engine = chaos_engine ~faults:[] ~seed:1 () in
  try
    ignore (Engine.run_trace engine trace);
    Alcotest.fail "unsorted trace accepted"
  with Engine.Error (Engine.Unsorted_trace u) ->
    Alcotest.(check int) "offending index" 1 u.index;
    Alcotest.(check (float 0.0)) "offending time" 50.0 u.at_us;
    Alcotest.(check (float 0.0)) "predecessor" 100.0 u.prev_us

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "parse-roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse-rejects" `Quick test_parse_rejects;
          Alcotest.test_case "parse-duplicates" `Quick test_parse_duplicate_targets;
          Alcotest.test_case "parse-error-positions" `Quick test_parse_error_positions;
          QCheck_alcotest.to_alcotest fault_roundtrip_test;
          Alcotest.test_case "create-validates" `Quick test_create_validates_devices;
        ] );
      ( "determinism",
        [ Alcotest.test_case "chaos-two-runs" `Quick test_chaos_determinism ] );
      ( "transients",
        [
          Alcotest.test_case "bitwise-identical" `Quick test_transient_bitwise_identical;
          Alcotest.test_case "budget-exhausts" `Quick test_retry_budget_exhausts;
        ] );
      ( "failstop",
        [
          Alcotest.test_case "failover-no-loss" `Quick test_failstop_failover_no_loss;
          Alcotest.test_case "all-dead" `Quick test_all_devices_dead;
        ] );
      ( "stragglers",
        [ Alcotest.test_case "scales-latency" `Quick test_straggler_scales_latency ] );
      ( "deadlines",
        [
          Alcotest.test_case "boundary" `Quick test_deadline_boundary;
          Alcotest.test_case "impossible" `Quick test_deadline_shorter_than_linearization;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "cap-zero" `Quick test_queue_cap_zero;
          Alcotest.test_case "cap-one-reopens" `Quick test_queue_cap_one_drains_and_reopens;
          Alcotest.test_case "shed-vs-reject" `Quick test_shed_vs_reject_accounting;
          QCheck_alcotest.to_alcotest slo_partition_test;
        ] );
      ( "degrade",
        [ Alcotest.test_case "watermark" `Quick test_degrade_watermark ] );
      ( "overload",
        [ Alcotest.test_case "goodput-under-cap" `Quick test_goodput_under_cap ] );
      ( "trace",
        [ Alcotest.test_case "unsorted" `Quick test_unsorted_trace_rejected ] );
    ]
