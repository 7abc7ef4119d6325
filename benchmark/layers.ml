(* Per-layer metrics of a traced round.  The round's windows and inputs
   are replayed through each layer's public functions, every call inside
   a benchmark-side wall span on a "bench.<layer>" track of the round's
   trace; the metrics are then reduced from the trace's spans and from the
   drains' summary counters.  A layer that does not run on a workload
   reports 0. *)

open Cortex
open Workloads
module CT = Chrome_trace

type span = { track : string; name : string; dur_us : float; size : int }

(* Balanced begin/end pairs of an exported trace, as complete spans. *)
let spans_of (events : CT.event list) =
  let tracks = Hashtbl.create 16 in
  List.iter
    (fun (e : CT.event) ->
      if e.CT.ev_ph = CT.Metadata && e.CT.ev_name = "thread_name" then
        match List.assoc_opt "name" e.CT.ev_args with
        | Some (CT.Str n) -> Hashtbl.replace tracks (e.CT.ev_pid, e.CT.ev_tid) n
        | _ -> ())
    events;
  let stacks = Hashtbl.create 16 in
  List.fold_left
    (fun acc (e : CT.event) ->
      let key = (e.CT.ev_pid, e.CT.ev_tid) in
      let stack = Option.value (Hashtbl.find_opt stacks key) ~default:[] in
      match (e.CT.ev_ph, stack) with
      | CT.Begin, _ ->
        Hashtbl.replace stacks key (e :: stack);
        acc
      | CT.End, (b : CT.event) :: rest ->
        Hashtbl.replace stacks key rest;
        let size =
          match List.assoc_opt "size" b.CT.ev_args with Some (CT.Int n) -> n | _ -> 0
        in
        {
          track = Option.value (Hashtbl.find_opt tracks key) ~default:"";
          name = b.CT.ev_name;
          dur_us = e.CT.ev_ts_us -. b.CT.ev_ts_us;
          size;
        }
        :: acc
      | _ -> acc)
    [] events
  |> List.rev

let sum = List.fold_left ( +. ) 0.0
let pct p = function [] -> 0.0 | l -> Stats.percentile p l
let ratio a b = if b = 0.0 then 0.0 else a /. b
let count l = float_of_int (List.length l)

(* At most [n] elements, evenly spaced. *)
let sample n l =
  let len = List.length l in
  let step = max 1 ((len + n - 1) / n) in
  List.filteri (fun i _ -> i mod step = 0) l

(* The structures of each regular (non-session) window, in submission
   order — the order the engine merged them into the window's forest. *)
let regular_windows (r : round) =
  List.concat_map
    (fun d ->
      let by_id = Hashtbl.create 256 in
      List.iter (fun (id, s) -> Hashtbl.replace by_id id s) d.inputs;
      let members = Hashtbl.create 256 in
      List.iter
        (fun (q : Engine.request_report) ->
          let ids = Option.value (Hashtbl.find_opt members q.Engine.rr_window) ~default:[] in
          Hashtbl.replace members q.Engine.rr_window (q.Engine.rr_id :: ids))
        d.summary.Engine.requests;
      List.filter_map
        (fun (w : Engine.window_report) ->
          match Hashtbl.find_opt members w.Engine.wr_index with
          | Some ids when w.Engine.wr_session = None && w.Engine.wr_packed = [] ->
            Some (List.map (Hashtbl.find by_id) (List.sort compare ids))
          | _ -> None)
        d.summary.Engine.windows)
    r.drains

(* Replays the round through the layers' public functions.  Every
   replayed forest must pass [Linearizer.check_forest]. *)
let replay (w : Workloads.t) (r : round) obs ~error =
  let eng = List.hd r.engines in
  let compiled = Engine.compiled eng and backend = Engine.backend eng in
  let max_children = w.spec.M.program.Ra.max_children in
  let span track ?(size = 0) name f =
    Obs.wall_span (Some obs) ~track ~args:[ ("size", CT.Int size) ] name f
  in
  let check f =
    try Linearizer.check_forest f with Failure m -> error ("check_forest: " ^ m)
  in
  let nodes ss = List.fold_left (fun n s -> n + Structure.num_nodes s) 0 ss in
  (* Set-up layers, as often as a run sets up. *)
  (match w.bundle with
   | Some path ->
     for _ = 1 to w.setup_reps do
       let bytes =
         span "bench.bundle" "read" (fun () -> In_channel.with_open_bin path In_channel.input_all)
       in
       ignore (span "bench.bundle" "decode" (fun () -> Bundle.decode bytes))
     done
   | None -> ());
  for _ = 1 to w.setup_reps do
    ignore
      (span "bench.lower" "compile" (fun () ->
           Runtime.compile ~options:(Runtime.options_for w.spec) w.spec.M.program))
  done;
  (* Regular windows: the inspector (a cold run per new shape, a rebind
     per repeat, as the shape cache does), then static pricing. *)
  let cache = Hashtbl.create 64 in
  let forests =
    List.map
      (fun ss ->
        let size = nodes ss in
        let key = Linearizer.shape_key ~max_children ss in
        let f =
          match Hashtbl.find_opt cache key with
          | None ->
            let f =
              span "bench.linearizer" ~size "run_forest" (fun () ->
                  Linearizer.run_forest ~max_children ss)
            in
            Hashtbl.replace cache key f;
            f
          | Some cached ->
            span "bench.linearizer" ~size "rebind_forest" (fun () ->
                Linearizer.rebind_forest cached ss)
        in
        check f;
        ignore
          (span "bench.runtime" ~size "simulate_lin" (fun () ->
               Runtime.simulate_lin compiled ~backend f.Linearizer.lin));
        (f, size))
      (regular_windows r)
  in
  (* Conversations: one delta extension per token. *)
  Array.iter
    (fun conv ->
      let f = ref (Linearizer.run_forest ~max_children [ conv.(0) ]) in
      for j = 1 to Array.length conv - 1 do
        let s = conv.(j) in
        let b = Structure.num_nodes conv.(j - 1) in
        let n = Structure.num_nodes s - b in
        let delta =
          {
            Linearizer.d_request = 0;
            d_roots = s.Structure.roots;
            d_nodes = Array.sub s.Structure.nodes b n;
          }
        in
        f := span "bench.linearizer" ~size:n "extend" (fun () -> Linearizer.extend !f delta);
        check !f
      done)
    w.conversations;
  (* The interpreter, on at most 100 evenly spaced windows (a
     conversation token replays cold over its whole structure). *)
  (match w.params with
   | None -> ()
   | Some params ->
     let lins =
       if w.conversations = [||] then
         List.map (fun (f, size) -> (f.Linearizer.lin, size)) forests
       else
         List.concat_map Array.to_list (Array.to_list w.conversations)
         |> sample 100
         |> List.map (fun s ->
                (Linearizer.run ~max_children s, Structure.num_nodes s))
     in
     List.iter
       (fun (lin, size) ->
         ignore
           (span "bench.interp" ~size "execute_lin" (fun () ->
                Runtime.execute_lin compiled ~params lin)))
       (sample 100 lins));
  (* Checkpoint I/O over the session spills the round left behind. *)
  match r.spill_dir with
  | Some dir when Sys.file_exists dir ->
    Array.iter
      (fun file ->
        if Filename.check_suffix file ".csx" then begin
          let path = Filename.concat dir file in
          let size = (Unix.stat path).Unix.st_size in
          let ss =
            span "bench.checkpoint" ~size "load_session" (fun () ->
                Checkpoint.load_session ~expect_model:w.spec.M.program.Ra.name path)
          in
          ignore
            (span "bench.checkpoint" ~size "session_to_string" (fun () ->
                 Checkpoint.session_to_string ss))
        end)
      (Sys.readdir dir)
  | _ -> ()

let metrics (w : Workloads.t) (r : round) ~untraced_rps ~traced_rps ~error =
  (match r.handles with obs :: _ -> replay w r obs ~error | [] -> ());
  let spans =
    List.concat_map
      (fun h ->
        match Obs.events h with
        | events -> spans_of events
        | exception Invalid_argument m ->
          error ("trace: " ^ m);
          [])
      r.handles
  in
  let on track name = List.filter (fun s -> s.track = track && s.name = name) spans in
  let durs track name = List.map (fun s -> s.dur_us) (on track name) in
  let total track name = sum (durs track name) in
  (* Time per unit of the spans' size argument: per node, or per KB. *)
  let per_size ?(unit_size = 1.0) track name =
    List.filter_map
      (fun s -> if s.size > 0 then Some (s.dur_us *. unit_size /. float_of_int s.size) else None)
      (on track name)
  in
  let per_total track name =
    ratio (total track name)
      (float_of_int (List.fold_left (fun n s -> n + s.size) 0 (on track name)))
  in
  let summaries = List.map (fun d -> d.summary) r.drains in
  let requests = List.concat_map (fun s -> s.Engine.requests) summaries in
  let windows = List.concat_map (fun s -> s.Engine.windows) summaries in
  let devices = List.concat_map (fun s -> s.Engine.device_reports) summaries in
  let last = List.nth summaries (List.length summaries - 1) in
  let served = count requests in
  let isum f l = float_of_int (List.fold_left (fun n x -> n + f x) 0 l) in
  let shape_hits = isum (fun e -> (Engine.cache_stats e).Shape_cache.hits) r.engines
  and shape_misses = isum (fun e -> (Engine.cache_stats e).Shape_cache.misses) r.engines in
  let plans = List.filter_map Engine.plan_cache_stats r.engines in
  let plan_hits = isum (fun s -> s.Plan_cache.pc_hits) plans
  and plan_misses = isum (fun s -> s.Plan_cache.pc_misses) plans
  and tune_ms = sum (List.map (fun s -> s.Plan_cache.pc_tune_ms) plans) in
  let speedups =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (p : Engine.plan_report) ->
            if p.Engine.pr_tuned_us > 0.0 then
              Some (p.Engine.pr_default_us /. p.Engine.pr_tuned_us)
            else None)
          s.Engine.plans)
      summaries
  in
  let waves = List.map (fun d -> d /. 1000.0) (durs "bench.sessions" "wave") in
  let growth =
    let n = List.length waves in
    let k = min 10 (n / 2) in
    let mean l = sum l /. float_of_int k in
    if k = 0 then 0.0
    else
      ratio
        (mean (List.filteri (fun i _ -> i >= n - k) waves))
        (mean (List.filteri (fun i _ -> i < k) waves))
  in
  (* Each layer's share of the drains' host time, as replayed; the
     interpreter's is scaled from its sample to every node served. *)
  let drain_us = 1e6 *. sum (List.map (fun d -> d.wall_s) r.drains) in
  let shares =
    [
      ( "host_share.inspector",
        total "bench.linearizer" "run_forest"
        +. total "bench.linearizer" "rebind_forest"
        +. total "bench.linearizer" "extend" );
      ("host_share.pricing", total "bench.runtime" "simulate_lin");
      ( "host_share.interp",
        per_total "bench.interp" "execute_lin"
        *. isum (fun (w : Engine.window_report) -> w.Engine.wr_nodes) windows );
      ("host_share.plan_tuning", 1000.0 *. tune_ms);
    ]
    |> List.map (fun (n, us) -> (n, ratio us drain_us, "ratio"))
  in
  let utils = List.map (fun (d : Engine.device_report) -> d.Engine.dr_utilization) devices in
  let busy = List.map (fun (d : Engine.device_report) -> d.Engine.dr_busy_us) devices in
  let occupied =
    List.map
      (fun (d : Engine.device_report) -> d.Engine.dr_occupancy *. d.Engine.dr_busy_us)
      devices
  in
  let slo f = isum (fun s -> f s.Engine.slo) summaries in
  let packed_windows = isum (fun s -> s.Engine.packed_windows) summaries in
  let packed_tokens = isum (fun s -> s.Engine.packed_tokens) summaries in
  let launches =
    isum
      (fun (w : Engine.window_report) ->
        w.Engine.wr_report.Runtime.latency.Backend.kernel_launches)
      windows
  in
  let sessions f = isum f last.Engine.sessions in
  let st = last.Engine.session_table in
  let ms l = List.map (fun x -> x /. 1000.0) l in
  let request_pct p f = pct p (List.map f requests) in
  ( [
      ("bundle.read_ms", pct 50.0 (ms (durs "bench.bundle" "read")), "ms");
      ("bundle.decode_ms", pct 50.0 (ms (durs "bench.bundle" "decode")), "ms");
      ("lower.compile_ms", pct 50.0 (ms (durs "bench.lower" "compile")), "ms");
      ( "linearizer.run_forest_us_per_node_p50",
        pct 50.0 (per_size "bench.linearizer" "run_forest"),
        "us/node" );
      ( "linearizer.run_forest_us_per_node_p90",
        pct 90.0 (per_size "bench.linearizer" "run_forest"),
        "us/node" );
      ("linearizer.run_forest_calls", count (on "bench.linearizer" "run_forest"), "count");
      ("linearizer.rebind_us_per_node", per_total "bench.linearizer" "rebind_forest", "us/node");
      ( "linearizer.extend_us_per_token",
        ratio (total "bench.linearizer" "extend") (count (on "bench.linearizer" "extend")),
        "us/token" );
      ("shape_cache.hit_ratio", ratio shape_hits (shape_hits +. shape_misses), "ratio");
      ("shape_cache.hits", shape_hits, "count");
      ("shape_cache.misses", shape_misses, "count");
      ( "shape_cache.inspector_ms",
        sum (List.filter_map (fun s -> if s.track = "inspector" then Some s.dur_us else None) spans)
        /. 1000.0,
        "ms" );
      ( "runtime.simulate_us_per_window_p50",
        pct 50.0 (durs "bench.runtime" "simulate_lin"),
        "us/window" );
      ( "runtime.simulate_us_per_window_p90",
        pct 90.0 (durs "bench.runtime" "simulate_lin"),
        "us/window" );
      ("runtime.simulate_us_per_node", per_total "bench.runtime" "simulate_lin", "us/node");
      ("interp.us_per_node_p50", pct 50.0 (per_size "bench.interp" "execute_lin"), "us/node");
      ("interp.us_per_node_p90", pct 90.0 (per_size "bench.interp" "execute_lin"), "us/node");
      ("sessions.wave_host_ms_p50", pct 50.0 waves, "ms");
      ("sessions.wave_host_ms_p90", pct 90.0 waves, "ms");
      ("sessions.token_cost_growth", growth, "x");
      ("plan_cache.hit_ratio", ratio plan_hits (plan_hits +. plan_misses), "ratio");
      ("plan_cache.tune_ms", tune_ms, "ms");
      ( "plan.tuned_speedup_geomean",
        (match speedups with [] -> 0.0 | l -> Stats.geomean l),
        "x" );
      ("engine.mean_window", ratio served (count windows), "req/window");
      ("engine.queue_p99_us", request_pct 99.0 (fun q -> q.Engine.rr_queue_us), "us");
      ("engine.device_p50_us", request_pct 50.0 (fun q -> q.Engine.rr_device_us), "us");
      ("engine.other_frac", 1.0 -. sum (List.map (fun (_, x, _) -> x) shares), "ratio");
      ("dispatch.util_max", List.fold_left Float.max 0.0 utils, "ratio");
      ( "dispatch.util_min",
        (match utils with [] -> 0.0 | u :: l -> List.fold_left Float.min u l),
        "ratio" );
      ("dispatch.occupancy_mean", ratio (sum occupied) (sum busy), "ratio");
      ("fault.transients", slo (fun s -> s.Engine.slo_transients), "count");
      ("fault.retries", slo (fun s -> s.Engine.slo_retries), "count");
      ("fault.failovers", slo (fun s -> s.Engine.slo_failovers), "count");
      ("fault.lost", slo (fun s -> s.Engine.slo_lost), "count");
      ("sessions.packed_windows", packed_windows, "count");
      ("sessions.mean_pack", ratio packed_tokens packed_windows, "tokens/window");
      ("sessions.launches_per_token", ratio launches served, "launches/req");
      ( "sessions.delta_nodes_per_token",
        ratio (sessions (fun sn -> sn.Engine.sn_delta_nodes)) served,
        "nodes/req" );
      ("sessions.cold_windows", sessions (fun sn -> sn.Engine.sn_cold), "count");
      ("sessions.materializations", sessions (fun sn -> sn.Engine.sn_materializations), "count");
      ("session_store.evictions", float_of_int st.Session_store.st_evictions, "count");
      ("session_store.restores", float_of_int st.Session_store.st_restores, "count");
      ("session_store.spilled_bytes", float_of_int st.Session_store.st_spilled_bytes, "bytes");
      ("session_store.spill_us", st.Session_store.st_spill_us, "us");
      ("session_store.restore_us", st.Session_store.st_restore_us, "us");
      ( "checkpoint.parse_us_per_kb",
        pct 50.0 (per_size ~unit_size:1024.0 "bench.checkpoint" "load_session"),
        "us/KB" );
      ( "checkpoint.write_us_per_kb",
        pct 50.0 (per_size ~unit_size:1024.0 "bench.checkpoint" "session_to_string"),
        "us/KB" );
      ("obs.overhead_frac", 1.0 -. ratio traced_rps untraced_rps, "ratio");
    ],
    shares )
