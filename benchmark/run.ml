(* The repository benchmark.  See README.md for the workloads, the
   metrics and how to compare two commits.

     run.exe --workload W --seed N --seconds S --trace 0|1
             [--trace-dir DIR] [--out FILE]
     run.exe --seed N ...            every workload, one child process each
     run.exe compare BASE NEW...     verdicts per (workload, metric)
     run.exe smoke BENCHMARK.json    tiny-scale self test (dune runtest)

   One run sets up the workload, then serves it round after round on
   fresh engines until [--seconds] have passed.  Simulated-clock metrics
   come from the first round and every later round must reproduce them
   exactly; host wall-clock metrics are medians over the rounds.  The last
   line of standard output is the run's JSON result. *)

open Cortex
module W = Workloads

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** the JSON result's metrics *)
  extra : (string * float * string) list;  (** printed and kept in [--out] *)
  sim : (string * float) list;  (** simulated-clock values of the run *)
}

let median = function [] -> 0.0 | l -> Stats.median l

(* ---------- simulated-clock metrics of a round ---------- *)

let sim_metrics (r : W.round) =
  let base = List.filter (fun d -> d.W.base) r.W.drains in
  let reqs : Engine.request_report list =
    List.concat_map (fun d -> d.W.summary.Engine.requests) base
  in
  let n = List.length reqs in
  let totals = List.map (fun q -> q.Engine.rr_total_us) reqs in
  let on_time = List.length (List.filter (fun q -> q.Engine.rr_on_time) reqs) in
  let first = List.fold_left (fun m q -> Float.min m q.Engine.rr_arrival_us) infinity reqs
  and last =
    List.fold_left
      (fun m q -> Float.max m (q.Engine.rr_arrival_us +. q.Engine.rr_total_us))
      neg_infinity reqs
  in
  let device_us =
    List.fold_left
      (fun acc (w : Engine.window_report) ->
        acc +. w.Engine.wr_report.Runtime.latency.Backend.total_us)
      0.0
      (List.concat_map (fun d -> d.W.summary.Engine.windows) base)
  in
  let pct p = if n = 0 then 0.0 else Stats.percentile p totals in
  let per a b = if b > 0.0 then a /. b else 0.0 in
  [
    ("sim_p50_us", pct 50.0);
    ("sim_p99_us", pct 99.0);
    ("sim_goodput_rps", per (1e6 *. float_of_int on_time) (last -. first));
    ("sim_device_us_per_req", per device_us (float_of_int n));
    ("sim_samples", float_of_int n);
  ]

(* The ladder's highest rung that meets the latency limit with nothing
   lost and no growing backlog; 0 when no rung does. *)
let capacity (r : W.round) =
  List.fold_left
    (fun best d ->
      let a = d.W.summary.Engine.aggregate and slo = d.W.summary.Engine.slo in
      if
        d.W.rung_rps > 0.0
        && slo.Engine.slo_lost + slo.Engine.slo_shed + slo.Engine.slo_rejected = 0
        && a.Engine.p99_us <= W.sst_deadline_us
        && a.Engine.makespan_us <= d.W.span_us +. W.sst_deadline_us
      then Float.max best d.W.rung_rps
      else best)
    0.0 r.W.drains

(* Everything the simulated clock decided in a round, for the
   same-input-same-output check between rounds. *)
let signature (r : W.round) =
  List.concat_map
    (fun d ->
      let s = d.W.summary in
      let a = s.Engine.aggregate and slo = s.Engine.slo and st = s.Engine.session_table in
      [
        float_of_int a.Engine.num_requests; float_of_int a.Engine.num_windows; a.Engine.p50_us;
        a.Engine.p99_us; a.Engine.makespan_us; float_of_int slo.Engine.slo_on_time;
        float_of_int slo.Engine.slo_lost; float_of_int slo.Engine.slo_transients;
        float_of_int slo.Engine.slo_retries; float_of_int slo.Engine.slo_failovers;
        float_of_int st.Session_store.st_evictions; float_of_int st.Session_store.st_restores;
        float_of_int st.Session_store.st_spilled_bytes;
      ])
    r.W.drains

(* ---------- the correctness gate ---------- *)

type gate = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  expected : (int * int, Tensor.t) Hashtbl.t;  (** (drain, request) -> first-round result *)
  mutable first : float list option;
}

let error g e = if not (List.mem e g.errors) then g.errors <- e :: g.errors

(* Counts lost, shed, rejected and wrong requests as failed.  First-round
   results must match [Models.Reference]; later rounds must reproduce the
   first round bit for bit, simulated clock included. *)
let check (w : W.t) g (r : W.round) =
  let first = g.first = None in
  List.iteri
    (fun di d ->
      let s = d.W.summary in
      let slo = s.Engine.slo in
      let bad = slo.Engine.slo_lost + slo.Engine.slo_shed + slo.Engine.slo_rejected in
      if slo.Engine.slo_completed + bad <> d.W.submitted then
        error g "completed + lost + shed + rejected <> submitted";
      let wrong =
        match w.W.reference with
        | None -> 0
        | Some reference ->
          let results = Hashtbl.create 1024 and inputs = Hashtbl.create 1024 in
          List.iter (fun (id, t) -> Hashtbl.replace results id t) s.Engine.results;
          List.iter (fun (id, st) -> Hashtbl.replace inputs id st) d.W.inputs;
          List.length
            (List.filter
               (fun (q : Engine.request_report) ->
                 let id = q.Engine.rr_id in
                 match (Hashtbl.find_opt results id, Hashtbl.find_opt inputs id) with
                 | Some got, Some input when first ->
                   Hashtbl.replace g.expected (di, id) got;
                   not (Tensor.approx_equal ~tol:1e-9 (reference input) got)
                 | Some got, Some _ -> (
                   match Hashtbl.find_opt g.expected (di, id) with
                   | Some want -> Tensor.max_abs_diff want got <> 0.0
                   | None -> true)
                 | _ -> true)
               s.Engine.requests)
      in
      if wrong > 0 then error g "results differ from Models.Reference or from the first round";
      g.attempted <- g.attempted + d.W.submitted;
      g.failed <- g.failed + bad + wrong)
    r.W.drains;
  let sg = signature r in
  match g.first with
  | None -> g.first <- Some sg
  | Some s0 -> if s0 <> sg then error g "simulated-clock results differ between rounds"

(* ---------- one run ---------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Scratch space inside the working directory (bundles, session spills),
   removed when the run ends. *)
let with_tmp f =
  let root = ".bench_tmp" in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Sys.rmdir root with Sys_error _ -> ())
    (fun () -> f dir)

let completed (r : W.round) =
  List.fold_left (fun n d -> n + d.W.summary.Engine.slo.Engine.slo_completed) 0 r.W.drains

let run_workload name ~scale ~seed ~seconds ~traced ~trace_dir =
  with_tmp (fun tmp ->
      let w = W.make name ~scale ~seed ~tmp in
      (* Set-up and every round start from a compacted heap, as in a
         fresh process; the compactions are not timed.  Half the set-ups
         run before the rounds and half after, so a burst of interference
         from other work on the host moves at most one half. *)
      let setups n =
        Gc.compact ();
        List.init n (fun _ -> snd (W.timed w.W.setup))
      in
      let early = setups ((w.W.setup_reps + 1) / 2) in
      let g =
        { attempted = 0; failed = 0; errors = []; expected = Hashtbl.create 1024; first = None }
      in
      let rates = ref [] and traced_rates = ref [] in
      let sim = ref [] and cap = ref 0.0 and peak_heap_mb = ref 0.0 and layer_round = ref None in
      let t0 = W.now () in
      let k = ref 0 in
      while W.now () -. t0 < seconds || !rates = [] || (traced && !traced_rates = []) do
        let tr = traced && !k mod 2 = 1 in
        incr k;
        Gc.compact ();
        let r = w.W.serve ~traced:tr in
        check w g r;
        let rate =
          float_of_int (completed r) /. List.fold_left (fun s d -> s +. d.W.wall_s) 0.0 r.W.drains
        in
        if tr then begin
          traced_rates := rate :: !traced_rates;
          if !layer_round = None then layer_round := Some r
        end
        else begin
          if !rates = [] then begin
            sim := sim_metrics r;
            cap := capacity r;
            peak_heap_mb :=
              float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
          end;
          rates := rate :: !rates
        end
      done;
      let setup_s = median (early @ setups (w.W.setup_reps / 2)) in
      (* The least disturbed round: interference from other work on the
         host only ever slows a round down. *)
      let best = List.fold_left Float.max 0.0 in
      let host = best !rates in
      let metrics, shares =
        match !layer_round with
        | None -> ([], [])
        | Some r ->
          let m =
            Layers.metrics w r ~untraced_rps:host ~traced_rps:(best !traced_rates)
              ~error:(error g)
          in
          (match r.W.handles with
           | obs :: _ -> (
             match Obs.events obs with
             | exception Invalid_argument e -> error g ("trace: " ^ e)
             | events -> (
               match Obs_validate.check events with
               | Error e -> error g ("trace: " ^ Obs_validate.error_to_string e)
               | Ok () ->
                 Option.iter
                   (fun dir ->
                     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                     Out_channel.with_open_bin
                       (Filename.concat dir (name ^ ".json"))
                       (fun oc -> output_string oc (Chrome_trace.to_json events)))
                   trace_dir))
           | [] -> ());
          m
      in
      let sim_value n = List.assoc n !sim in
      let e2e =
        [
          ("setup_s", setup_s, "s");
          ("host_req_per_s", host, "req/s");
          ("sim_p50_us", sim_value "sim_p50_us", "us");
          ("sim_p99_us", sim_value "sim_p99_us", "us");
          ("sim_goodput_rps", sim_value "sim_goodput_rps", "req/s");
          ("sim_device_us_per_req", sim_value "sim_device_us_per_req", "us");
          ("peak_heap_mb", !peak_heap_mb, "MB");
        ]
      in
      let extra =
        [
          ("sim_samples", sim_value "sim_samples", "count");
          ( "fail_frac",
            (if g.attempted = 0 then 1.0 else float_of_int g.failed /. float_of_int g.attempted),
            "ratio" );
          ("rounds", float_of_int (List.length !rates + List.length !traced_rates), "count");
        ]
        @ (if name = "sst-priced" then [ ("sim_capacity_rps", !cap, "req/s") ] else [])
        @ if traced then shares @ e2e else []
      in
      List.iter (fun e -> prerr_endline (name ^ ": " ^ e)) (List.rev g.errors);
      {
        workload = name;
        correct = g.errors = [] && g.failed = 0;
        attempted = g.attempted;
        failed = g.failed;
        metrics = (if traced then metrics else e2e);
        extra;
        sim = !sim;
      })

(* ---------- output ---------- *)

let metrics_json l =
  Json.Obj
    (List.map (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) l)

let result_json (r : result) =
  [
    ("correct", Json.Bool r.correct);
    ("attempted", Json.Num (float_of_int r.attempted));
    ("failed", Json.Num (float_of_int r.failed));
    ("metrics", metrics_json r.metrics);
  ]

let print_result ~seed ~traced ~out (r : result) =
  List.iter
    (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" r.workload n v u)
    (r.metrics @ r.extra);
  Option.iter
    (fun file ->
      let record =
        Json.Obj
          ([ ("workload", Json.Str r.workload); ("seed", Json.Num (float_of_int seed));
             ("trace", Json.Num (if traced then 1.0 else 0.0)) ]
          @ List.filter (fun (k, _) -> k <> "metrics") (result_json r)
          @ [ ("metrics", metrics_json (r.metrics @ r.extra)) ])
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
          output_string oc (Json.to_string record ^ "\n")))
    out;
  print_endline (Json.to_string (Json.Obj (result_json r)))

(* ---------- compare ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [(name, (better, bound))] of BENCHMARK.json's end-to-end metrics. *)
let bounds bench =
  List.filter_map
    (fun m ->
      match (Json.member "name" m, Json.member "better" m, Json.member "bound" m) with
      | Some (Json.Str n), Some (Json.Str b), Some (Json.Num x) -> Some (n, (b, x))
      | _ -> None)
    (Json.to_list (Option.value (Json.member "end_to_end" bench) ~default:Json.Null))

(* (workload, metric) -> values, in file order. *)
let load_records file =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        let j = Json.of_string line in
        match (Json.member "workload" j, Json.member "metrics" j) with
        | Some (Json.Str w), Some (Json.Obj ms) ->
          List.iter
            (fun (m, v) ->
              match Option.bind (Json.member "value" v) Json.to_num with
              | Some x ->
                let prev = Option.value (Hashtbl.find_opt tbl (w, m)) ~default:[] in
                Hashtbl.replace tbl (w, m) (prev @ [ x ])
              | None -> ())
            ms
        | _ -> ())
    (String.split_on_char '\n' (read_file file));
  tbl

let quartile_spread l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = Stats.median l in
    if m = 0.0 then 0.0 else (Stats.percentile 75.0 l -. Stats.percentile 25.0 l) /. Float.abs m

(* Simulated-clock metrics and fail_frac are compared exactly (run both
   sides on the same seeds); wall-clock metrics against their bound. *)
let verdict ~exact ~higher ~bound base cand =
  let mb = median base and mc = median cand in
  let worse_by =
    if mb = 0.0 then 0.0 else (if higher then mb -. mc else mc -. mb) /. Float.abs mb
  in
  if exact then
    if mb = mc then "same" else if worse_by > 0.0 then "worse" else "better"
  else
    let spread = Float.max (quartile_spread base) (quartile_spread cand) in
    let beats a b = if higher then a > b else a < b in
    if spread > bound then
      if List.for_all (fun c -> List.for_all (fun b -> beats c b) base) cand then "better"
      else "unresolved"
    else if worse_by > bound then "worse"
    else if worse_by < -.bound then "better"
    else "same"

let compare_cmd bench_file files =
  let bounds = bounds (Json.of_string (read_file bench_file)) in
  let rules =
    List.map (fun (n, (b, x)) -> (n, (b = "higher", x))) bounds
    @ [ ("sim_capacity_rps", (true, 0.0)); ("fail_frac", (false, 0.0)) ]
  in
  match files with
  | [] | [ _ ] -> prerr_endline "compare: need a base file and at least one more"; 2
  | base_file :: rest ->
    let base = load_records base_file in
    let worse = ref false in
    List.iter
      (fun file ->
        let cand = load_records file in
        Printf.printf "%s vs %s\n%-12s %-22s %14s %14s %8s %8s  %s\n" base_file file "workload"
          "metric" "base" "new" "change" "spread" "verdict";
        List.iter
          (fun w ->
            List.iter
              (fun (m, (higher, bound)) ->
                match (Hashtbl.find_opt base (w, m), Hashtbl.find_opt cand (w, m)) with
                | Some b, Some c ->
                  let exact = String.starts_with ~prefix:"sim_" m || m = "fail_frac" in
                  let v = verdict ~exact ~higher ~bound b c in
                  if v = "worse" then worse := true;
                  let mb = median b and mc = median c in
                  Printf.printf "%-12s %-22s %14.6g %14.6g %7.2f%% %8s  %s\n" w m mb mc
                    (if mb = 0.0 then 0.0 else 100.0 *. (mc -. mb) /. Float.abs mb)
                    (if exact then "exact"
                     else
                       Printf.sprintf "%.2f%%"
                         (100.0 *. Float.max (quartile_spread b) (quartile_spread c)))
                    v
                | _ -> ())
              rules)
          W.names)
      rest;
    if !worse then 1 else 0

(* ---------- smoke test ---------- *)

let metric_names bench key =
  List.filter_map
    (fun m -> Option.bind (Json.member "name" m) Json.to_str)
    (Json.to_list (Option.value (Json.member key bench) ~default:Json.Null))

(* Every workload at a tiny scale: untraced and traced runs on one seed
   must both pass the correctness gate, emit every metric BENCHMARK.json
   names, and agree on every simulated-clock value. *)
let smoke bench_file =
  let bench = Json.of_string (read_file bench_file) in
  let failures = ref [] in
  let fail w what = failures := (w ^ ": " ^ what) :: !failures in
  List.iter
    (fun name ->
      let run traced =
        run_workload name ~scale:W.Tiny ~seed:7 ~seconds:0.0 ~traced ~trace_dir:None
      in
      let a = run false and b = run true in
      List.iter
        (fun (r, key) ->
          if not r.correct then fail name "correctness gate failed";
          List.iter
            (fun m ->
              if not (List.exists (fun (n, _, _) -> n = m) r.metrics) then
                fail name ("missing " ^ m))
            (metric_names bench key))
        [ (a, "end_to_end"); (b, "per_layer") ];
      if a.sim <> b.sim then fail name "simulated-clock values differ between same-seed runs")
    W.names;
  match !failures with
  | [] ->
    print_endline "benchmark smoke: ok";
    0
  | l ->
    List.iter prerr_endline (List.rev l);
    1

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    "usage: run.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] \
     [--out FILE]\n       run.exe compare BASE NEW...\n       run.exe smoke BENCHMARK.json";
  2

let main argv =
  match argv with
  | "compare" :: files -> compare_cmd "BENCHMARK.json" files
  | [ "smoke"; bench ] -> smoke bench
  | _ -> (
    let rec parse acc = function
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
      | [] -> Some acc
      | _ -> None
    in
    match parse [] argv with
    | None -> usage ()
    | Some opts -> (
      let known = [ "workload"; "seed"; "seconds"; "trace"; "trace-dir"; "out" ] in
      let get k = List.assoc_opt k opts in
      let seed = Option.bind (get "seed") int_of_string_opt
      and seconds = Option.bind (get "seconds") float_of_string_opt
      and trace = get "trace" in
      match (seed, seconds, trace) with
      | _ when List.exists (fun (k, _) -> not (List.mem k known)) opts -> usage ()
      | (None, _, _) when get "seed" <> None -> usage ()
      | (_, None, _) when get "seconds" <> None -> usage ()
      | (_, _, Some t) when t <> "0" && t <> "1" -> usage ()
      | _ -> (
        let seed = Option.value seed ~default:42
        and seconds = Option.value seconds ~default:15.0
        and traced = trace = Some "1" in
        match get "workload" with
        | Some name when List.mem name W.names ->
          let r =
            run_workload name ~scale:W.Full ~seed ~seconds ~traced ~trace_dir:(get "trace-dir")
          in
          print_result ~seed ~traced ~out:(get "out") r;
          if r.correct then 0 else 1
        | Some _ -> usage ()
        | None ->
          (* Each workload in its own process, one at a time. *)
          List.fold_left
            (fun code name ->
              let args = Array.of_list (Sys.executable_name :: "--workload" :: name :: argv) in
              let pid =
                Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr
              in
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> code
              | _ -> 1)
            0 W.names)))

let () =
  exit
    (try main (List.tl (Array.to_list Sys.argv)) with
     | Json.Parse_error e ->
       prerr_endline ("run.exe: malformed JSON: " ^ e);
       2
     | Sys_error e ->
       prerr_endline ("run.exe: " ^ e);
       2)
