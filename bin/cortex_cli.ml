(* The cortex command-line tool: inspect and drive the compiler on the
   model zoo.

     cortex list
     cortex dump-ir TreeLSTM --hidden 4 --no-fuse
     cortex simulate TreeLSTM --backend gpu --batch 10 --size small
     cortex run TreeRNN --hidden 8 --batch 2
     cortex linearize --batch 10                                     *)

open Cortex
open Cmdliner
module M = Models.Common

let model_names =
  [ "TreeFC"; "DAG-RNN"; "TreeGRU"; "TreeLSTM"; "MV-RNN"; "TreeRNN"; "SimpleTreeGRU"; "LSTM"; "GRU" ]

let model_arg =
  let doc = "Model short name (see `cortex list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

let size_arg =
  let parse = function
    | "small" | "hs" -> Ok Models.Catalog.Small
    | "large" | "hl" -> Ok Models.Catalog.Large
    | s -> Error (`Msg ("unknown size " ^ s))
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with Models.Catalog.Small -> "small" | Models.Catalog.Large -> "large")
  in
  Arg.(value & opt (conv (parse, print)) Models.Catalog.Small & info [ "size" ] ~doc:"small (h_s) or large (h_l)")

let backend_arg =
  let parse = function
    | "gpu" -> Ok Backend.gpu
    | "intel" -> Ok Backend.intel
    | "arm" -> Ok Backend.arm
    | s -> Error (`Msg ("unknown backend " ^ s))
  in
  let print fmt (b : Backend.t) = Format.pp_print_string fmt b.Backend.short in
  Arg.(value & opt (conv (parse, print)) Backend.gpu & info [ "backend" ] ~doc:"gpu | intel | arm")

let batch_arg = Arg.(value & opt int 10 & info [ "batch" ] ~doc:"Number of inputs batched together")
let seed_arg = Arg.(value & opt int 2021 & info [ "seed" ] ~doc:"Dataset/parameter seed")

let options_flags =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let combine no_fuse no_spec no_batch no_persist unroll refactor =
    {
      Lower.default with
      Lower.fuse = not no_fuse;
      specialize = not no_spec;
      dynamic_batch = not no_batch;
      persist = not no_persist;
      unroll;
      refactor;
    }
  in
  Term.(
    const combine
    $ flag "no-fuse" "Disable kernel fusion"
    $ flag "no-specialize" "Disable specialization"
    $ flag "no-dynamic-batch" "Disable dynamic batching"
    $ flag "no-persist" "Disable model persistence"
    $ flag "unroll" "Unroll the recursion once"
    $ flag "refactor" "Apply recursive refactoring")

let list_cmd =
  let run () =
    List.iter
      (fun name ->
        let hs = Models.Catalog.hidden_of name Models.Catalog.Small in
        let hl = Models.Catalog.hidden_of name Models.Catalog.Large in
        Printf.printf "%-14s h_s=%-4d h_l=%d\n" name hs hl)
      model_names
  in
  Cmd.v (Cmd.info "list" ~doc:"List the model zoo") Term.(const run $ const ())

(* User errors (an unknown model, an option set the model cannot lower,
   a count below its minimum, an output path that cannot be written)
   are reported as [cortex: <message>] with exit 1, not as an uncaught
   exception.  Every model command reports through [die]. *)
let die msg =
  prerr_endline ("cortex: " ^ msg);
  exit 1

let at_least least flag n =
  if n < least then die (Printf.sprintf "%s must be at least %d, got %d" flag least n)

let positive = at_least 1
let non_negative = at_least 0

let get_spec ?hidden name size =
  Option.iter (positive "--hidden") hidden;
  match hidden with
  | None -> (
    try Models.Catalog.get name size with Invalid_argument _ -> die ("unknown model " ^ name))
  | Some h ->
    (match name with
     | "TreeFC" -> Models.Tree_fc.spec ~vocab:200 ~hidden:h ()
     | "TreeRNN" -> Models.Tree_rnn.spec ~vocab:200 ~hidden:h ()
     | "TreeLSTM" -> Models.Tree_lstm.spec ~vocab:200 ~hidden:h ()
     | "TreeGRU" -> Models.Tree_gru.spec ~vocab:200 ~hidden:h ()
     | "SimpleTreeGRU" -> Models.Tree_gru.spec ~vocab:200 ~simple:true ~hidden:h ()
     | "MV-RNN" -> Models.Mv_rnn.spec ~vocab:50 ~hidden:h ()
     | "DAG-RNN" -> Models.Dag_rnn.spec ~hidden:h ()
     | "LSTM" -> Models.Tree_lstm.spec ~vocab:200 ~sequence:true ~hidden:h ()
     | "GRU" -> Models.Tree_gru.spec ~vocab:200 ~sequence:true ~hidden:h ()
     | other -> die ("unknown model " ^ other))

let compile ~options (spec : M.t) =
  try Runtime.compile ~options spec.M.program
  with Lower.Lowering_error msg -> die msg

let dataset (spec : M.t) ~seed ~batch =
  positive "--batch" batch;
  spec.M.dataset (Rng.create seed) ~batch

let hidden_arg =
  Arg.(value & opt (some int) None & info [ "hidden" ] ~doc:"Override the hidden size")

let config_file_arg =
  Arg.(value & opt (some file) None
       & info [ "config" ] ~docv:"FILE"
           ~doc:"Engine configuration file: Engine.Config key=value lines \
                 (# comments and blank lines ignored)")

(* Returns the raw text alongside the parsed config: [serve] appends
   its flag lines to the text, [build] embeds the config's canonical
   text. *)
let load_config = function
  | None -> None
  | Some path ->
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Engine.Config.of_string text with
     | Ok c -> Some (text, c)
     | Error e ->
       prerr_endline ("config " ^ path ^ ": " ^ e);
       exit 1)

let size_name = function Models.Catalog.Small -> "small" | Models.Catalog.Large -> "large"

let dump_ir_cmd =
  let run name size hidden options =
    let spec = get_spec ?hidden name size in
    let compiled = compile ~options spec in
    print_string (Ir.program_to_string compiled.Lower.prog)
  in
  Cmd.v
    (Cmd.info "dump-ir" ~doc:"Print the lowered ILIR of a model")
    Term.(const run $ model_arg $ size_arg $ hidden_arg $ options_flags)

let dump_c_cmd =
  let run name size hidden options =
    let spec = get_spec ?hidden name size in
    let compiled = compile ~options spec in
    print_string (Emit_c.program compiled.Lower.prog)
  in
  Cmd.v
    (Cmd.info "dump-c" ~doc:"Print CUDA-flavoured code generated from the lowered ILIR")
    Term.(const run $ model_arg $ size_arg $ hidden_arg $ options_flags)

let simulate_cmd =
  let run name size batch seed backend options =
    let spec = get_spec name size in
    let structure = dataset spec ~seed ~batch in
    let compiled = compile ~options spec in
    let r = Runtime.simulate compiled ~backend structure in
    let l = r.Runtime.latency in
    Printf.printf "%s on %s, batch %d (%d nodes): %.3f ms\n" name backend.Backend.short batch
      r.Runtime.num_nodes (Runtime.total_ms r);
    Printf.printf "  compute %.1f us, barriers %d (%.1f us), launches %d (%.1f us), linearize %.1f us\n"
      l.Backend.compute_us l.Backend.barriers l.Backend.barrier_us l.Backend.kernel_launches
      l.Backend.launch_us r.Runtime.linearize_us;
    Printf.printf "  traffic: params %.0f KB, global %.0f KB, on-chip %.0f KB; device memory %.0f KB\n"
      (l.Backend.param_traffic_bytes /. 1024.)
      (l.Backend.global_traffic_bytes /. 1024.)
      (l.Backend.onchip_traffic_bytes /. 1024.)
      (r.Runtime.device_memory_bytes /. 1024.)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Compile a model and cost it on a simulated backend")
    Term.(const run $ model_arg $ size_arg $ batch_arg $ seed_arg $ backend_arg $ options_flags)

(* The benchmark's correctness tolerance; a NaN where recursion has a
   number (or the reverse) never agrees. *)
let agrees ~want got =
  Tensor.approx_equal ~tol:1e-9 want got
  && Array.for_all2 (fun w g -> Float.is_nan w = Float.is_nan g) want.Tensor.data got.Tensor.data

let run_cmd =
  let run name size batch seed hidden options =
    let hidden = Option.value hidden ~default:8 in
    let spec = get_spec ~hidden name size in
    let structure = dataset spec ~seed ~batch in
    let params = spec.M.init_params (Rng.create (seed + 1)) in
    let compiled = compile ~options spec in
    let execution = Runtime.execute compiled ~params structure in
    let reference = Ra_eval.run spec.M.program ~params structure in
    let out = List.hd spec.M.program.Ra.outputs in
    let differing =
      List.filteri
        (fun i root ->
          let got = Runtime.state execution out root in
          let want = Ra_eval.state reference out root in
          Printf.printf "root %d: %s = %s (max |diff| vs recursion %g)\n" i out
            (Tensor.to_string ~max_elems:6 got)
            (Tensor.max_abs_diff got want);
          not (agrees ~want got))
        structure.Structure.roots
    in
    if differing <> [] then begin
      Printf.eprintf "cortex: %d of %d roots differ from recursion beyond tolerance 1e-9\n"
        (List.length differing)
        (List.length structure.Structure.roots);
      exit 6
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a model numerically (small hidden sizes) and check it against recursion"
       ~exits:
         (Cmd.Exit.info 1 ~doc:"on an unknown model or an option set the model cannot lower."
         :: Cmd.Exit.info 6
              ~doc:"when any root's result differs from direct recursion by more than the \
                    1e-9 tolerance."
         :: Cmd.Exit.defaults))
    Term.(const run $ model_arg $ size_arg $ batch_arg $ seed_arg $ hidden_arg $ options_flags)

let linearize_cmd =
  let run batch seed =
    positive "--batch" batch;
    let rng = Rng.create seed in
    let datasets =
      [
        ("SST trees", Gen.sst_batch rng ~batch ());
        ("perfect trees h7", Gen.perfect_batch rng ~batch ~height:7 ());
        ("10x10 grid DAGs", Gen.grid_batch ~batch ~rows:10 ~cols:10);
        ("sequences len 100", Structure.merge (List.init batch (fun _ -> Gen.sequence rng ~len:100 ())));
      ]
    in
    List.iter
      (fun (label, s) ->
        let lin = Linearizer.run s in
        Linearizer.check lin;
        let us = Stats.min_time_us ~repeats:10 (fun () -> Linearizer.run s) in
        Printf.printf "%-18s %5d nodes, %3d batches, widest %4d: %7.2f us, %d bytes\n" label
          lin.Linearizer.num_nodes
          (Array.length lin.Linearizer.batches)
          (Array.fold_left (fun m (_, l) -> max m l) 0 lin.Linearizer.batches)
          us (Linearizer.memory_bytes lin))
      datasets
  in
  Cmd.v
    (Cmd.info "linearize" ~doc:"Linearize the standard datasets and report stats + wall time")
    Term.(const run $ batch_arg $ seed_arg)

let tune_cmd =
  let budget_arg =
    Arg.(value & opt int 16 & info [ "budget" ] ~doc:"Loop-plan candidates evaluated per options point (a count, so tuning is deterministic)")
  in
  let top_arg = Arg.(value & opt int 8 & info [ "top" ] ~doc:"How many ranked candidates to print") in
  let run name size batch seed backend budget top =
    positive "--budget" budget;
    non_negative "--top" top;
    let spec = get_spec name size in
    let structure = dataset spec ~seed ~batch in
    let ranked, wall_us =
      Stats.time_us (fun () -> Tuner.tune2 ~plan_budget:budget spec ~backend structure)
    in
    (match ranked with
     | [] ->
       prerr_endline "no feasible schedule";
       exit 1
     | best :: _ ->
       Printf.printf "%s on %s, batch %d: %d candidates in %.0f ms\n" name
         backend.Backend.short batch (List.length ranked) (wall_us /. 1000.0);
       List.iteri
         (fun i c ->
           if i < top then
             Printf.printf "  %2d. %9.1f us  %s\n" (i + 1)
               c.Tuner.pc_report.Runtime.latency.Backend.total_us
               (Tuner.pc_full_label c))
         ranked;
       (* The default schedule at the same options point, for the
          headline speedup. *)
       let default_us =
         match List.find_opt (fun c -> c.Tuner.pc_options = best.Tuner.pc_options && c.Tuner.pc_plan = []) ranked with
         | Some c -> c.Tuner.pc_report.Runtime.latency.Backend.total_us
         | None -> best.Tuner.pc_report.Runtime.latency.Backend.total_us
       in
       let tuned_us = best.Tuner.pc_report.Runtime.latency.Backend.total_us in
       Printf.printf "best: %s\n" (Tuner.pc_full_label best);
       Printf.printf "default %.1f us -> tuned %.1f us (%.1f%% faster)\n" default_us
         tuned_us
         (100.0 *. (default_us -. tuned_us) /. Float.max default_us 1e-9);
       (* Re-apply the winning plan from scratch and re-assert both
          feasibility checks (App. D registers + on-chip capacity) —
          what CI greps for. *)
       let compiled = Runtime.compile ~options:best.Tuner.pc_options spec.M.program in
       let applied = Lower.apply_plan best.Tuner.pc_plan compiled in
       let report = Runtime.simulate applied ~backend structure in
       let ok = Tuner.plan_feasible ~backend applied report in
       Printf.printf "feasible: %s\n" (if ok then "yes" else "no");
       if not ok then exit 1)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Two-level schedule search (recursion options x loop plans) for a model on a backend; prints the ranked plans and re-asserts the winner's feasibility")
    Term.(const run $ model_arg $ size_arg $ batch_arg $ seed_arg $ backend_arg $ budget_arg $ top_arg)

let build_cmd =
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the bundle")
  in
  let tune_flag =
    Arg.(value & flag
         & info [ "tune" ]
             ~doc:"Run the loop-schedule search on a sample linearization and bundle the \
                   winning plan, so serving's first window of that size-class is a cache hit")
  in
  let tune_budget_arg =
    Arg.(value & opt int 16
         & info [ "tune-budget" ]
             ~doc:"Candidate plans evaluated when --tune is set (a count, so builds are \
                   reproducible)")
  in
  let run name size batch seed hidden backend options out tune tune_budget config_file =
    positive "--tune-budget" tune_budget;
    let spec = get_spec ?hidden name size in
    let compiled = compile ~options spec in
    let structure = dataset spec ~seed ~batch in
    let lin = Linearizer.run structure in
    let plans =
      if not tune then []
      else
        match Tuner.tune_loops ~budget:tune_budget compiled ~backend lin with
        | [] -> []
        | ((best_plan, best_report) :: _) as ranked ->
          let us (r : Runtime.report) = r.Runtime.latency.Backend.total_us in
          let default_us =
            match List.find_opt (fun (p, _) -> p = []) ranked with
            | Some (_, r) -> us r
            | None -> us best_report
          in
          [
            {
              Bundle.bp_backend = backend.Backend.short;
              bp_bucket = Dispatch.size_bucket lin.Linearizer.num_nodes;
              bp_plan = best_plan;
              bp_default_us = default_us;
              bp_tuned_us = us best_report;
            };
          ]
    in
    let weights = Checkpoint.of_spec spec ~seed in
    let config =
      match load_config config_file with
      | None -> ""
      | Some (_, c) -> Engine.Config.to_string c
    in
    (* The bundle's own manifest numbers are static (compile-time
       constant extents only); the sample linearization's UF resolver
       also gives the concrete planned-vs-worst footprint, recorded as
       extra manifest entries. *)
    let ufs = Lower.bind_ufs compiled lin in
    let mp =
      Mem_plan.plan ~uf:ufs.Lower.uf_resolver
        ~spaces:[ Ir.Shared; Ir.Register ] compiled.Lower.prog
    in
    let b =
      Bundle.create ~config ~plans ~weights
        ~extra_manifest:
          [
            ("sample_nodes", string_of_int lin.Linearizer.num_nodes);
            ("resolved_planned_onchip_bytes", string_of_int mp.Mem_plan.arena_bytes);
            ("resolved_worst_onchip_bytes", string_of_int mp.Mem_plan.worst_bytes);
          ]
        ~model:name ~size:(size_name size) ~backend:backend.Backend.short compiled
    in
    let bytes =
      try
        Bundle.save out b;
        In_channel.with_open_bin out In_channel.length
      with Sys_error msg -> die msg
    in
    Printf.printf "%s: %s/%s for %s, %Ld bytes, digest %s\n" out name (size_name size)
      backend.Backend.short bytes b.Bundle.b_digest;
    Printf.printf "  plans: %d, weights: %d tensors\n" (List.length plans)
      (List.length weights);
    Printf.printf
      "  on-chip: planned %d / worst %d bytes static, %d / %d resolved on %d sample nodes\n"
      b.Bundle.b_planned_onchip_bytes b.Bundle.b_worst_onchip_bytes mp.Mem_plan.arena_bytes
      mp.Mem_plan.worst_bytes lin.Linearizer.num_nodes
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Ahead-of-time compile a model into a serving bundle: the lowered program, \
             optionally a tuned loop plan, and the seeded parameter table")
    Term.(
      const run $ model_arg $ size_arg $ batch_arg $ seed_arg $ hidden_arg $ backend_arg
      $ options_flags $ out_arg $ tune_flag $ tune_budget_arg $ config_file_arg)

let inspect_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Bundle file to inspect.")
  in
  let run file =
    match Bundle.inspect file with
    | info -> print_string (Bundle.info_to_string info)
    | exception Bundle.Error e ->
      prerr_endline (file ^ ": " ^ Bundle.error_to_string e);
      exit 1
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Validate a bundle's header bounds and content digest and print its manifest, \
             sections, tuned plans and weight shapes — without unmarshalling the program")
    Term.(const run $ file_arg)

(* The serve flags whose text is an [Engine.Config] key's value: each
   given flag becomes the line [key=TEXT], parsed by the key table.
   (flag, key, docv, doc) *)
let setting_flags =
  [
    ("max-batch", "max_batch", "N", "Close a batch window at this many requests (default 8)");
    ("max-wait-us", "max_wait_us", "US", "Close a partial window after this wait (default 200)");
    ("dispatch", "selection", "POLICY",
     "round-robin | least-loaded | size-affinity (default round-robin)");
    ("device-list", "devices", "LIST",
     "Comma-separated heterogeneous device list (e.g. gpu,gpu,intel); overrides --devices");
    ("faults", "faults", "SPEC",
     "Fault spec, e.g. 'failstop@1:5000;transient@*:0.05,0,1e6;straggler@0:3,2000,8000'. \
      Faults are drawn from --seed, so the run stays deterministic");
    ("queue-cap", "queue_cap", "N", "Shed submissions past this queue depth");
    ("degrade-watermark", "degrade_watermark", "N",
     "Degrade the batching policy (halve max-batch, force by-size) past this queue depth");
    ("seed", "seed", "N", "Trace/fault/parameter seed (default 2021)");
    ("tune-budget", "tune_budget", "N",
     "Candidate plans evaluated per size-class (a count, not wall time; default 16)");
    ("session-budget", "sessions.budget_bytes", "BYTES",
     "Bound the session table at this many accounted bytes (layout plus pinned state \
      rows); least-recently-used sessions past it are evicted, their state spilled for \
      re-admission (default unbounded)");
    ("session-ttl-us", "sessions.ttl_us", "US",
     "Expire sessions idle past this many simulated microseconds (default never)");
    ("session-spill-dir", "sessions.spill_dir", "DIR",
     "Write evicted session state as one .csx file per session under DIR (created on \
      first spill) instead of holding spills in memory — lets a conversation survive an \
      engine restart");
    ("session-pack", "sessions.pack_window", "N",
     "Merge up to N concurrent sessions' delta tokens into one packed forest window per \
      drain tick (same pinned device, level batches unioned, one kernel-launch sequence \
      for the whole pack); results stay bitwise identical to unpacked serving (default 1 \
      = off)");
    ("session-pack-wait-us", "sessions.pack_wait_us", "US",
     "How far past a pack's first token arrival a later session token may land and \
      still join the pack (default 0 = same-instant tokens only)");
  ]

(* The given setting flags as (key, text) pairs, in [setting_flags]
   order. *)
let settings_term =
  List.fold_right
    (fun (name, key, docv, doc) rest ->
      let arg =
        Arg.(value & opt (some string) None
             & info [ name ] ~docv ~doc:(Printf.sprintf "%s; key $(b,%s)" doc key))
      in
      Term.(
        const (fun v rest -> match v with Some v -> (key, v) :: rest | None -> rest)
        $ arg $ rest))
    setting_flags (Term.const [])

let serve_cmd =
  let rps_arg = Arg.(value & opt float 2000.0 & info [ "rps" ] ~doc:"Offered load, requests per second") in
  let duration_arg = Arg.(value & opt float 50.0 & info [ "duration-ms" ] ~doc:"Simulated trace duration") in
  let bucketed_arg =
    Arg.(value & flag
         & info [ "bucketed" ]
             ~doc:"Bucket windows by request size (power-of-two node counts) instead of FIFO; \
                   the line $(b,bucketing=by_size)")
  in
  let devices_arg =
    Arg.(value & opt (some int) None
         & info [ "devices" ] ~docv:"N"
             ~doc:"Shard the engine across N copies of --backend (default 1); the line \
                   $(b,devices=) with N backend names, which --device-list overrides")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-us" ] ~doc:"Per-request completion deadline, relative to arrival")
  in
  let profile_arg =
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"FILE"
             ~doc:"Record the run as a Chrome trace (open in chrome://tracing or Perfetto) and write it here")
  in
  let metrics_arg =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Print the drain's metrics snapshot (counters, gauges, histograms)")
  in
  let logical_clock_arg =
    Arg.(value & flag
         & info [ "logical-clock" ]
             ~doc:"Timestamp wall-clock spans with a logical tick counter instead of real host time: \
                   deterministic, byte-diffable traces (what CI compares)")
  in
  let autotune_arg =
    Arg.(value & flag
         & info [ "autotune" ]
             ~doc:"Tune a loop-schedule plan per (device backend, size-class) on first contact and reuse it; \
                   the plan report below is a pure function of (seed, trace); the line \
                   $(b,autotune=true)")
  in
  let bundle_arg =
    Arg.(value & opt (some file) None
         & info [ "bundle" ] ~docv:"FILE"
             ~doc:"Serve from an ahead-of-time bundle (`cortex build') instead of compiling: \
                   the artifact is installed as-is and zero lowering passes run")
  in
  let sessions_arg =
    Arg.(value & opt int 0
         & info [ "sessions" ]
             ~doc:"Interleave this many growing conversations with the trace: each is pinned \
                   to a device and its grow-by-one tokens are served as delta extensions \
                   (one cold window, then cached-numbering reuse plus persisted hidden states)")
  in
  let session_tokens_arg =
    Arg.(value & opt int 16
         & info [ "session-tokens" ]
             ~doc:"Tokens each session grows by over the trace, at least 1 (default 16)")
  in
  let slo_miss_budget_arg =
    Arg.(value & opt (some float) None
         & info [ "slo-miss-budget" ]
             ~doc:"Fail the run (distinct exit codes) on SLO damage: exit 3 when any \
                   request was lost, exit 4 when the deadline-miss fraction exceeds \
                   this budget — so CI chaos steps fail on regressions instead of \
                   only diffing stdout")
  in
  let run name size backend options rps duration_ms num_devices bucketed autotune
      settings deadline_us profile metrics logical_clock bundle sessions session_tokens
      config_file slo_miss_budget =
    non_negative "--sessions" sessions;
    positive "--session-tokens" session_tokens;
    Option.iter
      (fun b ->
        if not (b >= 0.0 && b <= 1.0) then
          die (Printf.sprintf "--slo-miss-budget must be in [0, 1], got %g" b))
      slo_miss_budget;
    let spec = get_spec name size in
    let bundle_loaded =
      match bundle with
      | None -> None
      | Some file -> (
        try Some (Bundle.load file)
        with Bundle.Error e ->
          prerr_endline ("bundle: " ^ Bundle.error_to_string e);
          exit 1)
    in
    (* The engine settings are one config text: serve's historical seed,
       then the source (the --config file, else the bundle's embedded
       config), then one line per engine flag given.  [of_string] lets a
       later line win, so a flag beats the file, the file (or bundle)
       beats seed=2021, and every key left unset keeps its default. *)
    let source =
      match (load_config config_file, bundle_loaded) with
      | Some (text, _), _ -> text
      | None, Some b -> (
        match Engine.Config.of_string b.Bundle.b_config with
        | Ok _ -> b.Bundle.b_config
        | Error reason ->
          prerr_endline
            ("bundle: "
            ^ Bundle.error_to_string (Bundle.Corrupt_section { section = "config"; reason }));
          exit 1)
      | None, None -> ""
    in
    (* --devices N is N copies of --backend; its line goes before
       --device-list's, so the list wins. *)
    let copies n = String.concat "," (List.init (max 0 n) (fun _ -> backend.Backend.short)) in
    let flag_lines =
      List.concat
        [
          (match num_devices with Some n -> [ ("devices", copies n) ] | None -> []);
          (if bucketed then [ ("bucketing", "by_size") ] else []);
          (if options <> Lower.default then [ ("options", Lower.options_to_string options) ]
           else []);
          (if autotune then [ ("autotune", "true") ] else []);
          settings;
        ]
      |> List.map (fun (key, v) ->
             (* A newline or tab would start another key's line. *)
             if String.exists (fun c -> c = '\n' || c = '\t') v then
               die (Printf.sprintf "config: %s wants one line, got %S" key v);
             key ^ "=" ^ v)
    in
    let obs =
      if profile <> None || metrics then
        Some (Obs.create ~clock:(if logical_clock then Obs.Logical else Obs.Measured) ())
      else None
    in
    let config =
      match Engine.Config.of_string (String.concat "\n" ("seed=2021" :: source :: flag_lines)) with
      | Ok c -> Engine.Config.make ~base:c ?obs ()
      | Error e -> die e
    in
    let engine =
      try
        match bundle_loaded with
        | Some b -> Engine.of_bundle ~config ~expect_model:name b ~backend
        | None -> Engine.of_spec ~config spec ~backend
      with
      | Bundle.Error e ->
        prerr_endline ("bundle: " ^ Bundle.error_to_string e);
        exit 1
      | Invalid_argument msg | Lower.Lowering_error msg -> die msg
    in
    let policy = config.Engine.Config.dispatch.Engine.Config.batching in
    let devices =
      Option.value config.Engine.Config.dispatch.Engine.Config.devices ~default:[ backend ]
    in
    let seed = config.Engine.Config.reliability.Engine.Config.seed in
    let trace =
      try
        Trace.poisson ?deadline_us (Rng.create seed) ~rate_rps:rps ~duration_ms
          ~gen:(fun rng -> spec.M.dataset rng ~batch:1)
      with Invalid_argument msg -> die msg
    in
    (* Growing conversations ride along with the trace: their tokens are
       queued up front (the drain plays everything in arrival order),
       each under its own pinned session.  Payloads must stay inside the
       model's embedding table — [Gen.grow_one] stamps internal nodes
       with payload [vocab], so vocab is the table extent minus one. *)
    if sessions > 0 then begin
      let vocab =
        match
          List.find_opt
            (fun (n, _) -> n = "Emb" || n = "X")
            spec.M.program.Ra.params
        with
        | Some (_, ext :: _) -> max 1 (ext - 1)
        | _ -> 16
      in
      let kind = spec.M.program.Ra.kind in
      let span_us = duration_ms *. 1000.0 in
      for i = 0 to sessions - 1 do
        let rng = Rng.create (seed + (31 * i) + 1) in
        let g = Gen.growth_start rng ~vocab ~kind () in
        let submit j s =
          let arrival =
            (span_us *. float_of_int j /. float_of_int session_tokens)
            +. (7.0 *. float_of_int i)
          in
          match
            Engine.submit engine ~arrival_us:arrival
              ?deadline_us:(Option.map (fun d -> arrival +. d) deadline_us)
              ~session:(Printf.sprintf "chat-%d" i) s
          with
          | Ok _ | Error (Engine.Shed _) -> ()
          | Error e -> die (Engine.error_to_string e)
        in
        submit 0 (Gen.growth_structure g);
        for j = 1 to session_tokens do
          submit j (Gen.grow_one rng g)
        done
      done
    end;
    let s = Engine.run_trace engine trace in
    let a = s.Engine.aggregate in
    Printf.printf "%s on %s: %d requests (%d nodes) over %.1f ms, policy max_batch=%d max_wait=%.0fus %s\n"
      name
      (String.concat "+" (List.map (fun (b : Backend.t) -> b.Backend.short) devices))
      a.Engine.num_requests (Trace.num_nodes trace) duration_ms
      policy.Engine.max_batch policy.Engine.max_wait_us
      (match policy.Engine.bucketing with Engine.By_size -> "by-size" | Engine.Fifo -> "fifo");
    Printf.printf "  %d windows (mean %.1f req/window), throughput %.0f req/s, dispatch %s\n"
      a.Engine.num_windows a.Engine.mean_window a.Engine.throughput_rps
      (Dispatch.policy_to_string config.Engine.Config.dispatch.Engine.Config.selection);
    Printf.printf "  latency mean %.1f us, p50 %.1f us, p99 %.1f us, makespan %.2f ms\n"
      a.Engine.mean_us a.Engine.p50_us a.Engine.p99_us (a.Engine.makespan_us /. 1000.0);
    let c = s.Engine.cache in
    Printf.printf "  shape cache: %d hits / %d misses (%.0f%% hit rate), %d shapes cached\n"
      c.Shape_cache.hits c.Shape_cache.misses
      (100.0 *. Shape_cache.hit_rate c)
      c.Shape_cache.entries;
    (* Plan-cache report: every number below comes from the simulated
       clock or a counter, never the tuning wall time, so two seeded
       runs print byte-identical lines (what CI diffs). *)
    (match s.Engine.plan_cache with
     | None -> ()
     | Some pc ->
       Printf.printf "  plan cache: %d classes, %d hits / %d misses (%.0f%% hit rate)\n"
         pc.Plan_cache.pc_entries pc.Plan_cache.pc_hits pc.Plan_cache.pc_misses
         (100.0 *. Plan_cache.hit_rate pc);
       List.iter
         (fun (p : Engine.plan_report) ->
           Printf.printf
             "  plan %-5s class %d: default %8.1f us -> tuned %8.1f us (%4.1f%% faster)  %s\n"
             p.Engine.pr_backend p.Engine.pr_bucket p.Engine.pr_default_us
             p.Engine.pr_tuned_us
             (100.0 *. (p.Engine.pr_default_us -. p.Engine.pr_tuned_us)
              /. Float.max p.Engine.pr_default_us 1e-9)
             p.Engine.pr_plan)
         s.Engine.plans);
    let slo = s.Engine.slo in
    Printf.printf "  slo: seed %d%s, completed %d, lost %d, shed %d, rejected %d\n"
      slo.Engine.slo_seed
      (if slo.Engine.slo_degraded then " (degraded)" else "")
      slo.Engine.slo_completed slo.Engine.slo_lost slo.Engine.slo_shed
      slo.Engine.slo_rejected;
    Printf.printf "  faults: %d transient aborts, %d retries, %d failovers\n"
      slo.Engine.slo_transients slo.Engine.slo_retries slo.Engine.slo_failovers;
    Printf.printf "  deadlines: %d on-time, %d missed, goodput %.0f req/s\n"
      slo.Engine.slo_on_time slo.Engine.slo_deadline_misses slo.Engine.slo_goodput_rps;
    List.iter
      (fun (d : Engine.device_report) ->
        Printf.printf
          "  device %d (%-5s): %3d windows, %4d req, %6d nodes, busy %8.1f us, util %3.0f%%, occupancy %3.0f%%\n"
          d.Engine.dr_index d.Engine.dr_backend.Backend.short d.Engine.dr_windows
          d.Engine.dr_requests d.Engine.dr_nodes d.Engine.dr_busy_us
          (100.0 *. d.Engine.dr_utilization)
          (100.0 *. d.Engine.dr_occupancy))
      s.Engine.device_reports;
    (* Per-session counters: everything here is a deterministic count
       (never a wall time), so two seeded runs print identical lines. *)
    List.iter
      (fun (sn : Engine.session_report) ->
        Printf.printf
          "  session %s: %d nodes, %d windows (%d cold, %d delta), %d delta nodes, \
           %d materializations, %d rebinds, device %d, %d packed, %d deadline misses\n"
          sn.Engine.sn_name sn.Engine.sn_nodes sn.Engine.sn_windows
          sn.Engine.sn_cold sn.Engine.sn_extends sn.Engine.sn_delta_nodes
          sn.Engine.sn_materializations sn.Engine.sn_rebinds sn.Engine.sn_device
          sn.Engine.sn_packed sn.Engine.sn_deadline_misses)
      s.Engine.sessions;
    (* Packed-window counters: only under a pack window, so runs that
       never enabled packing (and the CI steps diffing their stdout)
       print exactly what they always did. *)
    (let cfg = Engine.config engine in
     if cfg.Engine.Config.sessions.Session_store.pack_window > 1 then
       Printf.printf "  packing: %d packed windows, %d session tokens packed\n"
         s.Engine.packed_windows s.Engine.packed_tokens);
    (* Session-table line: only under a bound, so unbounded runs (and
       the CI steps that diff their stdout) keep printing exactly what
       they always did.  Everything here is a count or a priced cost —
       deterministic under a seed. *)
    (let st = s.Engine.session_table in
     if st.Session_store.st_budget_bytes <> None || st.Session_store.st_evictions > 0
     then
       Printf.printf
         "  session table: %d live (%d bytes%s), %d evictions (%d expired), %d spills \
          (%d bytes, %.1f us), %d restores (%.1f us)\n"
         st.Session_store.st_live st.Session_store.st_bytes
         (match st.Session_store.st_budget_bytes with
          | Some b -> Printf.sprintf " / budget %d" b
          | None -> "")
         st.Session_store.st_evictions st.Session_store.st_expired
         st.Session_store.st_spills st.Session_store.st_spilled_bytes
         st.Session_store.st_spill_us st.Session_store.st_restores
         st.Session_store.st_restore_us);
    (* A few sample requests to show the per-request breakdown. *)
    let sample = List.filteri (fun i _ -> i < 5) s.Engine.requests in
    List.iter
      (fun (r : Engine.request_report) ->
        Printf.printf
          "  req %2d (%3d nodes) window %d/%d dev %d: queue %7.1f us, linearize %5.1f us, device %7.1f us, total %8.1f us\n"
          r.Engine.rr_id r.Engine.rr_nodes r.Engine.rr_window r.Engine.rr_window_size
          r.Engine.rr_device r.Engine.rr_queue_us r.Engine.rr_linearize_us
          r.Engine.rr_device_us r.Engine.rr_total_us)
      sample;
    (if metrics then
       match s.Engine.metrics with
       | Some snap ->
         print_string "  metrics:\n";
         String.split_on_char '\n' (Metrics.render snap)
         |> List.iter (fun line -> if line <> "" then Printf.printf "    %s\n" line)
       | None -> ());
    (match (profile, obs) with
     | Some path, Some o ->
       let events = Obs.events o in
       (* Validate before writing: a profile the checker rejects is an
          exporter bug, and silently shipping it would defeat CI. *)
       (match Obs_validate.check events with
        | Ok () ->
          Obs.write_json o path;
          Printf.printf "  profile: %d events -> %s\n" (List.length events) path
        | Error e ->
          prerr_endline ("profile failed validation: " ^ Obs_validate.error_to_string e);
          exit 1)
     | _ -> ());
    (* SLO gate: only when the flag is given, so existing runs (and the
       CI chaos steps that diff stdout) keep exiting 0.  Lost requests
       are unconditionally fatal (exit 3) — no budget excuses dropped
       work; deadline misses are budgeted as a fraction of completions
       (exit 4). *)
    match slo_miss_budget with
    | None -> ()
    | Some budget ->
      if slo.Engine.slo_lost > 0 then (
        Printf.eprintf "slo: %d request(s) lost, over any budget\n" slo.Engine.slo_lost;
        exit 3);
      let miss_frac =
        float_of_int slo.Engine.slo_deadline_misses
        /. float_of_int (max 1 slo.Engine.slo_completed)
      in
      if miss_frac > budget then (
        Printf.eprintf "slo: deadline-miss fraction %.4f exceeds budget %.4f\n" miss_frac
          budget;
        exit 4)
  in
  let man =
    [
      `S "ENGINE SETTINGS";
      `P "Each engine flag given becomes one $(b,key=value) line of Engine.Config's text \
          form: the key is named in the flag's doc, --devices N lists N backend names, \
          and the schedule flags become one $(b,options) line when they differ from the \
          default.  The text parsed is $(b,seed=2021), then the --config file (else the \
          bundle's embedded config), then the flag lines.  A later line wins, so a flag \
          beats the file or bundle, and they beat serve's seed and the defaults.";
      `P "A malformed flag value is reported by its key's parser, as in \
          $(b,cortex: config: max_batch wants an integer, got \"x\").  A value the \
          engine rejects (an empty device list, $(b,max_batch=0), a fault on a missing \
          device), options the model cannot lower and a bad trace argument \
          ($(b,--rps 0)) print $(b,cortex:) and the reason.  Each exits 1.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~man
       ~doc:"Replay a synthetic Poisson trace through the (optionally sharded) serving engine and report latency/throughput")
    Term.(
      const run $ model_arg $ size_arg $ backend_arg $ options_flags $ rps_arg $ duration_arg
      $ devices_arg $ bucketed_arg $ autotune_arg $ settings_term $ deadline_arg
      $ profile_arg $ metrics_arg $ logical_clock_arg $ bundle_arg $ sessions_arg
      $ session_tokens_arg $ config_file_arg $ slo_miss_budget_arg)

let validate_trace_cmd =
  let file_arg =
    let doc = "Chrome trace-event JSON file to check." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let ic = open_in_bin file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Chrome_trace.parse text with
    | Error reason ->
      prerr_endline ("parse error: " ^ reason);
      exit 1
    | Ok events -> (
      match Obs_validate.check events with
      | Ok () -> Printf.printf "%s: OK (%d events)\n" file (List.length events)
      | Error e ->
        prerr_endline (file ^ ": " ^ Obs_validate.error_to_string e);
        exit 1)
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:"Check a Chrome trace-event file against the profile invariants (monotone tracks, balanced nesting, drain containment)")
    Term.(const run $ file_arg)

let fmeca_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (the whole ranking is a pure function of it).")
  in
  let grammar_arg =
    Arg.(value & opt (some string) None
         & info [ "grammar" ] ~docv:"FAMILIES"
             ~doc:"Comma-separated component families to sweep (e.g. \
                   $(b,transient,queue)); default: the full grid.  \
                   $(b,list) prints the families and modes without running.")
  in
  let top_arg =
    Arg.(value & opt int 3
         & info [ "top" ] ~docv:"K" ~doc:"How many top-ranked modes get a Chrome trace under $(b,--trace-out).")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"DIR"
             ~doc:"Write validated Chrome traces for the top-$(b,K) ranked modes \
                   into this directory as $(i,fmeca_<mode>.json).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the ranking as JSON lines (the $(i,BENCH_fmeca.json) artifact).")
  in
  let baseline_arg =
    Arg.(value & opt (some file) None
         & info [ "baseline-diff" ] ~docv:"FILE"
             ~doc:"Diff the ranking against a previously committed JSON artifact; \
                   any rank change prints the moves and exits 5.")
  in
  let run seed families_opt top trace_out out baseline =
    non_negative "--top" top;
    let families =
      Option.map
        (fun s ->
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun f -> f <> ""))
        families_opt
    in
    (match families with
     | Some [ "list" ] ->
       Printf.printf "families: %s\n" (String.concat ", " (Fmeca.families ()));
       List.iter
         (fun (m : Fmeca.mode) ->
           Printf.printf "  %-18s %-10s rate %-6g %s%s\n" m.Fmeca.fm_id m.Fmeca.fm_family
             m.Fmeca.fm_rate m.Fmeca.fm_desc
             (if m.Fmeca.fm_grammar = "" then "" else "  [" ^ m.Fmeca.fm_grammar ^ "]"))
         (Fmeca.modes ());
       exit 0
     | _ -> ());
    let res = Fmeca.run ?families ~seed () in
    print_string (Fmeca.table res);
    (match out with
     | None -> ()
     | Some path ->
       let oc = open_out path in
       output_string oc (Fmeca.json_lines res);
       close_out oc;
       Printf.printf "ranking: %d modes -> %s\n" (List.length res.Fmeca.res_rows) path);
    (match trace_out with
     | None -> ()
     | Some dir ->
       (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
       List.filteri (fun i _ -> i < top) res.Fmeca.res_rows
       |> List.iter (fun (sc : Fmeca.score) ->
              let m = sc.Fmeca.sc_mode in
              let _, events = Fmeca.run_mode ~seed m in
              (* Same contract as serve --profile: a trace the checker
                 rejects is an exporter bug, not an artifact. *)
              match Obs_validate.check events with
              | Error e ->
                prerr_endline
                  (m.Fmeca.fm_id ^ ": trace failed validation: "
                  ^ Obs_validate.error_to_string e);
                exit 1
              | Ok () ->
                let path = Filename.concat dir ("fmeca_" ^ m.Fmeca.fm_id ^ ".json") in
                let oc = open_out path in
                output_string oc (Chrome_trace.to_json events);
                close_out oc;
                Printf.printf "trace: %-18s %4d events -> %s\n" m.Fmeca.fm_id
                  (List.length events) path));
    match baseline with
    | None -> ()
    | Some path ->
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Fmeca.load_ranking text with
       | Error reason ->
         prerr_endline (path ^ ": " ^ reason);
         exit 1
       | Ok baseline -> (
         match Fmeca.diff_ranking ~baseline res with
         | [] -> Printf.printf "ranking matches %s\n" path
         | moves ->
           Printf.eprintf "ranking changed against %s:\n" path;
           List.iter (fun line -> Printf.eprintf "  %s\n" line) moves;
           exit 5))
  in
  Cmd.v
    (Cmd.info "fmeca"
       ~doc:"Run the FMECA reliability campaign: one seeded chaos run per failure mode, ranked by severity x occurrence x detectability")
    Term.(const run $ seed_arg $ grammar_arg $ top_arg $ trace_out_arg $ out_arg $ baseline_arg)

let () =
  let info = Cmd.info "cortex" ~doc:"Cortex: a compiler for recursive deep learning models" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; dump_ir_cmd; dump_c_cmd; simulate_cmd; run_cmd; linearize_cmd; tune_cmd;
            build_cmd; inspect_cmd; serve_cmd; validate_trace_cmd; fmeca_cmd ]))
