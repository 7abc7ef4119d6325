(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (run with no arguments, or name specific experiments), and
   exposes Bechamel microbenchmarks of the real compilation pipeline
   (--bechamel). *)

let usage () =
  print_endline "usage: main.exe [experiment ...] | --list | --bechamel";
  print_endline "experiments:";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) Experiments.all

(* Bechamel measures the actual wall-clock of the pieces that really
   execute on this machine: linearization, compilation, static costing
   and numerical interpretation. *)
let bechamel_tests () =
  let open Bechamel in
  let open Cortex in
  let module M = Models.Common in
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let structure = spec.M.dataset (Rng.create 7) ~batch:10 in
  let compiled = Runtime.compile spec.M.program in
  let small = Models.Tree_lstm.spec ~vocab:50 ~hidden:8 () in
  let small_structure = small.M.dataset (Rng.create 7) ~batch:2 in
  let small_compiled = Runtime.compile small.M.program in
  let small_params = small.M.init_params (Rng.create 8) in
  [
    Test.make ~name:"linearize-treelstm-bs10"
      (Staged.stage (fun () -> ignore (Linearizer.run structure)));
    Test.make ~name:"compile-treelstm"
      (Staged.stage (fun () ->
           ignore (Runtime.compile spec.M.program)));
    Test.make ~name:"cost+simulate-treelstm-bs10"
      (Staged.stage (fun () ->
           ignore (Runtime.simulate compiled ~backend:Backend.gpu structure)));
    Test.make ~name:"interpret-treelstm-h8-bs2"
      (Staged.stage (fun () ->
           ignore (Runtime.execute small_compiled ~params:small_params small_structure)));
  ]

let run_bechamel () =
  let open Bechamel in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let test = Bechamel.Test.make_grouped ~name:"cortex" ~fmt:"%s %s" (bechamel_tests ()) in
  let results = analyze (benchmark test) in
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-40s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    results

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--list" ] -> usage ()
  | [ "--bechamel" ] -> run_bechamel ()
  | [] ->
    print_endline "=== CORTEX evaluation reproduction (all experiments) ===\n";
    List.iter (fun (_, f) -> f ()) Experiments.all
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name Experiments.all with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %s\n" name;
          usage ();
          exit 1)
      names
