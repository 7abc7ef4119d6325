(* Loop-level schedule search: plans preserve execution semantics
   bitwise (the tuner's core contract), canonical loop names are
   program-wide unique, tune_loops only returns feasible plans, and the
   serving engine's plan cache is deterministic and hit-correct. *)

open Cortex
module M = Models.Common

let gpu = Backend.gpu

(* ---------- QCheck: every schedule primitive preserves semantics ---------- *)

let models =
  [
    (fun () -> Models.Tree_rnn.spec ~vocab:20 ~hidden:4 ());
    (fun () -> Models.Tree_gru.spec ~vocab:20 ~hidden:4 ());
    (fun () -> Models.Tree_lstm.spec ~vocab:20 ~hidden:4 ());
    (fun () -> Models.Dag_rnn.spec ~rows:4 ~cols:3 ~hidden:4 ());
  ]

(* Bitwise equality of every declared output state at every root. *)
let outputs_equal (spec : M.t) compiled compiled' structure params =
  let e = Runtime.execute compiled ~params structure in
  let e' = Runtime.execute compiled' ~params structure in
  List.for_all
    (fun root ->
      List.for_all
        (fun st ->
          Tensor.max_abs_diff (Runtime.state e st root) (Runtime.state e' st root) = 0.0)
        spec.M.program.Ra.outputs)
    structure.Structure.roots

(* A directive pool drawn from the compiled program's own loop
   structure, covering every Schedule primitive the plan grammar can
   express.  Extent-sized tile factors always divide; factor-2 splits
   are legal on the constant-extent bind targets. *)
let directive_pool prog =
  List.concat
    [
      List.concat_map
        (fun l ->
          [
            Schedule.Bind { loop = l; kind = Ir.Vectorized };
            Schedule.Split { loop = l; factor = 2 };
            Schedule.Split_peeled { loop = l; factor = 2 };
            Schedule.Unroll { loop = l };
          ])
        (Tuner.bind_targets prog);
      List.concat_map
        (fun (o, i, eo, ei) ->
          [
            Schedule.Reorder { outer = o; inner = i };
            Schedule.Tile { outer = o; inner = i; factor_outer = eo; factor_inner = ei };
          ])
        (Tuner.tile_targets prog);
      List.map
        (fun (l, t, _) -> Schedule.Stage { loop = l; tensor = t })
        (Tuner.stage_targets prog);
    ]

let prop_plans_preserve_semantics =
  QCheck.Test.make ~count:30 ~name:"plans preserve execution bitwise"
    QCheck.(
      quad (int_range 0 (List.length models - 1)) (int_range 0 1000) (int_range 1 3)
        (int_range 0 1000))
    (fun (mi, seed, batch, pseed) ->
      let spec = (List.nth models mi) () in
      let structure = spec.M.dataset (Rng.create seed) ~batch in
      let params = spec.M.init_params (Rng.create (seed + 1)) in
      let compiled = Runtime.compile spec.M.program in
      let pool = directive_pool compiled.Lower.prog in
      if pool = [] then true
      else begin
        let rng = Rng.create pseed in
        let n = 1 + Rng.int rng 3 in
        let plan = List.init n (fun _ -> List.nth pool (Rng.int rng (List.length pool))) in
        match Lower.apply_plan plan compiled with
        | exception Schedule.Schedule_error _ ->
          (* an illegal combination is an infeasible candidate, exactly
             what the tuner prunes — not a counterexample *)
          true
        | compiled' -> outputs_equal spec compiled compiled' structure params
      end)

(* Plans generated by the tuner's own lattice must also be bitwise-safe
   (they are what the plan cache actually applies in serving). *)
let prop_tuner_lattice_preserves_semantics =
  QCheck.Test.make ~count:15 ~name:"tuner lattice plans preserve execution bitwise"
    QCheck.(triple (int_range 0 (List.length models - 1)) (int_range 0 1000) (int_range 0 50))
    (fun (mi, seed, pidx) ->
      let spec = (List.nth models mi) () in
      let structure = spec.M.dataset (Rng.create seed) ~batch:2 in
      let params = spec.M.init_params (Rng.create (seed + 1)) in
      let compiled = Runtime.compile spec.M.program in
      let plans = Tuner.loop_plans compiled in
      let plan = List.nth plans (pidx mod List.length plans) in
      match Lower.apply_plan plan compiled with
      | exception Schedule.Schedule_error _ -> true
      | compiled' -> outputs_equal spec compiled compiled' structure params)

(* ---------- canonical loop names ---------- *)

let test_canonical_names () =
  List.iter
    (fun mk ->
      let spec : M.t = mk () in
      let compiled = Runtime.compile spec.M.program in
      let names =
        List.concat_map
          (fun k -> Schedule.loop_names k.Ir.body)
          compiled.Lower.prog.Ir.kernels
      in
      Alcotest.(check int)
        (spec.M.name ^ " canonical names unique program-wide")
        (List.length names)
        (List.length (List.sort_uniq compare names));
      (* stable: recompiling yields the same names in the same order *)
      let compiled2 = Runtime.compile spec.M.program in
      let names2 =
        List.concat_map
          (fun k -> Schedule.loop_names k.Ir.body)
          compiled2.Lower.prog.Ir.kernels
      in
      Alcotest.(check (list string)) (spec.M.name ^ " names stable") names names2)
    models

(* ---------- tune_loops: feasibility and ranking ---------- *)

let test_tune_loops () =
  let spec = Models.Tree_lstm.spec ~vocab:50 ~hidden:8 () in
  let compiled = Runtime.compile spec.M.program in
  let structure = spec.M.dataset (Rng.create 7) ~batch:8 in
  let lin = Linearizer.run structure in
  let ranked = Tuner.tune_loops ~budget:12 compiled ~backend:gpu lin in
  Alcotest.(check bool) "non-empty" true (ranked <> []);
  Alcotest.(check bool) "default plan included" true
    (List.exists (fun (p, _) -> p = []) ranked);
  let us (_, r) = r.Runtime.latency.Backend.total_us in
  let rec sorted = function
    | a :: (b :: _ as tl) -> us a <= us b && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "fastest first" true (sorted ranked);
  (* every surviving plan re-applies cleanly and passes both
     feasibility checks (register pressure + on-chip capacity) *)
  List.iter
    (fun (p, r) ->
      let c = Lower.apply_plan p compiled in
      Alcotest.(check bool)
        (Printf.sprintf "feasible: %s" (Schedule.plan_to_string p))
        true
        (Tuner.plan_feasible ~backend:gpu c r))
    ranked;
  (* the winner is never slower than the default schedule *)
  let default_us =
    us (List.find (fun (p, _) -> p = []) ranked)
  in
  Alcotest.(check bool) "winner <= default" true (us (List.hd ranked) <= default_us)

(* ---------- plan cache: hits, determinism ---------- *)

let test_plan_cache () =
  let spec = Models.Tree_lstm.spec ~vocab:50 ~hidden:8 () in
  let compiled = Runtime.compile spec.M.program in
  let structure = spec.M.dataset (Rng.create 11) ~batch:8 in
  let lin = Linearizer.run structure in
  let nodes = lin.Linearizer.num_nodes in
  let pc = Plan_cache.create ~budget:12 () in
  let e1, hit1 = Plan_cache.find_or_tune pc ~compiled ~backend:gpu ~lin ~nodes in
  Alcotest.(check bool) "first request misses" false hit1;
  let e2, hit2 = Plan_cache.find_or_tune pc ~compiled ~backend:gpu ~lin ~nodes in
  Alcotest.(check bool) "second request hits" true hit2;
  Alcotest.(check string) "same entry"
    (Schedule.plan_to_string e1.Plan_cache.pe_plan)
    (Schedule.plan_to_string e2.Plan_cache.pe_plan);
  let st = Plan_cache.stats pc in
  Alcotest.(check int) "one class" 1 st.Plan_cache.pc_entries;
  Alcotest.(check int) "one hit" 1 st.Plan_cache.pc_hits;
  Alcotest.(check int) "one miss" 1 st.Plan_cache.pc_misses;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Plan_cache.hit_rate st);
  (* tuned never slower than the default schedule *)
  Alcotest.(check bool) "tuned <= default" true
    (e1.Plan_cache.pe_tuned_us <= e1.Plan_cache.pe_default_us);
  (* deterministic: a fresh cache on the same inputs tunes to the same
     plan with the same simulated latencies *)
  let pc2 = Plan_cache.create ~budget:12 () in
  let e3, _ = Plan_cache.find_or_tune pc2 ~compiled ~backend:gpu ~lin ~nodes in
  Alcotest.(check string) "same winning plan"
    (Schedule.plan_to_string e1.Plan_cache.pe_plan)
    (Schedule.plan_to_string e3.Plan_cache.pe_plan);
  Alcotest.(check (float 0.0)) "same tuned latency" e1.Plan_cache.pe_tuned_us
    e3.Plan_cache.pe_tuned_us;
  (* a different size class gets its own entry *)
  let structure2 = spec.M.dataset (Rng.create 12) ~batch:64 in
  let lin2 = Linearizer.run structure2 in
  ignore
    (Plan_cache.find_or_tune pc ~compiled ~backend:gpu ~lin:lin2
       ~nodes:lin2.Linearizer.num_nodes);
  Alcotest.(check int) "second class" 2 (Plan_cache.stats pc).Plan_cache.pc_entries

(* Packed multi-session windows key separately from regular windows of
   the same (backend, size class): their level-merged batch tables are
   shaped differently, so a plan tuned on one must never be silently
   reused for the other. *)
let test_plan_cache_packed () =
  let spec = Models.Tree_lstm.spec ~vocab:50 ~hidden:8 () in
  let compiled = Runtime.compile spec.M.program in
  let structure = spec.M.dataset (Rng.create 11) ~batch:8 in
  let lin = Linearizer.run structure in
  let nodes = lin.Linearizer.num_nodes in
  let pc = Plan_cache.create ~budget:12 () in
  let eu, hit_u = Plan_cache.find_or_tune pc ~compiled ~backend:gpu ~lin ~nodes in
  Alcotest.(check bool) "unpacked misses" false hit_u;
  (* Same backend, same size class, packed key space: a distinct entry
     (a fresh search), not a hit on the unpacked one. *)
  let ep, hit_p =
    Plan_cache.find_or_tune pc ~packed:true ~compiled ~backend:gpu ~lin ~nodes
  in
  Alcotest.(check bool) "packed first contact misses" false hit_p;
  Alcotest.(check bool) "packed entry flagged" true ep.Plan_cache.pe_packed;
  Alcotest.(check bool) "unpacked entry unflagged" false eu.Plan_cache.pe_packed;
  Alcotest.(check int) "two entries for one class" 2
    (Plan_cache.stats pc).Plan_cache.pc_entries;
  (* Both key spaces hit independently from here on. *)
  let _, hit_p2 =
    Plan_cache.find_or_tune pc ~packed:true ~compiled ~backend:gpu ~lin ~nodes
  in
  let _, hit_u2 = Plan_cache.find_or_tune pc ~compiled ~backend:gpu ~lin ~nodes in
  Alcotest.(check bool) "packed second contact hits" true hit_p2;
  Alcotest.(check bool) "unpacked still hits" true hit_u2;
  Alcotest.(check int) "still two entries" 2
    (Plan_cache.stats pc).Plan_cache.pc_entries;
  (* [entries] reports both, unpacked before packed within the class. *)
  match Plan_cache.entries pc with
  | [ a; b ] ->
    Alcotest.(check bool) "sorted unpacked first" false a.Plan_cache.pe_packed;
    Alcotest.(check bool) "sorted packed second" true b.Plan_cache.pe_packed
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

(* ---------- serving engine: autotune preserves results bitwise ---------- *)

let test_engine_autotune_bitwise () =
  let spec = Models.Tree_lstm.spec ~vocab:50 ~hidden:6 () in
  let params = spec.M.init_params (Rng.create 5) in
  let drain_with eng =
    let rng = Rng.create 17 in
    for _ = 1 to 6 do
      ignore (Engine.submit_exn eng (spec.M.dataset rng ~batch:2))
    done;
    Engine.drain eng
  in
  let plain = drain_with (Engine.of_spec ~config:(Engine.Config.make ~params ()) spec ~backend:gpu) in
  let tuned =
    drain_with (Engine.of_spec
      ~config:(Engine.Config.make ~params ~autotune:true ~tune_budget:12 ())
      spec ~backend:gpu)
  in
  Alcotest.(check int) "same completions"
    (List.length plain.Engine.results)
    (List.length tuned.Engine.results);
  List.iter2
    (fun (i, a) (j, b) ->
      Alcotest.(check int) "same request" i j;
      Alcotest.(check bool) "bitwise-identical output" true
        (Tensor.max_abs_diff a b = 0.0))
    plain.Engine.results tuned.Engine.results;
  (* the cache was consulted and reported *)
  Alcotest.(check bool) "plan reports present" true (tuned.Engine.plans <> []);
  (match tuned.Engine.plan_cache with
   | None -> Alcotest.fail "no plan-cache stats with autotune on"
   | Some st ->
     Alcotest.(check bool) "tuned at least one class" true (st.Plan_cache.pc_misses >= 1);
     List.iter
       (fun (pr : Engine.plan_report) ->
         Alcotest.(check bool) "per-class tuned <= default" true
           (pr.Engine.pr_tuned_us <= pr.Engine.pr_default_us))
       tuned.Engine.plans);
  Alcotest.(check bool) "autotune off reports nothing" true
    (plain.Engine.plans = [] && plain.Engine.plan_cache = None)

let () =
  Alcotest.run "schedule-search"
    [
      ( "semantics",
        [
          QCheck_alcotest.to_alcotest prop_plans_preserve_semantics;
          QCheck_alcotest.to_alcotest prop_tuner_lattice_preserves_semantics;
        ] );
      ( "canonical-names", [ Alcotest.test_case "unique-stable" `Quick test_canonical_names ] );
      ( "tuner", [ Alcotest.test_case "tune-loops" `Quick test_tune_loops ] );
      ( "plan-cache",
        [
          Alcotest.test_case "hits-determinism" `Quick test_plan_cache;
          Alcotest.test_case "packed-keyspace" `Quick test_plan_cache_packed;
        ] );
      ( "engine",
        [ Alcotest.test_case "autotune-bitwise" `Quick test_engine_autotune_bitwise ] );
    ]
