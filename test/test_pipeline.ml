(* End-to-end pipeline tests: the compiled loop-based execution must
   agree with the direct recursive evaluation of the RA program on
   every structure, for every combination of scheduling options. *)

module Rng = Cortex_util.Rng
module Tensor = Cortex_tensor.Tensor
module Gen = Cortex_ds.Gen
module Structure = Cortex_ds.Structure
module Linearizer = Cortex_linearizer.Linearizer
module Interp = Cortex_ilir.Interp
module Ra = Cortex_ra.Ra
module Ra_eval = Cortex_ra.Ra_eval
module Lower = Cortex_lower.Lower

let hidden = 8
let vocab1 = Gen.vocab_size + 1

(* A child-sum TreeRNN: h = tanh(Emb[word] + U . sum_k h_k). *)
let treernn_program =
  let open Ra in
  {
    name = "tiny_treernn";
    kind = Structure.Tree;
    max_children = 3;
    params = [ ("Emb", [ vocab1; hidden ]); ("U", [ hidden; hidden ]) ];
    rec_ops =
      [
        op "cs" ~axes:[ ("i", hidden) ]
          (ChildSum (ChildState ("h", Current, [ IAxis "i" ])));
        op "h" ~axes:[ ("i", hidden) ]
          (tanh_
             (Param ("Emb", [ IPayload; IAxis "i" ])
             + Sum ("j", hidden, Param ("U", [ IAxis "i"; IAxis "j" ]) * Temp ("cs", [ IAxis "j" ]))));
      ];
    leaf_ops = None;
    states = [ { st_name = "h"; st_op = "h"; st_init = Zero } ];
    outputs = [ "h" ];
    facts = no_facts;
  }

(* The same cell, stating TreeRNN's §7.4 fact that an unroll group fits
   one thread block. *)
let block_local_treernn =
  { treernn_program with facts = { Ra.no_facts with block_local_unroll = true } }

let random_params rng (program : Ra.t) =
  let tensors =
    List.map
      (fun (name, dims) ->
        (name, Tensor.rand_uniform rng (Array.of_list dims) ~lo:(-0.4) ~hi:0.4))
      program.Ra.params
  in
  fun name -> List.assoc name tensors

let run_compiled ?(options = Lower.default) program params structure =
  let compiled = Lower.lower ~options program in
  let lin = Linearizer.run structure in
  Linearizer.check lin;
  let bound = Lower.bind compiled lin in
  List.iter
    (fun (name, t) -> Interp.bind_tensor bound.Lower.ctx t (params name))
    compiled.Lower.param_tensors;
  Interp.run_program bound.Lower.ctx compiled.Lower.prog;
  (compiled, bound)

let check_agreement ?options program structure rng label =
  let params = random_params rng program in
  let reference = Ra_eval.run program ~params structure in
  let compiled, bound = run_compiled ?options program params structure in
  Array.iter
    (fun node ->
      List.iter
        (fun st ->
          let want = Ra_eval.state reference st.Ra.st_name node in
          let got = Lower.state_value bound compiled st.Ra.st_name node in
          if not (Tensor.approx_equal ~tol:1e-9 want got) then
            Alcotest.failf "%s: state %s differs at node %d (max diff %g)" label
              st.Ra.st_name node.Cortex_ds.Node.id (Tensor.max_abs_diff want got))
        program.Ra.states)
    structure.Structure.nodes

let option_combos =
  List.map
    (fun (label, options) -> (label, treernn_program, options))
    [
      ("default", Lower.default);
      ("baseline", Lower.baseline);
      ("nospec", { Lower.default with specialize = false });
      ("nofuse", { Lower.default with fuse = false });
      ("nobatch", { Lower.default with dynamic_batch = false });
      ("nobatch_nospec", { Lower.default with dynamic_batch = false; specialize = false });
      ("unroll", { Lower.default with unroll = true });
      ( "conservative_barriers",
        { Lower.default with barrier_mode = Cortex_ilir.Barrier.Conservative } );
    ]
  @ [ ("unroll_block", block_local_treernn, { Lower.default with unroll = true }) ]

let test_treernn_combo (label, program, options) () =
  let rng = Rng.create 42 in
  for trial = 1 to 5 do
    let structure = Gen.random_tree rng ~max_nodes:25 ~max_children:3 in
    check_agreement ~options program structure rng
      (Printf.sprintf "%s/trial%d" label trial)
  done

let test_treernn_single_node () =
  let rng = Rng.create 7 in
  let b = Cortex_ds.Node.builder () in
  let root = Cortex_ds.Node.make b ~payload:3 [] in
  let structure = Structure.create ~kind:Structure.Tree ~max_children:3 [ root ] in
  check_agreement treernn_program structure rng "single-node"

let test_treernn_sst_batch () =
  let rng = Rng.create 11 in
  let program = { treernn_program with max_children = 2 } in
  let structure = Gen.sst_batch rng ~batch:4 () in
  check_agreement program structure rng "sst-batch"

(* ---------- race detection (§A.4 correctness) ---------- *)

module Races = Cortex_ilir.Races
module Ir = Cortex_ilir.Ir

let race_context ?(options = Lower.default) program params structure =
  let compiled = Lower.lower ~options program in
  let lin = Linearizer.run structure in
  let bound = Lower.bind compiled lin in
  List.iter
    (fun (name, t) -> Interp.bind_tensor bound.Lower.ctx t (params name))
    compiled.Lower.param_tensors;
  (compiled, bound)

let strip_barriers (p : Ir.program) =
  {
    p with
    Ir.kernels =
      List.map
        (fun k ->
          {
            k with
            Ir.body =
              Ir.map_stmt
                ~stmt:(function Ir.Barrier -> Some Ir.Nop | _ -> None)
                k.Ir.body;
          })
        p.Ir.kernels;
  }

let test_race_free_configs () =
  let rng = Rng.create 51 in
  let structure = Gen.sst_batch rng ~batch:3 () in
  let params = random_params rng { treernn_program with max_children = 2 } in
  List.iter
    (fun (label, options) ->
      let compiled, bound =
        race_context ~options { treernn_program with max_children = 2 } params structure
      in
      let races = Races.check_program ~ctx:bound.Lower.ctx compiled.Lower.prog in
      match races with
      | [] -> ()
      | r :: _ ->
        Alcotest.failf "%s: unexpected race: %s" label (Races.to_string r))
    [
      ("default", Lower.default);
      ("nospec", { Lower.default with specialize = false });
      ("nofuse", { Lower.default with fuse = false });
      ("nobatch", { Lower.default with dynamic_batch = false });
      ("unroll", { Lower.default with unroll = true });
      ("conservative", { Lower.default with barrier_mode = Cortex_ilir.Barrier.Conservative });
    ]

let test_races_without_barriers () =
  let rng = Rng.create 52 in
  let program = { treernn_program with max_children = 2 } in
  let structure = Gen.sst_batch rng ~batch:3 () in
  let params = random_params rng program in
  let compiled, bound = race_context program params structure in
  let stripped = strip_barriers compiled.Lower.prog in
  let races = Races.check_program ~ctx:bound.Lower.ctx stripped in
  Alcotest.(check bool)
    (Printf.sprintf "%d races detected" (List.length races))
    true
    (List.length races > 0);
  (* The race must involve the published state read through the child
     cache fill. *)
  List.iter
    (fun (r : Races.race) ->
      Alcotest.(check bool) "race involves a state or cache tensor" true
        (String.length r.Races.tensor > 0))
    races

let test_no_race_on_single_level () =
  (* A forest of single-node trees has no cross-node dependence, so even
     the barrier-free program is race-free. *)
  let b = Cortex_ds.Node.builder () in
  let roots = List.init 4 (fun i -> Cortex_ds.Node.make b ~payload:i []) in
  let structure = Structure.create ~kind:Structure.Tree ~max_children:2 roots in
  let rng = Rng.create 53 in
  let program = { treernn_program with max_children = 2 } in
  let params = random_params rng program in
  let compiled, bound = race_context program params structure in
  let stripped = strip_barriers compiled.Lower.prog in
  Alcotest.(check int) "no races" 0
    (List.length (Races.check_program ~ctx:bound.Lower.ctx stripped))

let () =
  Alcotest.run "pipeline"
    [
      ( "races",
        [
          Alcotest.test_case "compiled-configs-race-free" `Quick test_race_free_configs;
          Alcotest.test_case "stripped-barriers-race" `Quick test_races_without_barriers;
          Alcotest.test_case "single-level-safe" `Quick test_no_race_on_single_level;
        ] );
      ( "treernn",
        List.map
          (fun ((label, _, _) as combo) ->
            Alcotest.test_case label `Quick (test_treernn_combo combo))
          option_combos
        @ [
            Alcotest.test_case "single-node" `Quick test_treernn_single_node;
            Alcotest.test_case "sst-batch" `Quick test_treernn_sst_batch;
          ] );
    ]
