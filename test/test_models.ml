(* Model-zoo correctness: for every model, three independent
   implementations must agree on every node of random inputs —
   (1) the hand-written reference (plain recursion + tensor ops),
   (2) the RA evaluator, and
   (3) the compiled pipeline (linearize + lowered ILIR interpreted). *)

module Rng = Cortex_util.Rng
module Tensor = Cortex_tensor.Tensor
module Gen = Cortex_ds.Gen
module Node = Cortex_ds.Node
module Structure = Cortex_ds.Structure
module Linearizer = Cortex_linearizer.Linearizer
module Interp = Cortex_ilir.Interp
module Ra = Cortex_ra.Ra
module Ra_eval = Cortex_ra.Ra_eval
module Lower = Cortex_lower.Lower
module M = Cortex_models.Models_common
module Reference = Cortex_models.Reference

let vocab = 50
let hidden = 8

let run_compiled ~options (spec : M.t) params structure =
  let compiled = Lower.lower ~options spec.M.program in
  let lin = Linearizer.run structure in
  let bound = Lower.bind compiled lin in
  List.iter
    (fun (name, t) -> Interp.bind_tensor bound.Lower.ctx t (params name))
    compiled.Lower.param_tensors;
  Interp.run_program bound.Lower.ctx compiled.Lower.prog;
  fun st node -> Lower.state_value bound compiled st node

let check_against_ra ~options (spec : M.t) structure params label =
  let reference = Ra_eval.run spec.M.program ~params structure in
  let compiled_state = run_compiled ~options spec params structure in
  Array.iter
    (fun node ->
      List.iter
        (fun st ->
          let want = Ra_eval.state reference st.Ra.st_name node in
          let got = compiled_state st.Ra.st_name node in
          if not (Tensor.approx_equal ~tol:1e-9 want got) then
            Alcotest.failf "%s: state %s differs at node %d (max %g)" label st.Ra.st_name
              node.Node.id (Tensor.max_abs_diff want got))
        spec.M.program.Ra.states)
    structure.Structure.nodes

let check_ra_against_reference (spec : M.t) structure params refs label =
  let ra = Ra_eval.run spec.M.program ~params structure in
  Array.iter
    (fun node ->
      List.iter
        (fun (st, f) ->
          let want : Tensor.t = f node in
          let got = Ra_eval.state ra st node in
          if not (Tensor.approx_equal ~tol:1e-9 want got) then
            Alcotest.failf "%s: RA %s disagrees with reference at node %d (max %g)" label st
              node.Node.id (Tensor.max_abs_diff want got))
        refs)
    structure.Structure.nodes

type case = {
  label : string;
  spec : M.t;
  refs : (string -> Tensor.t) -> Structure.t -> (string * (Node.t -> Tensor.t)) list;
}

let cases =
  [
    {
      label = "TreeFC";
      spec = Cortex_models.Tree_fc.spec ~height:3 ~hidden ();
      refs =
        (fun params s -> [ ("h", Reference.tree_fc ~params ~hidden s) ]);
    };
    {
      label = "TreeRNN";
      spec = Cortex_models.Tree_rnn.spec ~vocab ~hidden ();
      refs = (fun params s -> [ ("h", Reference.tree_rnn ~params ~hidden s) ]);
    };
    {
      label = "TreeLSTM-full";
      spec = Cortex_models.Tree_lstm.spec ~vocab ~hidden ();
      refs =
        (fun params s ->
          let f = Reference.tree_lstm ~params ~hidden ~with_x:true s in
          [ ("h", fun n -> fst (f n)); ("c", fun n -> snd (f n)) ]);
    };
    {
      label = "TreeLSTM-rec";
      spec = Cortex_models.Tree_lstm.spec ~vocab ~variant:M.Recursive_only ~hidden ();
      refs =
        (fun params s ->
          let f = Reference.tree_lstm ~params ~hidden ~with_x:false s in
          [ ("h", fun n -> fst (f n)) ]);
    };
    {
      label = "NaryTreeLSTM";
      spec = Cortex_models.Tree_lstm.nary_spec ~vocab ~hidden ();
      refs =
        (fun params s ->
          let f = Reference.nary_tree_lstm ~params ~hidden ~with_x:true s in
          [ ("h", fun n -> fst (f n)); ("c", fun n -> snd (f n)) ]);
    };
    {
      label = "NaryTreeLSTM-rec";
      spec = Cortex_models.Tree_lstm.nary_spec ~vocab ~variant:M.Recursive_only ~hidden ();
      refs =
        (fun params s ->
          let f = Reference.nary_tree_lstm ~params ~hidden ~with_x:false s in
          [ ("h", fun n -> fst (f n)) ]);
    };
    {
      label = "TreeGRU";
      spec = Cortex_models.Tree_gru.spec ~vocab ~hidden ();
      refs =
        (fun params s ->
          [ ("h", Reference.tree_gru ~params ~hidden ~with_x:true ~simple:false s) ]);
    };
    {
      label = "SimpleTreeGRU";
      spec = Cortex_models.Tree_gru.spec ~vocab ~simple:true ~hidden ();
      refs =
        (fun params s ->
          [ ("h", Reference.tree_gru ~params ~hidden ~with_x:true ~simple:true s) ]);
    };
    {
      label = "MV-RNN";
      spec = Cortex_models.Mv_rnn.spec ~vocab:16 ~hidden:6 ();
      refs =
        (fun params s ->
          let f = Reference.mv_rnn ~params ~hidden:6 s in
          [ ("p", fun n -> fst (f n)); ("A", fun n -> snd (f n)) ]);
    };
    {
      label = "DAG-RNN";
      spec = Cortex_models.Dag_rnn.spec ~rows:5 ~cols:5 ~hidden ();
      refs =
        (fun params s -> [ ("h", Reference.dag_rnn ~params ~hidden ~with_x:true s) ]);
    };
    {
      label = "LSTM-seq";
      spec = Cortex_models.Tree_lstm.spec ~vocab ~sequence:true ~seq_len:20 ~hidden ();
      refs =
        (fun params s ->
          let f = Reference.tree_lstm ~params ~hidden ~with_x:true s in
          [ ("h", fun n -> fst (f n)) ]);
    };
    {
      label = "GRU-seq";
      spec = Cortex_models.Tree_gru.spec ~vocab ~sequence:true ~seq_len:20 ~hidden ();
      refs =
        (fun params s ->
          [ ("h", Reference.tree_gru ~params ~hidden ~with_x:true ~simple:false s) ]);
    };
  ]

let structure_for (case : case) rng = case.spec.M.dataset rng ~batch:2

let test_reference_agreement (case : case) () =
  let rng = Rng.create 123 in
  let structure = structure_for case rng in
  let params = case.spec.M.init_params (Rng.split rng) in
  check_ra_against_reference case.spec structure params (case.refs params structure)
    case.label

(* The schedules a user can choose; the model's own §7.4 facts come
   with its program. *)
let schedules (case : case) =
  let base =
    [
      ("default", Lower.default);
      ("baseline", Lower.baseline);
      ("nospec", { Lower.default with specialize = false });
      ("nofuse", { Lower.default with fuse = false });
      ("nobatch", { Lower.default with dynamic_batch = false });
    ]
  in
  let tree_like = case.spec.M.program.Ra.kind <> Structure.Dag in
  let extra =
    (if tree_like then [ ("unroll", { Lower.default with unroll = true }) ] else [])
    @
    if tree_like && Ra.num_phases case.spec.M.program.Ra.rec_ops > 1 then
      [ ("refactor", { Lower.default with refactor = true }) ]
    else []
  in
  base @ extra

let test_compiled_agreement (case : case) () =
  let rng = Rng.create 321 in
  let structure = structure_for case rng in
  let params = case.spec.M.init_params (Rng.split rng) in
  List.iter
    (fun (olabel, options) ->
      check_against_ra ~options case.spec structure params
        (Printf.sprintf "%s/%s" case.label olabel))
    (schedules case)

let () =
  Alcotest.run "models"
    [
      ( "reference-vs-ra",
        List.map
          (fun case ->
            Alcotest.test_case case.label `Quick (test_reference_agreement case))
          cases );
      ( "compiled-vs-ra",
        List.map
          (fun case ->
            Alcotest.test_case case.label `Quick (test_compiled_agreement case))
          cases );
    ]
