(* Cross-validation of the static cost walker against the interpreter's
   runtime counters: on the same compiled program and input, the
   multiplicative static walk must produce exactly the FLOP, load and
   store counts that actually executing the kernels produces. *)

open Cortex
module M = Models.Common

let counts_agree ?(options = Lower.default) (spec : M.t) ~batch =
  let compiled = Runtime.compile ~options spec.M.program in
  let structure = spec.M.dataset (Rng.create 31) ~batch in
  let lin = Linearizer.run structure in
  (* Dynamic execution with counters on. *)
  let bound = Lower.bind ~count:true compiled lin in
  let params = spec.M.init_params (Rng.create 32) in
  List.iter
    (fun (name, t) -> Interp.bind_tensor bound.Lower.ctx t (params name))
    compiled.Lower.param_tensors;
  Interp.run_program bound.Lower.ctx compiled.Lower.prog;
  let dynamic = Interp.counters bound.Lower.ctx in
  (* Static walk. *)
  let cost =
    Cost.analyze ~uf:bound.Lower.uf_resolver
      ~num_internal_batches:bound.Lower.num_batch_launches compiled.Lower.prog
  in
  let static_flops = Cost.total_flops cost in
  let static_loads =
    List.fold_left
      (fun acc (k : Cost.kernel_cost) ->
        List.fold_left
          (fun acc (s : Cost.segment) -> acc +. Array.fold_left ( +. ) 0.0 s.Cost.reads)
          acc k.Cost.segments)
      0.0 cost.Cost.kernels
    /. float_of_int Cost.bytes_per_elem
  in
  let static_stores =
    List.fold_left
      (fun acc (k : Cost.kernel_cost) ->
        List.fold_left
          (fun acc (s : Cost.segment) -> acc +. Array.fold_left ( +. ) 0.0 s.Cost.writes)
          acc k.Cost.segments)
      0.0 cost.Cost.kernels
    /. float_of_int Cost.bytes_per_elem
  in
  Alcotest.(check int)
    (spec.M.name ^ " flops")
    dynamic.Interp.flops (int_of_float static_flops);
  Alcotest.(check int) (spec.M.name ^ " loads") dynamic.Interp.loads (int_of_float static_loads);
  Alcotest.(check int) (spec.M.name ^ " stores") dynamic.Interp.stores
    (int_of_float static_stores)

let small_specs =
  [
    ("TreeRNN", Models.Tree_rnn.spec ~vocab:30 ~hidden:6 ());
    ("TreeLSTM", Models.Tree_lstm.spec ~vocab:30 ~hidden:6 ());
    ("TreeGRU", Models.Tree_gru.spec ~vocab:30 ~hidden:6 ());
    ("TreeFC", Models.Tree_fc.spec ~height:4 ~vocab:30 ~hidden:6 ());
    ("MV-RNN", Models.Mv_rnn.spec ~vocab:10 ~hidden:4 ());
    ("DAG-RNN", Models.Dag_rnn.spec ~rows:4 ~cols:4 ~hidden:6 ());
  ]

let variants =
  [
    ("default", Lower.default);
    ("baseline", Lower.baseline);
    ("nospec", { Lower.default with Lower.specialize = false });
    ("nobatch", { Lower.default with Lower.dynamic_batch = false });
  ]

let test_one (mname, spec) (vname, options) () = ignore vname; ignore mname;
  counts_agree ~options spec ~batch:2

let test_per_space_counts () =
  (* On-chip vs off-chip split agrees too. *)
  let spec = Models.Tree_lstm.spec ~vocab:30 ~hidden:6 () in
  let compiled = Runtime.compile spec.M.program in
  let structure = spec.M.dataset (Rng.create 77) ~batch:2 in
  let lin = Linearizer.run structure in
  let bound = Lower.bind ~count:true compiled lin in
  let params = spec.M.init_params (Rng.create 78) in
  List.iter
    (fun (name, t) -> Interp.bind_tensor bound.Lower.ctx t (params name))
    compiled.Lower.param_tensors;
  Interp.run_program bound.Lower.ctx compiled.Lower.prog;
  let dynamic = Interp.counters bound.Lower.ctx in
  let cost =
    Cost.analyze ~uf:bound.Lower.uf_resolver
      ~num_internal_batches:bound.Lower.num_batch_launches compiled.Lower.prog
  in
  let static_space si =
    List.fold_left
      (fun acc (k : Cost.kernel_cost) ->
        List.fold_left (fun acc (s : Cost.segment) -> acc +. s.Cost.reads.(si)) acc k.Cost.segments)
      0.0 cost.Cost.kernels
    /. float_of_int Cost.bytes_per_elem
  in
  List.iter
    (fun space ->
      let si = Interp.space_index space in
      Alcotest.(check int)
        (Ir.space_name space ^ " loads")
        dynamic.Interp.loads_by_space.(si)
        (int_of_float (static_space si)))
    [ Ir.Param; Ir.Global; Ir.Shared; Ir.Register ]

let () =
  Alcotest.run "cost"
    [
      ( "static-vs-dynamic",
        List.concat_map
          (fun model ->
            List.map
              (fun variant ->
                Alcotest.test_case
                  (fst model ^ "/" ^ fst variant)
                  `Quick (test_one model variant))
              variants)
          small_specs );
      ("per-space", [ Alcotest.test_case "TreeLSTM" `Quick test_per_space_counts ]);
    ]
