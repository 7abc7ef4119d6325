(* Tests for the backend latency model, the workload analyzer, the
   framework simulators and the roofline module: structural properties
   that must hold regardless of calibration constants. *)

open Cortex
module M = Models.Common

let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small
let structure = spec.M.dataset (Rng.create 2) ~batch:10
let lin = Linearizer.run structure

let cost_of options =
  let compiled = Runtime.compile ~options spec.M.program in
  let bound = Lower.bind compiled lin in
  Cost.analyze ~uf:bound.Lower.uf_resolver
    ~num_internal_batches:bound.Lower.num_batch_launches compiled.Lower.prog

let test_persistence_saves_param_traffic () =
  let cost = cost_of Lower.default in
  let on = Backend.simulate Backend.gpu ~persist:true ~lock_free:false cost in
  let off = Backend.simulate Backend.gpu ~persist:false ~lock_free:false cost in
  Alcotest.(check bool) "less param traffic" true
    (on.Backend.param_traffic_bytes < off.Backend.param_traffic_bytes);
  Alcotest.(check bool) "not slower" true (on.Backend.total_us <= off.Backend.total_us)

let test_lock_free_not_slower () =
  let cost = cost_of Lower.default in
  let lf = Backend.simulate Backend.gpu ~persist:true ~lock_free:true cost in
  let lb = Backend.simulate Backend.gpu ~persist:true ~lock_free:false cost in
  Alcotest.(check bool) "lock-free barrier cheaper" true
    (lf.Backend.barrier_us < lb.Backend.barrier_us);
  Alcotest.(check int) "same barrier count" lf.Backend.barriers lb.Backend.barriers

let test_fusion_reduces_launches () =
  let fused = cost_of Lower.default in
  let unfused = cost_of { Lower.default with Lower.fuse = false } in
  Alcotest.(check bool) "fused has fewer launches" true
    (Cost.total_launches fused < Cost.total_launches unfused);
  Alcotest.(check bool) "fused fits in 2 launches" true (Cost.total_launches fused <= 2);
  Alcotest.(check bool) "fused moves less off-chip data" true
    (Cost.global_traffic fused < Cost.global_traffic unfused)

let test_specialization_cuts_flops () =
  let spec_on = cost_of Lower.default in
  let spec_off = cost_of { Lower.default with Lower.specialize = false } in
  (* SST trees are ~half leaves; folding their child-sum matvecs away
     should remove a large share of the FLOPs. *)
  let ratio = Cost.total_flops spec_on /. Cost.total_flops spec_off in
  Alcotest.(check bool) (Printf.sprintf "flop ratio %.2f < 0.85" ratio) true (ratio < 0.85)

let test_persisted_bytes_threshold () =
  let cost = cost_of Lower.default in
  let p = Backend.persisted_bytes Backend.gpu cost in
  Alcotest.(check bool) "some weights persist" true (p > 0.0);
  (* The embedding table (20 MB) must be excluded by the per-tensor cap. *)
  Alcotest.(check bool) "embedding not persisted" true (p < 1.0e7)

let test_backends_ordering () =
  let cost = cost_of Lower.default in
  let t be = (Backend.simulate be ~persist:true ~lock_free:false cost).Backend.total_us in
  Alcotest.(check bool) "GPU < Intel < ARM" true
    (t Backend.gpu < t Backend.intel && t Backend.intel < t Backend.arm)

(* ---------- workload ---------- *)

let test_workload_treelstm () =
  let h = 16 in
  let s = Models.Tree_lstm.spec ~vocab:30 ~hidden:h () in
  let ops = Workload.internal_ops s.M.program ~avg_children:2.0 in
  Alcotest.(check int) "4 precompute + 7 recursive ops" 11 (List.length ops);
  let gate = List.find (fun (w : Workload.opw) -> w.Workload.w_name = "i") ops in
  (* One gate is one matvec (2 H^2 multiply-add) plus bias and sigmoid. *)
  let flops_expected = float_of_int (2 * h * h) in
  Alcotest.(check bool) "gate flops ~ 2H^2" true
    (gate.Workload.w_flops >= flops_expected
     && gate.Workload.w_flops < flops_expected *. 2.2);
  Alcotest.(check bool) "gate is a matvec" true gate.Workload.w_matvec;
  Alcotest.(check int) "gate vendor kernels" 3 gate.Workload.w_vendor_kernels;
  let hsum = List.find (fun (w : Workload.opw) -> w.Workload.w_name = "hsum") ops in
  Alcotest.(check bool) "hsum is elementwise" false hsum.Workload.w_matvec;
  (* Gather-style embedding reads must not be charged more than the
     table + weight footprint the op touches. *)
  let xi = List.find (fun (w : Workload.opw) -> w.Workload.w_name = "xi") ops in
  Alcotest.(check bool) "xi param bytes bounded by footprint" true
    (xi.Workload.w_param_bytes <= float_of_int (4 * (((30 + 1) * h) + (h * h))))

let test_workload_leaf_case () =
  let s = Models.Tree_fc.spec ~height:3 ~vocab:30 ~hidden:8 () in
  let leaf = Workload.leaf_ops s.M.program in
  Alcotest.(check int) "explicit leaf case" 1 (List.length leaf);
  Alcotest.(check bool) "leaf is a gather, not a matvec" false
    (List.hd leaf).Workload.w_matvec

(* ---------- frameworks ---------- *)

let test_framework_hierarchy () =
  let run kind = Frameworks.run kind ~backend:Backend.gpu spec.M.program lin in
  let pytorch = run Frameworks.Pytorch in
  let dynet = run Frameworks.Dynet in
  let cavs = run Frameworks.Cavs in
  Alcotest.(check bool) "PyTorch slowest (no batching)" true
    (pytorch.Frameworks.total_us > dynet.Frameworks.total_us);
  Alcotest.(check bool) "Cavs beats DyNet (partial fusion, lighter graphs)" true
    (cavs.Frameworks.total_us < dynet.Frameworks.total_us);
  Alcotest.(check bool) "Cavs issues fewer kernels" true
    (cavs.Frameworks.kernel_calls < dynet.Frameworks.kernel_calls);
  Alcotest.(check bool) "PyTorch issues kernels per node" true
    (pytorch.Frameworks.kernel_calls > lin.Linearizer.num_nodes);
  Alcotest.(check bool) "profiled view slower than async view" true
    (dynet.Frameworks.profiled_total_us > dynet.Frameworks.total_us)

let test_framework_memory_ordering () =
  let mem kind = (Frameworks.run kind ~backend:Backend.gpu spec.M.program lin).Frameworks.memory_bytes in
  let dynet_inf = Frameworks.dynet_inference_memory ~backend:Backend.gpu spec.M.program lin in
  Alcotest.(check bool) "PyTorch < DyNet(inf) < Cavs < DyNet (Fig. 12)" true
    (mem Frameworks.Pytorch < dynet_inf
     && dynet_inf < mem Frameworks.Cavs
     && mem Frameworks.Cavs < mem Frameworks.Dynet)

(* ---------- roofline ---------- *)

let test_roofline_ordering =
  QCheck.Test.make ~name:"O_cortex > O_dynet > O_pytorch (App. C)" ~count:100
    QCheck.(pair (int_range 1 16) (int_range 64 1024))
    (fun (b, n) ->
      let h = 256 in
      let c = (Roofline.cortex ~n ~b ~h).Roofline.intensity in
      let d = (Roofline.dynet ~n ~b ~h).Roofline.intensity in
      let p = (Roofline.pytorch ~n ~b ~h).Roofline.intensity in
      c > d && d > p)

let test_roofline_asymptotics () =
  (* Under the paper's assumptions (N ~ H = N0 >> B) the closed forms
     approximate the exact counts. *)
  let n = 256 and h = 256 and b = 4 in
  let exact = (Roofline.cortex ~n ~b ~h).Roofline.intensity in
  let approx = Roofline.asymptotic_cortex ~b ~n0:256 in
  Alcotest.(check bool) "within 10%" true (Float.abs (exact -. approx) /. exact < 0.1);
  Alcotest.(check (float 1e-9)) "pytorch ~ 0.5" 0.5 (Roofline.asymptotic_pytorch ())

let () =
  Alcotest.run "backend"
    [
      ( "latency-model",
        [
          Alcotest.test_case "persistence" `Quick test_persistence_saves_param_traffic;
          Alcotest.test_case "lock-free" `Quick test_lock_free_not_slower;
          Alcotest.test_case "fusion-launches" `Quick test_fusion_reduces_launches;
          Alcotest.test_case "specialization-flops" `Quick test_specialization_cuts_flops;
          Alcotest.test_case "persist-threshold" `Quick test_persisted_bytes_threshold;
          Alcotest.test_case "backend-ordering" `Quick test_backends_ordering;
        ] );
      ( "workload",
        [
          Alcotest.test_case "treelstm" `Quick test_workload_treelstm;
          Alcotest.test_case "leaf-case" `Quick test_workload_leaf_case;
        ] );
      ( "frameworks",
        [
          Alcotest.test_case "hierarchy" `Quick test_framework_hierarchy;
          Alcotest.test_case "memory-ordering" `Quick test_framework_memory_ordering;
        ] );
      ( "roofline",
        [
          QCheck_alcotest.to_alcotest test_roofline_ordering;
          Alcotest.test_case "asymptotics" `Quick test_roofline_asymptotics;
        ] );
    ]
