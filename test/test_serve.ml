(* The serving engine: forest linearization, cross-request equivalence,
   input validation, batching policies and the cross-request batching
   payoff (serve bench's acceptance shape). *)

open Cortex
module M = Models.Common

let gpu = Backend.gpu

let sst_trees rng ~vocab n = List.init n (fun _ -> Gen.sst_tree rng ~vocab ())

(* ---------- forest linearization ---------- *)

let test_run_forest_invariants () =
  let rng = Rng.create 7 in
  let structures = sst_trees rng ~vocab:40 5 in
  let f = Linearizer.run_forest structures in
  Linearizer.check_forest f;
  Alcotest.(check int) "forest covers all requests"
    (List.fold_left (fun acc s -> acc + Structure.num_nodes s) 0 structures)
    f.Linearizer.lin.Linearizer.num_nodes;
  (* Per-level batches of the forest are the unions of the requests'
     levels: each request's slice is contiguous and they tile the
     level's batch. *)
  Array.iteri
    (fun level (first, len) ->
      let covered =
        Array.fold_left
          (fun acc (span : Linearizer.span) ->
            if level < Array.length span.Linearizer.span_levels then
              acc + snd span.Linearizer.span_levels.(level)
            else acc)
          0 f.Linearizer.spans
      in
      Alcotest.(check int)
        (Printf.sprintf "level %d tiled by request ranges" level)
        len covered;
      Array.iter
        (fun (span : Linearizer.span) ->
          if level < Array.length span.Linearizer.span_levels then begin
            let b, l = span.Linearizer.span_levels.(level) in
            Alcotest.(check bool) "range within level batch" true
              (l = 0 || (b >= first && b + l <= first + len))
          end)
        f.Linearizer.spans)
    f.Linearizer.lin.Linearizer.batches

let test_forest_of_one_matches_run () =
  let rng = Rng.create 3 in
  let s = Gen.sst_tree rng ~vocab:30 () in
  let f = Linearizer.run_forest [ s ] in
  let lone = Linearizer.run s in
  Alcotest.(check int) "same nodes" lone.Linearizer.num_nodes
    f.Linearizer.lin.Linearizer.num_nodes;
  Alcotest.(check int) "same batches"
    (Array.length lone.Linearizer.batches)
    (Array.length f.Linearizer.lin.Linearizer.batches)

(* ---------- cross-request equivalence (bitwise) ---------- *)

let check_forest_equivalence (spec : M.t) structures seed =
  let params = spec.M.init_params (Rng.create seed) in
  let engine = Engine.of_spec spec ~backend:gpu in
  let fx = Engine.execute engine ~params structures in
  let compiled = Runtime.compile spec.M.program in
  List.iteri
    (fun k s ->
      let solo = Runtime.execute compiled ~params s in
      List.iter
        (fun (st : Ra.state) ->
          Array.iter
            (fun (node : Node.t) ->
              let batched = Engine.state fx ~request:k st.Ra.st_name node in
              let alone = Runtime.state solo st.Ra.st_name node in
              Alcotest.(check bool)
                (Printf.sprintf "seed %d request %d node %d state %s bitwise equal"
                   seed k node.Node.id st.Ra.st_name)
                true
                (Tensor.max_abs_diff batched alone = 0.0))
            s.Structure.nodes)
        spec.M.program.Ra.states)
    structures

let test_forest_equivalence_treelstm () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let spec = Models.Tree_lstm.spec ~vocab:50 ~hidden:8 () in
      check_forest_equivalence spec (sst_trees rng ~vocab:50 4) (seed + 100))
    [ 1; 2; 3 ]

let test_forest_equivalence_dagrnn () =
  List.iter
    (fun seed ->
      let spec = Models.Dag_rnn.spec ~rows:5 ~cols:5 ~hidden:6 () in
      let structures =
        [
          Gen.grid_dag ~rows:5 ~cols:5;
          Gen.grid_dag ~rows:3 ~cols:5;
          Gen.grid_dag ~rows:4 ~cols:4;
        ]
      in
      check_forest_equivalence spec structures seed)
    [ 11; 12 ]

(* ---------- input validation ---------- *)

let tree_model max_children =
  let open Ra in
  {
    name = "serve_test_tree";
    kind = Structure.Tree;
    max_children;
    params = [ ("Emb", [ 21; 4 ]); ("U", [ 4; 4 ]); ("b", [ 4 ]) ];
    rec_ops =
      [
        op "cs" ~axes:[ ("i", 4) ] (ChildSum (ChildState ("h", Current, [ IAxis "i" ])));
        op "h" ~axes:[ ("i", 4) ]
          (tanh_
             (Param ("Emb", [ IPayload; IAxis "i" ])
             + Sum ("j", 4, Param ("U", [ IAxis "i"; IAxis "j" ]) * Temp ("cs", [ IAxis "j" ]))
             + Param ("b", [ IAxis "i" ])));
      ];
    leaf_ops = None;
    states = [ { st_name = "h"; st_op = "h"; st_init = Zero } ];
    outputs = [ "h" ];
    facts = no_facts;
  }

let ternary_tree () =
  (* One root with three leaf children: fanout 3, declared honestly. *)
  let b = Node.builder () in
  let leaves = List.init 3 (fun i -> Node.make b ~payload:i []) in
  let root = Node.make b ~payload:20 leaves in
  Structure.create ~kind:Structure.Tree ~max_children:3 [ root ]

let shared_dag () =
  (* A diamond: the shared leaf forces kind Dag. *)
  let b = Node.builder () in
  let shared = Node.make b ~payload:1 [] in
  let l = Node.make b ~payload:2 [ shared ] in
  let r = Node.make b ~payload:3 [ shared ] in
  let root = Node.make b ~payload:4 [ l; r ] in
  Structure.create ~kind:Structure.Dag ~max_children:2 [ root ]

let test_submit_rejects_fanout () =
  let engine = Engine.create ~model:(tree_model 2) ~backend:gpu () in
  match Engine.submit engine (ternary_tree ()) with
  | Ok _ -> Alcotest.fail "fanout-3 request accepted by a 2-ary model"
  | Error (Engine.Rejected (Linearizer.Fanout_exceeded f)) ->
    Alcotest.(check int) "offending arity" 3 f.arity;
    Alcotest.(check int) "model bound" 2 f.max_children;
    Alcotest.(check int) "queue untouched" 0 (Engine.pending engine)
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.error_to_string e)

let test_submit_rejects_kind () =
  (* A DAG's shared subtree re-enters a tree traversal — the cycle-like
     malformation a tree model must refuse. *)
  let engine = Engine.create ~model:(tree_model 2) ~backend:gpu () in
  match Engine.submit engine (shared_dag ()) with
  | Ok _ -> Alcotest.fail "dag accepted by a tree model"
  | Error (Engine.Kind_mismatch { expected; got }) ->
    Alcotest.(check bool) "expected tree" true (expected = Structure.Tree);
    Alcotest.(check bool) "got dag" true (got = Structure.Dag)
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.error_to_string e)

let test_cycle_unconstructible () =
  (* An actual cycle cannot be built — children are fixed at node
     construction — and the nearest malformation, a shared subtree
     declared as a tree (a node with two parents, which would re-enter
     the traversal like a cycle does), is rejected at construction, so
     the engine never sees one. *)
  let b = Node.builder () in
  let shared = Node.make b ~payload:0 [] in
  let l = Node.make b ~payload:1 [ shared ] in
  let r = Node.make b ~payload:2 [ shared ] in
  let root = Node.make b ~payload:3 [ l; r ] in
  try
    ignore (Structure.create ~kind:Structure.Tree ~max_children:2 [ root ]);
    Alcotest.fail "malformed structure accepted"
  with Structure.Invalid _ -> ()

let test_linearizer_rejects_fanout () =
  let s = ternary_tree () in
  (try
     ignore (Linearizer.run ~max_children:2 s);
     Alcotest.fail "Linearizer.run accepted fanout 3 under a bound of 2"
   with Linearizer.Rejected (Linearizer.Fanout_exceeded _) -> ());
  (* and with the bound satisfied it must succeed *)
  Linearizer.check (Linearizer.run ~max_children:3 s)

let test_linearizer_rejects_forest_shapes () =
  (try
     ignore (Linearizer.run_forest []);
     Alcotest.fail "empty forest accepted"
   with Linearizer.Rejected Linearizer.Empty_forest -> ());
  let rng = Rng.create 5 in
  let tree = Gen.sst_tree rng ~vocab:10 () in
  let seq = Gen.sequence rng ~vocab:10 ~len:4 () in
  try
    ignore (Linearizer.run_forest [ tree; seq ]);
    Alcotest.fail "mixed kinds accepted"
  with Linearizer.Rejected (Linearizer.Mixed_kinds _) -> ()

(* ---------- batching policies ---------- *)

let small_spec = Models.Tree_lstm.spec ~vocab:50 ~hidden:8 ()

let test_policy_max_batch () =
  let policy = { Engine.default_policy with Engine.max_batch = 4 } in
  let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ()) small_spec ~backend:gpu in
  let rng = Rng.create 21 in
  List.iter
    (fun s -> ignore (Engine.submit_exn engine s))
    (sst_trees rng ~vocab:50 10);
  let s = Engine.drain engine in
  Alcotest.(check int) "all served" 10 s.Engine.aggregate.Engine.num_requests;
  Alcotest.(check int) "windows of <= 4" 3 s.Engine.aggregate.Engine.num_windows;
  List.iter
    (fun (w : Engine.window_report) ->
      Alcotest.(check bool) "window size bounded" true (w.Engine.wr_size <= 4))
    s.Engine.windows;
  Alcotest.(check int) "queue drained" 0 (Engine.pending engine)

let test_policy_max_wait () =
  let policy =
    { Engine.max_batch = 100; max_wait_us = 100.0; bucketing = Engine.Fifo }
  in
  let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ()) small_spec ~backend:gpu in
  let rng = Rng.create 22 in
  (* Two bursts 10 ms apart: the wait deadline must split them. *)
  List.iteri
    (fun i s ->
      let arrival_us = if i < 3 then float_of_int i else 10_000.0 +. float_of_int i in
      ignore (Engine.submit_exn engine ~arrival_us s))
    (sst_trees rng ~vocab:50 6);
  let s = Engine.drain engine in
  Alcotest.(check int) "two windows" 2 s.Engine.aggregate.Engine.num_windows;
  (* Queueing delay is bounded by the wait deadline for the first-burst
     requests (device starts idle). *)
  List.iter
    (fun (r : Engine.request_report) ->
      if r.Engine.rr_window = 0 then
        Alcotest.(check bool) "queue <= max_wait" true (r.Engine.rr_queue_us <= 100.0))
    s.Engine.requests

let test_policy_bucketing () =
  let rng = Rng.create 23 in
  let small = List.init 6 (fun _ -> Gen.sst_tree rng ~vocab:50 ~len:4 ()) in
  let big = List.init 6 (fun _ -> Gen.sst_tree rng ~vocab:50 ~len:40 ()) in
  (* Interleave small and big requests. *)
  let interleaved = List.concat (List.map2 (fun a b -> [ a; b ]) small big) in
  let policy =
    { Engine.max_batch = 6; max_wait_us = 1.0e9; bucketing = Engine.By_size }
  in
  let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ()) small_spec ~backend:gpu in
  List.iter (fun s -> ignore (Engine.submit_exn engine s)) interleaved;
  let s = Engine.drain engine in
  Alcotest.(check int) "all served" 12 s.Engine.aggregate.Engine.num_requests;
  (* Every window is size-homogeneous: max/min node counts within a
     window stay within the power-of-two bucket (ratio < 4). *)
  List.iter
    (fun (w : Engine.window_report) ->
      let members =
        List.filter (fun (r : Engine.request_report) -> r.Engine.rr_window = w.Engine.wr_index) s.Engine.requests
      in
      let nodes = List.map (fun (r : Engine.request_report) -> r.Engine.rr_nodes) members in
      let lo = List.fold_left min max_int nodes and hi = List.fold_left max 0 nodes in
      Alcotest.(check bool)
        (Printf.sprintf "window %d homogeneous (%d..%d nodes)" w.Engine.wr_index lo hi)
        true
        (hi < 4 * lo))
    s.Engine.windows

let test_empty_drain () =
  let engine = Engine.of_spec small_spec ~backend:gpu in
  let s = Engine.drain engine in
  Alcotest.(check int) "no requests" 0 s.Engine.aggregate.Engine.num_requests;
  Alcotest.(check int) "no windows" 0 s.Engine.aggregate.Engine.num_windows

let test_run_one_matches_runtime () =
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let structure = spec.M.dataset (Rng.create 31) ~batch:4 in
  let engine = Engine.of_spec spec ~backend:gpu in
  let via_engine = Engine.run_one engine structure in
  let compiled = Runtime.compile spec.M.program in
  let via_runtime = Runtime.simulate compiled ~backend:gpu structure in
  (* Both price the same linearization the same way, inspector charge
     included, so the end-to-end figure agrees exactly too. *)
  Alcotest.(check (float 1e-9)) "same device latency"
    via_runtime.Runtime.latency.Backend.total_us
    via_engine.Runtime.latency.Backend.total_us;
  Alcotest.(check (float 0.0)) "same total_ms" (Runtime.total_ms via_runtime)
    (Runtime.total_ms via_engine);
  Alcotest.(check int) "same nodes" via_runtime.Runtime.num_nodes
    via_engine.Runtime.num_nodes

(* ---------- window-formation edge cases ---------- *)

let submit_at engine arrivals =
  let rng = Rng.create 51 in
  List.iter
    (fun arrival_us ->
      ignore (Engine.submit_exn engine ~arrival_us (Gen.sst_tree rng ~vocab:50 ~len:4 ())))
    arrivals

let test_arrival_exactly_at_deadline_joins () =
  (* The join condition is [arrival > first + max_wait]: a request
     landing exactly on the deadline still makes the window. *)
  let policy = { Engine.max_batch = 100; max_wait_us = 100.0; bucketing = Engine.Fifo } in
  let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ()) small_spec ~backend:gpu in
  submit_at engine [ 0.0; 100.0 ];
  let s = Engine.drain engine in
  Alcotest.(check int) "exactly-at-deadline joins" 1 s.Engine.aggregate.Engine.num_windows;
  let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ()) small_spec ~backend:gpu in
  submit_at engine [ 0.0; 100.5 ];
  let s = Engine.drain engine in
  Alcotest.(check int) "past-deadline splits" 2 s.Engine.aggregate.Engine.num_windows

(* A nan wait passes a [< 0.0] check; each must be refused with the
   same message a negative one gets. *)
let test_nan_waits_refused () =
  let refused label want config =
    match Engine.of_spec ~config small_spec ~backend:gpu with
    | (_ : Engine.t) -> Alcotest.failf "%s accepted" label
    | exception Invalid_argument msg -> Alcotest.(check string) label want msg
  in
  refused "max_wait_us=nan" "Engine.create: max_wait_us must be >= 0"
    (Engine.Config.make
       ~policy:{ Engine.max_batch = 4; max_wait_us = nan; bucketing = Engine.Fifo }
       ());
  refused "sessions.pack_wait_us=nan" "Engine.create: sessions.pack_wait_us must be >= 0"
    (Engine.Config.make ~session_pack_wait_us:nan ())

let test_max_batch_one () =
  let policy = { Engine.max_batch = 1; max_wait_us = 1.0e9; bucketing = Engine.Fifo } in
  let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ()) small_spec ~backend:gpu in
  submit_at engine [ 0.0; 10.0; 20.0; 30.0; 40.0 ];
  let s = Engine.drain engine in
  Alcotest.(check int) "one window per request" 5 s.Engine.aggregate.Engine.num_windows;
  List.iter
    (fun (w : Engine.window_report) ->
      Alcotest.(check int) "singleton window" 1 w.Engine.wr_size)
    s.Engine.windows;
  (* A full (here: size-1) window is ready at its last member's arrival,
     and the device starts idle — the first request never queues. *)
  let r0 = List.hd s.Engine.requests in
  Alcotest.(check (float 1e-9)) "first request dispatches on arrival" 0.0
    r0.Engine.rr_queue_us

let test_simultaneous_arrivals () =
  let policy = { Engine.max_batch = 3; max_wait_us = 1.0e9; bucketing = Engine.Fifo } in
  let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ()) small_spec ~backend:gpu in
  submit_at engine [ 42.0; 42.0; 42.0; 42.0; 42.0 ];
  let s = Engine.drain engine in
  Alcotest.(check int) "two windows" 2 s.Engine.aggregate.Engine.num_windows;
  Alcotest.(check (list int)) "sizes 3 then 2" [ 3; 2 ]
    (List.map (fun (w : Engine.window_report) -> w.Engine.wr_size) s.Engine.windows);
  List.iter
    (fun (r : Engine.request_report) ->
      if r.Engine.rr_window = 0 then
        Alcotest.(check (float 1e-9)) "window 0 dispatches on arrival" 0.0
          r.Engine.rr_queue_us)
    s.Engine.requests

let test_drain_is_a_flush () =
  (* An explicit drain must not charge the trailing partial window the
     batching timer: it is ready at its last member's arrival. *)
  let policy = { Engine.max_batch = 100; max_wait_us = 1.0e9; bucketing = Engine.Fifo } in
  let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ()) small_spec ~backend:gpu in
  submit_at engine [ 0.0; 10.0; 20.0 ];
  let s = Engine.drain engine in
  Alcotest.(check int) "one flushed window" 1 s.Engine.aggregate.Engine.num_windows;
  List.iter
    (fun (r : Engine.request_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "queue %.1f bounded by the flush, not the timer"
           r.Engine.rr_queue_us)
        true
        (r.Engine.rr_queue_us <= 20.0))
    s.Engine.requests

let test_negative_arrivals () =
  (* Traces may use any epoch; a full window's ready time is its last
     member's arrival even when every arrival is negative (a [0.0] fold
     seed would silently pull the ready time to zero). *)
  let policy = { Engine.max_batch = 2; max_wait_us = 1.0e9; bucketing = Engine.Fifo } in
  let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ()) small_spec ~backend:gpu in
  submit_at engine [ -100.0; -50.0 ];
  let s = Engine.drain engine in
  Alcotest.(check int) "one full window" 1 s.Engine.aggregate.Engine.num_windows;
  let r0 = List.hd s.Engine.requests in
  Alcotest.(check (float 1e-9)) "first member waits for the second only" 50.0
    r0.Engine.rr_queue_us

(* ---------- the shape-keyed linearization cache ---------- *)

let perfect_payloads seed = Gen.perfect_tree (Rng.create seed) ~vocab:50 ~height:3 ()

let test_cache_hits_in_drain () =
  let policy = { Engine.max_batch = 1; max_wait_us = 0.0; bucketing = Engine.Fifo } in
  let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ()) small_spec ~backend:gpu in
  (* Six requests of identical topology, different payloads. *)
  List.iteri
    (fun i seed ->
      ignore (Engine.submit_exn engine ~arrival_us:(float_of_int i) (perfect_payloads seed)))
    [ 1; 2; 3; 4; 5; 6 ];
  let s = Engine.drain engine in
  let c = s.Engine.cache in
  Alcotest.(check int) "one miss" 1 c.Shape_cache.misses;
  Alcotest.(check int) "five hits" 5 c.Shape_cache.hits;
  Alcotest.(check int) "one shape cached" 1 c.Shape_cache.entries;
  let first = List.hd s.Engine.windows in
  Alcotest.(check bool) "first window is the cold run" false first.Engine.wr_cache_hit;
  List.iter
    (fun (w : Engine.window_report) ->
      if w.Engine.wr_index > 0 then begin
        Alcotest.(check bool)
          (Printf.sprintf "window %d served from cache" w.Engine.wr_index)
          true w.Engine.wr_cache_hit;
        (* Same shape, same device pricing — bit for bit. *)
        Alcotest.(check (float 0.0)) "identical device latency"
          first.Engine.wr_report.Runtime.latency.Backend.total_us
          w.Engine.wr_report.Runtime.latency.Backend.total_us
      end)
    s.Engine.windows

let test_cache_disabled () =
  let policy = { Engine.max_batch = 1; max_wait_us = 0.0; bucketing = Engine.Fifo } in
  let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ~cache_capacity:0 ()) small_spec ~backend:gpu in
  List.iter
    (fun seed -> ignore (Engine.submit_exn engine (perfect_payloads seed)))
    [ 1; 2; 3 ];
  let s = Engine.drain engine in
  Alcotest.(check int) "no hits" 0 s.Engine.cache.Shape_cache.hits;
  Alcotest.(check int) "all misses" 3 s.Engine.cache.Shape_cache.misses;
  Alcotest.(check int) "nothing retained" 0 s.Engine.cache.Shape_cache.entries

let test_cache_hit_bitwise_equivalence () =
  (* A cache hit's numeric execution must be bitwise identical to a cold
     linearization of the same requests. *)
  let spec = Models.Tree_lstm.spec ~vocab:50 ~hidden:8 () in
  let params = spec.M.init_params (Rng.create 77) in
  let warm = Engine.of_spec spec ~backend:gpu in
  let cold = Engine.of_spec spec ~backend:gpu in
  (* Warm the cache with one shape, then execute different payloads of
     the same shape: the second call is a hit. *)
  ignore (Engine.execute warm ~params [ perfect_payloads 1; perfect_payloads 2 ]);
  let batch = [ perfect_payloads 3; perfect_payloads 4 ] in
  let via_hit = Engine.execute warm ~params batch in
  Alcotest.(check int) "second execute hit the cache" 1
    (Engine.cache_stats warm).Shape_cache.hits;
  let via_cold = Engine.execute cold ~params batch in
  Alcotest.(check int) "fresh engine ran cold" 0
    (Engine.cache_stats cold).Shape_cache.hits;
  List.iteri
    (fun k (s : Structure.t) ->
      List.iter
        (fun (st : Ra.state) ->
          Array.iter
            (fun (node : Node.t) ->
              Alcotest.(check bool)
                (Printf.sprintf "request %d node %d state %s bitwise equal" k
                   node.Node.id st.Ra.st_name)
                true
                (Tensor.max_abs_diff
                   (Engine.state via_hit ~request:k st.Ra.st_name node)
                   (Engine.state via_cold ~request:k st.Ra.st_name node)
                = 0.0))
            s.Structure.nodes)
        spec.M.program.Ra.states)
    batch

(* Edge coverage at the capacity boundaries: 0 (disabled), 1 (every new
   shape flushes the last) and the epoch-flush threshold (the table may
   sit exactly at capacity until the next new shape). *)

let shape height seed = [ Gen.perfect_tree (Rng.create seed) ~vocab:50 ~height () ]

let lookup cache s = snd (Shape_cache.find_or_linearize cache ~max_children:2 s)

let test_cache_unit_capacity_zero () =
  let cache = Shape_cache.create ~capacity:0 () in
  Alcotest.(check bool) "first lookup misses" false (lookup cache (shape 3 1));
  Alcotest.(check bool) "same shape misses again" false (lookup cache (shape 3 2));
  let st = Shape_cache.stats cache in
  Alcotest.(check int) "no hits" 0 st.Shape_cache.hits;
  Alcotest.(check int) "two misses" 2 st.Shape_cache.misses;
  Alcotest.(check int) "nothing stored" 0 st.Shape_cache.entries;
  Alcotest.(check (float 1e-9)) "hit rate 0" 0.0 (Shape_cache.hit_rate st)

let test_cache_unit_capacity_one () =
  let cache = Shape_cache.create ~capacity:1 () in
  Alcotest.(check bool) "A cold" false (lookup cache (shape 3 1));
  Alcotest.(check bool) "A hits" true (lookup cache (shape 3 2));
  (* A new shape flushes the single slot and takes it. *)
  Alcotest.(check bool) "B cold" false (lookup cache (shape 4 1));
  Alcotest.(check int) "still one entry" 1 (Shape_cache.stats cache).Shape_cache.entries;
  Alcotest.(check bool) "B hits" true (lookup cache (shape 4 2));
  Alcotest.(check bool) "A was flushed" false (lookup cache (shape 3 3));
  let st = Shape_cache.stats cache in
  Alcotest.(check int) "hits" 2 st.Shape_cache.hits;
  Alcotest.(check int) "misses" 3 st.Shape_cache.misses;
  Alcotest.(check (float 1e-9)) "hit rate 2/5" 0.4 (Shape_cache.hit_rate st)

let test_cache_unit_epoch_flush_boundary () =
  let cache = Shape_cache.create ~capacity:3 () in
  (* Fill to exactly capacity: no flush yet — length = capacity is the
     boundary, the flush happens on the next new shape. *)
  List.iter (fun h -> ignore (lookup cache (shape h 1))) [ 2; 3; 4 ];
  Alcotest.(check int) "sits at capacity" 3 (Shape_cache.stats cache).Shape_cache.entries;
  List.iter
    (fun h -> Alcotest.(check bool) "resident shape hits" true (lookup cache (shape h 2)))
    [ 2; 3; 4 ];
  (* The fourth shape triggers the epoch flush and enters alone. *)
  Alcotest.(check bool) "fourth shape cold" false (lookup cache (shape 5 1));
  Alcotest.(check int) "table dropped wholesale" 1
    (Shape_cache.stats cache).Shape_cache.entries;
  Alcotest.(check bool) "survivor hits" true (lookup cache (shape 5 2));
  Alcotest.(check bool) "flushed shape re-misses" false (lookup cache (shape 2 3))

let test_cache_unit_clear () =
  let cache = Shape_cache.create ~capacity:8 () in
  ignore (lookup cache (shape 3 1));
  ignore (lookup cache (shape 3 2));
  Alcotest.(check bool) "warm before clear" true
    ((Shape_cache.stats cache).Shape_cache.hits > 0);
  Shape_cache.clear cache;
  let st = Shape_cache.stats cache in
  Alcotest.(check int) "hits zeroed" 0 st.Shape_cache.hits;
  Alcotest.(check int) "misses zeroed" 0 st.Shape_cache.misses;
  Alcotest.(check int) "entries dropped" 0 st.Shape_cache.entries;
  Alcotest.(check (float 1e-9)) "hit rate well-defined after clear" 0.0
    (Shape_cache.hit_rate st);
  Alcotest.(check bool) "post-clear lookup is cold" false (lookup cache (shape 3 3))

(* ---------- multi-device sharding ---------- *)

let test_device_reports_accounting () =
  let policy = { Engine.max_batch = 2; max_wait_us = 50.0; bucketing = Engine.Fifo } in
  let engine =
    Engine.of_spec
      ~config:(Engine.Config.make ~policy ~devices:[ Backend.gpu; Backend.arm ] ())
      small_spec ~backend:gpu
  in
  let rng = Rng.create 61 in
  List.iteri
    (fun i s -> ignore (Engine.submit_exn engine ~arrival_us:(10.0 *. float_of_int i) s))
    (sst_trees rng ~vocab:50 9);
  let s = Engine.drain engine in
  Alcotest.(check int) "one report per device" 2 (List.length s.Engine.device_reports);
  let total f = List.fold_left (fun acc d -> acc + f d) 0 s.Engine.device_reports in
  Alcotest.(check int) "windows partitioned" s.Engine.aggregate.Engine.num_windows
    (total (fun (d : Engine.device_report) -> d.Engine.dr_windows));
  Alcotest.(check int) "requests partitioned" s.Engine.aggregate.Engine.num_requests
    (total (fun (d : Engine.device_report) -> d.Engine.dr_requests));
  List.iter
    (fun (d : Engine.device_report) ->
      Alcotest.(check bool) "utilization in [0,1]" true
        (d.Engine.dr_utilization >= 0.0 && d.Engine.dr_utilization <= 1.0);
      Alcotest.(check bool) "occupancy in [0,1]" true
        (d.Engine.dr_occupancy >= 0.0 && d.Engine.dr_occupancy <= 1.0))
    s.Engine.device_reports;
  List.iter
    (fun (r : Engine.request_report) ->
      Alcotest.(check bool) "device index in range" true
        (r.Engine.rr_device >= 0 && r.Engine.rr_device < 2))
    s.Engine.requests

let test_dispatch_round_robin () =
  let policy = { Engine.max_batch = 1; max_wait_us = 0.0; bucketing = Engine.Fifo } in
  let engine =
    Engine.of_spec
      ~config:
        (Engine.Config.make ~policy ~dispatch:Dispatch.Round_robin
           ~devices:[ Backend.gpu; Backend.gpu ] ())
      small_spec ~backend:gpu
  in
  let rng = Rng.create 62 in
  List.iter (fun s -> ignore (Engine.submit_exn engine s)) (sst_trees rng ~vocab:50 8);
  let s = Engine.drain engine in
  List.iter
    (fun (d : Engine.device_report) ->
      Alcotest.(check int)
        (Printf.sprintf "device %d takes every other window" d.Engine.dr_index)
        4 d.Engine.dr_windows)
    s.Engine.device_reports

let test_dispatch_least_loaded () =
  (* Heterogeneous pair under a backlog, at the paper's hidden size
     (where the GPU's lane advantage is real — at toy hidden sizes the
     launch overhead dominates and ARM keeps up): the fast device frees
     up first and so absorbs more windows than the slow one. *)
  let policy = { Engine.max_batch = 4; max_wait_us = 0.0; bucketing = Engine.Fifo } in
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let engine =
    Engine.of_spec
      ~config:
        (Engine.Config.make ~policy ~dispatch:Dispatch.Least_loaded
           ~devices:[ Backend.gpu; Backend.arm ] ())
      spec ~backend:gpu
  in
  let rng = Rng.create 63 in
  List.iter
    (fun s -> ignore (Engine.submit_exn engine s))
    (List.init 32 (fun _ -> Gen.sst_tree rng ~vocab:50 ~len:20 ()));
  let s = Engine.drain engine in
  let w i =
    (List.nth s.Engine.device_reports i).Engine.dr_windows
  in
  Alcotest.(check int) "all windows placed" 8 (w 0 + w 1);
  Alcotest.(check bool)
    (Printf.sprintf "GPU (%d) outruns ARM (%d)" (w 0) (w 1))
    true
    (w 0 > w 1)

let test_dispatch_size_affinity () =
  (* Two shapes in two buckets (7 nodes -> bucket 2, 15 nodes -> bucket
     3) over two devices: each shape must land on exactly one device,
     and on different ones. *)
  let policy = { Engine.max_batch = 1; max_wait_us = 0.0; bucketing = Engine.Fifo } in
  let engine =
    Engine.of_spec
      ~config:
        (Engine.Config.make ~policy ~dispatch:Dispatch.Size_affinity
           ~devices:[ Backend.gpu; Backend.gpu ] ())
      small_spec ~backend:gpu
  in
  let rng = Rng.create 64 in
  List.iter
    (fun height -> ignore (Engine.submit_exn engine (Gen.perfect_tree rng ~vocab:50 ~height ())))
    [ 3; 4; 3; 4; 3; 4 ];
  let s = Engine.drain engine in
  let device_of nodes =
    List.filter_map
      (fun (w : Engine.window_report) ->
        if w.Engine.wr_nodes = nodes then Some w.Engine.wr_device else None)
      s.Engine.windows
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "7-node trees pinned to device 0" [ 0 ] (device_of 7);
  Alcotest.(check (list int)) "15-node trees pinned to device 1" [ 1 ] (device_of 15)

let test_device_scaling () =
  (* The acceptance shape: N homogeneous devices under an open-loop
     Poisson overload give near-linear throughput scaling. *)
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let trace =
    Trace.poisson (Rng.create 65) ~rate_rps:100_000.0 ~duration_ms:2.0
      ~gen:(fun rng -> Gen.sst_tree rng ~vocab:100 ~len:8 ())
  in
  let throughput n =
    let policy = { Engine.max_batch = 8; max_wait_us = 100.0; bucketing = Engine.Fifo } in
    let engine =
      Engine.of_spec
        ~config:
          (Engine.Config.make ~policy ~dispatch:Dispatch.Least_loaded
             ~devices:(List.init n (fun _ -> Backend.gpu)) ())
        spec ~backend:gpu
    in
    (Engine.run_trace engine trace).Engine.aggregate.Engine.throughput_rps
  in
  let t1 = throughput 1 and t2 = throughput 2 and t4 = throughput 4 in
  Alcotest.(check bool)
    (Printf.sprintf "2 devices scale (%.0f vs %.0f)" t2 t1)
    true
    (t2 > 1.5 *. t1);
  Alcotest.(check bool)
    (Printf.sprintf "4 devices scale (%.0f vs %.0f)" t4 t1)
    true
    (t4 > 2.5 *. t1)

(* ---------- trace constructor validation ---------- *)

let test_poisson_validates () =
  let gen rng = Gen.sst_tree rng ~vocab:50 () in
  let expect_invalid label f =
    try
      ignore (f ());
      Alcotest.failf "%s accepted" label
    with Invalid_argument _ -> ()
  in
  expect_invalid "zero rate" (fun () ->
      Trace.poisson (Rng.create 1) ~rate_rps:0.0 ~duration_ms:10.0 ~gen);
  expect_invalid "negative rate" (fun () ->
      Trace.poisson (Rng.create 1) ~rate_rps:(-5.0) ~duration_ms:10.0 ~gen);
  expect_invalid "zero duration" (fun () ->
      Trace.poisson (Rng.create 1) ~rate_rps:100.0 ~duration_ms:0.0 ~gen);
  expect_invalid "non-positive deadline" (fun () ->
      Trace.poisson ~deadline_us:0.0 (Rng.create 1) ~rate_rps:100.0 ~duration_ms:10.0 ~gen);
  (* Non-finite arguments: an infinite rate or duration (or a nan one)
     would never reach the horizon. *)
  List.iter
    (fun (label, rate_rps, duration_ms) ->
      expect_invalid label (fun () ->
          Trace.poisson (Rng.create 1) ~rate_rps ~duration_ms ~gen))
    [ ("infinite rate", infinity, 10.0); ("nan rate", nan, 10.0);
      ("nan duration", 100.0, nan); ("infinite duration", 100.0, infinity) ];
  expect_invalid "nan deadline" (fun () ->
      Trace.poisson ~deadline_us:nan (Rng.create 1) ~rate_rps:100.0 ~duration_ms:10.0 ~gen);
  (* and a valid call stamps absolute deadlines *)
  let t = Trace.poisson ~deadline_us:500.0 (Rng.create 1) ~rate_rps:5000.0 ~duration_ms:10.0 ~gen in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.deadline_us with
      | None -> Alcotest.fail "deadline dropped"
      | Some d -> Alcotest.(check (float 1e-9)) "absolute deadline" (e.Trace.at_us +. 500.0) d)
    t

let test_of_structures_validates () =
  let rng = Rng.create 2 in
  let trees = [ Gen.sst_tree rng ~vocab:50 (); Gen.sst_tree rng ~vocab:50 () ] in
  (try
     ignore (Trace.of_structures ~spacing_us:(-1.0) trees);
     Alcotest.fail "negative spacing accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Trace.of_structures ~deadline_us:(-10.0) trees);
     Alcotest.fail "negative deadline accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Trace.of_structures ~spacing_us:nan trees);
     Alcotest.fail "nan spacing accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Trace.of_structures ~deadline_us:nan trees);
     Alcotest.fail "nan deadline accepted"
   with Invalid_argument _ -> ());
  let t = Trace.of_structures ~spacing_us:10.0 ~deadline_us:100.0 trees in
  Alcotest.(check (list (float 1e-9))) "arrivals spaced" [ 0.0; 10.0 ]
    (List.map (fun (e : Trace.event) -> e.Trace.at_us) t);
  Alcotest.(check (list (float 1e-9))) "deadlines absolute" [ 100.0; 110.0 ]
    (List.map
       (fun (e : Trace.event) -> Option.get e.Trace.deadline_us)
       t)

(* ---------- the cross-request batching payoff ---------- *)

let test_gpu_throughput_monotone_in_window () =
  (* The serve bench's acceptance shape: for small trees on the GPU,
     simulated throughput improves monotonically with the batch window —
     cross-request forests amortize kernel launches and fill the wide
     machine's lanes. *)
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let rng = Rng.create 41 in
  let requests = List.init 24 (fun _ -> Gen.sst_tree rng ~vocab:100 ~len:8 ()) in
  let throughput w =
    let policy = { Engine.max_batch = w; max_wait_us = 0.0; bucketing = Engine.Fifo } in
    let engine = Engine.of_spec ~config:(Engine.Config.make ~policy ()) spec ~backend:gpu in
    let s = Engine.run_trace engine (Trace.of_structures requests) in
    s.Engine.aggregate.Engine.throughput_rps
  in
  let sweep = List.map (fun w -> (w, throughput w)) [ 1; 2; 4; 8; 16 ] in
  let rec monotone = function
    | (wa, a) :: ((wb, b) :: _ as tl) ->
      Alcotest.(check bool)
        (Printf.sprintf "throughput(%d)=%.0f < throughput(%d)=%.0f" wa a wb b)
        true (a < b);
      monotone tl
    | _ -> ()
  in
  monotone sweep

let () =
  Alcotest.run "serve"
    [
      ( "forest",
        [
          Alcotest.test_case "invariants" `Quick test_run_forest_invariants;
          Alcotest.test_case "singleton" `Quick test_forest_of_one_matches_run;
          Alcotest.test_case "equivalence-treelstm" `Quick test_forest_equivalence_treelstm;
          Alcotest.test_case "equivalence-dagrnn" `Quick test_forest_equivalence_dagrnn;
        ] );
      ( "validation",
        [
          Alcotest.test_case "fanout" `Quick test_submit_rejects_fanout;
          Alcotest.test_case "kind" `Quick test_submit_rejects_kind;
          Alcotest.test_case "cycle" `Quick test_cycle_unconstructible;
          Alcotest.test_case "linearizer-fanout" `Quick test_linearizer_rejects_fanout;
          Alcotest.test_case "forest-shapes" `Quick test_linearizer_rejects_forest_shapes;
        ] );
      ( "policies",
        [
          Alcotest.test_case "max-batch" `Quick test_policy_max_batch;
          Alcotest.test_case "max-wait" `Quick test_policy_max_wait;
          Alcotest.test_case "nan-waits" `Quick test_nan_waits_refused;
          Alcotest.test_case "bucketing" `Quick test_policy_bucketing;
          Alcotest.test_case "empty-drain" `Quick test_empty_drain;
          Alcotest.test_case "run-one" `Quick test_run_one_matches_runtime;
        ] );
      ( "windows",
        [
          Alcotest.test_case "deadline-joins" `Quick test_arrival_exactly_at_deadline_joins;
          Alcotest.test_case "max-batch-one" `Quick test_max_batch_one;
          Alcotest.test_case "simultaneous" `Quick test_simultaneous_arrivals;
          Alcotest.test_case "drain-flush" `Quick test_drain_is_a_flush;
          Alcotest.test_case "negative-arrivals" `Quick test_negative_arrivals;
        ] );
      ( "shape-cache",
        [
          Alcotest.test_case "drain-hits" `Quick test_cache_hits_in_drain;
          Alcotest.test_case "disabled" `Quick test_cache_disabled;
          Alcotest.test_case "bitwise-equivalence" `Quick test_cache_hit_bitwise_equivalence;
          Alcotest.test_case "capacity-zero" `Quick test_cache_unit_capacity_zero;
          Alcotest.test_case "capacity-one" `Quick test_cache_unit_capacity_one;
          Alcotest.test_case "epoch-flush-boundary" `Quick test_cache_unit_epoch_flush_boundary;
          Alcotest.test_case "clear" `Quick test_cache_unit_clear;
        ] );
      ( "devices",
        [
          Alcotest.test_case "reports" `Quick test_device_reports_accounting;
          Alcotest.test_case "round-robin" `Quick test_dispatch_round_robin;
          Alcotest.test_case "least-loaded" `Quick test_dispatch_least_loaded;
          Alcotest.test_case "size-affinity" `Quick test_dispatch_size_affinity;
          Alcotest.test_case "scaling" `Quick test_device_scaling;
        ] );
      ( "trace",
        [
          Alcotest.test_case "poisson-validates" `Quick test_poisson_validates;
          Alcotest.test_case "of-structures-validates" `Quick test_of_structures_validates;
        ] );
      ( "serving",
        [
          Alcotest.test_case "gpu-throughput-monotone" `Quick
            test_gpu_throughput_monotone_in_window;
        ] );
    ]
