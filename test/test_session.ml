(* Session-pinned serving: growing conversations served as deltas.

   The contract under test is the serving tentpole: a session's token
   is served by re-running only the grown tail with pre-seeded
   persistent states, and that must be bitwise indistinguishable from
   re-linearizing and re-executing the whole conversation cold — for
   every node's every state, at every step, across failovers and
   through AOT bundles.  A session's one layout is its growing layout
   in the linearizer: failovers and restores leave the shape cache
   alone, and only a layout regrowth counts as a materialization.  The
   shape-cache tests pin the accounting: counters move only after the
   work they account for succeeded, epoch eviction drops entries but
   never history. *)

open Cortex
module M = Models.Common
module Q = QCheck

let gpu = Backend.gpu

(* The whole conversation, token by token: structures share their
   prefix nodes physically, which is what the session delta path
   keys on. *)
let conversation seed ~vocab ~kind ~tokens =
  Gen.conversation (Rng.create seed) ~vocab ~kind ~tokens ()

let engine_of spec ?devices ?faults ?seed params =
  Engine.of_spec
    ~config:
      (Engine.Config.make
         ?devices ?faults ?seed ~dispatch:Dispatch.Least_loaded ~params ())
    spec ~backend:gpu

(* Serve every token of [structs] under one session in a single drain
   (each session token is its own pinned window, played in arrival
   order) and return the summary. *)
let serve_session eng ?(session = "chat") structs =
  List.iteri
    (fun i s ->
      ignore
        (Engine.submit_exn eng ~arrival_us:(1000.0 *. float_of_int i) ~session s))
    structs;
  Engine.drain eng

let check_states_bitwise spec eng ~session compiled params s =
  let solo = Runtime.execute compiled ~params s in
  List.iter
    (fun (st : Ra.state) ->
      Array.iter
        (fun (node : Node.t) ->
          match Engine.session_state eng session st.Ra.st_name node with
          | None ->
            Alcotest.failf "no persisted state %s for node %d" st.Ra.st_name
              node.Node.id
          | Some v ->
            Alcotest.(check bool)
              (Printf.sprintf "node %d state %s bitwise" node.Node.id
                 st.Ra.st_name)
              true
              (Tensor.max_abs_diff v (Runtime.state solo st.Ra.st_name node)
              = 0.0))
        s.Structure.nodes)
    spec.M.program.Ra.states

(* ---------- delta serving is bitwise-identical to cold ---------- *)

let check_grow_bitwise spec ~vocab ~kind ~tokens seed =
  let params = spec.M.init_params (Rng.create (seed + 1)) in
  let compiled = Runtime.compile spec.M.program in
  let eng = engine_of spec params in
  let structs = conversation seed ~vocab ~kind ~tokens in
  let s = serve_session eng structs in
  Alcotest.(check int) "all tokens completed" (tokens + 1)
    s.Engine.slo.Engine.slo_completed;
  (* Every persisted state of the final conversation matches a cold
     full execution, and each token's root output matched its own
     prefix's cold run. *)
  let final = List.nth structs tokens in
  check_states_bitwise spec eng ~session:"chat" compiled params final;
  List.iteri
    (fun i st ->
      let solo = Runtime.execute compiled ~params st in
      let out = List.hd spec.M.program.Ra.outputs in
      let root = List.hd st.Structure.roots in
      let v = List.assoc i s.Engine.results in
      Alcotest.(check bool)
        (Printf.sprintf "token %d root output bitwise" i)
        true
        (Tensor.max_abs_diff v (Runtime.state solo out root) = 0.0))
    structs;
  (* The session actually served deltas: one cold window, the rest
     grow-by-one extensions. *)
  match Engine.sessions eng with
  | [ sn ] ->
    Alcotest.(check string) "session name" "chat" sn.Engine.sn_name;
    Alcotest.(check int) "windows" (tokens + 1) sn.Engine.sn_windows;
    Alcotest.(check int) "one cold window" 1 sn.Engine.sn_cold;
    Alcotest.(check int) "rest served as deltas" tokens sn.Engine.sn_extends;
    Alcotest.(check int) "final nodes" (Structure.num_nodes final)
      sn.Engine.sn_nodes;
    Alcotest.(check bool) "device pinned" true (sn.Engine.sn_device >= 0)
  | l -> Alcotest.failf "expected one session, got %d" (List.length l)

let test_tree_bitwise () =
  check_grow_bitwise
    (Models.Tree_lstm.spec ~vocab:20 ~hidden:5 ())
    ~vocab:20 ~kind:Structure.Tree ~tokens:12 3

let test_sequence_bitwise () =
  check_grow_bitwise
    (Models.Tree_lstm.spec ~vocab:20 ~hidden:4 ~sequence:true ())
    ~vocab:20 ~kind:Structure.Sequence ~tokens:10 5

let test_dag_bitwise () =
  check_grow_bitwise
    (Models.Dag_rnn.spec ~rows:5 ~cols:5 ~hidden:4 ())
    (* [grow_one] stamps internal nodes with payload [vocab], and the
       DAG-RNN reads X[payload] at every node — keep vocab+1 <= cells. *)
    ~vocab:24 ~kind:Structure.Dag ~tokens:8 7

(* Property form: any kind, any length, same contract. *)
let prop_grow_bitwise =
  Q.Test.make ~count:8 ~name:"session delta serving == cold (all kinds)"
    Q.(pair (int_bound 2) (pair (1 -- 10) small_int))
    (fun (k, (tokens, seed)) ->
      let kind, spec, vocab =
        match k with
        | 0 ->
          (Structure.Tree, Models.Tree_lstm.spec ~vocab:15 ~hidden:3 (), 15)
        | 1 ->
          ( Structure.Sequence,
            Models.Tree_gru.spec ~vocab:15 ~hidden:3 ~sequence:true (),
            15 )
        | _ -> (Structure.Dag, Models.Dag_rnn.spec ~rows:4 ~cols:4 ~hidden:3 (), 15)
      in
      check_grow_bitwise spec ~vocab ~kind ~tokens (100 + seed);
      true)

(* ---------- a cold token is a base-0 step ---------- *)

(* Every catalog model at hidden 4, compiled once. *)
let catalog =
  lazy
    (List.map
       (fun (spec : M.t) -> (spec, Runtime.compile spec.M.program))
       [
         Models.Tree_fc.spec ~hidden:4 ();
         Models.Tree_rnn.spec ~hidden:4 ();
         Models.Tree_lstm.spec ~hidden:4 ();
         Models.Tree_lstm.nary_spec ~hidden:4 ();
         Models.Tree_gru.spec ~hidden:4 ();
         Models.Tree_gru.spec ~simple:true ~hidden:4 ();
         Models.Mv_rnn.spec ~hidden:4 ();
         Models.Dag_rnn.spec ~hidden:4 ();
         Models.Tree_lstm.spec ~sequence:true ~hidden:4 ();
         Models.Tree_gru.spec ~sequence:true ~hidden:4 ();
         Models.Tree_gru.spec ~simple:true ~sequence:true ~hidden:4 ();
       ])

(* A random structure of the model's kind, every payload folded into
   the rows of the model's input tables.  Nodes are rebuilt in id order,
   which lists children first, so every id is kept. *)
let random_input rng (spec : M.t) =
  let prog = spec.M.program in
  let shape =
    match prog.Ra.kind with
    | Structure.Tree -> Gen.sst_tree rng ~len:(1 + Rng.int rng 12) ()
    | Structure.Sequence -> Gen.sequence rng ~len:(1 + Rng.int rng 12) ()
    | Structure.Dag -> Gen.random_dag rng ~max_nodes:16 ~max_children:prog.Ra.max_children
  in
  let rows =
    List.fold_left
      (fun m (name, dims) ->
        if name = "X" || String.starts_with ~prefix:"Emb" name then min m (List.hd dims)
        else m)
      max_int prog.Ra.params
  in
  let b = Node.builder () in
  let made = Array.make (Structure.num_nodes shape) None in
  let copy (n : Node.t) = Option.get made.(n.Node.id) in
  Array.iter
    (fun (n : Node.t) ->
      made.(n.Node.id) <-
        Some
          (Node.make b ~payload:(n.Node.payload mod rows)
             (List.map copy (Array.to_list n.Node.children))))
    shape.Structure.nodes;
  Structure.create ~kind:shape.Structure.kind ~max_children:shape.Structure.max_children
    (List.map copy shape.Structure.roots)

let bits (v : Tensor.t) = Array.map Int64.bits_of_float v.Tensor.data

(* The step a cold session token plays against the forest a regular
   window of the same structure plays: equal prices, bit for bit, on
   every backend, and equal states at every node. *)
let prop_seed_is_cold_run =
  Q.Test.make ~count:6 ~name:"a base-0 step prices and executes as run_forest"
    Q.small_int
    (fun seed ->
      let rng = Rng.create (700 + seed) in
      List.iter
        (fun ((spec : M.t), compiled) ->
          let s = random_input rng spec in
          let mc = spec.M.program.Ra.max_children in
          let g = Linearizer.empty_layout ~max_children:mc in
          let st = Linearizer.seed g s in
          let fl = Linearizer.run_forest ~max_children:mc [ s ] in
          let ids = fl.Linearizer.spans.(0).Linearizer.span_ids in
          let label = Printf.sprintf "%s, %d nodes" spec.M.name (Structure.num_nodes s) in
          if
            st.Linearizer.step_base <> 0
            || Array.length st.Linearizer.step_nodes <> Structure.num_nodes s
          then Q.Test.fail_reportf "%s: not a whole-structure step" label;
          List.iter
            (fun backend ->
              let price lin =
                Marshal.to_string
                  (Runtime.simulate_lin compiled ~backend lin)
                  [ Marshal.No_sharing ]
              in
              if price st.Linearizer.step_view <> price fl.Linearizer.lin then
                Q.Test.fail_reportf "%s: priced unlike run_forest on %s" label
                  backend.Backend.short)
            Backend.all;
          let params = spec.M.init_params (Rng.create seed) in
          let run lin = (Runtime.execute_lin compiled ~params lin).Runtime.exec_bound in
          let by_step = run st.Linearizer.step_view and by_forest = run fl.Linearizer.lin in
          Array.iter
            (fun (nd : Node.t) ->
              List.iter
                (fun (state : Ra.state) ->
                  let at bound id =
                    bits (Lower.state_value_lin bound compiled state.Ra.st_name id)
                  in
                  if
                    at by_step (Linearizer.layout_id g nd.Node.id)
                    <> at by_forest ids.(nd.Node.id)
                  then
                    Q.Test.fail_reportf "%s: state %s of node %d differs" label
                      state.Ra.st_name nd.Node.id)
                spec.M.program.Ra.states)
            s.Structure.nodes)
        (Lazy.force catalog);
      true)

(* ---------- per-token windows and interleaving ---------- *)

let test_session_windows () =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let params = spec.M.init_params (Rng.create 2) in
  let eng = engine_of spec params in
  (* Two sessions interleaved with regular one-off requests in the same
     drain: sessions get their own size-1 pinned windows, the one-offs
     batch as usual. *)
  let ca = conversation 21 ~vocab:20 ~kind:Structure.Tree ~tokens:3 in
  let cb = conversation 22 ~vocab:20 ~kind:Structure.Tree ~tokens:3 in
  let rng = Rng.create 23 in
  List.iteri
    (fun i (a, b) ->
      let at = 500.0 *. float_of_int i in
      ignore (Engine.submit_exn eng ~arrival_us:at ~session:"a" a);
      ignore (Engine.submit_exn eng ~arrival_us:(at +. 100.0) ~session:"b" b);
      ignore
        (Engine.submit_exn eng ~arrival_us:(at +. 200.0)
           (Gen.sst_tree rng ~vocab:20 ())))
    (List.combine ca cb);
  let s = Engine.drain eng in
  Alcotest.(check int) "everything completed" 12
    s.Engine.slo.Engine.slo_completed;
  let swin =
    List.filter (fun w -> w.Engine.wr_session <> None) s.Engine.windows
  in
  Alcotest.(check int) "one window per session token" 8 (List.length swin);
  List.iter
    (fun w -> Alcotest.(check int) "session windows are size 1" 1 w.Engine.wr_size)
    swin;
  (* Each session sticks to one device across its windows. *)
  List.iter
    (fun name ->
      match
        List.sort_uniq compare
          (List.filter_map
             (fun w ->
               if w.Engine.wr_session = Some name then Some w.Engine.wr_device
               else None)
             s.Engine.windows)
      with
      | [ _ ] -> ()
      | ds -> Alcotest.failf "session %s ran on %d devices" name (List.length ds))
    [ "a"; "b" ];
  Alcotest.(check int) "two live sessions" 2 (List.length (Engine.sessions eng));
  Engine.close_session eng "a";
  Alcotest.(check int) "closed session is gone" 1
    (List.length (Engine.sessions eng))

(* ---------- a different conversation under the same name ---------- *)

let test_session_replacement () =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let params = spec.M.init_params (Rng.create 4) in
  let compiled = Runtime.compile spec.M.program in
  let eng = engine_of spec params in
  ignore (serve_session eng (conversation 31 ~vocab:20 ~kind:Structure.Tree ~tokens:4));
  (* A brand-new conversation under the same name: served cold, the old
     persisted state dropped, and correctness unaffected. *)
  let fresh = conversation 32 ~vocab:20 ~kind:Structure.Tree ~tokens:2 in
  let s = serve_session eng fresh in
  Alcotest.(check int) "fresh tokens completed" 3
    s.Engine.slo.Engine.slo_completed;
  check_states_bitwise spec eng ~session:"chat" compiled params
    (List.nth fresh 2);
  match Engine.sessions eng with
  | [ sn ] ->
    Alcotest.(check int) "replacement went cold once more" 2 sn.Engine.sn_cold;
    Alcotest.(check int) "then kept extending" 6 sn.Engine.sn_extends
  | _ -> Alcotest.fail "expected one session"

(* A cold token is laid out once, as its session's layout step: it
   never reaches the shape cache, neither as a conversation's first
   token nor as a replacement under the same name. *)
let test_cold_tokens_skip_cache () =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let eng = engine_of spec (spec.M.init_params (Rng.create 4)) in
  let before = Engine.cache_stats eng in
  let s =
    serve_session eng
      (conversation 33 ~vocab:20 ~kind:Structure.Tree ~tokens:3
      @ conversation 34 ~vocab:20 ~kind:Structure.Tree ~tokens:2)
  in
  Alcotest.(check int) "every token completed" 7 s.Engine.slo.Engine.slo_completed;
  (match Engine.sessions eng with
   | [ sn ] -> Alcotest.(check int) "two cold tokens" 2 sn.Engine.sn_cold
   | _ -> Alcotest.fail "expected one session");
  Alcotest.(check bool) "the shape cache is untouched" true
    (Engine.cache_stats eng = before);
  List.iter
    (fun w ->
      Alcotest.(check bool) "no session window is a cache hit" false w.Engine.wr_cache_hit)
    s.Engine.windows

(* A schedule that cannot run a step over a pre-seeded prefix cannot
   serve a session: the submission is refused with a typed error and
   counted as rejected, and regular requests still serve. *)
let test_non_delta_schedule_refused () =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let s = List.hd (conversation 35 ~vocab:20 ~kind:Structure.Tree ~tokens:0) in
  List.iter
    (fun (label, options) ->
      let eng =
        Engine.of_spec ~config:(Engine.Config.make ~options ()) spec ~backend:gpu
      in
      (match Engine.submit eng ~session:"chat" s with
       | Error Engine.No_session_deltas -> ()
       | Ok _ -> Alcotest.failf "%s: a session was accepted" label
       | Error e -> Alcotest.failf "%s: wrong error: %s" label (Engine.error_to_string e));
      ignore (Engine.submit_exn eng s);
      let sum = Engine.drain eng in
      Alcotest.(check int) (label ^ ": counted as rejected") 1
        sum.Engine.slo.Engine.slo_rejected;
      Alcotest.(check int) (label ^ ": the regular request served") 1
        sum.Engine.slo.Engine.slo_completed;
      Alcotest.(check int) (label ^ ": no session") 0 (List.length (Engine.sessions eng)))
    [
      ("unrolled", { Lower.default with Lower.unroll = true });
      ("unfused", { Lower.default with Lower.fuse = false });
      ("unspecialized", { Lower.default with Lower.specialize = false });
      ("no dynamic batching", { Lower.default with Lower.dynamic_batch = false });
    ]

(* ---------- failover: the pinned device dies mid-conversation ---------- *)

let failover_spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 ()

let run_failover ~faults ~seed =
  let params = failover_spec.M.init_params (Rng.create 9) in
  let eng = engine_of failover_spec ~devices:[ gpu; gpu ] ~faults ~seed params in
  let structs = conversation 41 ~vocab:20 ~kind:Structure.Tree ~tokens:8 in
  let s = serve_session eng structs in
  (eng, structs, s)

let test_session_failover () =
  (* Probe the fault-free run to learn which device the session pins,
     then kill exactly that device mid-conversation. *)
  let probe, _, _ = run_failover ~faults:[] ~seed:42 in
  let pinned =
    match Engine.sessions probe with
    | [ sn ] -> sn.Engine.sn_device
    | _ -> Alcotest.fail "expected one session"
  in
  let faults = [ Fault.Fail_stop { device = pinned; at_us = 3500.0 } ] in
  let eng, structs, s = run_failover ~faults ~seed:42 in
  Alcotest.(check int) "every token completed despite the fail-stop" 9
    s.Engine.slo.Engine.slo_completed;
  (match Engine.sessions eng with
   | [ sn ] ->
     Alcotest.(check bool) "failover re-pinned the session" true
       (sn.Engine.sn_rebinds >= 1);
     Alcotest.(check bool) "re-pinned to the survivor" true
       (sn.Engine.sn_device >= 0 && sn.Engine.sn_device <> pinned)
   | _ -> Alcotest.fail "expected one session");
  (* The re-pin rebuilds no layout: the shape cache reads as if the
     fail-stop had never happened. *)
  let clean = Engine.cache_stats probe and faulted = Engine.cache_stats eng in
  Alcotest.(check int) "cache hits as fault-free" clean.Shape_cache.hits
    faulted.Shape_cache.hits;
  Alcotest.(check int) "cache misses as fault-free" clean.Shape_cache.misses
    faulted.Shape_cache.misses;
  Alcotest.(check int) "cache entries as fault-free" clean.Shape_cache.entries
    faulted.Shape_cache.entries;
  (* Failing over cannot perturb the numbers: the re-pinned session
     serves the same deltas. *)
  let compiled = Runtime.compile failover_spec.M.program in
  let params = failover_spec.M.init_params (Rng.create 9) in
  check_states_bitwise failover_spec eng ~session:"chat" compiled params
    (List.nth structs 8)

let render_sessions (s : Engine.summary) =
  String.concat ";"
    (List.map
       (fun (x : Engine.session_report) ->
         Printf.sprintf "%s:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d" x.Engine.sn_name
           x.Engine.sn_nodes x.Engine.sn_windows x.Engine.sn_delta_nodes
           x.Engine.sn_extends x.Engine.sn_cold x.Engine.sn_materializations
           x.Engine.sn_rebinds x.Engine.sn_device x.Engine.sn_packed
           x.Engine.sn_deadline_misses)
       s.Engine.sessions)

let test_session_chaos_determinism () =
  let faults = [ Fault.Fail_stop { device = 0; at_us = 2500.0 } ] in
  let run () =
    let _, _, s = run_failover ~faults ~seed:7 in
    Printf.sprintf "%d/%d/%.6f|%s" s.Engine.slo.Engine.slo_completed
      s.Engine.slo.Engine.slo_failovers s.Engine.aggregate.Engine.makespan_us
      (render_sessions s)
  in
  Alcotest.(check string) "same seed, same session history" (run ()) (run ())

(* ---------- sessions survive AOT bundles ---------- *)

let test_session_through_bundle () =
  let spec = Models.Tree_fc.spec ~vocab:12 ~hidden:4 () in
  let compiled = Runtime.compile spec.M.program in
  let weights = Checkpoint.of_spec spec ~seed:5 in
  let b =
    Bundle.create ~weights ~model:"TreeFC" ~size:"small"
      ~backend:gpu.Backend.short compiled
  in
  let eng =
    Engine.of_bundle
      ~config:(Engine.Config.make ~params:(Bundle.resolver b) ())
      b ~backend:gpu
  in
  let structs = conversation 51 ~vocab:12 ~kind:Structure.Tree ~tokens:6 in
  let s = serve_session eng structs in
  Alcotest.(check int) "bundle-served tokens completed" 7
    s.Engine.slo.Engine.slo_completed;
  (match Engine.sessions eng with
   | [ sn ] ->
     Alcotest.(check int) "bundle engine serves deltas" 6 sn.Engine.sn_extends
   | _ -> Alcotest.fail "expected one session");
  check_states_bitwise spec eng ~session:"chat" compiled
    (Checkpoint.resolver weights)
    (List.nth structs 6)

(* ---------- bounded session table: evict, spill, restore ---------- *)

let engine_bounded spec ?devices ?faults ?seed ?session_budget_bytes ?session_ttl_us
    ?session_spill_dir ?session_pack_window ?session_pack_wait_us params =
  Engine.of_spec
    ~config:
      (Engine.Config.make ?devices ?faults ?seed ~dispatch:Dispatch.Least_loaded
         ~params ?session_budget_bytes ?session_ttl_us ?session_spill_dir
         ?session_pack_window ?session_pack_wait_us ())
    spec ~backend:gpu

(* Submit tokens [from, upto) of a conversation (arrival = absolute
   token index, so later drains continue the same simulated timeline)
   and drain. *)
let serve_slice eng ?(session = "chat") ~from ~upto structs =
  List.iteri
    (fun i s ->
      if i >= from && i < upto then
        ignore
          (Engine.submit_exn eng
             ~arrival_us:(1000.0 *. float_of_int i)
             ~session s))
    structs;
  Engine.drain eng

(* The tentpole contract: evict mid-conversation, resume, and the
   restored run is bitwise the never-evicted run — every node's every
   state, via the spilled checkpoint section. *)
let test_evict_restore_bitwise () =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let params = spec.M.init_params (Rng.create 6) in
  let compiled = Runtime.compile spec.M.program in
  let structs = conversation 61 ~vocab:20 ~kind:Structure.Tree ~tokens:10 in
  let eng = engine_of spec params in
  let s1 = serve_slice eng ~from:0 ~upto:6 structs in
  Alcotest.(check int) "first half completed" 6 s1.Engine.slo.Engine.slo_completed;
  let before = List.hd (Engine.sessions eng) in
  Alcotest.(check bool) "evicted" true (Engine.evict_session eng "chat");
  Alcotest.(check (list bool)) "no longer live, reported spilled" [ true ]
    (List.map (fun (x : Engine.session_report) -> x.Engine.sn_spilled) (Engine.sessions eng));
  let st = Engine.session_table_stats eng in
  Alcotest.(check int) "spill held for re-admission" 1
    st.Session_store.st_spilled;
  Alcotest.(check int) "one eviction counted" 1 st.Session_store.st_evictions;
  (* Evicting what is already gone is a no-op. *)
  Alcotest.(check bool) "double evict refused" false
    (Engine.evict_session eng "chat");
  (* The conversation resumes: restore, then keep serving deltas over
     the layout reseeded from the spill.  No layout goes through
     the shape cache. *)
  let cache = Engine.cache_stats eng in
  let s2 = serve_slice eng ~from:6 ~upto:11 structs in
  Alcotest.(check int) "restore adds no cache miss" cache.Shape_cache.misses
    (Engine.cache_stats eng).Shape_cache.misses;
  Alcotest.(check int) "restore adds no cache entry" cache.Shape_cache.entries
    (Engine.cache_stats eng).Shape_cache.entries;
  Alcotest.(check int) "second half completed" 5 s2.Engine.slo.Engine.slo_completed;
  let st = Engine.session_table_stats eng in
  Alcotest.(check int) "spill consumed" 0 st.Session_store.st_spilled;
  Alcotest.(check int) "one restore counted" 1 st.Session_store.st_restores;
  Alcotest.(check bool) "restore cost priced" true
    (st.Session_store.st_restore_us > 0.0);
  (match Engine.sessions eng with
   | [ sn ] ->
     (* The restored tokens all served as deltas — re-admission did not
        fall back to a cold replay — and the counters kept counting
        across the eviction. *)
     Alcotest.(check int) "no cold window after restore" before.Engine.sn_cold
       sn.Engine.sn_cold;
     Alcotest.(check int) "every restored token a delta" (before.Engine.sn_extends + 5)
       sn.Engine.sn_extends;
     Alcotest.(check int) "one eviction in the report" 1 sn.Engine.sn_evictions;
     Alcotest.(check int) "one restore in the report" 1 sn.Engine.sn_restores;
     Alcotest.(check bool) "accounted bytes priced" true (sn.Engine.sn_bytes > 0)
   | l -> Alcotest.failf "expected one session, got %d" (List.length l));
  (* Bitwise: every persisted state of the final conversation equals a
     cold full execution — evict -> restore ≡ never evicted. *)
  check_states_bitwise spec eng ~session:"chat" compiled params
    (List.nth structs 10)

let test_ttl_expiry_and_return () =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let params = spec.M.init_params (Rng.create 8) in
  let compiled = Runtime.compile spec.M.program in
  let eng = engine_bounded spec ~session_ttl_us:2500.0 params in
  let a = conversation 71 ~vocab:20 ~kind:Structure.Tree ~tokens:12 in
  let b = conversation 72 ~vocab:20 ~kind:Structure.Tree ~tokens:12 in
  (* [b] speaks twice early, then goes quiet while [a] keeps talking
     past b's TTL horizon. *)
  List.iteri
    (fun i s ->
      ignore
        (Engine.submit_exn eng ~arrival_us:(1000.0 *. float_of_int i) ~session:"a" s))
    a;
  List.iteri
    (fun i s ->
      if i < 2 then
        ignore
          (Engine.submit_exn eng
             ~arrival_us:((1000.0 *. float_of_int i) +. 50.0)
             ~session:"b" s))
    b;
  ignore (Engine.drain eng);
  let st = Engine.session_table_stats eng in
  Alcotest.(check int) "the quiet session expired" 1 st.Session_store.st_expired;
  Alcotest.(check int) "its spill is held" 1 st.Session_store.st_spilled;
  Alcotest.(check (list (pair string bool))) "only the talker stays live"
    [ ("a", false); ("b", true) ]
    (List.map
       (fun (x : Engine.session_report) -> (x.Engine.sn_name, x.Engine.sn_spilled))
       (Engine.sessions eng));
  (* [b] comes back much later: restored from the spill, and its final
     states are bitwise the never-expired run.  Its own tokens arrive
     densely, so it does not re-expire mid-drain. *)
  List.iteri
    (fun i s ->
      if i >= 2 then
        ignore
          (Engine.submit_exn eng
             ~arrival_us:(20000.0 +. (300.0 *. float_of_int i))
             ~session:"b" s))
    b;
  ignore (Engine.drain eng);
  let st = Engine.session_table_stats eng in
  Alcotest.(check int) "the returner restored" 1 st.Session_store.st_restores;
  Alcotest.(check bool) "b is live again" true
    (List.exists (fun (x : Engine.session_report) -> x.Engine.sn_name = "b")
       (Engine.sessions eng));
  check_states_bitwise spec eng ~session:"b" compiled params (List.nth b 12)

(* A session whose only window was lost holds no structure: idle past
   the TTL, it is evicted with nothing to spill, and that eviction is
   still an expiry. *)
let test_ttl_expires_structureless () =
  let params = failover_spec.M.init_params (Rng.create 9) in
  let faults =
    [ Fault.Transient { device = -1; prob = 1.0; from_us = 0.0; until_us = 4000.0 } ]
  in
  let eng = engine_bounded failover_spec ~faults ~session_ttl_us:1000.0 params in
  let lost = List.hd (conversation 43 ~vocab:20 ~kind:Structure.Tree ~tokens:0) in
  let later = List.hd (conversation 44 ~vocab:20 ~kind:Structure.Tree ~tokens:0) in
  ignore (Engine.submit_exn eng ~arrival_us:0.0 ~session:"lost" lost);
  ignore (Engine.submit_exn eng ~arrival_us:20000.0 ~session:"later" later);
  let s = Engine.drain eng in
  Alcotest.(check int) "the first window was lost" 1 s.Engine.slo.Engine.slo_lost;
  let st = Engine.session_table_stats eng in
  Alcotest.(check int) "one eviction" 1 st.Session_store.st_evictions;
  Alcotest.(check int) "it expired" 1 st.Session_store.st_expired;
  Alcotest.(check int) "nothing spilled" 0 st.Session_store.st_spills

(* Satellite: eviction x failover.  Evict, fail-stop the device the
   session was pinned to, resume — the restore must re-pin to the
   survivor and still be bitwise-correct. *)
let test_evict_failover_restore () =
  let params = failover_spec.M.init_params (Rng.create 9) in
  let structs = conversation 81 ~vocab:20 ~kind:Structure.Tree ~tokens:8 in
  let compiled = Runtime.compile failover_spec.M.program in
  let run faults =
    let eng =
      engine_bounded failover_spec ~devices:[ gpu; gpu ] ~faults ~seed:11 params
    in
    ignore (serve_slice eng ~from:0 ~upto:5 structs);
    let pinned =
      match Engine.sessions eng with
      | [ sn ] -> sn.Engine.sn_device
      | _ -> Alcotest.fail "expected one session"
    in
    ignore (Engine.evict_session eng "chat");
    let s2 = serve_slice eng ~from:5 ~upto:9 structs in
    (eng, pinned, s2)
  in
  (* Probe the fault-free run to learn the pin, then kill exactly that
     device while the session sits evicted. *)
  let _, pinned, _ = run [] in
  let eng, pinned2, s2 =
    run [ Fault.Fail_stop { device = pinned; at_us = 6000.0 } ]
  in
  Alcotest.(check int) "probe and chaos run pin alike" pinned pinned2;
  Alcotest.(check int) "every resumed token completed" 4
    s2.Engine.slo.Engine.slo_completed;
  let st = Engine.session_table_stats eng in
  Alcotest.(check int) "restored despite the dead pin" 1
    st.Session_store.st_restores;
  (match Engine.sessions eng with
   | [ sn ] ->
     Alcotest.(check bool) "re-pinned to the survivor" true
       (sn.Engine.sn_device >= 0 && sn.Engine.sn_device <> pinned)
   | _ -> Alcotest.fail "expected one session");
  check_states_bitwise failover_spec eng ~session:"chat" compiled params
    (List.nth structs 8)

(* A fresh spill directory for [f], removed with its files afterwards. *)
let with_spill_dir f =
  let dir = Filename.temp_file "cortex-spill" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let spill_files dir =
  List.filter (fun f -> Filename.check_suffix f ".csx") (Array.to_list (Sys.readdir dir))

(* File-backed spills survive a full engine restart: a fresh engine
   (here: serving the same AOT bundle) finds its predecessor's .csx
   and resumes the conversation bitwise. *)
let test_restart_restore_from_disk () =
  let spec = Models.Tree_fc.spec ~vocab:12 ~hidden:4 () in
  let compiled = Runtime.compile spec.M.program in
  let weights = Checkpoint.of_spec spec ~seed:5 in
  let b =
    Bundle.create ~weights ~model:"TreeFC" ~size:"small"
      ~backend:gpu.Backend.short compiled
  in
  let dir = Filename.temp_file "cortex-spill" "" in
  Sys.remove dir;
  let mk () =
    Engine.of_bundle
      ~config:
        (Engine.Config.make ~params:(Bundle.resolver b) ~session_spill_dir:dir ())
      b ~backend:gpu
  in
  let structs = conversation 91 ~vocab:12 ~kind:Structure.Tree ~tokens:9 in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let eng1 = mk () in
      ignore (serve_slice eng1 ~from:0 ~upto:6 structs);
      ignore (Engine.evict_session eng1 "chat");
      Alcotest.(check bool) "spill file written" true
        (Array.exists
           (fun f -> Filename.check_suffix f ".csx")
           (Sys.readdir dir));
      (* The first engine is gone; a restarted one picks the file up. *)
      let eng2 = mk () in
      let s2 = serve_slice eng2 ~from:6 ~upto:10 structs in
      Alcotest.(check int) "resumed tokens completed" 4
        s2.Engine.slo.Engine.slo_completed;
      let st = Engine.session_table_stats eng2 in
      Alcotest.(check int) "restored across the restart" 1
        st.Session_store.st_restores;
      (match Engine.sessions eng2 with
       | [ sn ] ->
         Alcotest.(check int) "no cold replay after the restart" 0
           sn.Engine.sn_cold
       | _ -> Alcotest.fail "expected one session");
      Alcotest.(check bool) "spill file consumed" false
        (Array.exists
           (fun f -> Filename.check_suffix f ".csx")
           (Sys.readdir dir));
      check_states_bitwise spec eng2 ~session:"chat" compiled
        (Checkpoint.resolver weights)
        (List.nth structs 9))

(* ---------- spills the engine must refuse ---------- *)

let refusal_spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 ()

(* Serve six tokens of a conversation as "chat" and evict it, [damage]
   the spill file, then serve [next] as "chat" — in the same engine, or
   in the one [resume] builds over the same spill directory.  A refused
   spill must leave no trace: no exception escapes, every token is
   served cold and is bitwise the cold run, no restore is counted or
   charged, and the spill is consumed. *)
let check_refused ~label ?dir ?(damage = ignore) ?resume ~next () =
  let params = refusal_spec.M.init_params (Rng.create 6) in
  let eng = engine_bounded refusal_spec ?session_spill_dir:dir params in
  ignore (serve_session eng (conversation 61 ~vocab:20 ~kind:Structure.Tree ~tokens:5));
  let cold eng =
    List.fold_left (fun acc (sn : Engine.session_report) -> acc + sn.Engine.sn_cold) 0
      (Engine.sessions eng)
  in
  let cold_before = cold eng in
  Alcotest.(check bool) (label ^ ": evicted") true (Engine.evict_session eng "chat");
  Option.iter (fun d -> List.iter (fun f -> damage (Filename.concat d f)) (spill_files d)) dir;
  let spec, params, eng, cold_before =
    match resume with
    | Some f ->
      let spec, params, eng = f params in
      (spec, params, eng, cold eng)
    | None -> (refusal_spec, params, eng, cold_before)
  in
  let restores = (Engine.session_table_stats eng).Session_store.st_restores in
  let s = serve_session eng next in
  let st = Engine.session_table_stats eng in
  Alcotest.(check int) (label ^ ": no restore counted") restores st.Session_store.st_restores;
  Alcotest.(check int) (label ^ ": the spill is consumed") 0 st.Session_store.st_spilled;
  Option.iter
    (fun d -> Alcotest.(check (list string)) (label ^ ": no spill file left") [] (spill_files d))
    dir;
  List.iter
    (fun (r : Engine.request_report) ->
      Alcotest.(check (float 0.0)) (label ^ ": no restore charged") 0.0 r.Engine.rr_linearize_us)
    s.Engine.requests;
  (match Engine.sessions eng with
   | [ sn ] ->
     Alcotest.(check int) (label ^ ": first token adds one cold window") (cold_before + 1)
       sn.Engine.sn_cold;
     Alcotest.(check int) (label ^ ": no restore reported") 0 sn.Engine.sn_restores
   | _ -> Alcotest.failf "%s: expected one session" label);
  let compiled = Runtime.compile spec.M.program in
  let out = List.hd spec.M.program.Ra.outputs in
  List.iteri
    (fun i st ->
      let solo = Runtime.execute compiled ~params st in
      let cold = Runtime.state solo out (List.hd st.Structure.roots) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: token %d bitwise the cold run" label i)
        true
        (Tensor.max_abs_diff (snd (List.nth s.Engine.results i)) cold = 0.0))
    next;
  check_states_bitwise spec eng ~session:"chat" compiled params
    (List.nth next (List.length next - 1))

(* The same conversation's next tokens, which a sound spill restores. *)
let resumed =
  List.filteri (fun i _ -> i >= 6) (conversation 61 ~vocab:20 ~kind:Structure.Tree ~tokens:8)

(* A fresh engine over the same spill directory: a restart, or with
   [spec] an engine of another model sharing the directory. *)
let restart ?spec dir params =
  let spec, params =
    match spec with
    | None -> (refusal_spec, params)
    | Some spec -> (spec, spec.M.init_params (Rng.create 6))
  in
  (spec, params, engine_bounded spec ~session_spill_dir:dir params)

let test_refuse_other_conversation () =
  check_refused ~label:"other conversation"
    ~next:(conversation 62 ~vocab:20 ~kind:Structure.Tree ~tokens:3) ()

let test_refuse_truncated () =
  with_spill_dir (fun dir ->
      let truncate path =
        let data = In_channel.with_open_bin path In_channel.input_all in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub data 0 (String.length data - 1)))
      in
      check_refused ~label:"truncated by a byte" ~dir ~damage:truncate
        ~resume:(restart dir) ~next:resumed ())

let test_refuse_other_model () =
  with_spill_dir (fun dir ->
      check_refused ~label:"another model" ~dir
        ~resume:(restart ~spec:(Models.Tree_gru.spec ~vocab:20 ~hidden:4 ()) dir)
        ~next:resumed ())

(* The spill the engine wrote, re-saved through the public codec in a
   damaged form: one tensor per state, shaped [n; dims], is the only
   form a restore adopts. *)
let resave f path =
  let ss = Checkpoint.load_session path in
  Checkpoint.save_session path { ss with Checkpoint.ss_states = f ss.Checkpoint.ss_states }

(* Rows [lo, hi) of a [n; dims] state tensor, as a tensor of its own. *)
let rows (v : Tensor.t) ~lo ~hi ~shape =
  let w = Tensor.numel v / v.Tensor.shape.(0) in
  Tensor.of_array shape (Array.sub v.Tensor.data (lo * w) ((hi - lo) * w))

let test_refuse_damaged_spills () =
  let tail (v : Tensor.t) = Array.sub v.Tensor.shape 1 (Array.length v.Tensor.shape - 1) in
  List.iter
    (fun (label, f) ->
      with_spill_dir (fun dir ->
          check_refused ~label ~dir ~damage:(resave f) ~resume:(restart dir) ~next:resumed ()))
    [
      ("a state tensor dropped", List.tl);
      ( "a row short",
        function
        | (name, v) :: rest ->
          let n = v.Tensor.shape.(0) - 1 in
          (name, rows v ~lo:0 ~hi:n ~shape:(Array.append [| n |] (tail v))) :: rest
        | [] -> [] );
      ( "state@node names",
        fun states ->
          List.concat_map
            (fun (name, (v : Tensor.t)) ->
              List.init v.Tensor.shape.(0) (fun i ->
                  (Printf.sprintf "%s@%d" name i, rows v ~lo:i ~hi:(i + 1) ~shape:(tail v))))
            states
          |> List.sort compare );
    ];
  (* The control: re-saved as it was, the spill restores. *)
  with_spill_dir (fun dir ->
      let params = refusal_spec.M.init_params (Rng.create 6) in
      let eng = engine_bounded refusal_spec ~session_spill_dir:dir params in
      ignore (serve_session eng (conversation 61 ~vocab:20 ~kind:Structure.Tree ~tokens:5));
      ignore (Engine.evict_session eng "chat");
      List.iter (fun f -> resave Fun.id (Filename.concat dir f)) (spill_files dir);
      let _, _, eng = restart dir params in
      ignore (serve_session eng resumed);
      Alcotest.(check int) "a re-saved spill restores" 1
        (Engine.session_table_stats eng).Session_store.st_restores)

(* One flipped bit in the spill file, in the last state row and then in
   the header's node count: the spill's digest covers the prefix and
   every row, so a restore refuses both. *)
let test_refuse_flipped_bits () =
  let flip ~at path =
    let data = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
    let i = at (Bytes.length data) in
    Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 1));
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc data)
  in
  (* Magic, then the model name's length and the name. *)
  let node_count = 8 + 8 + String.length refusal_spec.M.program.Ra.name in
  List.iter
    (fun (label, at) ->
      with_spill_dir (fun dir ->
          check_refused ~label ~dir ~damage:(flip ~at) ~resume:(restart dir)
            ~next:resumed ()))
    [
      ("a flipped row bit", fun len -> len - 3);
      ("a flipped header bit", fun _ -> node_count);
    ]

(* An explicit eviction reaches the trace like a budget one. *)
let test_explicit_evict_traced () =
  let obs = Obs.create ~clock:Obs.Logical () in
  let params = refusal_spec.M.init_params (Rng.create 6) in
  let eng =
    Engine.of_spec ~config:(Engine.Config.make ~obs ~params ()) refusal_spec ~backend:gpu
  in
  ignore (serve_session eng (conversation 61 ~vocab:20 ~kind:Structure.Tree ~tokens:3));
  Alcotest.(check bool) "evicted" true (Engine.evict_session eng "chat");
  let evicts =
    List.filter
      (fun (e : Chrome_trace.event) ->
        e.Chrome_trace.ev_name = "evict" && e.Chrome_trace.ev_ph = Chrome_trace.Instant)
      (Obs.events obs)
  in
  (match evicts with
   | [ e ] ->
     Alcotest.(check bool) "reason: explicit" true
       (List.assoc_opt "reason" e.Chrome_trace.ev_args = Some (Chrome_trace.Str "explicit"))
   | l -> Alcotest.failf "%d evict instants, want 1" (List.length l));
  match Obs.snapshot (Some obs) with
  | Some snap ->
    Alcotest.(check (option int)) "sessions.evictions" (Some 1)
      (List.assoc_opt "sessions.evictions" snap.Metrics.counters)
  | None -> Alcotest.fail "no metrics"

(* [sn_materializations] counts regrowths of the session's layout.  A tree
   conversation starts at one node (capacity 16) and each token adds
   two: 7 tokens stay inside the first tables, 8 tokens (17 nodes)
   outgrow them once. *)
let test_regrowth_counts () =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let params = spec.M.init_params (Rng.create 3) in
  List.iter
    (fun (tokens, regrowths) ->
      let eng = engine_of spec params in
      ignore (serve_session eng (conversation 96 ~vocab:20 ~kind:Structure.Tree ~tokens));
      match Engine.sessions eng with
      | [ sn ] ->
        Alcotest.(check int)
          (Printf.sprintf "%d nodes" sn.Engine.sn_nodes)
          regrowths sn.Engine.sn_materializations
      | _ -> Alcotest.fail "expected one session")
    [ (7, 0); (8, 1) ]

(* How many reports are of live sessions: a spilled name is reported
   too. *)
let live_reports eng =
  List.length
    (List.filter (fun (x : Engine.session_report) -> not x.Engine.sn_spilled)
       (Engine.sessions eng))

(* Four lock-step conversations packed into windows of 4 under a byte
   budget, drained wave by wave.  The eviction pass runs once per
   window, after every member is re-accounted: a pass run after the
   first member alone would evict the members after it (their last use
   dates from the previous wave) and their own accounting would then
   put the evicted names back in the store as live entries. *)
let test_packed_budget_no_ghosts () =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let budget = 2500 in
  let eng =
    Engine.of_spec
      ~config:
        (Engine.Config.make ~seed:42 ~session_budget_bytes:budget
           ~session_pack_window:4 ~session_pack_wait_us:500.0 ())
      spec ~backend:gpu
  in
  let tokens = 12 in
  let convs =
    Array.init 4 (fun i ->
        Array.of_list
          (conversation (42 + (31 * i) + 1) ~vocab:20 ~kind:Structure.Tree ~tokens))
  in
  for j = 0 to tokens do
    Array.iteri
      (fun i structs ->
        ignore
          (Engine.submit_exn eng
             ~arrival_us:((1000.0 *. float_of_int j) +. (7.0 *. float_of_int i))
             ~session:(Printf.sprintf "chat-%d" i)
             structs.(j)))
      convs;
    ignore (Engine.drain eng);
    let st = Engine.session_table_stats eng in
    let label what = Printf.sprintf "wave %d: %s" j what in
    Alcotest.(check int) (label "store live = engine sessions")
      (live_reports eng) st.Session_store.st_live;
    Alcotest.(check int) (label "live + spilled = started") 4
      (st.Session_store.st_live + st.Session_store.st_spilled);
    Alcotest.(check bool)
      (label (Printf.sprintf "%d bytes within the budget" st.Session_store.st_bytes))
      true
      (st.Session_store.st_bytes <= budget)
  done;
  Alcotest.(check bool) "the budget evicted" true
    ((Engine.session_table_stats eng).Session_store.st_evictions > 0)

(* The same under transient faults, four ticks per drain: a window lost
   inside a drain leaves its session's next token of that drain cold
   inside a pack predicted to be all deltas, and a pack's cold members
   play first, each as its own window.  A pass run after each window
   could evict a delta member whose window had not played yet; that
   window then put the evicted name back in the store.  Each case below
   broke the live count that way. *)
let test_packed_budget_faulted_no_ghosts () =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let params = spec.M.init_params (Rng.create 1) in
  let budget = 2500 and tokens = 12 in
  let convs =
    Array.init 4 (fun i ->
        Array.of_list
          (conversation (42 + (31 * i) + 1) ~vocab:20 ~kind:Structure.Tree ~tokens))
  in
  List.iter
    (fun (seed, prob) ->
      let faults =
        [ Fault.Transient { device = -1; prob; from_us = 0.0; until_us = infinity } ]
      in
      let eng =
        Engine.of_spec
          ~config:
            (Engine.Config.make ~faults ~params ~seed ~session_budget_bytes:budget
               ~session_pack_window:4 ~session_pack_wait_us:500.0 ())
          spec ~backend:gpu
      in
      for j = 0 to tokens do
        Array.iteri
          (fun i structs ->
            ignore
              (Engine.submit_exn eng
                 ~arrival_us:((1000.0 *. float_of_int j) +. (7.0 *. float_of_int i))
                 ~session:(Printf.sprintf "chat-%d" i)
                 structs.(j)))
          convs;
        if j mod 4 = 3 || j = tokens then begin
          ignore (Engine.drain eng);
          let st = Engine.session_table_stats eng in
          let label what = Printf.sprintf "seed %d at %g, tick %d: %s" seed prob j what in
          Alcotest.(check int) (label "store live = engine sessions")
            (live_reports eng) st.Session_store.st_live;
          Alcotest.(check bool)
            (label (Printf.sprintf "%d bytes within the budget" st.Session_store.st_bytes))
            true
            (st.Session_store.st_bytes <= budget)
        end
      done)
    [ (2, 0.5); (12, 0.6); (1, 0.8) ]

(* Satellite: the table's accounted bytes are exactly the linearizer's
   price of the session's own forest — layout plus state rows — after
   every grow step. *)
let prop_accounting_matches_linearizer =
  Q.Test.make ~count:15 ~name:"session accounting == linearizer pricing"
    Q.(pair (1 -- 8) small_int)
    (fun (tokens, seed) ->
      let spec = Models.Tree_lstm.spec ~vocab:15 ~hidden:3 () in
      let params = spec.M.init_params (Rng.create (seed + 1)) in
      let eng = engine_of spec params in
      let structs =
        conversation (200 + seed) ~vocab:15 ~kind:Structure.Tree ~tokens
      in
      let mc = spec.M.program.Ra.max_children in
      List.iteri
        (fun i s ->
          ignore
            (Engine.submit_exn eng
               ~arrival_us:(1000.0 *. float_of_int i)
               ~session:"chat" s);
          ignore (Engine.drain eng);
          let sn =
            match Engine.sessions eng with
            | [ sn ] -> sn
            | _ -> Alcotest.fail "expected one session"
          in
          (* Price the same structure cold: the layout the
             engine accounts with must agree batch-for-batch. *)
          let cold = (Linearizer.run_forest ~max_children:mc [ s ]).Linearizer.lin in
          let row_bytes =
            List.fold_left
              (fun acc (st : Ra.state) ->
                match
                  Engine.session_state eng "chat" st.Ra.st_name
                    (List.hd s.Structure.roots)
                with
                | Some v -> acc + (8 * Tensor.numel v)
                | None -> Alcotest.failf "missing root state %s" st.Ra.st_name)
              0 spec.M.program.Ra.states
          in
          let expected =
            Linearizer.layout_bytes ~num_nodes:cold.Linearizer.num_nodes
              ~num_batches:(Array.length cold.Linearizer.batches)
              ~max_children:mc
            + Linearizer.state_rows_bytes ~num_nodes:cold.Linearizer.num_nodes
                ~bytes_per_node:row_bytes
          in
          if sn.Engine.sn_bytes <> expected then
            Q.Test.fail_reportf
              "token %d: accounted %d bytes, linearizer prices %d" i
              sn.Engine.sn_bytes expected;
          let st = Engine.session_table_stats eng in
          if st.Session_store.st_bytes <> expected then
            Q.Test.fail_reportf "table total %d <> session %d"
              st.Session_store.st_bytes expected)
        structs;
      true)

(* ---------- the session-lifecycle property harness ---------- *)

(* Random interleavings of grow / wave / explicit-evict / budget-shrink
   / budget-unbind over three conversations, one drain per op, under a
   pack window of 3 (a wave grows every unfinished conversation by one
   token in the same drain, so its tokens pack), asserting after every
   drain:
     (b) accounted bytes never exceed the budget in force;
     (c) live + spilled exactly partition the sessions that started;
   the moment each conversation reaches its full length:
     (a) through whatever evictions the trace forced, it is bitwise a
         never-evicted cold execution (checked then, because a session
         that finishes early may idle past the TTL while the others
         fill): every persisted state of a live session, the final
         token's result of one the same drain's budget pass evicted;
   and at the end of the trace:
     (d) the whole lifecycle (chaos mode, eviction enabled) replays
         byte-identically under the same seed. *)
type life_op = Grow of int | Wave | Evict_now of int | Budget of int option

let lifecycle_ops_arb =
  let open Q.Gen in
  let op =
    frequency
      [
        (6, map (fun i -> Grow i) (int_bound 2));
        (3, return Wave);
        (2, map (fun i -> Evict_now i) (int_bound 2));
        (1, map (fun k -> Budget (Some (1200 + (500 * k)))) (int_bound 4));
        (1, return (Budget None));
      ]
  in
  let print_op = function
    | Grow i -> Printf.sprintf "grow %d" i
    | Wave -> "wave"
    | Evict_now i -> Printf.sprintf "evict %d" i
    | Budget (Some b) -> Printf.sprintf "budget %d" b
    | Budget None -> "budget none"
  in
  Q.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    (list_size (5 -- 25) op)

let prop_session_lifecycle =
  Q.Test.make ~count:12 ~name:"session lifecycle invariants" lifecycle_ops_arb
    (fun ops ->
      let spec = Models.Tree_lstm.spec ~vocab:15 ~hidden:3 () in
      let params = spec.M.init_params (Rng.create 1) in
      let tokens = 10 in
      let names = [| "s0"; "s1"; "s2" |] in
      let convs =
        Array.init 3 (fun i ->
            conversation (300 + i) ~vocab:15 ~kind:Structure.Tree ~tokens)
      in
      let compiled = Runtime.compile spec.M.program in
      let run () =
        (* Chaos mode (empty fault spec): every drain below is a pure
           function of the trace, which is what makes (d) a byte
           equality. The TTL adds background expiry churn on top of
           the explicit ops. *)
        let eng =
          engine_bounded spec ~faults:[] ~seed:5 ~session_ttl_us:12000.0
            ~session_pack_window:3 ~session_pack_wait_us:100.0 params
        in
        let next = Array.make 3 0 in
        let step = ref 0 in
        let log = Buffer.create 256 in
        let observe () =
          let st = Engine.session_table_stats eng in
          (* (b): the budget invariant holds after every drain. *)
          (match st.Session_store.st_budget_bytes with
           | Some budget ->
             if st.Session_store.st_bytes > budget then
               Q.Test.fail_reportf "accounted %d bytes over budget %d"
                 st.Session_store.st_bytes budget
           | None -> ());
          (* (c): live + spilled is exactly the set that ever grew. *)
          let started =
            Array.fold_left (fun acc n -> if n > 0 then acc + 1 else acc) 0 next
          in
          if st.Session_store.st_live + st.Session_store.st_spilled <> started
          then
            Q.Test.fail_reportf "%d live + %d spilled <> %d started"
              st.Session_store.st_live st.Session_store.st_spilled started;
          let live, spilled =
            List.partition
              (fun (x : Engine.session_report) -> not x.Engine.sn_spilled)
              (Engine.sessions eng)
          in
          if
            List.length live <> st.Session_store.st_live
            || List.length spilled <> st.Session_store.st_spilled
          then Q.Test.fail_report "session reports disagree with the table";
          Buffer.add_string log
            (Printf.sprintf "%d:%d:%d:%d:%d;" st.Session_store.st_live
               st.Session_store.st_spilled st.Session_store.st_bytes
               st.Session_store.st_evictions st.Session_store.st_restores)
        in
        (* One drain growing each unfinished conversation of [is] by a
           token, 3 us apart in list order. *)
        let grow_all is =
          match List.filter (fun i -> next.(i) <= tokens) is with
          | [] -> ()
          | is ->
            incr step;
            let ids =
              List.mapi
                (fun k i ->
                  let s = List.nth convs.(i) next.(i) in
                  next.(i) <- next.(i) + 1;
                  Engine.submit_exn eng
                    ~arrival_us:((900.0 *. float_of_int !step) +. (3.0 *. float_of_int k))
                    ~session:names.(i) s)
                is
            in
            let summary = Engine.drain eng in
            (* (a): evict/restore churn included, the full conversation
               is bitwise a never-evicted cold execution. *)
            List.iter2
              (fun i id ->
                if next.(i) > tokens then begin
                  let s = List.nth convs.(i) tokens in
                  let live =
                    List.exists
                      (fun (sn : Engine.session_report) ->
                        sn.Engine.sn_name = names.(i) && not sn.Engine.sn_spilled)
                      (Engine.sessions eng)
                  in
                  if live then
                    check_states_bitwise spec eng ~session:names.(i) compiled params s
                  else
                    let out = List.hd spec.M.program.Ra.outputs in
                    let cold =
                      Runtime.state (Runtime.execute compiled ~params s) out
                        (List.hd s.Structure.roots)
                    in
                    match List.assoc_opt id summary.Engine.results with
                    | Some v when Tensor.max_abs_diff v cold = 0.0 -> ()
                    | _ ->
                      Q.Test.fail_reportf "%s: final result is not the cold run's"
                        names.(i)
                end)
              is ids
        in
        let grow i = grow_all [ i ] in
        List.iter
          (fun op ->
            (match op with
             | Grow i -> grow i
             | Wave -> grow_all [ 0; 1; 2 ]
             | Evict_now i -> ignore (Engine.evict_session eng names.(i))
             | Budget b ->
               Engine.set_session_budget eng b;
               (* An empty drain runs the eviction pass, so a shrink
                  takes effect immediately. *)
               ignore (Engine.drain eng));
            observe ())
          ops;
        (* Unbind the budget and finish every conversation,
           round-robin. *)
        Engine.set_session_budget eng None;
        let remaining () = Array.exists (fun n -> n <= tokens) next in
        while remaining () do
          Array.iteri (fun i _ -> grow i) names
        done;
        Buffer.contents log
      in
      let log1 = run () in
      (* (d): the whole lifecycle replays byte-identically. *)
      let log2 = run () in
      if log1 <> log2 then
        Q.Test.fail_report "lifecycle trace not reproducible under its seed";
      true)

(* ---------- multi-session packing ---------- *)

(* Packed windows merge several sessions' delta tokens into one forest
   launch.  The contract: enabling packing changes kernel-launch counts
   and nothing else — every token's results and every persisted state
   stay bitwise the unpacked (and therefore the cold) run. *)

let engine_packed spec ?devices ?faults ?seed ?(autotune = false)
    ?(pack = 8) ?(wait = 100.0) params =
  Engine.of_spec
    ~config:
      (Engine.Config.make ?devices ?faults ?seed ~autotune
         ~dispatch:Dispatch.Least_loaded ~params ~session_pack_window:pack
         ~session_pack_wait_us:wait ())
    spec ~backend:gpu

(* Token [j] of every conversation lands in the same tick (1000 us
   apart), staggered by a few us within the tick so packs have a
   deterministic member order; one drain serves the lot. *)
let submit_interleaved eng convs =
  List.iteri
    (fun i (name, structs) ->
      List.iteri
        (fun j s ->
          ignore
            (Engine.submit_exn eng
               ~arrival_us:
                 ((1000.0 *. float_of_int j) +. (3.0 *. float_of_int i))
               ~session:name s))
        structs)
    convs;
  Engine.drain eng

let check_pack_bitwise ?(autotune = false) spec ~vocab ~kind ~tokens ~members
    seed =
  let params = spec.M.init_params (Rng.create (seed + 1)) in
  let compiled = Runtime.compile spec.M.program in
  let convs =
    List.init members (fun i ->
        ( Printf.sprintf "chat-%d" i,
          conversation (seed + (17 * i)) ~vocab ~kind ~tokens ))
  in
  let packed = engine_packed ~autotune spec params in
  let sp = submit_interleaved packed convs in
  let unpacked = engine_of spec params in
  let su = submit_interleaved unpacked convs in
  Alcotest.(check int) "packed run completed everything"
    (members * (tokens + 1))
    sp.Engine.slo.Engine.slo_completed;
  Alcotest.(check int) "unpacked run completed everything"
    sp.Engine.slo.Engine.slo_completed su.Engine.slo.Engine.slo_completed;
  (* The packing actually happened: every delta token of every tick
     rode a packed window (tick 0 is the members' cold windows). *)
  Alcotest.(check int) "every delta token packed" (members * tokens)
    sp.Engine.packed_tokens;
  Alcotest.(check int) "one packed window per tick" tokens
    sp.Engine.packed_windows;
  Alcotest.(check bool) "packed windows name their members in order" true
    (List.exists
       (fun w -> w.Engine.wr_packed = List.map fst convs)
       sp.Engine.windows);
  (* Fewer launches: each packed window launches its merged levels
     once, not once per member. *)
  let launches (s : Engine.summary) =
    List.fold_left
      (fun acc w ->
        acc + w.Engine.wr_report.Runtime.latency.Backend.kernel_launches)
      0 s.Engine.windows
  in
  Alcotest.(check bool) "packing launched fewer kernels" true
    (launches sp < launches su);
  (* Bitwise: token for token against the unpacked run... *)
  List.iter2
    (fun (ida, va) (idb, vb) ->
      Alcotest.(check int) "same request served" ida idb;
      Alcotest.(check bool)
        (Printf.sprintf "request %d result bitwise" ida)
        true
        (Tensor.max_abs_diff va vb = 0.0))
    sp.Engine.results su.Engine.results;
  (* ...and every persisted state against a cold solo execution. *)
  List.iter
    (fun (name, structs) ->
      check_states_bitwise spec packed ~session:name compiled params
        (List.nth structs tokens))
    convs;
  (* The per-session packed counters agree with the summary's. *)
  Alcotest.(check int) "sn_packed sums to packed_tokens"
    sp.Engine.packed_tokens
    (List.fold_left
       (fun acc (x : Engine.session_report) -> acc + x.Engine.sn_packed)
       0 (Engine.sessions packed))

let test_pack_tree_bitwise () =
  check_pack_bitwise
    (Models.Tree_lstm.spec ~vocab:20 ~hidden:5 ())
    ~vocab:20 ~kind:Structure.Tree ~tokens:6 ~members:4 103

let test_pack_sequence_bitwise () =
  check_pack_bitwise
    (Models.Tree_lstm.spec ~vocab:20 ~hidden:4 ~sequence:true ())
    ~vocab:20 ~kind:Structure.Sequence ~tokens:5 ~members:3 105

let test_pack_dag_bitwise () =
  check_pack_bitwise
    (Models.Dag_rnn.spec ~rows:5 ~cols:5 ~hidden:4 ())
    ~vocab:24 ~kind:Structure.Dag ~tokens:5 ~members:3 107

let test_pack_autotuned_bitwise () =
  (* With autotune on, packed windows consult the plan cache in the
     packed key space; plans preserve semantics, so the contract is
     unchanged. *)
  check_pack_bitwise ~autotune:true
    (Models.Tree_lstm.spec ~vocab:20 ~hidden:4 ())
    ~vocab:20 ~kind:Structure.Tree ~tokens:5 ~members:4 109

(* Property form: random member counts, lengths and kinds — packed and
   unpacked runs serve identical results under arbitrary interleaved
   grow sequences (members' conversations differ in length, so late
   ticks thin out and packs shrink or demote to singles). *)
let prop_pack_bitwise =
  Q.Test.make ~count:8 ~name:"packed serving == unpacked (random interleavings)"
    Q.(pair (int_bound 2) (pair (2 -- 4) small_int))
    (fun (k, (members, seed)) ->
      let kind, spec, vocab =
        match k with
        | 0 ->
          (Structure.Tree, Models.Tree_lstm.spec ~vocab:15 ~hidden:3 (), 15)
        | 1 ->
          ( Structure.Sequence,
            Models.Tree_gru.spec ~vocab:15 ~hidden:3 ~sequence:true (),
            15 )
        | _ -> (Structure.Dag, Models.Dag_rnn.spec ~rows:4 ~cols:4 ~hidden:3 (), 15)
      in
      let params = spec.M.init_params (Rng.create (seed + 1)) in
      let compiled = Runtime.compile spec.M.program in
      let rng = Rng.create (400 + seed) in
      let convs =
        List.init members (fun i ->
            let tokens = 1 + Rng.int rng 6 in
            ( Printf.sprintf "chat-%d" i,
              conversation (500 + seed + (17 * i)) ~vocab ~kind ~tokens ))
      in
      let packed = engine_packed spec params in
      let sp = submit_interleaved packed convs in
      let unpacked = engine_of spec params in
      let su = submit_interleaved unpacked convs in
      if sp.Engine.slo.Engine.slo_completed <> su.Engine.slo.Engine.slo_completed
      then
        Q.Test.fail_reportf "completions differ: %d packed, %d unpacked"
          sp.Engine.slo.Engine.slo_completed su.Engine.slo.Engine.slo_completed;
      List.iter2
        (fun (ida, va) (idb, vb) ->
          if ida <> idb then Q.Test.fail_reportf "ids differ: %d %d" ida idb;
          if Tensor.max_abs_diff va vb <> 0.0 then
            Q.Test.fail_reportf "request %d differs packed vs unpacked" ida)
        sp.Engine.results su.Engine.results;
      List.iter
        (fun (name, structs) ->
          check_states_bitwise spec packed ~session:name compiled params
            (List.nth structs (List.length structs - 1)))
        convs;
      true)

(* Fail-stop mid-drain on the device a pack is pinned to: every member
   re-pins to the survivor together, and the numbers cannot tell. *)
let test_pack_failover () =
  let spec = failover_spec in
  let params = spec.M.init_params (Rng.create 9) in
  let convs =
    List.init 3 (fun i ->
        ( Printf.sprintf "chat-%d" i,
          conversation (600 + (17 * i)) ~vocab:20 ~kind:Structure.Tree
            ~tokens:6 ))
  in
  let run faults =
    let eng = engine_packed spec ~devices:[ gpu; gpu ] ~faults ~seed:13 params in
    let s = submit_interleaved eng convs in
    (eng, s)
  in
  (* Probe the fault-free run for the device the packs landed on. *)
  let probe, sprobe = run [] in
  Alcotest.(check bool) "probe run packed" true (sprobe.Engine.packed_windows > 0);
  let pinned =
    match Engine.sessions probe with
    | sn :: _ -> sn.Engine.sn_device
    | [] -> Alcotest.fail "expected sessions"
  in
  let eng, s = run [ Fault.Fail_stop { device = pinned; at_us = 3500.0 } ] in
  Alcotest.(check int) "every token completed despite the fail-stop" 21
    s.Engine.slo.Engine.slo_completed;
  List.iter
    (fun (sn : Engine.session_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s re-pinned off the dead device" sn.Engine.sn_name)
        true
        (sn.Engine.sn_device >= 0 && sn.Engine.sn_device <> pinned))
    (Engine.sessions eng);
  let compiled = Runtime.compile spec.M.program in
  List.iter
    (fun (name, structs) ->
      check_states_bitwise spec eng ~session:name compiled params
        (List.nth structs 6))
    convs

(* A lost window leaves no state row of its token's new nodes, so the
   session's next token must be served cold, not as a delta whose
   boundary rows are missing.  Every attempt of the first token's window
   aborts; the next token arrives after the transient interval — in the
   same drain and in a second one, at pack window 1 and 8. *)
let test_lost_window_next_token_cold () =
  let spec = failover_spec in
  let params = spec.M.init_params (Rng.create 9) in
  let compiled = Runtime.compile spec.M.program in
  let faults =
    [ Fault.Transient { device = -1; prob = 1.0; from_us = 0.0; until_us = 4000.0 } ]
  in
  List.iter
    (fun (pack, split) ->
      let label =
        Printf.sprintf "pack %d, %s" pack (if split then "two drains" else "one drain")
      in
      let eng = engine_packed spec ~faults ~pack params in
      let first, next =
        match conversation 43 ~vocab:20 ~kind:Structure.Tree ~tokens:1 with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      in
      ignore (Engine.submit_exn eng ~arrival_us:0.0 ~session:"chat" first);
      let lost_before =
        if split then (Engine.drain eng).Engine.slo.Engine.slo_lost else 0
      in
      let id = Engine.submit_exn eng ~arrival_us:10000.0 ~session:"chat" next in
      let s = Engine.drain eng in
      Alcotest.(check int) (label ^ ": the first token was lost") 1
        (lost_before + s.Engine.slo.Engine.slo_lost);
      let solo = Runtime.execute compiled ~params next in
      let out = List.hd spec.M.program.Ra.outputs in
      match List.assoc_opt id s.Engine.results with
      | None -> Alcotest.failf "%s: the next token has no result" label
      | Some v ->
        let cold = Runtime.state solo out (List.hd next.Structure.roots) in
        Alcotest.(check bool) (label ^ ": the next token's result is the cold run's") true
          (Tensor.max_abs_diff v cold = 0.0))
    [ (1, false); (1, true); (8, false); (8, true) ]

(* Chaos mode with packing on stays byte-reproducible. *)
let test_pack_chaos_determinism () =
  let faults = [ Fault.Fail_stop { device = 0; at_us = 2500.0 } ] in
  let convs =
    List.init 3 (fun i ->
        ( Printf.sprintf "chat-%d" i,
          conversation (700 + (17 * i)) ~vocab:20 ~kind:Structure.Tree
            ~tokens:5 ))
  in
  let run () =
    let params = failover_spec.M.init_params (Rng.create 9) in
    let eng =
      engine_packed failover_spec ~devices:[ gpu; gpu ] ~faults ~seed:7 params
    in
    let s = submit_interleaved eng convs in
    Printf.sprintf "%d/%d/%d/%d/%.6f|%s" s.Engine.slo.Engine.slo_completed
      s.Engine.slo.Engine.slo_failovers s.Engine.packed_windows
      s.Engine.packed_tokens s.Engine.aggregate.Engine.makespan_us
      (render_sessions s)
  in
  Alcotest.(check string) "same seed, same packed history" (run ()) (run ())

(* Deadline misses are counted per session, packed or not. *)
let test_pack_deadline_misses () =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let params = spec.M.init_params (Rng.create 2) in
  let convs =
    List.init 2 (fun i ->
        ( Printf.sprintf "chat-%d" i,
          conversation (800 + (17 * i)) ~vocab:20 ~kind:Structure.Tree
            ~tokens:4 ))
  in
  let eng = engine_packed spec params in
  (* Deadlines a hair after arrival: every window's device time blows
     them, so every token misses. *)
  List.iteri
    (fun i (name, structs) ->
      List.iteri
        (fun j s ->
          let at = (1000.0 *. float_of_int j) +. (3.0 *. float_of_int i) in
          ignore
            (Engine.submit_exn eng ~arrival_us:at ~deadline_us:(at +. 0.01)
               ~session:name s))
        structs)
    convs;
  let s = Engine.drain eng in
  Alcotest.(check int) "all completed (late)" 10
    s.Engine.slo.Engine.slo_completed;
  Alcotest.(check int) "slo counted every miss" 10
    s.Engine.slo.Engine.slo_deadline_misses;
  Alcotest.(check int) "per-session misses sum to the slo count" 10
    (List.fold_left
       (fun acc (x : Engine.session_report) ->
         acc + x.Engine.sn_deadline_misses)
       0 (Engine.sessions eng))

(* ---------- O(delta) windows ---------- *)

(* A delta window binds only its step's nodes and the distinct boundary
   rows they read, so a priced conversation of 2-node tokens costs the
   same at every delta token however long it has grown: at hidden 256,
   tokens 2 to 96 price the same flops, device time and device memory,
   bit for bit. *)
let test_flat_token_cost () =
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let eng = Engine.of_spec spec ~backend:gpu in
  let structs = conversation 96 ~vocab:50 ~kind:Structure.Tree ~tokens:96 in
  let s = serve_session eng structs in
  let windows =
    Array.of_list
      (List.sort (fun a b -> compare a.Engine.wr_index b.Engine.wr_index) s.Engine.windows)
  in
  Alcotest.(check int) "one window per token" 97 (Array.length windows);
  let priced j =
    let r = windows.(j).Engine.wr_report in
    List.map Int64.bits_of_float
      [ Cost.total_flops r.Runtime.cost; r.Runtime.latency.Backend.total_us;
        r.Runtime.device_memory_bytes ]
  in
  for j = 3 to 96 do
    Alcotest.(check (list int64))
      (Printf.sprintf "token %d prices as token 2" j)
      (priced 2) (priced j)
  done

(* Every session window, size-1 or packed, cold or delta, with or
   without a byte budget forcing restores, binds at most
   [(1 + max_children) * wr_nodes] rows: its nodes and at most
   [max_children] boundary rows per node, never the conversation. *)
let test_window_rows_bounded () =
  List.iter
    (fun ((spec : M.t), kind, vocab) ->
      let mc = spec.M.program.Ra.max_children in
      let params = spec.M.init_params (Rng.create 3) in
      let convs =
        List.init 3 (fun i ->
            (Printf.sprintf "chat-%d" i, conversation (410 + i) ~vocab ~kind ~tokens:12))
      in
      List.iter
        (fun (label, eng) ->
          let s = submit_interleaved eng convs in
          Alcotest.(check int) (label ^ ": all served") 39 s.Engine.slo.Engine.slo_completed;
          (match label with
           | "packed" ->
             Alcotest.(check bool) "tokens packed" true (s.Engine.packed_windows > 0)
           | "budgeted" ->
             Alcotest.(check bool) "spills restored" true
               (s.Engine.session_table.Session_store.st_restores > 0)
           | _ -> ());
          List.iter
            (fun (w : Engine.window_report) ->
              let rows = w.Engine.wr_report.Runtime.num_nodes in
              if rows > (1 + mc) * w.Engine.wr_nodes then
                Alcotest.failf "%s, %s: window %d binds %d rows for %d nodes" spec.M.name
                  label w.Engine.wr_index rows w.Engine.wr_nodes)
            s.Engine.windows)
        [
          ("packed", engine_packed spec params);
          ("size-1", engine_of spec params);
          ("budgeted", engine_bounded spec ~session_budget_bytes:700 params);
        ])
    [
      (Models.Tree_lstm.spec ~vocab:20 ~hidden:4 (), Structure.Tree, 20);
      (Models.Tree_gru.spec ~vocab:15 ~hidden:3 ~sequence:true (), Structure.Sequence, 15);
      (Models.Dag_rnn.spec ~rows:4 ~cols:4 ~hidden:3 (), Structure.Dag, 15);
    ]

(* ---------- characterization: every window kind in one digest ---------- *)

(* Seeded chaos drains that mix regular requests with growing
   conversations — a cold first token per session, a conversation
   replaced under its name, a byte budget that forces evict/restore
   churn, transient aborts and a mid-drain fail-stop — rendered down to
   the summary's deterministic fields (floats by their bits) and
   hashed; a spilled name's session record starts with [S].  Both
   digests were last re-pinned when a delta window came to bind only
   its step's nodes and boundary rows (the priced fields of every delta
   and packed session window, and the request latencies and goodput
   they feed, moved; no result or count did) and spilled names came to
   be reported (the [S] records).  Before that, when a cold session
   token became a base-0 step of its session's layout instead of a trip
   through the shape cache (four cold session windows per digest came
   to report [wr_cache_hit = false]), when a spill came to hold one
   tensor per state (every priced spill and restore, and the latencies
   they feed, moved), and when a refused spill stopped counting as a
   restore.  Any refactor of the window
   path must leave them unchanged, at pack window 8 (packed, size-1 and
   regular windows interleaved) and at pack window 1 (size-1 and
   regular only). *)
let render_summary (s : Engine.summary) =
  let b = Buffer.create 8192 in
  let f x = Int64.to_string (Int64.bits_of_float x) in
  let add fmt = Printf.bprintf b fmt in
  List.iter
    (fun (r : Engine.request_report) ->
      add "r%d:%d:%d:%d:%d:%s:%s:%s:%s:%s:%s:%b;" r.Engine.rr_id r.Engine.rr_nodes
        r.Engine.rr_window r.Engine.rr_window_size r.Engine.rr_device
        (f r.Engine.rr_arrival_us) (f r.Engine.rr_deadline_us)
        (f r.Engine.rr_queue_us) (f r.Engine.rr_linearize_us)
        (f r.Engine.rr_device_us) (f r.Engine.rr_total_us) r.Engine.rr_on_time)
    s.Engine.requests;
  List.iter
    (fun (w : Engine.window_report) ->
      let rp = w.Engine.wr_report in
      let l = rp.Runtime.latency in
      add "w%d:%d:%d:%d:%b:%d:%s:%s:%s:%s:%s:%s:%s:%s:%d:%d:%s:%s:%d:%s:%s:%s;"
        w.Engine.wr_index w.Engine.wr_size w.Engine.wr_nodes w.Engine.wr_device
        w.Engine.wr_cache_hit w.Engine.wr_attempts (f w.Engine.wr_dispatch_us)
        (f l.Backend.total_us) (f l.Backend.compute_us) (f l.Backend.barrier_us)
        (f l.Backend.launch_us) (f l.Backend.param_traffic_bytes)
        (f l.Backend.global_traffic_bytes) (f l.Backend.onchip_traffic_bytes)
        l.Backend.kernel_launches l.Backend.barriers (f rp.Runtime.linearize_us)
        (f rp.Runtime.device_memory_bytes) rp.Runtime.num_nodes
        (f rp.Runtime.occupancy)
        (Option.value w.Engine.wr_session ~default:"-")
        (String.concat "," w.Engine.wr_packed))
    s.Engine.windows;
  List.iter
    (fun (id, (v : Tensor.t)) ->
      add "o%d:%s;" id
        (String.concat "," (Array.to_list (Array.map f v.Tensor.data))))
    s.Engine.results;
  let o = s.Engine.slo in
  add "slo%d:%b:%d:%d:%d:%d:%d:%d:%d:%d:%d:%s:%s;" o.Engine.slo_seed
    o.Engine.slo_degraded o.Engine.slo_completed
    o.Engine.slo_lost o.Engine.slo_shed o.Engine.slo_rejected
    o.Engine.slo_transients o.Engine.slo_retries o.Engine.slo_failovers
    o.Engine.slo_deadline_misses o.Engine.slo_on_time
    (f o.Engine.slo_goodput_rps)
    (match o.Engine.slo_first_damage_us with Some x -> f x | None -> "-");
  List.iter
    (fun (x : Engine.session_report) ->
      add "%s%s:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d;"
        (if x.Engine.sn_spilled then "S" else "s")
        x.Engine.sn_name
        x.Engine.sn_nodes x.Engine.sn_windows x.Engine.sn_delta_nodes
        x.Engine.sn_extends x.Engine.sn_cold x.Engine.sn_materializations
        x.Engine.sn_rebinds x.Engine.sn_packed x.Engine.sn_deadline_misses
        x.Engine.sn_device x.Engine.sn_bytes x.Engine.sn_evictions
        x.Engine.sn_restores)
    s.Engine.sessions;
  let st = s.Engine.session_table in
  add "t%d:%d:%s:%d:%d:%d:%d:%d:%d:%s:%s;" st.Session_store.st_live
    st.Session_store.st_bytes
    (match st.Session_store.st_budget_bytes with
     | Some n -> string_of_int n
     | None -> "-")
    st.Session_store.st_spilled st.Session_store.st_evictions
    st.Session_store.st_expired st.Session_store.st_spills
    st.Session_store.st_restores st.Session_store.st_spilled_bytes
    (f st.Session_store.st_spill_us) (f st.Session_store.st_restore_us);
  add "p%d:%d" s.Engine.packed_windows s.Engine.packed_tokens;
  Buffer.contents b

let characterization_drains ~pack =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let params = spec.M.init_params (Rng.create 5) in
  let faults =
    [
      Fault.Transient { device = -1; prob = 0.4; from_us = 0.0; until_us = infinity };
      Fault.Fail_stop { device = 1; at_us = 2100.0 };
    ]
  in
  let eng =
    Engine.of_spec
      ~config:
        (Engine.Config.make ~devices:[ gpu; gpu; gpu ] ~faults ~seed:17
           ~dispatch:Dispatch.Least_loaded ~params ~session_budget_bytes:2000
           ~session_pack_window:pack ~session_pack_wait_us:100.0 ())
      spec ~backend:gpu
  in
  (* chat-3 is replaced by a brand-new conversation at its fifth token;
     the newcomer then keeps growing under the same name. *)
  let convs =
    List.init 4 (fun i ->
        let own = conversation (900 + (17 * i)) ~vocab:20 ~kind:Structure.Tree ~tokens:7 in
        let structs =
          if i = 3 then
            List.filteri (fun j _ -> j < 4) own
            @ conversation 950 ~vocab:20 ~kind:Structure.Tree ~tokens:3
          else own
        in
        (Printf.sprintf "chat-%d" i, structs))
  in
  let rng = Rng.create 31 in
  let submit_ticks ~from ~upto =
    List.iteri
      (fun i (name, structs) ->
        List.iteri
          (fun j s ->
            if j >= from && j < upto then
              ignore
                (Engine.submit_exn eng
                   ~arrival_us:((1000.0 *. float_of_int j) +. (3.0 *. float_of_int i))
                   ~session:name s))
          structs)
      convs;
    for j = from to upto - 1 do
      for k = 0 to 2 do
        ignore
          (Engine.submit_exn eng
             ~arrival_us:((1000.0 *. float_of_int j) +. 200.0 +. (10.0 *. float_of_int k))
             (Gen.sst_tree rng ~vocab:20 ()))
      done
    done;
    Engine.drain eng
  in
  (* Two drains, so restores also cross a drain boundary. *)
  let s1 = submit_ticks ~from:0 ~upto:4 in
  let s2 = submit_ticks ~from:4 ~upto:8 in
  [ s1; s2 ]

let test_characterization () =
  List.iter
    (fun (pack, expected) ->
      let summaries = characterization_drains ~pack in
      let rendered = String.concat "\n" (List.map render_summary summaries) in
      let total f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
      (* The drains reach every path the digest is meant to pin. *)
      Alcotest.(check bool) "transients fired" true
        (total (fun s -> s.Engine.slo.Engine.slo_transients) > 0);
      Alcotest.(check bool) "a device fail-stopped" true
        (List.exists
           (fun s ->
             List.exists (fun d -> d.Engine.dr_failed) s.Engine.device_reports)
           summaries);
      Alcotest.(check bool) "the budget evicted" true
        ((List.nth summaries 1).Engine.session_table.Session_store.st_evictions > 0);
      Alcotest.(check bool) "evicted sessions restored" true
        ((List.nth summaries 1).Engine.session_table.Session_store.st_restores > 0);
      Alcotest.(check bool) "packing matches the window" (pack > 1)
        (total (fun s -> s.Engine.packed_windows) > 0);
      Alcotest.(check string)
        (Printf.sprintf "summary digest at pack window %d" pack)
        expected
        (Digest.to_hex (Digest.string rendered)))
    [
      (8, "dd06e336f3c5a69916c39049bba6f6ce");
      (1, "9dc5640822da93bea0232ce6e8b89113");
    ]

(* ---------- one simulated clock ---------- *)

(* No fault spec and an empty one drive the very same drain: nothing on
   the simulated clock reads the host, with or without faults.  Over
   random seeds, packing on or off and a byte budget that forces
   evict/restore churn, the two summaries agree bit for bit. *)
let prop_no_spec_equals_empty_spec =
  QCheck.Test.make ~name:"no fault spec == empty spec bitwise" ~count:10
    QCheck.(triple (int_range 0 999) bool bool)
    (fun (seed, pack, budget) ->
      let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
      let params = spec.M.init_params (Rng.create 5) in
      let drain ?faults () =
        let eng =
          Engine.of_spec
            ~config:
              (Engine.Config.make ~devices:[ gpu; gpu ] ?faults ~seed
                 ~dispatch:Dispatch.Least_loaded ~params
                 ?session_budget_bytes:(if budget then Some 2000 else None)
                 ~session_pack_window:(if pack then 8 else 1)
                 ~session_pack_wait_us:100.0 ())
            spec ~backend:gpu
        in
        let rng = Rng.create (seed + 1) in
        List.iteri
          (fun i c ->
            List.iteri
              (fun j s ->
                let at = (1000.0 *. float_of_int j) +. (3.0 *. float_of_int i) in
                ignore
                  (Engine.submit_exn eng ~arrival_us:at
                     ~session:(Printf.sprintf "chat-%d" i) s);
                ignore
                  (Engine.submit_exn eng ~arrival_us:(at +. 200.0)
                     (Gen.sst_tree rng ~vocab:20 ())))
              c)
          (List.init 3 (fun i ->
               conversation (seed + (17 * i)) ~vocab:20 ~kind:Structure.Tree ~tokens:6));
        Engine.drain eng
      in
      render_summary (drain ()) = render_summary (drain ~faults:[] ()))

(* ---------- shape-cache accounting ---------- *)

let test_cache_rejection_moves_no_counter () =
  let c = Shape_cache.create () in
  let wide =
    let b = Node.builder () in
    let kids = List.init 3 (fun p -> Node.make b ~payload:p []) in
    Structure.create ~kind:Structure.Tree ~max_children:3
      [ Node.make b ~payload:9 kids ]
  in
  (try
     ignore (Shape_cache.find_or_linearize c ~max_children:2 [ wide ]);
     Alcotest.fail "fanout 3 accepted with max_children 2"
   with Linearizer.Rejected _ -> ());
  let s = Shape_cache.stats c in
  Alcotest.(check int) "no hit" 0 s.Shape_cache.hits;
  Alcotest.(check int) "no miss" 0 s.Shape_cache.misses;
  Alcotest.(check int) "no entry" 0 s.Shape_cache.entries

let test_cache_epoch_eviction_accounting () =
  let c = Shape_cache.create ~capacity:2 () in
  let chain n =
    let rng = Rng.create (100 + n) in
    Gen.sequence rng ~vocab:5 ~len:n ()
  in
  ignore (Shape_cache.find_or_linearize c ~max_children:1 [ chain 2 ]);
  ignore (Shape_cache.find_or_linearize c ~max_children:1 [ chain 3 ]);
  Alcotest.(check int) "full table" 2 (Shape_cache.stats c).Shape_cache.entries;
  (* The third distinct shape trips epoch eviction: the table is
     dropped wholesale, the counters are not. *)
  ignore (Shape_cache.find_or_linearize c ~max_children:1 [ chain 4 ]);
  let s = Shape_cache.stats c in
  Alcotest.(check int) "epoch evicted down to the newcomer" 1 s.Shape_cache.entries;
  Alcotest.(check int) "misses survive the epoch" 3 s.Shape_cache.misses;
  (* An evicted shape is a miss again, not a hit. *)
  let _, hit = Shape_cache.find_or_linearize c ~max_children:1 [ chain 2 ] in
  Alcotest.(check bool) "evicted shape misses" false hit;
  Alcotest.(check int) "hits unmoved" 0 (Shape_cache.stats c).Shape_cache.hits

let () =
  Alcotest.run "session"
    [
      ( "bitwise",
        [
          Alcotest.test_case "tree" `Quick test_tree_bitwise;
          Alcotest.test_case "sequence" `Quick test_sequence_bitwise;
          Alcotest.test_case "dag" `Quick test_dag_bitwise;
          QCheck_alcotest.to_alcotest prop_grow_bitwise;
          QCheck_alcotest.to_alcotest prop_seed_is_cold_run;
        ] );
      ( "serving",
        [
          Alcotest.test_case "windows" `Quick test_session_windows;
          Alcotest.test_case "replacement" `Quick test_session_replacement;
          Alcotest.test_case "bundle" `Quick test_session_through_bundle;
          Alcotest.test_case "regrowth-counts" `Quick test_regrowth_counts;
          Alcotest.test_case "cold-tokens-skip-cache" `Quick test_cold_tokens_skip_cache;
          Alcotest.test_case "non-delta-schedule-refused" `Quick
            test_non_delta_schedule_refused;
          Alcotest.test_case "flat-token-cost" `Quick test_flat_token_cost;
          Alcotest.test_case "window-rows-bounded" `Quick test_window_rows_bounded;
        ] );
      ( "failover",
        [
          Alcotest.test_case "failstop" `Quick test_session_failover;
          Alcotest.test_case "determinism" `Quick test_session_chaos_determinism;
          Alcotest.test_case "lost-window-next-token-cold" `Quick
            test_lost_window_next_token_cold;
        ] );
      ( "table",
        [
          Alcotest.test_case "evict-restore-bitwise" `Quick
            test_evict_restore_bitwise;
          Alcotest.test_case "ttl-expiry" `Quick test_ttl_expiry_and_return;
          Alcotest.test_case "ttl-expires-structureless" `Quick
            test_ttl_expires_structureless;
          Alcotest.test_case "evict-failover" `Quick test_evict_failover_restore;
          Alcotest.test_case "restart-restore" `Quick
            test_restart_restore_from_disk;
          Alcotest.test_case "refuse-other-conversation" `Quick
            test_refuse_other_conversation;
          Alcotest.test_case "refuse-truncated" `Quick test_refuse_truncated;
          Alcotest.test_case "refuse-other-model" `Quick test_refuse_other_model;
          Alcotest.test_case "refuse-damaged-spills" `Quick test_refuse_damaged_spills;
          Alcotest.test_case "refuse-flipped-bits" `Quick test_refuse_flipped_bits;
          Alcotest.test_case "explicit-evict-traced" `Quick test_explicit_evict_traced;
          QCheck_alcotest.to_alcotest prop_accounting_matches_linearizer;
          QCheck_alcotest.to_alcotest prop_session_lifecycle;
          Alcotest.test_case "packed-budget-no-ghosts" `Quick test_packed_budget_no_ghosts;
          Alcotest.test_case "packed-budget-faulted-no-ghosts" `Quick
            test_packed_budget_faulted_no_ghosts;
        ] );
      ( "packing",
        [
          Alcotest.test_case "tree" `Quick test_pack_tree_bitwise;
          Alcotest.test_case "sequence" `Quick test_pack_sequence_bitwise;
          Alcotest.test_case "dag" `Quick test_pack_dag_bitwise;
          Alcotest.test_case "autotuned" `Quick test_pack_autotuned_bitwise;
          Alcotest.test_case "failover" `Quick test_pack_failover;
          Alcotest.test_case "chaos-determinism" `Quick
            test_pack_chaos_determinism;
          Alcotest.test_case "deadline-misses" `Quick test_pack_deadline_misses;
          QCheck_alcotest.to_alcotest prop_pack_bitwise;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "summary-digest" `Quick test_characterization ] );
      ("one-clock", [ QCheck_alcotest.to_alcotest prop_no_spec_equals_empty_spec ]);
      ( "shape-cache",
        [
          Alcotest.test_case "rejection" `Quick test_cache_rejection_moves_no_counter;
          Alcotest.test_case "epoch-eviction" `Quick test_cache_epoch_eviction_accounting;
        ] );
    ]
