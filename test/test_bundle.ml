(* The AOT bundle codec and bundle-backed serving.

   The format tests mirror the checkpoint hardening posture: every
   length is validated against the bytes remaining and the content
   digest is verified before anything reaches [Marshal], so a
   truncated, bit-flipped or wrong-version file must die with a typed
   [Bundle.Error] — never a crash, never a giant allocation, never a
   deserialized corrupt artifact.  The serving tests pin the two
   contracts [cortex serve --bundle] stands on: results are bitwise
   identical to a freshly compiled engine, and zero lowering passes run
   at serve time (counted via the "lower" wall spans the compiler
   emits). *)

open Cortex
module M = Models.Common
module Q = QCheck

let backend = Backend.gpu
let spec = Models.Tree_fc.spec ~vocab:12 ~hidden:4 ()

let compiled =
  lazy (Runtime.compile spec.M.program)

let weights = lazy (Checkpoint.of_spec spec ~seed:5)

let make_bundle ?config ?plans ?weights:(w = Lazy.force weights) () =
  Bundle.create ?config ?plans ~weights:w ~model:"TreeFC" ~size:"small"
    ~backend:backend.Backend.short (Lazy.force compiled)

(* ---------- round trips ---------- *)

let test_roundtrip () =
  let plans =
    [
      {
        Bundle.bp_backend = "GPU";
        bp_bucket = 5;
        bp_plan = [];
        bp_default_us = 12.5;
        bp_tuned_us = 12.5;
      };
    ]
  in
  let b = make_bundle ~config:"max_batch=4" ~plans () in
  let d = Bundle.decode (Bundle.encode b) in
  Alcotest.(check string) "digest" b.Bundle.b_digest d.Bundle.b_digest;
  Alcotest.(check string) "model" "TreeFC" d.Bundle.b_model;
  Alcotest.(check string) "size" "small" d.Bundle.b_size;
  Alcotest.(check string) "backend" "GPU" d.Bundle.b_backend;
  Alcotest.(check string) "config" "max_batch=4" d.Bundle.b_config;
  Alcotest.(check int) "plans survive" 1 (List.length d.Bundle.b_plans);
  let p = List.hd d.Bundle.b_plans in
  Alcotest.(check string) "plan text" "default" (Schedule.plan_to_string p.Bundle.bp_plan);
  Alcotest.(check int) "plan bucket" 5 p.Bundle.bp_bucket;
  Alcotest.(check bool) "options survive"
    true
    (Lower.options_to_string b.Bundle.b_options = Lower.options_to_string d.Bundle.b_options);
  (* The compiled program survives the Marshal round trip verbatim. *)
  Alcotest.(check string) "program text"
    (Ir.program_to_string (Lazy.force compiled).Lower.prog)
    (Ir.program_to_string d.Bundle.b_compiled.Lower.prog);
  (* Weights: same names, shapes and bits. *)
  List.iter2
    (fun (n0, t0) (n1, t1) ->
      Alcotest.(check string) "weight name" n0 n1;
      Alcotest.(check (float 0.0)) ("weight bits " ^ n0) 0.0 (Tensor.max_abs_diff t0 t1))
    (Lazy.force weights) d.Bundle.b_weights;
  (* Re-encoding the decoded bundle is byte-identical: the digest the
     CLI prints is stable across builds. *)
  Alcotest.(check bool) "re-encode is stable" true (Bundle.encode d = Bundle.encode b)

(* A bundle's bytes depend on what it bundles, not on what the process
   lowered before it: every lowering starts the IR's ids over. *)
let test_bytes_independent_of_history () =
  let bundle () =
    let compiled = Runtime.compile spec.M.program in
    Bundle.encode
      (Bundle.create ~model:"TreeFC" ~size:"small" ~backend:backend.Backend.short compiled)
  in
  let first = bundle () in
  List.iter
    (fun (other : M.t) ->
      ignore (Runtime.compile other.M.program))
    [ Models.Tree_lstm.spec ~vocab:12 ~hidden:8 (); Models.Dag_rnn.spec ~hidden:4 () ];
  Alcotest.(check bool) "the same bytes after lowering two other models" true
    (first = bundle ())

(* Bundled weights round-trip bit for bit, compared as
   [Int64.bits_of_float]: a quiet nan with a non-default payload, -0.0,
   both infinities, the smallest subnormal and [max_float]. *)
let test_weights_bitwise () =
  let specials =
    [|
      Int64.float_of_bits 0x7FF8_0000_0000_BEEFL;
      -0.0;
      infinity;
      neg_infinity;
      Int64.float_of_bits 1L;
      max_float;
    |]
  in
  let table =
    [
      ("specials", Tensor.of_array [| Array.length specials |] (Array.copy specials));
      ("scalar", Tensor.scalar (-0.0));
    ]
  in
  let check label (b : Bundle.t) =
    Alcotest.(check (list string)) (label ^ ": names") (List.map fst table)
      (List.map fst b.Bundle.b_weights);
    List.iter2
      (fun (name, (x : Tensor.t)) (_, (y : Tensor.t)) ->
        let bits (t : Tensor.t) = Array.map Int64.bits_of_float t.Tensor.data in
        Alcotest.(check (array int)) (label ^ ": shape of " ^ name) x.Tensor.shape
          y.Tensor.shape;
        Alcotest.(check (array int64)) (label ^ ": bits of " ^ name) (bits x) (bits y))
      table b.Bundle.b_weights
  in
  let b = make_bundle ~weights:table () in
  check "decode" (Bundle.decode (Bundle.encode b));
  let path = Filename.temp_file "cortex_bundle" ".cbz" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bundle.save path b;
      check "load" (Bundle.load path))

let name_gen =
  Q.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'w'; 'x' ]) (1 -- 6))

let config_gen =
  Q.Gen.(string_size ~gen:(oneofl [ 'k'; 'v'; '='; '_'; '1'; ';'; ',' ]) (0 -- 24))

let arb_table =
  let open Q.Gen in
  let tensor = map (fun dims -> Tensor.zeros (Array.of_list dims)) (list_size (1 -- 3) (1 -- 5)) in
  Q.make
    ~print:(fun (cfg, tbl) ->
      Printf.sprintf "config=%S weights=[%s]" cfg
        (String.concat ";"
           (List.map
              (fun (n, (t : Tensor.t)) ->
                Printf.sprintf "%s[%s]" n
                  (String.concat "," (List.map string_of_int (Array.to_list t.Tensor.shape))))
              tbl)))
    (pair config_gen (list_size (0 -- 5) (pair name_gen tensor)))

let prop_roundtrip =
  Q.Test.make ~count:30 ~name:"encode/decode round-trips config and weights" arb_table
    (fun (config, table) ->
      let b = make_bundle ~config ~weights:table () in
      let d = Bundle.decode (Bundle.encode b) in
      d.Bundle.b_digest = b.Bundle.b_digest
      && d.Bundle.b_config = config
      && List.length d.Bundle.b_weights = List.length table
      && List.for_all2
           (fun (n0, (t0 : Tensor.t)) (n1, (t1 : Tensor.t)) ->
             n0 = n1 && t0.Tensor.shape = t1.Tensor.shape)
           table d.Bundle.b_weights)

(* ---------- adversarial files ---------- *)

let typed_error what bytes =
  match Bundle.decode bytes with
  | (_ : Bundle.t) -> Alcotest.failf "%s: decode accepted corrupt bytes" what
  | exception Bundle.Error _ -> ()
  | exception e ->
    Alcotest.failf "%s: untyped exception %s" what (Printexc.to_string e)

let test_truncation () =
  let enc = Bundle.encode (make_bundle ()) in
  let n = String.length enc in
  (* Every header-region prefix, then a spread through the payloads. *)
  let cuts =
    List.init 64 (fun i -> i) @ List.init 20 (fun i -> 64 + (i * (n - 65) / 20))
  in
  List.iter
    (fun cut ->
      if cut < n then typed_error (Printf.sprintf "cut at %d" cut) (String.sub enc 0 cut))
    cuts

let test_bit_flip () =
  let enc = Bundle.encode (make_bundle ()) in
  let flip i =
    let b = Bytes.of_string enc in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  (* A flip in the payload region must be a digest mismatch
     specifically — it is caught before Marshal ever runs. *)
  (match Bundle.decode (flip (String.length enc - 3)) with
   | (_ : Bundle.t) -> Alcotest.fail "payload flip accepted"
   | exception Bundle.Error (Bundle.Digest_mismatch _) -> ()
   | exception Bundle.Error e ->
     Alcotest.failf "payload flip: expected digest mismatch, got %s" (Bundle.error_to_string e));
  (* Flips anywhere must stay typed. *)
  List.iter
    (fun i -> typed_error (Printf.sprintf "flip at %d" i) (flip i))
    [ 0; 7; 8; 16; 24; 32; 40; String.length enc / 2 ]

let test_wrong_magic_and_version () =
  let enc = Bundle.encode (make_bundle ()) in
  (match Bundle.decode ("XORTEXB1" ^ String.sub enc 8 (String.length enc - 8)) with
   | (_ : Bundle.t) -> Alcotest.fail "bad magic accepted"
   | exception Bundle.Error (Bundle.Bad_magic _) -> ());
  let bumped = Bytes.of_string enc in
  Bytes.set bumped 8 '\x09';
  match Bundle.decode (Bytes.to_string bumped) with
  | (_ : Bundle.t) -> Alcotest.fail "future version accepted"
  | exception Bundle.Error (Bundle.Unsupported_version 9) -> ()
  | exception Bundle.Error e ->
    Alcotest.failf "expected version error, got %s" (Bundle.error_to_string e)

(* Version 1 marshalled a [Lower.compiled] of another shape; reading one
   into today's type must be refused, not attempted. *)
let test_version_1_refused () =
  let old = Bytes.of_string (Bundle.encode (make_bundle ())) in
  Bytes.set old 8 '\x01';
  match Bundle.decode (Bytes.to_string old) with
  | (_ : Bundle.t) -> Alcotest.fail "a version-1 bundle was accepted"
  | exception Bundle.Error (Bundle.Unsupported_version 1) -> ()
  | exception Bundle.Error e ->
    Alcotest.failf "expected version error, got %s" (Bundle.error_to_string e)

(* ---------- serving from a bundle ---------- *)

let lower_count o =
  List.length
    (List.filter
       (fun (e : Chrome_trace.event) ->
         e.Chrome_trace.ev_name = "lower" && e.Chrome_trace.ev_ph = Chrome_trace.Begin)
       (Obs.events o))

let test_serving_bitwise_and_zero_lowering () =
  let b = Bundle.decode (Bundle.encode (make_bundle ())) in
  let structure = spec.M.dataset (Rng.create 9) ~batch:4 in
  let params = Checkpoint.resolver (Lazy.force weights) in
  let obs_fresh = Obs.create () in
  let fresh =
    Engine.of_spec ~config:(Engine.Config.make ~obs:obs_fresh ()) spec ~backend
  in
  Alcotest.(check bool) "fresh engine runs the lowering pipeline" true
    (lower_count obs_fresh >= 1);
  let obs_bundle = Obs.create () in
  let served =
    Engine.of_bundle
      ~config:(Engine.Config.make ~obs:obs_bundle ~params:(Bundle.resolver b) ())
      ~expect_model:"TreeFC" b ~backend
  in
  let fx = Engine.execute_one fresh ~params structure in
  let bx = Engine.execute_one served ~params:(Bundle.resolver b) structure in
  let out = List.hd spec.M.program.Ra.outputs in
  List.iter
    (fun root ->
      Alcotest.(check (float 0.0)) "bundle-served output is bitwise identical" 0.0
        (Tensor.max_abs_diff (Engine.state fx out root) (Engine.state bx out root)))
    structure.Structure.roots;
  (* A full serving drain through the bundle engine, then the pin: the
     artifact was installed as-is, zero lowering passes ran. *)
  ignore (Engine.submit_exn served structure);
  ignore (Engine.drain served);
  Alcotest.(check int) "zero lower spans at serve time" 0 (lower_count obs_bundle)

let test_mismatches_refused () =
  let b = make_bundle () in
  (match Engine.of_bundle b ~backend:Backend.arm with
   | (_ : Engine.t) -> Alcotest.fail "backend mismatch accepted"
   | exception Bundle.Error (Bundle.Backend_mismatch { bundle = "GPU"; requested = "ARM" }) -> ());
  (match Engine.of_bundle ~expect_model:"TreeLSTM" b ~backend with
   | (_ : Engine.t) -> Alcotest.fail "model mismatch accepted"
   | exception Bundle.Error (Bundle.Model_mismatch { bundle = "TreeFC"; requested = "TreeLSTM" }) ->
     ());
  (* An embedded config that passes the digest check but does not parse
     is a typed corrupt-section error, never a silent Config.default. *)
  match Engine.of_bundle (make_bundle ~config:"no_such_key=1" ()) ~backend with
  | (_ : Engine.t) -> Alcotest.fail "malformed embedded config accepted"
  | exception Bundle.Error (Bundle.Corrupt_section { section = "config"; _ }) -> ()

let test_preloaded_plans_hit () =
  (* A tuned plan riding in the bundle means the first window of its
     (backend, size-class) is a plan-cache hit: no search runs. *)
  let structure = spec.M.dataset (Rng.create 9) ~batch:4 in
  let lin = Linearizer.run structure in
  let plans =
    match Tuner.tune_loops ~budget:4 (Lazy.force compiled) ~backend lin with
    | [] -> Alcotest.fail "tuner returned nothing"
    | (plan, report) :: _ ->
      [
        {
          Bundle.bp_backend = backend.Backend.short;
          bp_bucket = Dispatch.size_bucket lin.Linearizer.num_nodes;
          bp_plan = plan;
          bp_default_us = report.Runtime.latency.Backend.total_us;
          bp_tuned_us = report.Runtime.latency.Backend.total_us;
        };
      ]
  in
  let b = Bundle.decode (Bundle.encode (make_bundle ~plans ())) in
  let served = Engine.of_bundle b ~backend in
  ignore (Engine.submit_exn served structure);
  let s = Engine.drain served in
  match s.Engine.plan_cache with
  | None -> Alcotest.fail "no plan cache despite bundled plans"
  | Some pc ->
    Alcotest.(check bool) "first window hits the preloaded class" true (pc.Plan_cache.pc_hits >= 1)

(* ---------- Engine.Config text form ---------- *)

(* A config that sets every key away from its default. *)
let every_key =
  lazy
    (let faults =
       match Fault.parse "transient@*:0.05,0,1e6;straggler@0:3,2000,8000" with
       | Ok s -> s
       | Error e -> Alcotest.fail e
     in
     Engine.Config.make
       ~policy:{ Engine.max_batch = 4; max_wait_us = 150.5; bucketing = Engine.By_size }
       ~options:{ Lower.default with Lower.unroll = true; persist = false }
       ~lock_free:true ~dispatch:Dispatch.Size_affinity
       ~devices:[ Backend.gpu; Backend.arm; Backend.intel ]
       ~cache_capacity:32 ~queue_cap:64 ~degrade_watermark:48 ~faults ~seed:7
       ~autotune:true ~tune_budget:9 ~session_budget_bytes:4096 ~session_ttl_us:1500.5
       ~session_spill_dir:"spills" ~session_pack_window:4 ~session_pack_wait_us:25.0 ())

let test_config_roundtrip () =
  let text = Engine.Config.to_string (Lazy.force every_key) in
  (match Engine.Config.of_string text with
   | Error e -> Alcotest.fail e
   | Ok c2 ->
     Alcotest.(check string) "to_string . of_string is a fixed point" text
       (Engine.Config.to_string c2));
  (* [cortex serve] builds its config by appending key lines to a
     text: a later line must win, and a bad line must name its key. *)
  let parsed text =
    match Engine.Config.of_string text with Ok c -> c | Error e -> Alcotest.fail e
  in
  let max_batch c = c.Engine.Config.dispatch.Engine.Config.batching.Engine.max_batch in
  let seed c = c.Engine.Config.reliability.Engine.Config.seed in
  Alcotest.(check int) "a later line wins" 6 (max_batch (parsed "max_batch=4\nmax_batch=6"));
  let bundle_text = String.concat "\t" (String.split_on_char '\n' text) in
  Alcotest.(check int) "a seed line after a bundle's text overrides its seed" 11
    (seed (parsed (bundle_text ^ "\nseed=11")));
  Alcotest.(check int) "a file's seed overrides a leading seed=2021" 7
    (seed (parsed ("seed=2021\n" ^ text)));
  (match Engine.Config.of_string (text ^ "\nmax_batch=x") with
   | Ok _ -> Alcotest.fail "accepted max_batch=x"
   | Error e ->
     Alcotest.(check string) "a malformed line names its key"
       {|config: max_batch wants an integer, got "x"|} e);
  (* The tab-joined single-line form a bundle manifest embeds parses
     identically. *)
  let one_line = String.concat "\t" (String.split_on_char '\n' text) in
  match Engine.Config.of_string one_line with
  | Error e -> Alcotest.fail e
  | Ok c3 ->
    Alcotest.(check string) "tab-joined form parses the same" text
      (Engine.Config.to_string c3)

(* The exact text pins the codec: key names, order, number formats and
   which keys are omitted at their defaults.  Bundles embed this text,
   so any change here changes every bundle built with a config. *)
let test_config_to_string_exact () =
  Alcotest.(check string) "default"
    "max_batch=8\nmax_wait_us=200\nbucketing=fifo\nselection=round-robin\n\
     lock_free=false\nseed=0\nautotune=false\n"
    (Engine.Config.to_string Engine.Config.default);
  Alcotest.(check string) "every key set"
    "max_batch=4\nmax_wait_us=150.5\nbucketing=by_size\nselection=size-affinity\n\
     devices=GPU,ARM,Intel\ncache_capacity=32\nlock_free=true\n\
     options=dynamic_batch,specialize,fuse,unroll\nqueue_cap=64\n\
     degrade_watermark=48\nfaults=transient@*:0.05,0,1e+06;straggler@0:3,2000,8000\n\
     seed=7\nautotune=true\ntune_budget=9\nsessions.budget_bytes=4096\n\
     sessions.ttl_us=1500.5\nsessions.spill_dir=spills\n\
     sessions.pack_window=4\nsessions.pack_wait_us=25\n"
    (Engine.Config.to_string (Lazy.force every_key))

let test_config_of_string_errors () =
  let bad s want =
    match Engine.Config.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e -> Alcotest.(check string) s want e
  in
  bad "no_such_key=1" {|config: unknown key "no_such_key"|};
  bad "max_batch=frog" {|config: max_batch wants an integer, got "frog"|};
  bad "devices=GPU,Q36" {|config: unknown backend in devices "GPU,Q36"|};
  bad "bucketing=diagonal" {|config: unknown bucketing "diagonal"|};
  bad "max_wait_us=soon" {|config: max_wait_us wants a number, got "soon"|};
  bad "lock_free=yes" {|config: lock_free wants true/false, got "yes"|};
  bad "selection=random" {|config: unknown selection policy "random"|};
  bad "options=warp" {|config: malformed options "warp"|};
  bad "seed=1\nmax_batch" {|config: missing '=' in "max_batch"|};
  bad "faults=bogus" {|config: fault clause 1 ("bogus"): missing @device|};
  (* Neither the retry budget nor the eviction order is configurable:
     their keys are unknown, not silently ignored. *)
  bad "sessions.policy=lru" {|config: unknown key "sessions.policy"|};
  bad "max_retries=4" {|config: unknown key "max_retries"|};
  (match Engine.Config.of_string "# comment\n\nmax_batch=3" with
   | Error e -> Alcotest.fail e
   | Ok c ->
     Alcotest.(check int) "comments and blanks skipped" 3
       c.Engine.Config.dispatch.Engine.Config.batching.Engine.max_batch);
  match Engine.Config.of_string "" with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Alcotest.(check string) "empty text is the default config"
      (Engine.Config.to_string Engine.Config.default)
      (Engine.Config.to_string c)

(* Options text holds only what a user chooses: every one of the seven
   settings round-trips, and a model fact is no token. *)
let test_options_codec () =
  let all_off = { Lower.baseline with Lower.dynamic_batch = false } in
  let all =
    List.fold_left
      (fun acc set -> List.concat_map (fun o -> [ o; set o ]) acc)
      [ all_off ]
      [
        (fun o -> { o with Lower.dynamic_batch = true });
        (fun o -> { o with Lower.specialize = true });
        (fun o -> { o with Lower.fuse = true });
        (fun o -> { o with Lower.persist = true });
        (fun o -> { o with Lower.unroll = true });
        (fun o -> { o with Lower.refactor = true });
        (fun o -> { o with Lower.barrier_mode = Barrier.Conservative });
      ]
  in
  Alcotest.(check int) "distinct settings" 128 (List.length (List.sort_uniq compare all));
  List.iter
    (fun o ->
      let text = Lower.options_to_string o in
      if Lower.options_of_string text <> Some o then
        Alcotest.failf "%S does not round-trip" text)
    all;
  List.iter
    (fun text ->
      Alcotest.(check bool) text true (Lower.options_of_string text = None))
    [ "publish=z"; "keep_barrier"; "block_local_unroll"; "dynamic_batch,fuse,keep_barrier" ]

(* ---------- checkpoint manifests ---------- *)

let test_checkpoint_manifest () =
  let w = Lazy.force weights in
  let m = Checkpoint.manifest_of_string (Checkpoint.to_string w) in
  Alcotest.(check int) "entry per tensor" (List.length w) (List.length m);
  List.iter2
    (fun (n, (t : Tensor.t)) (mn, dims) ->
      Alcotest.(check string) "name" n mn;
      Alcotest.(check (array int)) ("shape of " ^ n) t.Tensor.shape dims)
    w m;
  (* And the channel reader, over the file the table was saved to. *)
  let path = Filename.temp_file "cortex_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save path w;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let fm = Checkpoint.read_manifest ic in
          Alcotest.(check int) "file manifest matches" (List.length m) (List.length fm)))

let test_inspect_file () =
  let b = make_bundle ~config:"max_batch=4" () in
  let path = Filename.temp_file "cortex_bundle" ".cbz" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bundle.save path b;
      let info = Bundle.inspect path in
      Alcotest.(check string) "digest" b.Bundle.b_digest info.Bundle.i_digest;
      Alcotest.(check int) "weights summarized" (List.length (Lazy.force weights))
        (List.length info.Bundle.i_weights);
      Alcotest.(check bool) "manifest carries the model" true
        (List.mem_assoc "model" info.Bundle.i_manifest);
      (* inspect validates: a flipped byte in the file is refused. *)
      let ic = open_in_bin path in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub raw 0 (String.length raw - 3));
      output_char oc 'Z';
      output_string oc (String.sub raw (String.length raw - 2) 2);
      close_out oc;
      match Bundle.inspect path with
      | (_ : Bundle.info) -> Alcotest.fail "inspect accepted a corrupt file"
      | exception Bundle.Error (Bundle.Digest_mismatch _) -> ())

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "bundle"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "fields" `Quick test_roundtrip;
          Alcotest.test_case "weights-bitwise" `Quick test_weights_bitwise;
          Alcotest.test_case "bytes-independent-of-history" `Quick
            test_bytes_independent_of_history;
          q prop_roundtrip;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "bit-flip" `Quick test_bit_flip;
          Alcotest.test_case "magic-version" `Quick test_wrong_magic_and_version;
          Alcotest.test_case "version-1-refused" `Quick test_version_1_refused;
        ] );
      ( "serving",
        [
          Alcotest.test_case "bitwise-and-zero-lowering" `Quick
            test_serving_bitwise_and_zero_lowering;
          Alcotest.test_case "mismatches" `Quick test_mismatches_refused;
          Alcotest.test_case "preloaded-plans" `Quick test_preloaded_plans_hit;
        ] );
      ( "config",
        [
          Alcotest.test_case "roundtrip" `Quick test_config_roundtrip;
          Alcotest.test_case "exact-text" `Quick test_config_to_string_exact;
          Alcotest.test_case "errors" `Quick test_config_of_string_errors;
          Alcotest.test_case "options-codec" `Quick test_options_codec;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "manifest" `Quick test_checkpoint_manifest;
          Alcotest.test_case "inspect" `Quick test_inspect_file;
        ] );
    ]
