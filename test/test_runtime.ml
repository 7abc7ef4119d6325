(* End-to-end runtime tests + the paper's qualitative claims as
   executable assertions (the shapes every table/figure must show,
   regardless of the calibration constants). *)

open Cortex
module M = Models.Common

let gpu = Backend.gpu

let sim ?(base = Lower.default) (spec : M.t) ~batch =
  let compiled = Runtime.compile ~options:base spec.M.program in
  let structure = spec.M.dataset (Rng.create 21) ~batch in
  Runtime.simulate compiled ~backend:gpu structure

let ms r = Runtime.total_ms r

(* ---------- runtime plumbing ---------- *)

let test_execute_and_state () =
  let spec = Models.Tree_rnn.spec ~vocab:20 ~hidden:4 () in
  let compiled = Runtime.compile spec.M.program in
  let structure = spec.M.dataset (Rng.create 1) ~batch:2 in
  let params = spec.M.init_params (Rng.create 2) in
  let e = Runtime.execute compiled ~params structure in
  List.iter
    (fun root ->
      let h = Runtime.state e "h" root in
      Alcotest.(check int) "state dims" 4 (Tensor.numel h);
      (* tanh output in (-1, 1) *)
      for i = 0 to 3 do
        let v = Tensor.get h [| i |] in
        Alcotest.(check bool) "bounded" true (v > -1.0 && v < 1.0)
      done)
    structure.Structure.roots

(* A binary model's one-structure entry points check the model's
   fanout, as the engine does, instead of laying out a child table
   wider than the kernels index. *)
let test_single_structure_fanout () =
  let spec = Models.Tree_lstm.spec ~vocab:20 ~hidden:4 () in
  let compiled = Runtime.compile spec.M.program in
  let b = Node.builder () in
  let leaves = List.init 3 (fun i -> Node.make b ~payload:i []) in
  let root = Node.make b ~payload:3 leaves in
  let structure = Structure.create ~kind:Structure.Tree ~max_children:3 [ root ] in
  let params = spec.M.init_params (Rng.create 2) in
  let refused label f =
    match f () with
    | () -> Alcotest.failf "%s: a root of 3 children was accepted" label
    | exception
        Linearizer.Rejected (Linearizer.Fanout_exceeded { arity = 3; max_children = 2; _ }) ->
      ()
  in
  refused "simulate" (fun () -> ignore (Runtime.simulate compiled ~backend:gpu structure));
  refused "execute" (fun () -> ignore (Runtime.execute compiled ~params structure))

(* ---------- a model's schedule facts come with its program ---------- *)

(* TreeGRU keeps its inter-phase barrier under refactoring (§7.4); a
   caller that compiles the bare program gets that schedule too. *)
let test_create_prices_like_of_spec () =
  let spec = Models.Tree_gru.spec ~vocab:20 ~hidden:4 () in
  let config = Engine.Config.make ~options:{ Lower.default with Lower.refactor = true } () in
  let price engine = Engine.run_one engine (spec.M.dataset (Rng.create 3) ~batch:2) in
  let created = price (Engine.create ~config ~model:spec.M.program ~backend:gpu ()) in
  let of_spec = price (Engine.of_spec ~config spec ~backend:gpu) in
  Alcotest.(check int) "barriers" 12 created.Runtime.latency.Backend.barriers;
  Alcotest.(check bool) "bitwise" true
    (Marshal.to_string created [ Marshal.No_sharing ]
    = Marshal.to_string of_spec [ Marshal.No_sharing ])

(* TreeRNN's unroll groups are block-local: plain [unroll] compiles its
   program to the schedule whose parent phase needs no barrier. *)
let test_treernn_block_local_unroll () =
  let program = (Models.Tree_rnn.spec ~vocab:20 ~hidden:4 ()).M.program in
  let structure = Gen.sst_batch (Rng.create 4) ~vocab:20 ~batch:2 () in
  let barriers program =
    let compiled = Runtime.compile ~options:{ Lower.default with Lower.unroll = true } program in
    (Runtime.simulate compiled ~backend:gpu structure).Runtime.latency.Backend.barriers
  in
  let block_local = barriers program in
  let synchronized = barriers { program with Ra.facts = Ra.no_facts } in
  Alcotest.(check bool)
    (Printf.sprintf "block-local %d < synchronized %d" block_local synchronized)
    true (block_local < synchronized)

let test_schedule_check_appd () =
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let r = sim spec ~batch:10 in
  let verdict options =
    Runtime.Schedule_check.check ~backend:gpu ~hidden:256 ~states:2
      options ~cost:r.Runtime.cost
  in
  (match verdict Lower.default with
   | Runtime.Schedule_check.Valid -> ()
   | Runtime.Schedule_check.Invalid m -> Alcotest.failf "default rejected: %s" m);
  (match verdict { Lower.default with Lower.unroll = true } with
   | Runtime.Schedule_check.Invalid _ -> ()
   | Runtime.Schedule_check.Valid -> Alcotest.fail "persist+unroll accepted (App. D)")

let test_tuner () =
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let structure = spec.M.dataset (Rng.create 9) ~batch:4 in
  let ranked = Tuner.tune2 ~plan_budget:0 spec ~backend:gpu structure in
  Alcotest.(check bool) "several valid schedules" true (List.length ranked >= 8);
  let best = List.hd ranked in
  (* The winner must include the paper's core optimizations. *)
  Alcotest.(check bool) "best fuses" true best.Tuner.pc_options.Lower.fuse;
  Alcotest.(check bool) "best batches" true best.Tuner.pc_options.Lower.dynamic_batch;
  Alcotest.(check bool) "best specializes" true best.Tuner.pc_options.Lower.specialize;
  (* Ranking is sorted. *)
  let rec sorted = function
    | a :: (b :: _ as tl) ->
      Runtime.total_ms a.Tuner.pc_report <= Runtime.total_ms b.Tuner.pc_report && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted ranked);
  (* App. D: no candidate combines persistence with unrolling for
     TreeLSTM at h = 256. *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "no persist+unroll survivor" false
        (c.Tuner.pc_options.Lower.persist && c.Tuner.pc_options.Lower.unroll))
    ranked

let test_checkpoint_roundtrip () =
  let spec = Models.Tree_gru.spec ~vocab:20 ~hidden:6 () in
  let table = Checkpoint.of_spec spec ~seed:99 in
  let path = Filename.temp_file "cortex" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save path table;
      let restored = Checkpoint.load path in
      Alcotest.(check int) "same count" (List.length table) (List.length restored);
      List.iter
        (fun (name, t) ->
          let t' = Checkpoint.resolver restored name in
          Alcotest.(check bool) (name ^ " identical") true (Tensor.max_abs_diff t t' = 0.0))
        table;
      (* the restored table drives inference identically *)
      let structure = spec.M.dataset (Rng.create 3) ~batch:2 in
      let compiled = Runtime.compile spec.M.program in
      let run params =
        let e = Runtime.execute compiled ~params structure in
        List.map (fun r -> Runtime.state e "h" r) structure.Structure.roots
      in
      List.iter2
        (fun a b -> Alcotest.(check bool) "same inference" true (Tensor.max_abs_diff a b = 0.0))
        (run (Checkpoint.resolver table))
        (run (Checkpoint.resolver restored)));
  (* corruption detection *)
  let path2 = Filename.temp_file "cortex" ".bad" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path2)
    (fun () ->
      let oc = open_out_bin path2 in
      output_string oc "NOTACKPT";
      close_out oc;
      try
        ignore (Checkpoint.load path2);
        Alcotest.fail "corrupt checkpoint accepted"
      with Checkpoint.Corrupt _ -> ())

(* Adversarial checkpoint headers: every length field is bounded against
   the bytes actually in the file before any allocation, so a truncated
   or bit-flipped checkpoint fails fast with [Corrupt] instead of
   attempting a huge [Tensor.zeros] or running a million-iteration
   loop over a hundred-byte file.  Byte offsets: magic [0,8), tensor
   count [8,16), first tensor's name length [16,24). *)
let test_checkpoint_adversarial_headers () =
  let table = Checkpoint.of_spec (Models.Tree_gru.spec ~vocab:20 ~hidden:6 ()) ~seed:7 in
  let bytes_of_table () =
    let path = Filename.temp_file "cortex" ".ckpt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Checkpoint.save path table;
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic)))
  in
  let good = bytes_of_table () in
  let load_bytes label s =
    let path = Filename.temp_file "cortex" ".adv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc;
        try
          ignore (Checkpoint.load path);
          Alcotest.failf "%s accepted" label
        with Checkpoint.Corrupt _ -> ())
  in
  let patch_i64 s pos v =
    let b = Bytes.of_string s in
    Bytes.set_int64_le b pos (Int64.of_int v);
    Bytes.to_string b
  in
  (* truncation anywhere past the header *)
  load_bytes "half a checkpoint" (String.sub good 0 (String.length good / 2));
  load_bytes "payload cut mid-tensor" (String.sub good 0 (String.length good - 9));
  (* a bit-flipped count past the static cap *)
  load_bytes "count above the cap" (patch_i64 good 8 2_000_000);
  (* a count under the static cap but far beyond the file's bytes *)
  load_bytes "count beyond the file" (patch_i64 good 8 1_000_000);
  (* a dim under the per-extent cap whose payload exceeds the file *)
  let name_len = Int64.to_int (Bytes.get_int64_le (Bytes.of_string good) 16) in
  let first_dim_pos = 16 + 8 + name_len + 8 in
  load_bytes "extent beyond the file" (patch_i64 good first_dim_pos 10_000_000);
  (* extents that individually pass the cap but whose product overflows *)
  let overflow =
    let buf = Buffer.create 128 in
    Buffer.add_string buf (String.sub good 0 8);
    let add_i64 v =
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.of_int v);
      Buffer.add_bytes buf b
    in
    add_i64 1 (* count *);
    add_i64 1 (* name_len *);
    Buffer.add_char buf 'a';
    add_i64 8 (* rank *);
    for _ = 1 to 8 do add_i64 100_000_000 done;
    Buffer.contents buf
  in
  load_bytes "overflowing extent product" overflow;
  (* bytes appended after the last tensor, through every reader *)
  let appended = Checkpoint.to_string table ^ "GARBAGE-APPENDED" in
  load_bytes "appended bytes" appended;
  List.iter
    (fun (label, read) ->
      match read () with
      | () -> Alcotest.failf "%s accepted appended bytes" label
      | exception Checkpoint.Corrupt _ -> ())
    [
      ("of_string", fun () -> ignore (Checkpoint.of_string appended));
      ("manifest_of_string", fun () -> ignore (Checkpoint.manifest_of_string appended));
      ( "a range one byte past the table",
        fun () ->
          ignore (Checkpoint.of_string ~pos:0 ~len:(String.length good + 1) appended) );
    ];
  (* and the pristine bytes still load *)
  let path = Filename.temp_file "cortex" ".ok" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc good;
      close_out oc;
      Alcotest.(check int) "pristine copy loads" (List.length table)
        (List.length (Checkpoint.load path)))

(* Session-state sections (the bounded session table's spill format)
   ride the same hardened [src] walk as parameter checkpoints: every
   truncation, bit-flipped length, overflowing extent or wrong-model
   payload must raise the typed [Corrupt] — never a Marshal failure,
   a huge allocation, or a silent state graft onto the wrong model. *)
let test_session_section_adversarial () =
  let spec = Models.Tree_gru.spec ~vocab:20 ~hidden:6 () in
  let table = Checkpoint.of_spec spec ~seed:9 in
  let digest = String.make 32 'a' in
  let section model =
    Checkpoint.session_to_string
      { Checkpoint.ss_model = model; ss_nodes = 7; ss_digest = digest; ss_states = table }
  in
  let good = section "TreeGRU" in
  (* The pristine section round-trips bitwise. *)
  let back = Checkpoint.session_of_string ~expect_model:"TreeGRU" good in
  Alcotest.(check string) "model round-trips" "TreeGRU" back.Checkpoint.ss_model;
  Alcotest.(check int) "nodes round-trip" 7 back.Checkpoint.ss_nodes;
  Alcotest.(check string) "digest round-trips" digest back.Checkpoint.ss_digest;
  List.iter2
    (fun (na, ta) (nb, tb) ->
      Alcotest.(check string) "state name round-trips" na nb;
      Alcotest.(check bool) "state rows round-trip bitwise" true
        (Tensor.max_abs_diff ta tb = 0.0))
    table back.Checkpoint.ss_states;
  let reject label s =
    try
      ignore (Checkpoint.session_of_string ~expect_model:"TreeGRU" s);
      Alcotest.failf "%s accepted" label
    with Checkpoint.Corrupt _ -> ()
  in
  (* A spill from another model must raise the typed mismatch — grafting
     TreeLSTM rows into a TreeGRU engine is silent corruption. *)
  reject "wrong-model payload" (section "TreeLSTM");
  (* Truncation at every byte of the session header and into the first
     tensors of the embedded table, then coarser cuts through the
     payload region. *)
  for n = 0 to min 160 (String.length good - 1) do
    reject (Printf.sprintf "truncated at byte %d" n) (String.sub good 0 n)
  done;
  let len = String.length good in
  let rec deeper n =
    if n < len then begin
      reject (Printf.sprintf "truncated at byte %d" n) (String.sub good 0 n);
      deeper (n + 997)
    end
  in
  deeper 161;
  let patch_i64 s pos v =
    let b = Bytes.of_string s in
    Bytes.set_int64_le b pos (Int64.of_int v);
    Bytes.to_string b
  in
  (* Byte offsets: magic [0,8), model len [8,16), model [16,23)
     ("TreeGRU"), nodes [23,31), digest len [31,39), digest [39,71),
     embedded table magic [71,79), tensor count [79,87). *)
  reject "model length past the cap" (patch_i64 good 8 100_000);
  reject "model length beyond the file" (patch_i64 good 8 4096);
  reject "negative node count" (patch_i64 good 23 (-1));
  reject "node count past the cap" (patch_i64 good 23 2_000_000_000);
  reject "digest length past the cap" (patch_i64 good 31 1_000_000);
  reject "state count past the cap" (patch_i64 good 79 2_000_000);
  reject "state count beyond the file" (patch_i64 good 79 1_000_000);
  (* Extents that individually pass the per-extent cap but whose
     product overflows, spliced in as the embedded table. *)
  let overflow_table =
    let buf = Buffer.create 128 in
    Buffer.add_string buf (String.sub good 0 71);
    Buffer.add_string buf "CORTEXP1";
    let add_i64 v =
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.of_int v);
      Buffer.add_bytes buf b
    in
    add_i64 1 (* count *);
    add_i64 1 (* name_len *);
    Buffer.add_char buf 'h';
    add_i64 8 (* rank *);
    for _ = 1 to 8 do
      add_i64 100_000_000
    done;
    Buffer.contents buf
  in
  reject "overflowing state extent product" overflow_table;
  reject "appended bytes" (good ^ "GARBAGE-APPENDED");
  reject "one appended byte" (good ^ "\000");
  let appended = Filename.temp_file "cortex" ".csx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove appended)
    (fun () ->
      Out_channel.with_open_bin appended (fun oc ->
          output_string oc (good ^ "GARBAGE-APPENDED"));
      match Checkpoint.load_session ~expect_model:"TreeGRU" appended with
      | _ -> Alcotest.fail "appended bytes accepted from file"
      | exception Checkpoint.Corrupt _ -> ());
  (* And file round-trips use the same parser: save/load_session. *)
  let path = Filename.temp_file "cortex" ".csx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save_session path
        { Checkpoint.ss_model = "TreeGRU"; ss_nodes = 7; ss_digest = digest; ss_states = table };
      let ss = Checkpoint.load_session ~expect_model:"TreeGRU" path in
      Alcotest.(check int) "file round-trip states" (List.length table)
        (List.length ss.Checkpoint.ss_states);
      try
        ignore (Checkpoint.load_session ~expect_model:"TreeLSTM" path);
        Alcotest.fail "wrong expect_model accepted from file"
      with Checkpoint.Corrupt _ -> ())

(* Float64 payloads round-trip bit for bit, compared as
   [Int64.bits_of_float] per element ([max_abs_diff] cannot tell -0.0
   from 0.0 and does not see nan): a quiet nan with a non-default
   payload, -0.0, both infinities, the smallest subnormal and
   [max_float]. *)
let special_floats =
  [|
    Int64.float_of_bits 0x7FF8_0000_0000_BEEFL;
    -0.0;
    0.0;
    infinity;
    neg_infinity;
    Int64.float_of_bits 1L;
    max_float;
    -1.5;
  |]

let special_table : Checkpoint.t =
  [
    ("specials", Tensor.of_array [| Array.length special_floats |] (Array.copy special_floats));
    ( "grid",
      Tensor.init [| 4; 5 |] (fun i -> float_of_int (((i.(0) * 5) + i.(1)) * 7 mod 13) /. 8.0)
    );
    ("scalar", Tensor.scalar (-0.0));
  ]

let check_bitwise label (a : Checkpoint.t) (b : Checkpoint.t) =
  Alcotest.(check (list string)) (label ^ ": names") (List.map fst a) (List.map fst b);
  List.iter2
    (fun (name, (x : Tensor.t)) (_, (y : Tensor.t)) ->
      let bits (t : Tensor.t) = Array.map Int64.bits_of_float t.Tensor.data in
      Alcotest.(check (array int)) (label ^ ": shape of " ^ name) x.Tensor.shape y.Tensor.shape;
      Alcotest.(check (array int64)) (label ^ ": bits of " ^ name) (bits x) (bits y))
    a b

let special_session =
  {
    Checkpoint.ss_model = "TreeGRU";
    ss_nodes = 7;
    ss_digest = String.make 32 'a';
    ss_states = special_table;
  }

let test_checkpoint_bitwise () =
  check_bitwise "of_string" special_table
    (Checkpoint.of_string (Checkpoint.to_string special_table));
  let back = Checkpoint.session_of_string (Checkpoint.session_to_string special_session) in
  check_bitwise "session_of_string" special_table back.Checkpoint.ss_states;
  let path = Filename.temp_file "cortex" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save path special_table;
      check_bitwise "load" special_table (Checkpoint.load path);
      Checkpoint.save_session path special_session;
      check_bitwise "load_session" special_table
        (Checkpoint.load_session path).Checkpoint.ss_states)

(* Extents under the per-extent cap whose product fits an int but whose
   payload byte count does not: the remaining-bytes bound is taken on
   the byte count, so it must be overflow-checked too, or a negative
   need passes it and the reader attempts the allocation. *)
let test_checkpoint_payload_overflow () =
  let b = Buffer.create 128 in
  let i64 v = Buffer.add_int64_le b (Int64.of_int v) in
  Buffer.add_string b "CORTEXP1";
  i64 1 (* count *);
  i64 1 (* name_len *);
  Buffer.add_char b 'w';
  i64 3 (* rank *);
  List.iter i64 [ 100_000_000; 100_000_000; 200 ];
  Buffer.add_string b (String.make 64 '\000');
  match Checkpoint.of_string (Buffer.contents b) with
  | (_ : Checkpoint.t) -> Alcotest.fail "an overflowing payload was accepted"
  | exception Checkpoint.Corrupt _ -> ()

let test_bounds_clean () =
  (* The §A.2 bounds checker proves every access of the compiled
     programs in bounds for the concrete inputs. *)
  List.iter
    (fun name ->
      let spec = Models.Catalog.get name Models.Catalog.Small in
      List.iter
        (fun options ->
          let compiled = Runtime.compile ~options spec.M.program in
          let structure = spec.M.dataset (Rng.create 14) ~batch:2 in
          let lin = Linearizer.run structure in
          let bound = Lower.bind compiled lin in
          let violations =
            Bounds.check ~uf:bound.Lower.uf_resolver
              ~num_internal_batches:bound.Lower.num_batch_launches compiled.Lower.prog
          in
          (match violations with
           | [] -> ()
           | v :: _ ->
             Alcotest.failf "%s: %s[%s]: %s" name v.Bounds.tensor v.Bounds.index
               v.Bounds.detail);
          Alcotest.(check int) (name ^ " named dims") 0
            (List.length (Bounds.check_named_dims compiled.Lower.prog)))
        [ Lower.default; Lower.baseline; { Lower.default with Lower.specialize = false } ])
    [ "TreeRNN"; "TreeLSTM"; "TreeGRU"; "TreeFC"; "DAG-RNN" ]

let test_device_memory_positive () =
  let spec = Models.Catalog.get "TreeGRU" Models.Catalog.Small in
  let r = sim spec ~batch:10 in
  Alcotest.(check bool) "device memory accounted" true (r.Runtime.device_memory_bytes > 1.0e6)

(* Pricing a window allocates the counts it returns and little else: no
   state tensors and no per-node re-walk of the loop bodies.  The
   allocation sequence is fixed, so the number is deterministic. *)
let test_pricing_alloc () =
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let compiled = Runtime.compile spec.M.program in
  let lin = Linearizer.run (spec.M.dataset (Rng.create 42) ~batch:8) in
  let price () = ignore (Runtime.simulate_lin compiled ~backend:gpu lin) in
  price ();
  let before = Gc.allocated_bytes () in
  price ();
  let bytes = Gc.allocated_bytes () -. before in
  if bytes > 320_000.0 then
    Alcotest.failf "pricing a %d-node window allocated %.0f bytes (budget 320000)"
      lin.Linearizer.num_nodes bytes

(* The codec pays per byte, not per value: decoding a bundle allocates
   its tensors' storage and little else (no copy of the payload for
   the digest or per section, nothing boxed per float), and encoding a
   table allocates its output once.  The allocation sequence is fixed,
   so the numbers are deterministic. *)
let test_codec_alloc () =
  let weights =
    [
      ("W", Tensor.init [| 1024; 1024 |] (fun i -> float_of_int (i.(0) - i.(1)) /. 64.0));
      ("b", Tensor.create [| 1024 |] (-0.5));
    ]
  in
  let weight_bytes = float_of_int (8 * (1024 * 1024 + 1024)) in
  let spec = Models.Tree_fc.spec ~vocab:12 ~hidden:4 () in
  let compiled = Runtime.compile spec.M.program in
  let encoded =
    Bundle.encode
      (Bundle.create ~weights ~model:"TreeFC" ~size:"small" ~backend:gpu.Backend.short
         compiled)
  in
  let allocated f =
    let before = Gc.allocated_bytes () in
    f ();
    Gc.allocated_bytes () -. before
  in
  let decode = allocated (fun () -> ignore (Bundle.decode encoded)) in
  let budget = (1.1 *. weight_bytes) +. 1e6 in
  if decode > budget then
    Alcotest.failf "decoding %.0f weight bytes allocated %.0f bytes (budget %.0f)"
      weight_bytes decode budget;
  let out = float_of_int (String.length (Checkpoint.to_string weights)) in
  let encode = allocated (fun () -> ignore (Checkpoint.to_string weights)) in
  if encode > 2.0 *. out then
    Alcotest.failf "encoding a %.0f-byte table allocated %.0f bytes (budget %.0f)" out
      encode (2.0 *. out)

(* ---------- the paper's qualitative claims ---------- *)

let test_cortex_beats_frameworks () =
  (* Fig. 6 / Tables 4-5: on the GPU, Cortex beats PyTorch, DyNet and
     Cavs on every evaluated model, batch 1 and 10. *)
  List.iter
    (fun name ->
      let spec = Models.Catalog.get name Models.Catalog.Small in
      List.iter
        (fun batch ->
          let structure = spec.M.dataset (Rng.create 4) ~batch in
          let lin = Linearizer.run structure in
          let compiled = Runtime.compile spec.M.program in
          let cortex = ms (Runtime.simulate compiled ~backend:gpu structure) in
          List.iter
            (fun kind ->
              let fw =
                (Frameworks.run kind ~backend:gpu spec.M.program lin).Frameworks.total_us /. 1000.0
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s beats %s (bs %d): %.3f vs %.3f" name
                   (Frameworks.name kind) batch cortex fw)
                true (cortex < fw))
            [ Frameworks.Pytorch; Frameworks.Dynet; Frameworks.Cavs ])
        [ 1; 10 ])
    Models.Catalog.evaluated

let test_fig10a_progression () =
  (* Fusion then specialization then persistence: latency must not
     increase along the chain, and fusion must be a big win. *)
  List.iter
    (fun name ->
      let spec = Models.Catalog.get name Models.Catalog.Small in
      let unfused = ms (sim ~base:{ Lower.baseline with Lower.dynamic_batch = true } spec ~batch:10) in
      let fused = ms (sim ~base:{ Lower.default with Lower.specialize = false; persist = false } spec ~batch:10) in
      let specd = ms (sim ~base:{ Lower.default with Lower.persist = false } spec ~batch:10) in
      Alcotest.(check bool) (name ^ ": fusion >= 2x") true (unfused /. fused >= 2.0);
      Alcotest.(check bool) (name ^ ": specialization does not hurt") true
        (specd <= fused *. 1.05))
    Models.Catalog.evaluated

let test_specialization_dag_vs_tree () =
  (* §7.3: specialization helps TreeLSTM a lot and DAG-RNN not at all. *)
  let gain name =
    let spec = Models.Catalog.get name Models.Catalog.Small in
    let total base = ms (sim ~base spec ~batch:10) in
    total { Lower.default with Lower.specialize = false } /. total Lower.default
  in
  let tree = gain "TreeLSTM" and dag = gain "DAG-RNN" in
  Alcotest.(check bool) (Printf.sprintf "TreeLSTM gain %.2f > 1.1" tree) true (tree > 1.1);
  Alcotest.(check bool) (Printf.sprintf "DAG-RNN gain %.2f ~ 1" dag) true
    (dag < 1.08 && dag > 0.92);
  Alcotest.(check bool) "tree gains more than DAG" true (tree > dag)

let test_fig10b_unrolling () =
  let run name =
    let device r = r.Runtime.latency.Backend.total_us in
    let spec = Models.Catalog.get name Models.Catalog.Small in
    let base = device (sim ~base:{ Lower.default with Lower.persist = false } spec ~batch:10) in
    let unrolled =
      device (sim ~base:{ Lower.default with Lower.unroll = true; persist = false } spec ~batch:10)
    in
    (base, unrolled)
  in
  let lstm_base, lstm_unrolled = run "TreeLSTM" in
  let rnn_base, rnn_unrolled = run "TreeRNN" in
  Alcotest.(check bool) "unrolling slows TreeLSTM" true (lstm_unrolled > lstm_base);
  Alcotest.(check bool) "unrolling speeds TreeRNN" true (rnn_unrolled < rnn_base)

let test_fig10c_refactoring () =
  let gain name =
    let spec = Models.Catalog.get name Models.Catalog.Small in
    let base = ms (sim spec ~batch:10) in
    let refactored = ms (sim ~base:{ Lower.default with Lower.refactor = true } spec ~batch:10) in
    (base -. refactored) /. base
  in
  let full = gain "TreeGRU" and simple = gain "SimpleTreeGRU" in
  Alcotest.(check bool) (Printf.sprintf "TreeGRU ~ flat (%.1f%%)" (full *. 100.)) true
    (Float.abs full < 0.08);
  Alcotest.(check bool) (Printf.sprintf "SimpleTreeGRU wins (%.1f%%)" (simple *. 100.)) true
    (simple > 0.12)

let test_fig12_memory_ordering () =
  (* PyTorch < CORTEX < DyNet for every model with 1-D states. *)
  List.iter
    (fun name ->
      let spec = Models.Catalog.get name Models.Catalog.Small in
      let structure = spec.M.dataset (Rng.create 5) ~batch:10 in
      let lin = Linearizer.run structure in
      let fw kind = (Frameworks.run kind ~backend:gpu spec.M.program lin).Frameworks.memory_bytes in
      let compiled = Runtime.compile spec.M.program in
      let cortex = (Runtime.simulate compiled ~backend:gpu structure).Runtime.device_memory_bytes in
      Alcotest.(check bool) (name ^ ": cortex below DyNet") true (cortex < fw Frameworks.Dynet);
      (* PyTorch keeps the least (no batching scratch, temps freed); a
         2% tolerance absorbs accounting noise on embedding-dominated
         models. *)
      Alcotest.(check bool) (name ^ ": pytorch lowest") true
        (fw Frameworks.Pytorch < cortex *. 1.02))
    [ "TreeFC"; "TreeGRU"; "TreeLSTM" ]

let test_barrier_modes () =
  (* §A.4: conservative (stock-TVM) placement never uses fewer barriers
     than the dependence-carrying placement. *)
  List.iter
    (fun name ->
      let spec = Models.Catalog.get name Models.Catalog.Small in
      let b mode =
        (sim ~base:{ Lower.default with Lower.barrier_mode = mode } spec ~batch:10)
          .Runtime.latency.Backend.barriers
      in
      Alcotest.(check bool) (name ^ ": conservative >= carrier") true
        (b Barrier.Conservative >= b Barrier.Carrier))
    [ "TreeLSTM"; "TreeRNN"; "DAG-RNN" ]

let test_grnn_comparison () =
  (* Fig. 9: the lock-free barrier makes GRNN-style code strictly
     faster; Cortex with the same barrier matches it. *)
  let spec = Models.Catalog.get "LSTM" Models.Catalog.Small in
  let compiled = Runtime.compile spec.M.program in
  let structure = spec.M.dataset (Rng.create 6) ~batch:1 in
  let grnn = Runtime.simulate ~lock_free:true compiled ~backend:gpu structure in
  let cortex = Runtime.simulate compiled ~backend:gpu structure in
  Alcotest.(check bool) "lock-free faster" true (ms grnn < ms cortex);
  Alcotest.(check bool) "within 2x" true (ms cortex /. ms grnn < 2.0)

let test_linearization_overhead_share () =
  (* §7.5: linearization is a small share of end-to-end latency for tree
     models on the GPU. *)
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let r = sim spec ~batch:10 in
  let share = r.Runtime.linearize_us /. (r.Runtime.latency.Backend.total_us +. r.Runtime.linearize_us) in
  Alcotest.(check bool) (Printf.sprintf "share %.1f%% < 35%%" (share *. 100.)) true (share < 0.35)

(* §7.5's six cells (us, batch 1 / batch 10): the priced inspector
   charge lands within 25% of each on the datasets the §7.5 table uses
   (the bench harness's seed 2021, offset by the batch size). *)
let test_linearization_calibrated () =
  List.iter
    (fun (name, (paper1, paper10)) ->
      let spec = Models.Catalog.get name Models.Catalog.Small in
      List.iter
        (fun (batch, paper) ->
          let s = spec.M.dataset (Rng.create (2021 + batch)) ~batch in
          let priced = Linearizer.priced_us (Linearizer.run s) in
          Alcotest.(check bool)
            (Printf.sprintf "%s batch %d: priced %.2f us vs paper %.2f" name batch priced
               paper)
            true
            (Float.abs (priced -. paper) <= 0.25 *. paper))
        [ (1, paper1); (10, paper10) ])
    [ ("TreeLSTM", (1.31, 9.64)); ("DAG-RNN", (8.2, 95.14)); ("TreeFC", (3.04, 30.36)) ]

(* §7.5: the inspector touches structure, never tensors, so its charge
   does not depend on the hidden size. *)
let test_linearization_hidden_independent () =
  let s =
    (Models.Catalog.get "TreeLSTM" Models.Catalog.Small).M.dataset (Rng.create 21) ~batch:10
  in
  let charge size =
    let spec = Models.Catalog.get "TreeLSTM" size in
    let compiled = Runtime.compile spec.M.program in
    (Runtime.simulate compiled ~backend:gpu s).Runtime.linearize_us
  in
  Alcotest.(check (float 0.0)) "h_s and h_l charge alike"
    (charge Models.Catalog.Small) (charge Models.Catalog.Large)

(* ---------- snapshot: bit-exact execution across the zoo ---------- *)

(* The nine models `cortex list` prints, built at hidden 4 the way
   `cortex run --hidden 4` builds them, under every option set that
   lowers for the model, plus one loop plan from the tuner.  Each run
   is digested as MD5 over the bits of every state row and the
   interpreter's counters; the constants pin the executor's numerics
   and counting bit for bit. *)

let zoo_at_hidden_4 =
  let h = 4 in
  [
    ("TreeFC", Models.Tree_fc.spec ~vocab:200 ~hidden:h ());
    ("DAG-RNN", Models.Dag_rnn.spec ~hidden:h ());
    ("TreeGRU", Models.Tree_gru.spec ~vocab:200 ~hidden:h ());
    ("TreeLSTM", Models.Tree_lstm.spec ~vocab:200 ~hidden:h ());
    ("MV-RNN", Models.Mv_rnn.spec ~vocab:50 ~hidden:h ());
    ("TreeRNN", Models.Tree_rnn.spec ~vocab:200 ~hidden:h ());
    ("SimpleTreeGRU", Models.Tree_gru.spec ~vocab:200 ~simple:true ~hidden:h ());
    ("LSTM", Models.Tree_lstm.spec ~vocab:200 ~sequence:true ~hidden:h ());
    ("GRU", Models.Tree_gru.spec ~vocab:200 ~sequence:true ~hidden:h ());
  ]

let zoo_option_sets =
  [
    ("default", Lower.default);
    ("no-fuse", { Lower.default with Lower.fuse = false });
    ("no-specialize", { Lower.default with Lower.specialize = false });
    ("no-dynamic-batch", { Lower.default with Lower.dynamic_batch = false });
    ("unroll", { Lower.default with Lower.unroll = true });
    ("refactor", { Lower.default with Lower.refactor = true });
  ]

let execution_digest (spec : M.t) compiled lin =
  let params = spec.M.init_params (Rng.create 2022) in
  let bound = Lower.bind ~count:true compiled lin in
  List.iter
    (fun (name, t) -> Interp.bind_tensor bound.Lower.ctx t (params name))
    compiled.Lower.param_tensors;
  Interp.run_program bound.Lower.ctx compiled.Lower.prog;
  let buf = Buffer.create 4096 in
  List.iter
    (fun (st, _) ->
      for id = 0 to lin.Linearizer.num_nodes - 1 do
        let row = Lower.state_value_lin bound compiled st id in
        for i = 0 to Tensor.numel row - 1 do
          Buffer.add_int64_le buf (Int64.bits_of_float (Tensor.get_flat row i))
        done
      done)
    compiled.Lower.state_tensors;
  let c = Interp.counters bound.Lower.ctx in
  List.iter
    (fun n -> Buffer.add_int64_le buf (Int64.of_int n))
    ([ c.Interp.loads; c.stores; c.flops ]
    @ Array.to_list c.loads_by_space
    @ Array.to_list c.stores_by_space);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let zoo_digests () =
  List.concat_map
    (fun (name, (spec : M.t)) ->
      let lin = Linearizer.run (spec.M.dataset (Rng.create 2021) ~batch:2) in
      let runs =
        List.filter_map
          (fun (label, base) ->
            match Runtime.compile ~options:base spec.M.program with
            | compiled ->
              Some (name ^ "/" ^ label, execution_digest spec compiled lin)
            | exception Lower.Lowering_error _ -> None)
          zoo_option_sets
      in
      (* The tuner's best plan that stages a tensor on chip, so the
         digest also covers a lazily allocated staging temporary. *)
      let plan =
        if name <> "TreeLSTM" then []
        else
          let compiled = Runtime.compile spec.M.program in
          let stages p = List.exists (function Schedule.Stage _ -> true | _ -> false) p in
          match
            List.find_opt (fun (p, _) -> stages p)
              (Tuner.tune_loops ~budget:16 compiled ~backend:gpu lin)
          with
          | None -> Alcotest.fail "the tuner ranked no staging plan"
          | Some (p, _) ->
            [ (name ^ "/plan", execution_digest spec (Lower.apply_plan p compiled) lin) ]
      in
      runs @ plan)
    zoo_at_hidden_4

(* Recorded with the tree-walking interpreter; every executor must reproduce them. *)
let expected_zoo_digests =
  [
    ("TreeFC/default", "2bb5f6a7c144d09291e6c2f40c7af4f8");
    ("TreeFC/no-fuse", "ca3da65166643aa7428b6d2fee26d4fb");
    ("TreeFC/no-specialize", "e819147c00379180d529626cf062c1f1");
    ("TreeFC/no-dynamic-batch", "2bb5f6a7c144d09291e6c2f40c7af4f8");
    ("TreeFC/unroll", "c92e1e709933e69fa8ce7a12f0165401");
    ("DAG-RNN/default", "63de5d05150bc3a4f93982c89f0d4c54");
    ("DAG-RNN/no-fuse", "e541234085f7f09c565d5484089fbc95");
    ("DAG-RNN/no-specialize", "3734cd5209fbc9d5eef48d0c89612554");
    ("DAG-RNN/no-dynamic-batch", "63de5d05150bc3a4f93982c89f0d4c54");
    ("TreeGRU/default", "28b0d1ae3a29fec4871cfc660a330ba6");
    ("TreeGRU/no-fuse", "de12708ea25129affa3c57b817fad255");
    ("TreeGRU/no-specialize", "820a341f2352eafe3d8f4c7277270bbd");
    ("TreeGRU/no-dynamic-batch", "28b0d1ae3a29fec4871cfc660a330ba6");
    ("TreeGRU/unroll", "a2f7fff05dfc48d1f5e0b8f96b290fd2");
    ("TreeGRU/refactor", "d7e383cdfbb9e5dc6542c296ac4eae91");
    ("TreeLSTM/default", "13d1da6bc5f52d470342a726c1d2f4ca");
    ("TreeLSTM/no-fuse", "4421a933fb03693927761358959c1909");
    ("TreeLSTM/no-specialize", "f40ae9b90ac632e6a0cd65b07a16f5f7");
    ("TreeLSTM/no-dynamic-batch", "13d1da6bc5f52d470342a726c1d2f4ca");
    ("TreeLSTM/unroll", "29fee42c7191986ae4dae93b4cade31e");
    ("TreeLSTM/plan", "37fb6404233137ae2653818291f05f9c");
    ("MV-RNN/default", "ad945921e6b4a4639159fe1cf256551c");
    ("MV-RNN/no-fuse", "5cbcb2ba55e92f95a21a08efaef4fedf");
    ("MV-RNN/no-specialize", "fa92e1d168701b74541876b4939225d3");
    ("MV-RNN/no-dynamic-batch", "ad945921e6b4a4639159fe1cf256551c");
    ("MV-RNN/unroll", "7d39475f262b6b201786b2a28dba9411");
    ("MV-RNN/refactor", "ad945921e6b4a4639159fe1cf256551c");
    ("TreeRNN/default", "3ffd09647db3bd5cd9dcbdd4e9aadd34");
    ("TreeRNN/no-fuse", "a02044a565dae8c37e8bd1c894650657");
    ("TreeRNN/no-specialize", "3b8bbb7623def0e7c4c19676d1bdee06");
    ("TreeRNN/no-dynamic-batch", "3ffd09647db3bd5cd9dcbdd4e9aadd34");
    ("TreeRNN/unroll", "616ce8444a7141155c0382fdd097860c");
    ("SimpleTreeGRU/default", "2a632be4dacfb1ff53d3f3d260bb64fa");
    ("SimpleTreeGRU/no-fuse", "14cd1a0e3dc5e88dd344b9e1b341d0e3");
    ("SimpleTreeGRU/no-specialize", "b11367441b5f8c46d146eec7e4d6e655");
    ("SimpleTreeGRU/no-dynamic-batch", "2a632be4dacfb1ff53d3f3d260bb64fa");
    ("SimpleTreeGRU/unroll", "d77f6f000c85ce7801bf490383f0cdc0");
    ("SimpleTreeGRU/refactor", "dd9b6dbc2d209371608656b2b8928e46");
    ("LSTM/default", "01e0f5d77c3b0049c019449194117adc");
    ("LSTM/no-fuse", "e71cedf50eaeb05d162872fe51f93677");
    ("LSTM/no-specialize", "a42fe378509988b987a34abc28ee0088");
    ("LSTM/no-dynamic-batch", "01e0f5d77c3b0049c019449194117adc");
    ("LSTM/unroll", "4a3b151367506d224733a2c5127484df");
    ("GRU/default", "f728083df00b8e86b638d530cab807f5");
    ("GRU/no-fuse", "e63c29157debb073519ade0075f78c27");
    ("GRU/no-specialize", "c552a8747e7183d35373b5b5438ace94");
    ("GRU/no-dynamic-batch", "f728083df00b8e86b638d530cab807f5");
    ("GRU/unroll", "d7b09baad44db485e2dda1a7c110458d");
    ("GRU/refactor", "36121108adf94eb066129659c3985c33");
  ]

let test_zoo_digest () =
  let row (label, digest) = Printf.sprintf "(%S, %S);" label digest in
  Alcotest.(check (list string)) "digests" (List.map row expected_zoo_digests)
    (List.map row (zoo_digests ()))

(* ---------- snapshot: bit-exact pricing ---------- *)

(* Every field of the static cost ([Cost.t]), the latency each backend
   prices it at, and [simulate_lin]'s device memory and occupancy,
   digested as MD5 over the bits.  Param tensor ids are process-global,
   so each is replaced by its index in [prog.params], and the per-param
   lists are sorted by that index: [Backend.simulate] sums them exactly,
   so their order cannot move a latency. *)
let cost_digest compiled lins =
  let prog = compiled.Lower.prog in
  let index tid =
    let rec go i = function
      | [] -> Alcotest.failf "tensor %d is not a param of %s" tid prog.Ir.pname
      | (t : Ir.tensor) :: rest -> if t.Ir.tid = tid then i else go (i + 1) rest
    in
    go 0 prog.Ir.params
  in
  let buf = Buffer.create 4096 in
  let int n = Buffer.add_int64_le buf (Int64.of_int n) in
  let float x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  let per_param l =
    int (List.length l);
    List.map (fun (tid, b) -> (index tid, b)) l
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (i, b) ->
           int i;
           float b)
  in
  let cost (c : Cost.t) =
    List.iter
      (fun (k : Cost.kernel_cost) ->
        Buffer.add_string buf k.Cost.kname;
        int k.Cost.launches;
        int (List.length k.Cost.segments);
        List.iter
          (fun (s : Cost.segment) ->
            float s.Cost.flops;
            float s.Cost.dep_flops;
            Array.iter float s.Cost.reads;
            Array.iter float s.Cost.writes;
            float s.Cost.lanes;
            per_param s.Cost.param_raw)
          k.Cost.segments)
      c.Cost.kernels;
    float c.Cost.param_total_bytes;
    per_param c.Cost.param_sizes;
    int c.Cost.barrier_count;
    float c.Cost.onchip_peak_bytes;
    float c.Cost.onchip_planned_bytes
  in
  List.iter
    (fun lin ->
      List.iteri
        (fun i backend ->
          let r = Runtime.simulate_lin compiled ~backend lin in
          if i = 0 then cost r.Runtime.cost;
          let l = r.Runtime.latency in
          List.iter float
            Backend.
              [
                l.total_us;
                l.compute_us;
                l.barrier_us;
                l.launch_us;
                l.param_traffic_bytes;
                l.global_traffic_bytes;
                l.onchip_traffic_bytes;
              ];
          int l.Backend.kernel_launches;
          int l.Backend.barriers;
          float r.Runtime.device_memory_bytes;
          float r.Runtime.occupancy)
        [ Backend.gpu; Backend.intel; Backend.arm ])
    lins;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let cost_digests () =
  let zoo =
    List.concat_map
      (fun (name, (spec : M.t)) ->
        let lins =
          List.map (fun seed -> Linearizer.run (spec.M.dataset (Rng.create seed) ~batch:2)) [ 2021; 7 ]
        in
        let runs =
          List.filter_map
            (fun (label, base) ->
              match Runtime.compile ~options:base spec.M.program with
              | compiled -> Some (name ^ "/" ^ label, cost_digest compiled lins)
              | exception Lower.Lowering_error _ -> None)
            zoo_option_sets
        in
        let plan =
          if name <> "TreeLSTM" then []
          else
            let compiled = Runtime.compile spec.M.program in
            let stages p = List.exists (function Schedule.Stage _ -> true | _ -> false) p in
            match
              List.find_opt (fun (p, _) -> stages p)
                (Tuner.tune_loops ~budget:16 compiled ~backend:gpu (List.hd lins))
            with
            | None -> Alcotest.fail "the tuner ranked no staging plan"
            | Some (p, _) -> [ (name ^ "/plan", cost_digest (Lower.apply_plan p compiled) lins) ]
        in
        runs @ plan)
      zoo_at_hidden_4
  in
  (* TreeLSTM at hidden 256 on 8-tree SST windows, as the repository
     benchmark's sst-priced workload serves it: the default schedule and
     the plan its bundle carries (tuned on the seed-42 window). *)
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let compiled = Runtime.compile spec.M.program in
  let lins =
    List.map (fun seed -> Linearizer.run (spec.M.dataset (Rng.create seed) ~batch:8)) [ 42; 7 ]
  in
  let tuned =
    match Tuner.tune_loops ~budget:16 compiled ~backend:gpu (List.hd lins) with
    | (plan, _) :: _ -> plan
    | [] -> Alcotest.fail "the tuner ranked no plan"
  in
  zoo
  @ [
      ("SST/default", cost_digest compiled lins);
      ("SST/tuned", cost_digest (Lower.apply_plan tuned compiled) lins);
    ]

(* Recorded with the tree-walking cost analyzer; the compiled walk must reproduce them. *)
let expected_cost_digests =
  [
    ("TreeFC/default", "48c1a675e9a68c571f8ad8b8131655cc");
    ("TreeFC/no-fuse", "19f34f64445037348c64dacc396a5789");
    ("TreeFC/no-specialize", "abb5d154b224fee80ea494e7ad96e470");
    ("TreeFC/no-dynamic-batch", "de137f794d9fa25539b2f244e8bd89d0");
    ("TreeFC/unroll", "76181944177debd3fe8cf415db6352c1");
    ("DAG-RNN/default", "9ed04a57d99abe6d02b04d07eca79008");
    ("DAG-RNN/no-fuse", "8c6d637324847a6160531771cdf8f6c1");
    ("DAG-RNN/no-specialize", "f7f6660f5502a33efb2900ca3e4278df");
    ("DAG-RNN/no-dynamic-batch", "b408796de862890f1774574ab4b1682f");
    ("TreeGRU/default", "11a39142e620aa5f7b5be6ed7c3d7463");
    ("TreeGRU/no-fuse", "504d102915bf022e643675e9cb6c2550");
    ("TreeGRU/no-specialize", "13bc9cbffcd389d1b48291d886e46b56");
    ("TreeGRU/no-dynamic-batch", "61fe5f99baabff33f3f9c2327274bc63");
    ("TreeGRU/unroll", "19fb0d2bd34c2149fbc478196a876574");
    ("TreeGRU/refactor", "6a2360936ad6272d3a8299b758354832");
    ("TreeLSTM/default", "2ccc8580cc74cf8a65fffff5b535a711");
    ("TreeLSTM/no-fuse", "1da77cd6f4251ec5113ec631842f6acb");
    ("TreeLSTM/no-specialize", "915ff83fab8b99714fa7fcdc7f8377eb");
    ("TreeLSTM/no-dynamic-batch", "f1ca8780c2ade9fd84e9eb3a8e05daa6");
    ("TreeLSTM/unroll", "5f4e87ad4a1a7a20c912e2bfecd4198e");
    ("TreeLSTM/plan", "6128ae0f42b49b339da8ba93b864eb4b");
    ("MV-RNN/default", "ddbbbdd07b2086d686088441e8acf7c8");
    ("MV-RNN/no-fuse", "badf9a6a77fbca26a9b7d12f128ffb73");
    ("MV-RNN/no-specialize", "f93f3483a5e37d1ae8999a2f3cc10f36");
    ("MV-RNN/no-dynamic-batch", "634eda678c7376f06da0b15185a7af99");
    ("MV-RNN/unroll", "5d38ef399b9f6f6452226ffa7e943bb6");
    ("MV-RNN/refactor", "3a421f6e70873ba29e9dbcaadb61bc6c");
    ("TreeRNN/default", "a9ab39081af75ea4a7a1993e7be43eba");
    ("TreeRNN/no-fuse", "f59172c7c88e5f5c099f517f078cbe2c");
    ("TreeRNN/no-specialize", "21786428f156ad645eb5aa5376bad94b");
    ("TreeRNN/no-dynamic-batch", "211309a69108b8d47f44e07ce5dd1af1");
    ("TreeRNN/unroll", "7db78e303d0c5e661ab28ad922a667b3");
    ("SimpleTreeGRU/default", "03734a7a1f7268263d1418d06afdac05");
    ("SimpleTreeGRU/no-fuse", "f0edd1ec209172e0b464ad0bd4ed3533");
    ("SimpleTreeGRU/no-specialize", "3d16bbcd7c2d3b45b77e1564b314dddb");
    ("SimpleTreeGRU/no-dynamic-batch", "54933d43f25c4beb7fa09f2ea74b97bc");
    ("SimpleTreeGRU/unroll", "67c7870730f87743965bbf127fd62f9c");
    ("SimpleTreeGRU/refactor", "1fc455ac4d9073f89068511835bd3ba2");
    ("LSTM/default", "3b55a74f91fe5af0782fd9840c78fac9");
    ("LSTM/no-fuse", "04ff9bf414f8fdb5b8f1aa832ce8b8dc");
    ("LSTM/no-specialize", "ff39e34d7b69af77d4e73cdb477f9a1e");
    ("LSTM/no-dynamic-batch", "b36ff6f571596e82a8dcb55596479561");
    ("LSTM/unroll", "f84d5799cf261f8e588afcd4a11578d9");
    ("GRU/default", "184551465fa30c3c63e4ee4e3853984c");
    ("GRU/no-fuse", "7d1f8dbc9eb09e687945c5acc11ce3dd");
    ("GRU/no-specialize", "293ea0fa3437ea5077b4b5f1698da1c3");
    ("GRU/no-dynamic-batch", "33665927d6858895a70e3cd18335589c");
    ("GRU/unroll", "7b8ad639366699ddd1f9386c64eea966");
    ("GRU/refactor", "4eaa58f1e7854e875af43b5d4b60c68d");
    ("SST/default", "83003199f186fcaffffb4859b28bea13");
    ("SST/tuned", "091495a443473d5650c8febe65774b73");
  ]

let test_cost_digest () =
  let row (label, digest) = Printf.sprintf "(%S, %S);" label digest in
  Alcotest.(check (list string)) "digests" (List.map row expected_cost_digests)
    (List.map row (cost_digests ()))

(* ---------- snapshot: checkpoint bytes ---------- *)

(* The bytes the writers emit for fixed tables.  Bundles embed the
   parameter format, and priced spill and restore costs are functions
   of a session spill's length, so a changed byte would move both. *)
let test_codec_digest () =
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "Checkpoint.to_string" "5489d31c961cae99a8a7bca748c15120"
    (md5 (Checkpoint.to_string special_table));
  Alcotest.(check string) "session_to_string" "83638a85365633f473fb77b15e8e6753"
    (md5 (Checkpoint.session_to_string special_session));
  Alcotest.(check string) "empty table" "ebf02d5b92363d77d10f2cc5d3a3c967" (md5 (Checkpoint.to_string []))

let () =
  Alcotest.run "runtime"
    [
      ( "plumbing",
        [
          Alcotest.test_case "execute-state" `Quick test_execute_and_state;
          Alcotest.test_case "schedule-check" `Quick test_schedule_check_appd;
          Alcotest.test_case "tuner" `Quick test_tuner;
          Alcotest.test_case "checkpoint" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "checkpoint-adversarial" `Quick
            test_checkpoint_adversarial_headers;
          Alcotest.test_case "session-section-adversarial" `Quick
            test_session_section_adversarial;
          Alcotest.test_case "checkpoint-bitwise" `Quick test_checkpoint_bitwise;
          Alcotest.test_case "checkpoint-overflow" `Quick test_checkpoint_payload_overflow;
          Alcotest.test_case "bounds-clean" `Quick test_bounds_clean;
          Alcotest.test_case "device-memory" `Quick test_device_memory_positive;
          Alcotest.test_case "pricing-alloc" `Quick test_pricing_alloc;
          Alcotest.test_case "codec-alloc" `Quick test_codec_alloc;
          Alcotest.test_case "single-structure-fanout" `Quick test_single_structure_fanout;
        ] );
      ( "facts",
        [
          Alcotest.test_case "create-prices-like-of-spec" `Quick
            test_create_prices_like_of_spec;
          Alcotest.test_case "treernn-block-local-unroll" `Quick
            test_treernn_block_local_unroll;
        ] );
      ( "paper-claims",
        [
          Alcotest.test_case "cortex-beats-frameworks" `Quick test_cortex_beats_frameworks;
          Alcotest.test_case "fig10a-progression" `Quick test_fig10a_progression;
          Alcotest.test_case "specialization-dag-vs-tree" `Quick test_specialization_dag_vs_tree;
          Alcotest.test_case "fig10b-unrolling" `Quick test_fig10b_unrolling;
          Alcotest.test_case "fig10c-refactoring" `Quick test_fig10c_refactoring;
          Alcotest.test_case "fig12-memory" `Quick test_fig12_memory_ordering;
          Alcotest.test_case "barrier-modes" `Quick test_barrier_modes;
          Alcotest.test_case "grnn" `Quick test_grnn_comparison;
          Alcotest.test_case "linearization-share" `Quick test_linearization_overhead_share;
          Alcotest.test_case "linearization-calibrated" `Quick test_linearization_calibrated;
          Alcotest.test_case "linearization-hidden-independent" `Quick
            test_linearization_hidden_independent;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "zoo-digest" `Quick test_zoo_digest;
          Alcotest.test_case "cost-digest" `Quick test_cost_digest;
          Alcotest.test_case "codec-digest" `Quick test_codec_digest;
        ] );
    ]
