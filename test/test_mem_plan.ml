(* The static memory planner: liveness-driven arena packing.

   Two layers of pinning.  Property tests build random lowered-shaped
   programs (random temporaries, random access sequences, some inside
   loops) and assert the planner's core safety invariant: two buffers
   whose live ranges intersect never share arena bytes.  Model tests run
   the planner over the real zoo artifacts — statically (the capacity
   check's configuration) and with a bound linearization's UF resolver
   (the bundle manifest's configuration) — and pin planned <= worst
   everywhere, with strict savings on TreeLSTM. *)

open Cortex
module M = Models.Common
module Q = QCheck

let spaces = [ Ir.Shared; Ir.Register ]

(* ---------- random programs ---------- *)

(* A program sketch is pure data so QCheck can shrink it: tensor
   element counts with a space each, and a flat access script of
   (tensor index, wrap-in-loop) segments chunked into kernels. *)
type sketch = {
  sk_tensors : (int * bool) list;  (* extent, is_shared (else register) *)
  sk_segments : (int list * int option) list;
      (* tensors touched; Some extent = wrap in a For of that extent *)
  sk_kernels : int;  (* chunk the segments into this many kernels *)
}

let build_program (sk : sketch) =
  let tensors =
    List.mapi
      (fun i (extent, shared) ->
        Ir.tensor
          ~space:(if shared then Ir.Shared else Ir.Register)
          (Printf.sprintf "t%d" i)
          [ Ir.Dim.fresh "d" ]
          [ Ir.int (max 1 extent) ])
      sk.sk_tensors
  in
  let arr = Array.of_list tensors in
  let n = Array.length arr in
  let segment (touched, loop) =
    let touched = List.map (fun i -> arr.(abs i mod n)) touched in
    let body =
      Ir.Seq
        (List.map (fun t -> Ir.Store (t, [ Ir.int 0 ], Ir.Load (t, [ Ir.int 0 ]))) touched)
    in
    match loop with
    | None -> body
    | Some e -> Ir.for_ (Ir.Var.fresh "i") (Ir.int (max 2 (abs e mod 5))) body
  in
  let stmts = List.map segment sk.sk_segments in
  let nk = max 1 sk.sk_kernels in
  let kernels =
    List.mapi
      (fun i s -> { Ir.kname = Printf.sprintf "k%d" (i mod nk); launch = Ir.Once; body = s })
      stmts
  in
  {
    Ir.pname = "random";
    params = [];
    inputs = [];
    temporaries = tensors;
    outputs = [];
    kernels;
  }

let sketch_gen =
  let open Q.Gen in
  let tensor = pair (1 -- 64) bool in
  let segment = pair (list_size (1 -- 2) (0 -- 16)) (opt (2 -- 4)) in
  map
    (fun (tensors, segments, kernels) -> { sk_tensors = tensors; sk_segments = segments; sk_kernels = kernels })
    (triple (list_size (1 -- 6) tensor) (list_size (1 -- 12) segment) (1 -- 3))

let print_sketch sk =
  Printf.sprintf "tensors=[%s] segments=[%s] kernels=%d"
    (String.concat ";" (List.map (fun (e, s) -> Printf.sprintf "%d%s" e (if s then "s" else "r")) sk.sk_tensors))
    (String.concat ";"
       (List.map
          (fun (ts, l) ->
            Printf.sprintf "(%s)%s"
              (String.concat "," (List.map string_of_int ts))
              (match l with None -> "" | Some e -> Printf.sprintf "@%d" e))
          sk.sk_segments))
    sk.sk_kernels

let arb_sketch = Q.make ~print:print_sketch sketch_gen

let check_plan_invariants ?(align = 64) (mp : Mem_plan.t) =
  (* Safety: simultaneously-live buffers never alias. *)
  let rec pairs = function
    | [] -> ()
    | p :: rest ->
      List.iter
        (fun q ->
          if Mem_plan.ranges_overlap p q && Mem_plan.offsets_overlap p q then
            Q.Test.fail_reportf "live buffers %s and %s share arena bytes"
              p.Mem_plan.pl_tensor.Ir.tname q.Mem_plan.pl_tensor.Ir.tname)
        rest;
      pairs rest
  in
  pairs mp.Mem_plan.placements;
  List.iter
    (fun (p : Mem_plan.placement) ->
      if p.Mem_plan.pl_offset mod align <> 0 then
        Q.Test.fail_reportf "%s unaligned at %d" p.Mem_plan.pl_tensor.Ir.tname p.Mem_plan.pl_offset;
      if p.Mem_plan.pl_offset + p.Mem_plan.pl_bytes > mp.Mem_plan.arena_bytes then
        Q.Test.fail_reportf "%s overflows the arena" p.Mem_plan.pl_tensor.Ir.tname)
    mp.Mem_plan.placements;
  if mp.Mem_plan.arena_bytes > mp.Mem_plan.worst_bytes then
    Q.Test.fail_reportf "planned %d exceeds worst %d" mp.Mem_plan.arena_bytes mp.Mem_plan.worst_bytes;
  true

let prop_no_overlap =
  Q.Test.make ~count:300 ~name:"live-range overlap implies disjoint offsets" arb_sketch
    (fun sk -> check_plan_invariants (Mem_plan.plan ~spaces (build_program sk)))

let prop_deterministic =
  Q.Test.make ~count:100 ~name:"planning is deterministic" arb_sketch (fun sk ->
      let p = build_program sk in
      Mem_plan.to_string (Mem_plan.plan ~spaces p) = Mem_plan.to_string (Mem_plan.plan ~spaces p))

(* ---------- UF-valued extents ---------- *)

let test_uf_extent_needs_resolver () =
  let u = Ir.Uf.fresh "width" ~arity:0 in
  let dyn =
    Ir.tensor ~space:Ir.Shared "dyn" [ Ir.Dim.fresh "d" ] [ Ir.UfCall (u, []) ]
  in
  let fixed = Ir.tensor ~space:Ir.Shared "fixed" [ Ir.Dim.fresh "d" ] [ Ir.int 8 ] in
  let body =
    Ir.Seq
      [
        Ir.Store (dyn, [ Ir.int 0 ], Ir.flt 1.0);
        Ir.Store (fixed, [ Ir.int 0 ], Ir.Load (dyn, [ Ir.int 0 ]));
      ]
  in
  let p =
    {
      Ir.pname = "uf";
      params = [];
      inputs = [];
      temporaries = [ dyn; fixed ];
      outputs = [];
      kernels = [ { Ir.kname = "k"; launch = Ir.Once; body } ];
    }
  in
  let unresolved = Mem_plan.plan ~spaces p in
  Alcotest.(check int) "dynamic tensor unplanned without a resolver" 1
    (List.length unresolved.Mem_plan.unplanned);
  Alcotest.(check int) "static tensor still packed" 1
    (List.length unresolved.Mem_plan.placements);
  let resolved = Mem_plan.plan ~uf:(fun _ _ -> 16) ~spaces p in
  Alcotest.(check int) "resolver sizes the dynamic tensor" 0
    (List.length resolved.Mem_plan.unplanned);
  Alcotest.(check int) "both packed" 2 (List.length resolved.Mem_plan.placements);
  (* Both live simultaneously (the same statement reads one and writes
     the other), so the arena must hold both. *)
  Alcotest.(check bool) "arena holds both" true
    (resolved.Mem_plan.arena_bytes >= (16 * 4) + (8 * 4))

let test_per_batch_run_conflicts () =
  (* The interpreter executes a maximal run of consecutive per-batch
     kernels batch-major: for each batch, every kernel of the run.
     Tensors touched by different kernels of the same run are therefore
     live across batch iterations — batch b+1's first kernel may read
     what batch b's last kernel wrote — so the planner must widen the
     whole run as one loop, not each kernel separately. *)
  let mk name = Ir.tensor ~space:Ir.Shared name [ Ir.Dim.fresh "d" ] [ Ir.int 8 ] in
  let a = mk "a" and b = mk "b" and c = mk "c" in
  let touch t = Ir.Store (t, [ Ir.int 0 ], Ir.Load (t, [ Ir.int 0 ])) in
  let per_batch name t =
    { Ir.kname = name; launch = Ir.PerInternalBatch (Ir.Var.fresh "bi"); body = touch t }
  in
  let p =
    {
      Ir.pname = "run";
      params = [];
      inputs = [];
      temporaries = [ a; b; c ];
      outputs = [];
      (* Three kernels keep a (first) and c (last) an event apart, so
         per-kernel widening gave them disjoint ranges. *)
      kernels = [ per_batch "k0" a; per_batch "k1" b; per_batch "k2" c ];
    }
  in
  let mp = Mem_plan.plan ~spaces p in
  match mp.Mem_plan.placements with
  | [ _; _; _ ] as ps ->
    List.iteri
      (fun i p ->
        List.iteri
          (fun j q ->
            if i < j then begin
              Alcotest.(check bool) "same-run tensors' live ranges overlap" true
                (Mem_plan.ranges_overlap p q);
              Alcotest.(check bool) "same-run tensors never alias" false
                (Mem_plan.offsets_overlap p q)
            end)
          ps)
      ps
  | ps -> Alcotest.failf "expected 3 placements, got %d" (List.length ps)

let test_zero_denominator_extent () =
  (* A zero constant denominator makes the extent non-static, not a
     Division_by_zero escaping [plan]. *)
  let bad ext name =
    Ir.tensor ~space:Ir.Shared name [ Ir.Dim.fresh "d" ] [ ext ]
  in
  let div = bad (Ir.Binop (Ir.Div, Ir.int 8, Ir.int 0)) "div0" in
  let md = bad (Ir.Binop (Ir.Mod, Ir.int 8, Ir.int 0)) "mod0" in
  let body =
    Ir.Seq
      [
        Ir.Store (div, [ Ir.int 0 ], Ir.flt 1.0);
        Ir.Store (md, [ Ir.int 0 ], Ir.flt 1.0);
      ]
  in
  let p =
    {
      Ir.pname = "div0";
      params = [];
      inputs = [];
      temporaries = [ div; md ];
      outputs = [];
      kernels = [ { Ir.kname = "k"; launch = Ir.Once; body } ];
    }
  in
  let mp = Mem_plan.plan ~spaces p in
  Alcotest.(check int) "both extents treated as non-static" 2
    (List.length mp.Mem_plan.unplanned);
  Alcotest.(check int) "nothing packed" 0 (List.length mp.Mem_plan.placements)

(* ---------- the model zoo ---------- *)

let planned_for name =
  let spec = Models.Catalog.get name Models.Catalog.Small in
  let compiled = Runtime.compile spec.M.program in
  let structure = spec.M.dataset (Rng.create 3) ~batch:8 in
  let bound = Lower.bind compiled (Linearizer.run structure) in
  let static = Mem_plan.plan ~spaces compiled.Lower.prog in
  let resolved = Mem_plan.plan ~uf:bound.Lower.uf_resolver ~spaces compiled.Lower.prog in
  (static, resolved)

let zoo = [ "TreeFC"; "DAG-RNN"; "TreeGRU"; "TreeLSTM" ]

let test_zoo_planned_le_worst () =
  List.iter
    (fun name ->
      let static, resolved = planned_for name in
      ignore (check_plan_invariants static);
      ignore (check_plan_invariants resolved);
      Alcotest.(check bool)
        (name ^ ": static planned <= worst")
        true
        (static.Mem_plan.arena_bytes <= static.Mem_plan.worst_bytes);
      Alcotest.(check bool)
        (name ^ ": resolved planned <= worst")
        true
        (resolved.Mem_plan.arena_bytes <= resolved.Mem_plan.worst_bytes);
      Alcotest.(check bool)
        (name ^ ": resolver plans at least as much")
        true
        (List.length resolved.Mem_plan.placements >= List.length static.Mem_plan.placements))
    zoo

let test_treelstm_strict_savings () =
  (* The acceptance bar: liveness packing must beat sum-of-buffers on
     TreeLSTM's resolved footprint, not merely tie it. *)
  let _, resolved = planned_for "TreeLSTM" in
  Alcotest.(check bool) "planned > 0" true (resolved.Mem_plan.arena_bytes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "planned %d strictly below worst %d" resolved.Mem_plan.arena_bytes
       resolved.Mem_plan.worst_bytes)
    true
    (resolved.Mem_plan.arena_bytes < resolved.Mem_plan.worst_bytes)

let test_cost_records_planned () =
  (* Cost.analyze must carry the static planner's number, and it can
     never exceed the constant-extent worst case it replaces. *)
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let compiled = Runtime.compile spec.M.program in
  let structure = spec.M.dataset (Rng.create 3) ~batch:8 in
  let bound = Lower.bind compiled (Linearizer.run structure) in
  let cost =
    Cost.analyze ~uf:bound.Lower.uf_resolver
      ~num_internal_batches:bound.Lower.num_batch_launches compiled.Lower.prog
  in
  let static = Mem_plan.plan ~spaces compiled.Lower.prog in
  Alcotest.(check (float 1e-9)) "onchip_planned_bytes is the static arena"
    (float_of_int static.Mem_plan.arena_bytes)
    cost.Cost.onchip_planned_bytes

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "mem_plan"
    [
      ("properties", [ q prop_no_overlap; q prop_deterministic ]);
      ( "liveness",
        [
          Alcotest.test_case "uf-extents" `Quick test_uf_extent_needs_resolver;
          Alcotest.test_case "per-batch-run" `Quick test_per_batch_run_conflicts;
          Alcotest.test_case "zero-denominator" `Quick test_zero_denominator_extent;
          Alcotest.test_case "cost-integration" `Quick test_cost_records_planned;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "planned-le-worst" `Quick test_zoo_planned_le_worst;
          Alcotest.test_case "treelstm-strict" `Quick test_treelstm_strict_savings;
        ] );
    ]
