(* Tests for the ILIR: the simplifier/prover (the Z3 substitute, §A.1),
   scheduling transforms, barrier insertion (§A.4) and the bounds
   checker (§A.2). *)

open Cortex_ilir
module Rng = Cortex_util.Rng
module Tensor = Cortex_tensor.Tensor

(* ---------- simplifier: random-expression equivalence ---------- *)

(* Generate random integer expressions over two variables and check
   that simplification preserves their value. *)
let int_expr_gen =
  let open QCheck.Gen in
  let x = Ir.Var.fresh "x" and y = Ir.Var.fresh "y" in
  let rec gen depth =
    if depth = 0 then
      oneof [ map (fun n -> Ir.Int n) (int_range (-20) 20); return (Ir.Var x); return (Ir.Var y) ]
    else
      let sub = gen (depth - 1) in
      oneof
        [
          map (fun n -> Ir.Int n) (int_range (-20) 20);
          return (Ir.Var x);
          return (Ir.Var y);
          map2 (fun a b -> Ir.Binop (Ir.Add, a, b)) sub sub;
          map2 (fun a b -> Ir.Binop (Ir.Sub, a, b)) sub sub;
          map2 (fun a b -> Ir.Binop (Ir.Mul, a, Ir.Int b)) sub (int_range (-5) 5);
          map2 (fun a b -> Ir.Binop (Ir.Min, a, b)) sub sub;
          map2 (fun a b -> Ir.Binop (Ir.Max, a, b)) sub sub;
          map2 (fun a b -> Ir.Cmp (Ir.Lt, a, b)) sub sub;
          map3 (fun c a b -> Ir.Select (c, a, b)) sub sub sub;
        ]
  in
  QCheck.Gen.(pair (gen 4) (pair (int_range (-10) 10) (int_range (-10) 10)))
  |> QCheck.Gen.map (fun (e, (vx, vy)) -> (e, x, y, vx, vy))

let eval_int_expr e bindings =
  let ctx = Interp.create ~num_internal_batches:0 () in
  match Interp.eval_expr ctx bindings e with
  | Interp.Vi n -> n
  | Interp.Vf _ -> Alcotest.fail "expected int"

let test_simplify_preserves_value =
  QCheck.Test.make ~name:"Simplify.expr preserves value" ~count:1000
    (QCheck.make ~print:(fun (e, _, _, vx, vy) ->
         Printf.sprintf "%s with x=%d y=%d" (Ir.expr_to_string e) vx vy)
       int_expr_gen)
    (fun (e, x, y, vx, vy) ->
      let bindings = [ (x.Ir.Var.vid, Interp.Vi vx); (y.Ir.Var.vid, Interp.Vi vy) ] in
      eval_int_expr e bindings = eval_int_expr (Simplify.expr e) bindings)

let test_simplify_identities () =
  let x = Ir.Var (Ir.Var.fresh "x") in
  let checks =
    [
      (Ir.Binop (Ir.Add, x, Ir.Int 0), x);
      (Ir.Binop (Ir.Mul, x, Ir.Int 0), Ir.Int 0);
      (Ir.Binop (Ir.Mul, Ir.Int 1, x), x);
      (Ir.Binop (Ir.Add, Ir.Binop (Ir.Add, x, Ir.Int 2), Ir.Int 3), Ir.Binop (Ir.Add, x, Ir.Int 5));
      (Ir.Binop (Ir.Sub, x, x), Ir.Int 0);
      (Ir.Select (Ir.Int 1, x, Ir.Int 9), x);
      (Ir.Binop (Ir.Mul, Ir.Flt 0.0, Ir.Math (Cortex_tensor.Nonlinear.Tanh, x)), Ir.Flt 0.0);
      (Ir.Math (Cortex_tensor.Nonlinear.Relu, Ir.Flt (-3.0)), Ir.Flt 0.0);
    ]
  in
  List.iter
    (fun (e, want) ->
      Alcotest.(check string) (Ir.expr_to_string e) (Ir.expr_to_string want)
        (Ir.expr_to_string (Simplify.expr e)))
    checks

(* ---------- the prover: symbolic bound cancellation ---------- *)

let test_prove_loop_guard () =
  (* The loop-peeling fact: given 0 <= i <= batch_len(b) - 1, prove
     i < batch_len(b) — requires cancelling the symbolic UF term. *)
  let blen = Ir.Uf.fresh "batch_len" ~arity:1 in
  let b = Ir.Var.fresh "b" in
  let i = Ir.Var.fresh "i" in
  let len = Ir.UfCall (blen, [ Ir.Var b ]) in
  let env =
    Simplify.bind_range Simplify.empty_env i ~lo:(Ir.Int 0)
      ~hi:(Ir.Binop (Ir.Sub, len, Ir.Int 1))
  in
  Alcotest.(check (option bool)) "i < len" (Some true)
    (Simplify.prove env (Ir.Cmp (Ir.Lt, Ir.Var i, len)));
  Alcotest.(check (option bool)) "i >= 0" (Some true)
    (Simplify.prove env (Ir.Cmp (Ir.Ge, Ir.Var i, Ir.Int 0)));
  Alcotest.(check (option bool)) "i + 1 < len undecided" None
    (Simplify.prove env (Ir.Cmp (Ir.Lt, Ir.Binop (Ir.Add, Ir.Var i, Ir.Int 1), len)));
  Alcotest.(check (option bool)) "i < len + 1" (Some true)
    (Simplify.prove env (Ir.Cmp (Ir.Lt, Ir.Var i, Ir.Binop (Ir.Add, len, Ir.Int 1))));
  Alcotest.(check (option bool)) "i >= len false-able" (Some false)
    (Simplify.prove env (Ir.Cmp (Ir.Ge, Ir.Var i, len)))

let test_prove_uf_range () =
  let role = Ir.Uf.fresh "role" ~arity:1 ~range:(0, 1) in
  let b = Ir.Var.fresh "b" in
  let call = Ir.UfCall (role, [ Ir.Var b ]) in
  Alcotest.(check (option bool)) "role <= 1" (Some true)
    (Simplify.prove Simplify.empty_env (Ir.Cmp (Ir.Le, call, Ir.Int 1)));
  Alcotest.(check (option bool)) "role < 0 false" (Some false)
    (Simplify.prove Simplify.empty_env (Ir.Cmp (Ir.Lt, call, Ir.Int 0)));
  Alcotest.(check (option bool)) "role = 1 undecided" None
    (Simplify.prove Simplify.empty_env (Ir.Cmp (Ir.Eq, call, Ir.Int 1)))

let test_stmt_prunes_provable_branch () =
  (* for i = 0:8: if i < 8 then A  -->  guard removed *)
  let t = Ir.tensor "t" [ Ir.Dim.fresh "d" ] [ Ir.Int 8 ] in
  let i = Ir.Var.fresh "i" in
  let body = Ir.If (Ir.Cmp (Ir.Lt, Ir.Var i, Ir.Int 8), Ir.Store (t, [ Ir.Var i ], Ir.Flt 1.0), None) in
  let loop = Ir.for_ i (Ir.Int 8) body in
  match Simplify.stmt loop with
  | Ir.For { body = Ir.Store _; _ } -> ()
  | s -> Alcotest.failf "guard not removed:\n%s" (Ir.stmt_to_string s)

(* ---------- scheduling transforms preserve semantics ---------- *)

(* A small two-loop program: out[i,j] = i * 10 + j. *)
let make_prog () =
  let d = Ir.Dim.fresh "d" in
  let t = Ir.tensor "out" [ d; d ] [ Ir.Int 6; Ir.Int 5 ] in
  let i = Ir.Var.fresh "i" and j = Ir.Var.fresh "j" in
  let body =
    Ir.for_ i (Ir.Int 6)
      (Ir.for_ j (Ir.Int 5)
         (Ir.Store
            ( t,
              [ Ir.Var i; Ir.Var j ],
              Ir.Binop (Ir.Add, Ir.Binop (Ir.Mul, Ir.Var i, Ir.Int 10), Ir.Var j) )))
  in
  (t, body, Ir.Var.name i, Ir.Var.name j)

let run_body t body =
  let ctx = Interp.create ~num_internal_batches:0 () in
  Interp.run_stmt ctx [] body;
  Interp.get_tensor ctx t

let check_transform name transform =
  let t, body, iname, jname = make_prog () in
  let want = run_body t body in
  let t2, body2, iname2, jname2 = make_prog () in
  ignore (iname, jname);
  let got = run_body t2 (transform ~i:iname2 ~j:jname2 body2) in
  if not (Tensor.approx_equal want got) then Alcotest.failf "%s changed semantics" name

let test_schedule_split () =
  check_transform "split" (fun ~i ~j:_ s -> Schedule.split ~name:i ~factor:4 s)

let test_schedule_split_peeled () =
  check_transform "split_peeled" (fun ~i ~j:_ s -> Schedule.split_peeled ~name:i ~factor:4 s);
  check_transform "split_peeled exact" (fun ~i:_ ~j s -> Schedule.split_peeled ~name:j ~factor:5 s)

let test_schedule_unroll () =
  check_transform "unroll" (fun ~i:_ ~j s -> Schedule.unroll ~name:j s)

let test_schedule_reorder () =
  check_transform "reorder" (fun ~i ~j s -> Schedule.reorder ~outer:i ~inner:j s)

let test_schedule_peeled_guard_free () =
  (* split_peeled must not contain any If in the main chunk loop. *)
  let _, body, iname, _ = make_prog () in
  let s = Schedule.split_peeled ~name:iname ~factor:4 body in
  let rec has_if = function
    | Ir.If _ -> true
    | Ir.For { body; _ } -> has_if body
    | Ir.Let (_, _, b) -> has_if b
    | Ir.Seq ss -> List.exists has_if ss
    | Ir.Store _ | Ir.Barrier | Ir.Nop -> false
  in
  Alcotest.(check bool) "no guards after peeling" false (has_if s)

let test_schedule_errors () =
  let _, body, _, _ = make_prog () in
  (try
     ignore (Schedule.split ~name:"nope" ~factor:2 body);
     Alcotest.fail "missing loop accepted"
   with Schedule.Schedule_error _ -> ());
  Alcotest.(check int) "loop_names" 2 (List.length (Schedule.loop_names body))

let string_contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

(* An 8x8 variant whose extents tile evenly. *)
let make_prog8 () =
  let d = Ir.Dim.fresh "d" in
  let t = Ir.tensor "out8" [ d; d ] [ Ir.Int 8; Ir.Int 8 ] in
  let i = Ir.Var.fresh "i" and j = Ir.Var.fresh "j" in
  let body =
    Ir.for_ i (Ir.Int 8)
      (Ir.for_ j (Ir.Int 8)
         (Ir.Store
            ( t,
              [ Ir.Var i; Ir.Var j ],
              Ir.Binop (Ir.Add, Ir.Binop (Ir.Mul, Ir.Var i, Ir.Int 16), Ir.Var j) )))
  in
  (t, body, Ir.Var.name i, Ir.Var.name j)

let check_transform8 name transform =
  let t, body, _, _ = make_prog8 () in
  let want = run_body t body in
  let t2, body2, i2, j2 = make_prog8 () in
  let got = run_body t2 (transform ~i:i2 ~j:j2 body2) in
  if not (Tensor.approx_equal want got) then Alcotest.failf "%s changed semantics" name

let test_schedule_tile () =
  check_transform8 "tile 4x4" (fun ~i ~j s ->
      Schedule.tile ~outer:i ~inner:j ~factor_outer:4 ~factor_inner:4 s);
  check_transform8 "tile 2x8" (fun ~i ~j s ->
      Schedule.tile ~outer:i ~inner:j ~factor_outer:2 ~factor_inner:8 s);
  let _, body, i, j = make_prog8 () in
  try
    ignore (Schedule.tile ~outer:i ~inner:j ~factor_outer:3 ~factor_inner:4 body);
    Alcotest.fail "non-dividing tile factor accepted"
  with Schedule.Schedule_error _ -> ()

let test_schedule_bind () =
  check_transform "bind vec" (fun ~i:_ ~j s -> Schedule.bind ~name:j Ir.Vectorized s);
  check_transform "bind par" (fun ~i ~j:_ s -> Schedule.bind ~name:i Ir.Parallel s);
  (* the kind actually lands on the loop *)
  let _, body, _, jname = make_prog () in
  let s = Schedule.bind ~name:jname Ir.Vectorized body in
  let rec kinds acc = function
    | Ir.For r ->
      kinds ((Ir.Var.name r.v, r.kind) :: acc) r.body
    | Ir.Seq ss -> List.fold_left kinds acc ss
    | Ir.Let (_, _, b) -> kinds acc b
    | Ir.If (_, a, b) -> (
      let acc = kinds acc a in
      match b with Some b -> kinds acc b | None -> acc)
    | Ir.Store _ | Ir.Barrier | Ir.Nop -> acc
  in
  Alcotest.(check bool) "loop vectorized" true
    (List.mem_assoc jname (kinds [] s) && List.assoc jname (kinds [] s) = Ir.Vectorized);
  (* binding onto a sequential kind is meaningless and rejected *)
  let _, body, iname, _ = make_prog () in
  try
    ignore (Schedule.bind ~name:iname Ir.Serial body);
    Alcotest.fail "bind to Serial accepted"
  with Schedule.Schedule_error _ -> ()

let test_schedule_stage () =
  (* out[i,j] = w[i,j] + j with w initialized by a preceding loop nest;
     staging w on-chip under the compute loop must not change out. *)
  let d = Ir.Dim.fresh "d" in
  let w = Ir.tensor ~space:Ir.Global "w" [ d; d ] [ Ir.Int 6; Ir.Int 5 ] in
  let out = Ir.tensor "out" [ d; d ] [ Ir.Int 6; Ir.Int 5 ] in
  let mk () =
    let a = Ir.Var.fresh "a" and b = Ir.Var.fresh "b" in
    let i = Ir.Var.fresh "i" and j = Ir.Var.fresh "j" in
    let init =
      Ir.for_ a (Ir.Int 6)
        (Ir.for_ b (Ir.Int 5)
           (Ir.Store
              ( w,
                [ Ir.Var a; Ir.Var b ],
                Ir.Binop (Ir.Add, Ir.Var a, Ir.Binop (Ir.Mul, Ir.Var b, Ir.Int 7)) )))
    in
    let compute =
      Ir.for_ i (Ir.Int 6)
        (Ir.for_ j (Ir.Int 5)
           (Ir.Store
              ( out,
                [ Ir.Var i; Ir.Var j ],
                Ir.Binop (Ir.Add, Ir.Load (w, [ Ir.Var i; Ir.Var j ]), Ir.Var j) )))
    in
    (Ir.Seq [ init; compute ], Ir.Var.name i)
  in
  let body, _ = mk () in
  let want = run_body out body in
  let body2, iname = mk () in
  let staged, buf = Schedule.stage ~loop:iname ~tensor:"w" body2 in
  let got = run_body out staged in
  Alcotest.(check bool) "stage preserves values" true (Tensor.approx_equal want got);
  Alcotest.(check bool) "staging buffer is on-chip" true
    (buf.Ir.space = Ir.Shared || buf.Ir.space = Ir.Register);
  (* staging a tensor written inside the loop is rejected *)
  let body3, iname3 = mk () in
  try
    ignore (Schedule.stage ~loop:iname3 ~tensor:"out" body3);
    Alcotest.fail "staged a written tensor"
  with Schedule.Schedule_error _ -> ()

let test_schedule_fuse () =
  let d = Ir.Dim.fresh "d" in
  let t1 = Ir.tensor "f1" [ d ] [ Ir.Int 6 ] in
  let t2 = Ir.tensor "f2" [ d ] [ Ir.Int 6 ] in
  let mk () =
    let a = Ir.Var.fresh "a" and b = Ir.Var.fresh "b" in
    ( Ir.Seq
        [
          Ir.for_ a (Ir.Int 6)
            (Ir.Store (t1, [ Ir.Var a ], Ir.Binop (Ir.Mul, Ir.Var a, Ir.Int 3)));
          Ir.for_ b (Ir.Int 6)
            (Ir.Store (t2, [ Ir.Var b ], Ir.Binop (Ir.Add, Ir.Var b, Ir.Int 1)));
        ],
      Ir.Var.name a,
      Ir.Var.name b )
  in
  let run body =
    let ctx = Interp.create ~num_internal_batches:0 () in
    Interp.run_stmt ctx [] body;
    (Interp.get_tensor ctx t1, Interp.get_tensor ctx t2)
  in
  let body, _, _ = mk () in
  let w1, w2 = run body in
  let body2, a2, b2 = mk () in
  let fused = Schedule.fuse_loops ~first:a2 ~second:b2 body2 in
  (match fused with
   | Ir.Seq [ Ir.For _ ] -> ()
   | s -> Alcotest.failf "loops not fused into one:\n%s" (Ir.stmt_to_string s));
  let g1, g2 = run fused in
  Alcotest.(check bool) "first body preserved" true (Tensor.approx_equal w1 g1);
  Alcotest.(check bool) "second body preserved" true (Tensor.approx_equal w2 g2);
  (* fusing loops whose bodies communicate would reorder the accesses *)
  let c = Ir.Var.fresh "c" and e = Ir.Var.fresh "e" in
  let dep =
    Ir.Seq
      [
        Ir.for_ c (Ir.Int 6) (Ir.Store (t1, [ Ir.Var c ], Ir.Flt 1.0));
        Ir.for_ e (Ir.Int 6)
          (Ir.Store (t2, [ Ir.Var e ], Ir.Load (t1, [ Ir.Binop (Ir.Sub, Ir.Int 5, Ir.Var e) ])));
      ]
  in
  try
    ignore (Schedule.fuse_loops ~first:(Ir.Var.name c) ~second:(Ir.Var.name e) dep);
    Alcotest.fail "dependent loops fused"
  with Schedule.Schedule_error _ -> ()

let test_schedule_peel_keeps_kind () =
  (* split_peeled on a Parallel loop: both the chunk loop and the peeled
     tail must stay Parallel, or the tail would silently serialize. *)
  let d = Ir.Dim.fresh "d" in
  let t = Ir.tensor "pk" [ d ] [ Ir.Int 6 ] in
  let i = Ir.Var.fresh "i" in
  let body = Ir.for_ ~kind:Ir.Parallel i (Ir.Int 6) (Ir.Store (t, [ Ir.Var i ], Ir.Var i)) in
  let s = Schedule.split_peeled ~name:(Ir.Var.name i) ~factor:4 body in
  let rec fors acc = function
    | Ir.For r -> fors ((Simplify.expr r.extent, r.kind) :: acc) r.body
    | Ir.Seq ss -> List.fold_left fors acc ss
    | Ir.Let (_, _, b) -> fors acc b
    | Ir.If (_, a, b) -> (
      let acc = fors acc a in
      match b with Some b -> fors acc b | None -> acc)
    | Ir.Store _ | Ir.Barrier | Ir.Nop -> acc
  in
  let tail_kinds =
    List.filter_map (fun (e, k) -> if e = Ir.Int 2 then Some k else None) (fors [] s)
  in
  Alcotest.(check bool) "peeled tail present" true (tail_kinds <> []);
  List.iter
    (fun k -> Alcotest.(check bool) "tail keeps original kind" true (k = Ir.Parallel))
    tail_kinds;
  (* numeric equivalence of the parallel peel, for good measure *)
  let t2, body2, iname2, _ = make_prog () in
  let want = run_body t2 body2 in
  let t3, body3, iname3, _ = make_prog () in
  ignore iname2;
  let got = run_body t3 (Schedule.split_peeled ~name:iname3 ~factor:4 body3) in
  Alcotest.(check bool) "peel preserves values" true (Tensor.approx_equal want got)

let test_schedule_loop_names_order () =
  (* loop_names: duplicate-free, in program order; addressing a
     duplicated name reports every site. *)
  let d = Ir.Dim.fresh "d" in
  let t = Ir.tensor "ln" [ d ] [ Ir.Int 4 ] in
  let z1 = Ir.Var.fresh "z" and a = Ir.Var.fresh "a" and z2 = Ir.Var.fresh "z" in
  let loop v = Ir.for_ v (Ir.Int 4) (Ir.Store (t, [ Ir.Var v ], Ir.Var v)) in
  let body = Ir.Seq [ loop z1; loop a; loop z2 ] in
  Alcotest.(check (list string)) "deduped, program order" [ "z"; "a" ]
    (Schedule.loop_names body);
  try
    ignore (Schedule.split ~name:"z" ~factor:2 body);
    Alcotest.fail "ambiguous loop accepted"
  with Schedule.Schedule_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error lists duplicate sites: %s" msg)
      true
      (string_contains msg "2 sites")

let test_plan_roundtrip () =
  let plan =
    [
      Schedule.Split { loop = "a"; factor = 4 };
      Schedule.Split_peeled { loop = "b"; factor = 8 };
      Schedule.Unroll { loop = "c" };
      Schedule.Reorder { outer = "d"; inner = "e" };
      Schedule.Tile { outer = "f"; inner = "g"; factor_outer = 8; factor_inner = 16 };
      Schedule.Bind { loop = "h_j"; kind = Ir.Vectorized };
      Schedule.Bind { loop = "n"; kind = Ir.Parallel };
      Schedule.Stage { loop = "b2"; tensor = "W_f" };
      Schedule.Fuse { first = "p"; second = "q" };
    ]
  in
  let s = Schedule.plan_to_string plan in
  Alcotest.(check bool) "roundtrip" true (Schedule.plan_of_string s = plan);
  Alcotest.(check string) "empty plan prints default" "default" (Schedule.plan_to_string []);
  Alcotest.(check bool) "default parses to empty" true (Schedule.plan_of_string "default" = []);
  try
    ignore (Schedule.plan_of_string "warp(x,3)");
    Alcotest.fail "malformed plan accepted"
  with Schedule.Schedule_error _ -> ()

(* ---------- barrier insertion ---------- *)

(* Build the shape of a lowered batch loop: a serial loop whose body
   writes st[node] and reads st[child(node)]. *)
let batch_loop_shape () =
  let d = Ir.Dim.fresh "d" in
  let st = Ir.tensor "st" [ d ] [ Ir.Int 100 ] in
  let child = Ir.Uf.fresh "child" ~arity:1 in
  let b = Ir.Var.fresh "b" and n = Ir.Var.fresh "n" in
  let inner =
    Ir.for_ ~kind:Ir.Parallel n (Ir.Int 4)
      (Ir.Store (st, [ Ir.Var n ], Ir.Load (st, [ Ir.UfCall (child, [ Ir.Var n ]) ])))
  in
  Ir.for_ b (Ir.Int 3) inner

let test_barrier_carrier_vs_conservative () =
  let body = batch_loop_shape () in
  let carrier = Barrier.insert Barrier.Carrier body in
  let conservative = Barrier.insert Barrier.Conservative body in
  Alcotest.(check int) "one barrier stmt either way" 1 (Barrier.count carrier);
  Alcotest.(check int) "conservative has one too" 1 (Barrier.count conservative);
  (* Placement differs: carrier puts it directly under the outer loop,
     conservative under the inner one. *)
  (match carrier with
   | Ir.For { body = Ir.Seq (Ir.Barrier :: _); _ } -> ()
   | s -> Alcotest.failf "carrier placement wrong:\n%s" (Ir.stmt_to_string s));
  (match conservative with
   | Ir.For { body = Ir.For { body = Ir.Seq (Ir.Barrier :: _); _ }; _ } -> ()
   | s -> Alcotest.failf "conservative placement wrong:\n%s" (Ir.stmt_to_string s))

let test_barrier_skips_independent_loops () =
  (* No cross-node reads: no barrier should be inserted. *)
  let d = Ir.Dim.fresh "d" in
  let st = Ir.tensor "st" [ d ] [ Ir.Int 10 ] in
  let i = Ir.Var.fresh "i" in
  let body = Ir.for_ i (Ir.Int 10) (Ir.Store (st, [ Ir.Var i ], Ir.Flt 1.0)) in
  Alcotest.(check int) "no barrier" 0 (Barrier.count (Barrier.insert Barrier.Carrier body))

(* ---------- bounds checker ---------- *)

let test_bounds_checker () =
  let d = Ir.Dim.fresh "d" in
  let t = Ir.tensor "t" [ d ] [ Ir.Int 10 ] in
  let i = Ir.Var.fresh "i" in
  let ok =
    { Ir.pname = "ok"; params = []; inputs = []; temporaries = [ t ]; outputs = [];
      kernels =
        [ { Ir.kname = "k"; launch = Ir.Once;
            body = Ir.for_ i (Ir.Int 10) (Ir.Store (t, [ Ir.Var i ], Ir.Flt 0.0)) } ] }
  in
  Alcotest.(check int) "in bounds" 0
    (List.length (Bounds.check ~uf:(fun _ _ -> 0) ~num_internal_batches:0 ok));
  let j = Ir.Var.fresh "j" in
  let bad =
    { ok with
      Ir.kernels =
        [ { Ir.kname = "k"; launch = Ir.Once;
            body =
              Ir.for_ j (Ir.Int 11)
                (Ir.Store (t, [ Ir.Var j ], Ir.Flt 0.0)) } ] }
  in
  Alcotest.(check bool) "overflow detected" true
    (List.length (Bounds.check ~uf:(fun _ _ -> 0) ~num_internal_batches:0 bad) > 0)

let test_named_dims_arity () =
  let d = Ir.Dim.fresh "d" in
  let t = Ir.tensor "t" [ d; d ] [ Ir.Int 2; Ir.Int 2 ] in
  let bad =
    { Ir.pname = "p"; params = []; inputs = []; temporaries = [ t ]; outputs = [];
      kernels =
        [ { Ir.kname = "k"; launch = Ir.Once; body = Ir.Store (t, [ Ir.Int 0 ], Ir.Flt 1.0) } ] }
  in
  Alcotest.(check int) "arity mismatch flagged" 1 (List.length (Bounds.check_named_dims bad))

(* ---------- C emission ---------- *)

let test_emit_c_structure () =
  let d = Ir.Dim.fresh "d" in
  let n_uf = Ir.Uf.fresh "num_nodes" ~arity:0 in
  let child = Ir.Uf.fresh "child" ~arity:2 in
  let t = Ir.tensor ~space:Ir.Global "st" [ d; d ] [ Ir.UfCall (n_uf, []); Ir.Int 4 ] in
  let i = Ir.Var.fresh "i" and j = Ir.Var.fresh "j" in
  let body =
    Ir.for_ ~kind:Ir.Parallel i (Ir.UfCall (n_uf, []))
      (Ir.Seq
         [
           Ir.Barrier;
           Ir.for_ ~kind:Ir.Vectorized j (Ir.Int 4)
             (Ir.Store
                ( t,
                  [ Ir.Var i; Ir.Var j ],
                  Ir.Math
                    ( Cortex_tensor.Nonlinear.Sigmoid,
                      Ir.Load (t, [ Ir.UfCall (child, [ Ir.Int 0; Ir.Var i ]); Ir.Var j ]) ) ));
         ])
  in
  let prog =
    {
      Ir.pname = "emit_test";
      params = [];
      inputs = [];
      temporaries = [ t ];
      outputs = [];
      kernels = [ { Ir.kname = "main"; launch = Ir.Once; body } ];
    }
  in
  let out = Cortex_ilir.Emit_c.program prog in
  let contains needle =
    Alcotest.(check bool) ("emits " ^ needle) true
      (let nl = String.length needle and ol = String.length out in
       let rec scan i = i + nl <= ol && (String.sub out i nl = needle || scan (i + 1)) in
       scan 0)
  in
  List.iter contains
    [
      "grid.sync();";
      "ds_child(0, i)";
      "st[(i) * 4 + j]";
      "sigmoidf";
      "extern const int num_nodes;";
      "__global__ void main()";
    ];
  (* deterministic *)
  Alcotest.(check string) "deterministic" out (Cortex_ilir.Emit_c.program prog)

(* ---------- interpreter: error and value semantics ---------- *)

(* Every check the interpreter makes fires when execution reaches it,
   with a fixed message; these pin the messages and the order in which
   sub-expressions are evaluated before a check fires. *)

let runtime_error f =
  match f () with
  | _ -> Alcotest.fail "expected Interp.Runtime_error"
  | exception Interp.Runtime_error msg -> msg

let check_error label want f = Alcotest.(check string) label want (runtime_error f)

let fresh_ctx () = Interp.create ~num_internal_batches:0 ()

let run_fresh ?(setup = fun _ -> ()) body =
  let ctx = fresh_ctx () in
  setup ctx;
  Interp.run_stmt ctx [] body;
  ctx

let eval_fresh ?(setup = fun _ -> ()) env e =
  let ctx = fresh_ctx () in
  setup ctx;
  Interp.eval_expr ctx env e

let value_string = function
  | Interp.Vi n -> Printf.sprintf "Vi %d" n
  | Interp.Vf v -> Printf.sprintf "Vf %h" v

let check_value label want got = Alcotest.(check string) label (value_string want) (value_string got)

let test_interp_bounds () =
  let d = Ir.Dim.fresh "d" and e = Ir.Dim.fresh "e" in
  let src = Ir.tensor "src" [ d ] [ Ir.Int 4 ] in
  let grid = Ir.tensor "grid" [ d; e ] [ Ir.Int 3; Ir.Int 5 ] in
  let dst = Ir.tensor "dst" [ d ] [ Ir.Int 2 ] in
  let load t idx = Ir.Store (dst, [ Ir.Int 0 ], Ir.Load (t, idx)) in
  check_error "load past the end" "load src: Shape.flatten_index: index 4 out of [0,4) at dim 0"
    (fun () -> run_fresh (load src [ Ir.Int 4 ]));
  check_error "negative load" "load src: Shape.flatten_index: index -1 out of [0,4) at dim 0"
    (fun () -> run_fresh (load src [ Ir.Int (-1) ]));
  check_error "second dimension" "load grid: Shape.flatten_index: index 5 out of [0,5) at dim 1"
    (fun () -> run_fresh (load grid [ Ir.Int 1; Ir.Int 5 ]));
  check_error "first bad dimension wins"
    "load grid: Shape.flatten_index: index 3 out of [0,3) at dim 0" (fun () ->
      run_fresh (load grid [ Ir.Int 3; Ir.Int 9 ]));
  check_error "store past the end" "store dst: Shape.flatten_index: index 2 out of [0,2) at dim 0"
    (fun () -> run_fresh (Ir.Store (dst, [ Ir.Int 2 ], Ir.Flt 1.0)));
  check_error "load rank" "load src: Shape.flatten_index: rank 2 vs 1" (fun () ->
      run_fresh (load src [ Ir.Int 0; Ir.Int 0 ]));
  check_error "store rank" "store dst: Shape.flatten_index: rank 0 vs 1" (fun () ->
      run_fresh (Ir.Store (dst, [], Ir.Flt 1.0)));
  (* The rank that counts is the bound storage's, not the declaration's. *)
  check_error "bound storage rank" "load src: Shape.flatten_index: rank 1 vs 2" (fun () ->
      run_fresh
        ~setup:(fun ctx -> Interp.bind_tensor ctx src (Tensor.zeros [| 2; 2 |]))
        (load src [ Ir.Int 0 ]));
  (* Every index is evaluated before the bounds are checked, and the
     stored value before the store's bounds. *)
  check_error "indices before bounds" "division by zero" (fun () ->
      run_fresh (load grid [ Ir.Int 7; Ir.Binop (Ir.Div, Ir.Int 1, Ir.Int 0) ]));
  check_error "value before store bounds" "load src: Shape.flatten_index: index 9 out of [0,4) at dim 0"
    (fun () -> run_fresh (Ir.Store (dst, [ Ir.Int 5 ], Ir.Load (src, [ Ir.Int 9 ]))))

let test_interp_arith_errors () =
  check_error "div" "division by zero" (fun () ->
      eval_fresh [] (Ir.Binop (Ir.Div, Ir.Int 1, Ir.Int 0)));
  check_error "mod" "mod by zero" (fun () -> eval_fresh [] (Ir.Binop (Ir.Mod, Ir.Int 7, Ir.Int 0)));
  (* Float division by zero is IEEE, not an error. *)
  check_value "float div" (Interp.Vf infinity)
    (eval_fresh [] (Ir.Binop (Ir.Div, Ir.Flt 1.0, Ir.Int 0)));
  check_value "float mod" (Interp.Vf (Float.rem 7.5 2.0))
    (eval_fresh [] (Ir.Binop (Ir.Mod, Ir.Flt 7.5, Ir.Int 2)));
  check_value "int div truncates" (Interp.Vi (-3))
    (eval_fresh [] (Ir.Binop (Ir.Div, Ir.Int (-7), Ir.Int 2)))

let test_interp_unbound () =
  let x = Ir.Var.fresh "x" in
  let u = Ir.Uf.fresh "child" ~arity:1 in
  check_error "variable" "unbound variable x" (fun () -> eval_fresh [] (Ir.Var x));
  check_error "uf" "unbound uninterpreted function child" (fun () ->
      eval_fresh [] (Ir.UfCall (u, [ Ir.Int 0 ])));
  (* The UF is looked up before its arguments are evaluated. *)
  check_error "uf before args" "unbound uninterpreted function child" (fun () ->
      eval_fresh [] (Ir.UfCall (u, [ Ir.Binop (Ir.Div, Ir.Int 1, Ir.Int 0) ])));
  (* A variable is in scope only inside its binder. *)
  let d = Ir.Dim.fresh "d" in
  let t = Ir.tensor "t" [ d ] [ Ir.Int 2 ] in
  check_error "out of scope" "unbound variable x" (fun () ->
      run_fresh
        (Ir.Seq
           [
             Ir.Let (x, Ir.Int 1, Ir.Store (t, [ Ir.Var x ], Ir.Flt 1.0));
             Ir.Store (t, [ Ir.Var x ], Ir.Flt 2.0);
           ]));
  (* The innermost binding of a variable shadows the outer one. *)
  let ctx =
    run_fresh
      (Ir.Let (x, Ir.Int 0, Ir.Let (x, Ir.Int 1, Ir.Store (t, [ Ir.Var x ], Ir.Flt 5.0))))
  in
  Alcotest.(check (float 0.0)) "shadowed" 5.0 (Tensor.get (Interp.get_tensor ctx t) [| 1 |]);
  check_value "env shadowing" (Interp.Vi 3)
    (Interp.eval_expr (fresh_ctx ()) [ (x.Ir.Var.vid, Interp.Vi 3); (x.Ir.Var.vid, Interp.Vi 4) ]
       (Ir.Var x))

let test_interp_float_as_int () =
  let i = Ir.Var.fresh "i" in
  let d = Ir.Dim.fresh "d" in
  let t = Ir.tensor "t" [ d ] [ Ir.Int 4 ] in
  check_error "loop extent" "expected int, got float 2.5" (fun () ->
      run_fresh (Ir.for_ i (Ir.Flt 2.5) (Ir.Store (t, [ Ir.Var i ], Ir.Flt 1.0))));
  check_error "index" "expected int, got float 1" (fun () ->
      run_fresh (Ir.Store (t, [ Ir.Flt 1.0 ], Ir.Flt 1.0)));
  check_error "condition" "expected int, got float 0.25" (fun () ->
      run_fresh (Ir.If (Ir.Flt 0.25, Ir.Nop, None)));
  check_error "not" "expected int, got float 3" (fun () -> eval_fresh [] (Ir.Not (Ir.Flt 3.0)));
  let u = Ir.Uf.fresh "f" ~arity:1 in
  check_error "uf argument" "expected int, got float 0.5" (fun () ->
      eval_fresh ~setup:(fun ctx -> Interp.bind_uf ctx u (fun a -> a.(0)))
        [] (Ir.UfCall (u, [ Ir.Flt 0.5 ])))

let test_interp_untaken () =
  let d = Ir.Dim.fresh "d" in
  let src = Ir.tensor "src" [ d ] [ Ir.Int 2 ] in
  let dst = Ir.tensor "dst" [ d ] [ Ir.Int 2 ] in
  let x = Ir.Var.fresh "never_bound" in
  let bad_load = Ir.Load (src, [ Ir.Int 99 ]) in
  let ctx =
    run_fresh
      (Ir.Seq
         [
           Ir.If
             ( Ir.Int 0,
               Ir.Store (dst, [ Ir.Int 99 ], Ir.Var x),
               Some (Ir.Store (dst, [ Ir.Int 0 ], Ir.Flt 2.0)) );
           Ir.Store (dst, [ Ir.Int 1 ], Ir.Select (Ir.Int 1, Ir.Flt 3.0, bad_load));
           Ir.If (Ir.Int 1, Ir.Nop, Some (Ir.Store (dst, [ Ir.Int 7 ], bad_load)));
         ])
  in
  let out = Interp.get_tensor ctx dst in
  Alcotest.(check (list (float 0.0))) "stores" [ 2.0; 3.0 ]
    [ Tensor.get out [| 0 |]; Tensor.get out [| 1 |] ];
  (* And / Or short-circuit. *)
  let boom = Ir.Binop (Ir.Div, Ir.Int 1, Ir.Int 0) in
  check_value "and" (Interp.Vi 0) (eval_fresh [] (Ir.And (Ir.Int 0, boom)));
  check_value "or" (Interp.Vi 1) (eval_fresh [] (Ir.Or (Ir.Int 2, boom)));
  (* A loop with no iterations never evaluates its body. *)
  let i = Ir.Var.fresh "i" in
  ignore (run_fresh (Ir.for_ i (Ir.Int 0) (Ir.Store (dst, [ Ir.Int 99 ], bad_load))))

let test_interp_uf_error () =
  let u = Ir.Uf.fresh "payload" ~arity:1 in
  let d = Ir.Dim.fresh "d" in
  let t = Ir.tensor "t" [ d ] [ Ir.Int 4 ] in
  let setup ctx =
    Interp.bind_uf ctx u (fun a ->
        if a.(0) = 2 then raise (Interp.Runtime_error "node 2 has no payload") else a.(0))
  in
  let i = Ir.Var.fresh "i" in
  check_error "propagates" "node 2 has no payload" (fun () ->
      run_fresh ~setup
        (Ir.for_ i (Ir.Int 4)
           (Ir.Store (t, [ Ir.UfCall (u, [ Ir.Var i ]) ], Ir.Flt 1.0))));
  (* Rows written before the failing iteration stay written. *)
  let ctx = fresh_ctx () in
  setup ctx;
  (try
     Interp.run_stmt ctx []
       (Ir.for_ i (Ir.Int 4) (Ir.Store (t, [ Ir.UfCall (u, [ Ir.Var i ]) ], Ir.Flt 1.0)))
   with Interp.Runtime_error _ -> ());
  Alcotest.(check (list (float 0.0))) "partial" [ 1.0; 1.0; 0.0; 0.0 ]
    (List.init 4 (fun k -> Tensor.get (Interp.get_tensor ctx t) [| k |]))

let test_interp_lazy_temporary () =
  let n = Ir.Uf.fresh "num_nodes" ~arity:0 in
  let d = Ir.Dim.fresh "d" and e = Ir.Dim.fresh "e" in
  let tmp = Ir.tensor "tmp" [ d; e ] [ Ir.UfCall (n, []); Ir.Int 3 ] in
  let out = Ir.tensor "out" [ d ] [ Ir.Int 2 ] in
  let setup ctx = Interp.bind_uf0 ctx n 5 in
  let ctx =
    run_fresh ~setup
      (Ir.Seq
         [
           Ir.Store (out, [ Ir.Int 0 ], Ir.Binop (Ir.Add, Ir.Load (tmp, [ Ir.Int 4; Ir.Int 2 ]), Ir.Flt 1.5));
           Ir.Store (tmp, [ Ir.Int 0; Ir.Int 0 ], Ir.Flt 7.0);
           Ir.Store (out, [ Ir.Int 1 ], Ir.Load (tmp, [ Ir.Int 0; Ir.Int 0 ]));
         ])
  in
  let storage = Interp.get_tensor ctx tmp in
  Alcotest.(check (array int)) "extents from the UF" [| 5; 3 |] storage.Tensor.shape;
  Alcotest.(check (float 0.0)) "zero-filled" 0.0 (Tensor.sum storage -. 7.0);
  Alcotest.(check (list (float 0.0))) "read back" [ 1.5; 7.0 ]
    [ Tensor.get (Interp.get_tensor ctx out) [| 0 |]; Tensor.get (Interp.get_tensor ctx out) [| 1 |] ];
  (* The extents are evaluated when the tensor is first touched, with
     the UF bindings of that moment. *)
  check_error "unbound extent" "unbound uninterpreted function num_nodes" (fun () ->
      run_fresh (Ir.Store (out, [ Ir.Int 0 ], Ir.Load (tmp, [ Ir.Int 0; Ir.Int 0 ]))));
  let ctx = fresh_ctx () in
  Interp.bind_uf0 ctx n 2;
  Alcotest.(check (array int)) "get_tensor allocates" [| 2; 3 |]
    (Interp.get_tensor ctx tmp).Tensor.shape

let test_interp_values () =
  let c = Ir.Var.fresh "c" in
  let mixed = Ir.Select (Ir.Var c, Ir.Int 1, Ir.Flt 2.5) in
  let with_c v e = Interp.eval_expr (fresh_ctx ()) [ (c.Ir.Var.vid, Interp.Vi v) ] e in
  check_value "select int" (Interp.Vi 1) (with_c 1 mixed);
  check_value "select float" (Interp.Vf 2.5) (with_c 0 mixed);
  check_value "add int" (Interp.Vi 2) (with_c 1 (Ir.Binop (Ir.Add, mixed, Ir.Int 1)));
  check_value "add float" (Interp.Vf 3.5) (with_c 0 (Ir.Binop (Ir.Add, mixed, Ir.Int 1)));
  check_value "max int" (Interp.Vi 4) (with_c 0 (Ir.Binop (Ir.Max, Ir.Int 4, Ir.Int (-2))));
  check_value "min mixed" (Interp.Vf (-2.0)) (with_c 0 (Ir.Binop (Ir.Min, Ir.Int 4, Ir.Flt (-2.0))));
  check_value "cmp mixed" (Interp.Vi 1) (with_c 0 (Ir.Cmp (Ir.Lt, Ir.Int 2, Ir.Flt 2.5)));
  check_value "cmp int" (Interp.Vi 0) (with_c 0 (Ir.Cmp (Ir.Ne, Ir.Int 2, Ir.Int 2)));
  check_value "math" (Interp.Vf (Cortex_tensor.Nonlinear.tanh_rational 0.5))
    (with_c 0 (Ir.Math (Cortex_tensor.Nonlinear.Tanh, Ir.Flt 0.5)));
  check_value "math of int" (Interp.Vf 3.0)
    (with_c 0 (Ir.Math (Cortex_tensor.Nonlinear.Relu, Ir.Int 3)));
  (* A float environment value stays a float through a Let. *)
  let y = Ir.Var.fresh "y" in
  check_value "let float" (Interp.Vf 0.75)
    (Interp.eval_expr (fresh_ctx ()) [ (y.Ir.Var.vid, Interp.Vf 0.5) ]
       (Ir.Binop (Ir.Add, Ir.Var y, Ir.Flt 0.25)));
  (* A Let-bound mixed Select keeps its run-time type. *)
  let d = Ir.Dim.fresh "d" in
  let t = Ir.tensor "t" [ d ] [ Ir.Int 4 ] in
  let v = Ir.Var.fresh "v" and i = Ir.Var.fresh "i" in
  let ctx =
    run_fresh
      (Ir.for_ i (Ir.Int 4)
         (Ir.Let
            ( v,
              Ir.Select (Ir.Cmp (Ir.Lt, Ir.Var i, Ir.Int 2), Ir.Var i, Ir.Flt 0.5),
              Ir.Store (t, [ Ir.Var i ], Ir.Binop (Ir.Div, Ir.Var v, Ir.Int 2)) )))
  in
  Alcotest.(check (list (float 0.0))) "mixed let" [ 0.0; 0.0; 0.25; 0.25 ]
    (List.init 4 (fun k -> Tensor.get (Interp.get_tensor ctx t) [| k |]))

let test_interp_counters () =
  let d = Ir.Dim.fresh "d" in
  let w = Ir.tensor ~space:Ir.Param "w" [ d ] [ Ir.Int 3 ] in
  let s = Ir.tensor ~space:Ir.Shared "s" [ d ] [ Ir.Int 3 ] in
  let out = Ir.tensor "out" [ d ] [ Ir.Int 3 ] in
  let i = Ir.Var.fresh "i" in
  let body =
    Ir.for_ i (Ir.Int 3)
      (Ir.Seq
         [
           Ir.Store (s, [ Ir.Var i ], Ir.Binop (Ir.Mul, Ir.Load (w, [ Ir.Var i ]), Ir.Flt 2.0));
           Ir.Store
             ( out,
               [ Ir.Var i ],
               Ir.Math
                 ( Cortex_tensor.Nonlinear.Sigmoid,
                   Ir.Binop (Ir.Add, Ir.Load (s, [ Ir.Var i ]), Ir.Var i) ) );
         ])
  in
  let run count =
    let ctx = Interp.create ~count ~num_internal_batches:0 () in
    Interp.bind_tensor ctx w (Tensor.of_array [| 3 |] [| 0.5; -1.0; 2.0 |]);
    Interp.run_stmt ctx [] body;
    (Interp.counters ctx, Interp.get_tensor ctx out)
  in
  let c, out = run true in
  Alcotest.(check (list int)) "totals" [ 6; 6; 3 * (1 + 1 + 17) ] [ c.Interp.loads; c.stores; c.flops ];
  Alcotest.(check (array int)) "loads by space" [| 3; 0; 3; 0 |] c.loads_by_space;
  Alcotest.(check (array int)) "stores by space" [| 0; 3; 3; 0 |] c.stores_by_space;
  let c0, out0 = run false in
  Alcotest.(check (list int)) "off" [ 0; 0; 0 ] [ c0.Interp.loads; c0.stores; c0.flops ];
  Alcotest.(check bool) "same values" true (out.Tensor.data = out0.Tensor.data)

let () =
  Alcotest.run "ilir"
    [
      ( "simplify",
        [
          QCheck_alcotest.to_alcotest test_simplify_preserves_value;
          Alcotest.test_case "identities" `Quick test_simplify_identities;
          Alcotest.test_case "branch-pruning" `Quick test_stmt_prunes_provable_branch;
        ] );
      ( "prover",
        [
          Alcotest.test_case "loop-guard" `Quick test_prove_loop_guard;
          Alcotest.test_case "uf-range" `Quick test_prove_uf_range;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "split" `Quick test_schedule_split;
          Alcotest.test_case "split-peeled" `Quick test_schedule_split_peeled;
          Alcotest.test_case "peeled-guard-free" `Quick test_schedule_peeled_guard_free;
          Alcotest.test_case "unroll" `Quick test_schedule_unroll;
          Alcotest.test_case "reorder" `Quick test_schedule_reorder;
          Alcotest.test_case "errors" `Quick test_schedule_errors;
          Alcotest.test_case "tile" `Quick test_schedule_tile;
          Alcotest.test_case "bind" `Quick test_schedule_bind;
          Alcotest.test_case "stage" `Quick test_schedule_stage;
          Alcotest.test_case "fuse" `Quick test_schedule_fuse;
          Alcotest.test_case "peel-keeps-kind" `Quick test_schedule_peel_keeps_kind;
          Alcotest.test_case "loop-names" `Quick test_schedule_loop_names_order;
          Alcotest.test_case "plan-roundtrip" `Quick test_plan_roundtrip;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "carrier-vs-conservative" `Quick test_barrier_carrier_vs_conservative;
          Alcotest.test_case "independent-loops" `Quick test_barrier_skips_independent_loops;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "checker" `Quick test_bounds_checker;
          Alcotest.test_case "named-dims" `Quick test_named_dims_arity;
        ] );
      ("emit-c", [ Alcotest.test_case "structure" `Quick test_emit_c_structure ]);
      ( "interp",
        [
          Alcotest.test_case "bounds" `Quick test_interp_bounds;
          Alcotest.test_case "arith-errors" `Quick test_interp_arith_errors;
          Alcotest.test_case "unbound" `Quick test_interp_unbound;
          Alcotest.test_case "float-as-int" `Quick test_interp_float_as_int;
          Alcotest.test_case "untaken" `Quick test_interp_untaken;
          Alcotest.test_case "uf-error" `Quick test_interp_uf_error;
          Alcotest.test_case "lazy-temporary" `Quick test_interp_lazy_temporary;
          Alcotest.test_case "values" `Quick test_interp_values;
          Alcotest.test_case "counters" `Quick test_interp_counters;
        ] );
    ]
