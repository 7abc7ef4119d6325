(* Tests for the Recursive API layer: program validation error paths,
   evaluator semantics (missing children, init parameters, payload
   errors) and the §4.3 constant-propagation used by specialization. *)

module Rng = Cortex_util.Rng
module Tensor = Cortex_tensor.Tensor
module Node = Cortex_ds.Node
module Structure = Cortex_ds.Structure
open Cortex_ra

let h = 4

let base_ops =
  [
    Ra.op "cs" ~axes:[ ("i", h) ] (Ra.ChildSum (Ra.ChildState ("s", Ra.Current, [ Ra.IAxis "i" ])));
    Ra.op "out" ~axes:[ ("i", h) ] (Ra.tanh_ (Ra.Temp ("cs", [ Ra.IAxis "i" ])));
  ]

let base =
  {
    Ra.name = "base";
    kind = Structure.Tree;
    max_children = 2;
    params = [ ("v", [ h ]); ("m", [ h; h ]) ];
    rec_ops = base_ops;
    leaf_ops = None;
    states = [ { Ra.st_name = "s"; st_op = "out"; st_init = Ra.Zero } ];
    outputs = [ "s" ];
    facts = Ra.no_facts;
  }

let invalid label program =
  try
    Ra.validate program;
    Alcotest.failf "%s: accepted" label
  with Ra.Invalid_program _ -> ()

let test_validate_ok () = Ra.validate base

let test_validate_errors () =
  invalid "duplicate op" { base with Ra.rec_ops = base.Ra.rec_ops @ [ List.hd base_ops ] };
  invalid "temp before definition"
    { base with Ra.rec_ops = List.rev base.Ra.rec_ops };
  invalid "unbound axis"
    {
      base with
      Ra.rec_ops = [ Ra.op "out" ~axes:[ ("i", h) ] (Ra.Param ("v", [ Ra.IAxis "q" ])) ];
    };
  invalid "param arity"
    {
      base with
      Ra.rec_ops = [ Ra.op "out" ~axes:[ ("i", h) ] (Ra.Param ("m", [ Ra.IAxis "i" ])) ];
    };
  invalid "unknown param"
    {
      base with
      Ra.rec_ops = [ Ra.op "out" ~axes:[ ("i", h) ] (Ra.Param ("nope", [ Ra.IAxis "i" ])) ];
    };
  invalid "Current outside ChildSum"
    {
      base with
      Ra.rec_ops =
        [ Ra.op "out" ~axes:[ ("i", h) ] (Ra.ChildState ("s", Ra.Current, [ Ra.IAxis "i" ])) ];
    };
  invalid "nested ChildSum"
    {
      base with
      Ra.rec_ops =
        [
          Ra.op "out" ~axes:[ ("i", h) ]
            (Ra.ChildSum (Ra.ChildSum (Ra.ChildState ("s", Ra.Current, [ Ra.IAxis "i" ]))));
        ];
    };
  invalid "child index out of range"
    {
      base with
      Ra.rec_ops =
        [ Ra.op "out" ~axes:[ ("i", h) ] (Ra.ChildState ("s", Ra.Child 5, [ Ra.IAxis "i" ])) ];
    };
  invalid "leaf case references children"
    { base with Ra.leaf_ops = Some base_ops };
  invalid "precompute references children"
    {
      base with
      Ra.rec_ops =
        [
          Ra.op ~precompute:true "cs" ~axes:[ ("i", h) ]
            (Ra.ChildSum (Ra.ChildState ("s", Ra.Current, [ Ra.IAxis "i" ])));
          List.nth base_ops 1;
        ];
    };
  invalid "sparse phases"
    {
      base with
      Ra.rec_ops =
        [ List.hd base_ops; Ra.op ~phase:2 "out" ~axes:[ ("i", h) ] (Ra.Temp ("cs", [ Ra.IAxis "i" ])) ];
    };
  invalid "state op missing"
    { base with Ra.states = [ { Ra.st_name = "s"; st_op = "nope"; st_init = Ra.Zero } ] };
  invalid "init param dims"
    { base with Ra.states = [ { Ra.st_name = "s"; st_op = "out"; st_init = Ra.Init_param "m" } ] };
  invalid "unknown output" { base with Ra.outputs = [ "zzz" ] };
  invalid "no outputs" { base with Ra.outputs = [] };
  invalid "sequence arity" { base with Ra.kind = Structure.Sequence };
  invalid "unknown published op"
    { base with Ra.facts = { Ra.no_facts with refactor_publish = [ "zzz" ] } }

(* ---------- evaluator semantics ---------- *)

let line ?(payloads = [ 1; 2; 3 ]) () =
  let b = Node.builder () in
  let rec build prev = function
    | [] -> prev
    | p :: rest -> build (Node.make b ~payload:p [ prev ]) rest
  in
  match payloads with
  | [] -> invalid_arg "line"
  | p :: rest ->
    Structure.create ~kind:Structure.Tree ~max_children:2 [ build (Node.make b ~payload:p []) rest ]

let test_init_param_semantics () =
  (* A fixed-child reference below a leaf reads the declared initial
     parameter, not zero. *)
  let program =
    {
      base with
      Ra.params = [ ("init", [ h ]) ];
      rec_ops =
        [
          Ra.op "out" ~axes:[ ("i", h) ]
            (Ra.Binop
               (Ra.Add, Ra.ChildState ("s", Ra.Child 0, [ Ra.IAxis "i" ]), Ra.Const 1.0));
        ];
      states = [ { Ra.st_name = "s"; st_op = "out"; st_init = Ra.Init_param "init" } ];
    }
  in
  Ra.validate program;
  let init = Tensor.of_array [| h |] [| 10.0; 20.0; 30.0; 40.0 |] in
  let params = function
    | "init" -> init
    | p -> invalid_arg p
  in
  let s = line ~payloads:[ 1; 2 ] () in
  let result = Ra_eval.run program ~params s in
  (* leaf: init + 1; root: (init + 1) + 1 *)
  (match s.Structure.roots with
   | [ root ] ->
     Alcotest.(check (float 1e-9)) "root value" 12.0
       (Tensor.get (Ra_eval.state result "s" root) [| 0 |])
   | _ -> Alcotest.fail "one root");
  Array.iter
    (fun (n : Node.t) ->
      if Node.is_leaf n then
        Alcotest.(check (float 1e-9)) "leaf value" 21.0
          (Tensor.get (Ra_eval.state result "s" n) [| 1 |]))
    s.Structure.nodes

let test_missing_payload_error () =
  let program =
    {
      base with
      Ra.params = [ ("emb", [ 10; h ]) ];
      rec_ops =
        [ Ra.op "out" ~axes:[ ("i", h) ] (Ra.Param ("emb", [ Ra.IPayload; Ra.IAxis "i" ])) ];
    }
  in
  let b = Node.builder () in
  let root = Node.make b [] in
  (* default payload is -1 *)
  let s = Structure.create ~kind:Structure.Tree ~max_children:2 [ root ] in
  let params = function "emb" -> Tensor.zeros [| 10; h |] | p -> invalid_arg p in
  (try
     ignore (Ra_eval.run program ~params s);
     Alcotest.fail "payload -1 accepted"
   with Failure _ -> ())

let test_param_shape_check () =
  let params = function
    | "v" -> Tensor.zeros [| h + 1 |]
    | "m" -> Tensor.zeros [| h; h |]
    | p -> invalid_arg p
  in
  (try
     ignore (Ra_eval.run base ~params (line ()));
     Alcotest.fail "wrong param shape accepted"
   with Invalid_argument _ -> ())

(* ---------- Ra_simplify (§4.3) ---------- *)

let test_fold_identities () =
  let open Ra in
  let x = Param ("v", [ IAxis "i" ]) in
  let checks =
    [
      (Binop (Mul, x, Const 0.0), Const 0.0);
      (Binop (Add, Const 0.0, x), x);
      (Binop (Mul, Const 1.0, x), x);
      (Sum ("j", 8, Const 0.0), Const 0.0);
      (Sum ("j", 8, Const 2.0), Const 16.0);
      (ChildSum (Const 0.0), Const 0.0);
      (Math (Cortex_tensor.Nonlinear.Relu, Const (-1.0)), Const 0.0);
    ]
  in
  List.iter
    (fun (e, want) ->
      Alcotest.(check string)
        (Ra.rexpr_to_string e)
        (Ra.rexpr_to_string want)
        (Ra.rexpr_to_string (Ra_simplify.fold e)))
    checks

let test_leaf_substitution_folds_matvec () =
  (* sum_j m[i,j] * childsum(s)[j] must fold to the zero constant after
     leaf substitution — the §4.3 effect that deletes leaf matvecs. *)
  let open Ra in
  let body =
    Sum
      ( "j",
        h,
        Binop (Mul, Param ("m", [ IAxis "i"; IAxis "j" ]), Temp ("cs", [ IAxis "j" ])) )
  in
  let ops =
    [
      op "cs" ~axes:[ ("i", h) ] (ChildSum (ChildState ("s", Current, [ IAxis "i" ])));
      op "out" ~axes:[ ("i", h) ] body;
    ]
  in
  let substituted =
    List.map
      (fun (o : op) -> { o with op_body = Ra_simplify.leaf_substitute base o.op_body })
      ops
  in
  let propagated = Ra_simplify.const_propagate substituted in
  match List.map (fun (o : op) -> o.Ra.op_body) propagated with
  | [ Const 0.0; Const 0.0 ] -> ()
  | bodies ->
    Alcotest.failf "not folded: %s"
      (String.concat "; " (List.map Ra.rexpr_to_string bodies))

let test_node_dependent () =
  let open Ra in
  let ops = [ op "a" ~axes:[ ("i", h) ] (Const 1.0) ] in
  Alcotest.(check bool) "const is hoistable" false
    (Ra_simplify.node_dependent ~ops (Temp ("a", [ IAxis "i" ])));
  Alcotest.(check bool) "payload is node-dependent" true
    (Ra_simplify.node_dependent ~ops (Param ("emb", [ IPayload; IAxis "i" ])));
  Alcotest.(check bool) "children are node-dependent" true
    (Ra_simplify.node_dependent ~ops (ChildSum (Const 1.0)))

let () =
  Alcotest.run "ra"
    [
      ( "validate",
        [
          Alcotest.test_case "ok" `Quick test_validate_ok;
          Alcotest.test_case "errors" `Quick test_validate_errors;
        ] );
      ( "eval",
        [
          Alcotest.test_case "init-param" `Quick test_init_param_semantics;
          Alcotest.test_case "missing-payload" `Quick test_missing_payload_error;
          Alcotest.test_case "param-shape" `Quick test_param_shape_check;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "fold" `Quick test_fold_identities;
          Alcotest.test_case "leaf-matvec-folds" `Quick test_leaf_substitution_folds_matvec;
          Alcotest.test_case "node-dependent" `Quick test_node_dependent;
        ] );
    ]
