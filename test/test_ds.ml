(* Tests for the data-structure substrate: structure validation, the
   dataset generators of Table 2, and their shape statistics. *)

module Rng = Cortex_util.Rng
module Node = Cortex_ds.Node
module Structure = Cortex_ds.Structure
module Gen = Cortex_ds.Gen

let test_structure_validation () =
  let b = Node.builder () in
  let leaf = Node.make b [] in
  let root = Node.make b [ leaf; leaf ] in
  (* The same leaf under two edges means two parents: fine in a DAG,
     rejected in a tree. *)
  ignore (Structure.create ~kind:Structure.Dag ~max_children:2 [ root ]);
  (try
     ignore (Structure.create ~kind:Structure.Tree ~max_children:2 [ root ]);
     Alcotest.fail "shared child accepted in a tree"
   with Structure.Invalid _ -> ());
  (* fanout limit *)
  (try
     ignore (Structure.create ~kind:Structure.Tree ~max_children:1 [ root ]);
     Alcotest.fail "fanout violation accepted"
   with Structure.Invalid _ -> ());
  (* sequences must declare max_children = 1 *)
  (try
     ignore (Structure.create ~kind:Structure.Sequence ~max_children:2 [ root ]);
     Alcotest.fail "sequence with max_children 2 accepted"
   with Structure.Invalid _ -> ())

(* Two builders can number a child above its parent: the parent (id 0)
   over a child (id 1).  The ids are dense and the tree is well formed,
   but a layout pushed in node-id order would lay the parent out before
   its child, so construction refuses it. *)
let test_child_numbered_above_parent () =
  let kids = Node.builder () and parents = Node.builder () in
  ignore (Node.make kids []);
  let child = Node.make kids ~payload:1 [] in
  let root = Node.make parents ~payload:2 [ child ] in
  List.iter
    (fun kind ->
      match Structure.create ~kind ~max_children:1 [ root ] with
      | _ -> Alcotest.fail "a child numbered above its parent was accepted"
      | exception Structure.Invalid _ -> ())
    [ Structure.Tree; Structure.Dag; Structure.Sequence ]

(* Two builders each number a leaf 0; a third roots both.  A walk keyed
   by id would keep the first leaf and route the second edge to it. *)
let test_shared_id () =
  let leaf payload = Node.make (Node.builder ()) ~payload [] in
  let root = Node.make (Node.builder_from 1) ~payload:1 [ leaf 7; leaf 9 ] in
  List.iter
    (fun kind ->
      match Structure.create ~kind ~max_children:2 [ root ] with
      | _ -> Alcotest.fail "two nodes sharing id 0 were accepted"
      | exception Structure.Invalid msg ->
        Alcotest.(check string) "message" "two nodes share id 0" msg)
    [ Structure.Dag; Structure.Tree ]

let test_perfect_tree () =
  let rng = Rng.create 1 in
  let t = Gen.perfect_tree rng ~height:7 () in
  Alcotest.(check int) "nodes" 127 (Structure.num_nodes t);
  Alcotest.(check int) "leaves" 64 (Structure.num_leaves t);
  Alcotest.(check int) "height (edges)" 6 (Structure.height t);
  let widths = Structure.level_widths t in
  Alcotest.(check (array int)) "level widths" [| 64; 32; 16; 8; 4; 2; 1 |] widths;
  (* internal nodes carry the null word; leaves carry real words *)
  Array.iter
    (fun (n : Node.t) ->
      if Node.is_leaf n then Alcotest.(check bool) "leaf word" true (n.Node.payload < Gen.vocab_size)
      else Alcotest.(check int) "null word" Gen.null_word n.Node.payload)
    t.Structure.nodes

let test_sst_tree () =
  let rng = Rng.create 2 in
  for _ = 1 to 50 do
    let len = 3 + Rng.int rng 40 in
    let t = Gen.sst_tree rng ~len () in
    Alcotest.(check int) "binary bracketing: n leaves" len (Structure.num_leaves t);
    Alcotest.(check int) "binary bracketing: 2n-1 nodes" ((2 * len) - 1) (Structure.num_nodes t)
  done

let test_sst_length_distribution () =
  let rng = Rng.create 3 in
  let lens = List.init 2000 (fun _ -> Gen.sst_sentence_length rng) in
  List.iter (fun l -> Alcotest.(check bool) "clipped" true (l >= 3 && l <= 60)) lens;
  let mean = Cortex_util.Stats.mean (List.map float_of_int lens) in
  Alcotest.(check bool) (Printf.sprintf "mean %.1f ~ 19" mean) true
    (mean > 17.0 && mean < 21.5)

let test_grid_dag () =
  let t = Gen.grid_dag ~rows:10 ~cols:10 in
  Alcotest.(check int) "cells" 100 (Structure.num_nodes t);
  Alcotest.(check int) "one leaf" 1 (Structure.num_leaves t);
  Alcotest.(check int) "anti-diagonal levels" 19 (Array.length (Structure.level_widths t));
  (* interior cells have two parents (right and down neighbours) *)
  let parents = Structure.parents_count t in
  let two_parents = Array.fold_left (fun a p -> if p = 2 then a + 1 else a) 0 parents in
  Alcotest.(check int) "interior cells" 81 two_parents

let test_sequence () =
  let rng = Rng.create 4 in
  let s = Gen.sequence rng ~len:10 () in
  Alcotest.(check int) "nodes" 10 (Structure.num_nodes s);
  Alcotest.(check int) "one leaf" 1 (Structure.num_leaves s);
  Alcotest.(check int) "height" 9 (Structure.height s)

let test_merge () =
  let rng = Rng.create 5 in
  let parts = List.init 4 (fun _ -> Gen.sst_tree rng ~len:5 ()) in
  let merged = Structure.merge parts in
  Alcotest.(check int) "roots" 4 (List.length merged.Structure.roots);
  Alcotest.(check int) "nodes" (4 * 9) (Structure.num_nodes merged);
  (* Dense ids after renumbering *)
  Array.iteri
    (fun i (n : Node.t) -> Alcotest.(check int) "dense id" i n.Node.id)
    merged.Structure.nodes

let test_random_generators_valid =
  QCheck.Test.make ~name:"random trees/DAGs construct valid structures" ~count:200
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, mc) ->
      let rng = Rng.create seed in
      let t = Gen.random_tree rng ~max_nodes:30 ~max_children:mc in
      let d = Gen.random_dag rng ~max_nodes:30 ~max_children:mc in
      (* Structure.create already validates; check level sanity too. *)
      Array.for_all (fun l -> l >= 0) (Structure.level t)
      && Array.for_all (fun l -> l >= 0) (Structure.level d))

let test_levels_respect_children =
  QCheck.Test.make ~name:"level(parent) > level(child)" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let d = Gen.random_dag rng ~max_nodes:40 ~max_children:3 in
      let lvl = Structure.level d in
      Array.for_all
        (fun (n : Node.t) ->
          Array.for_all (fun (c : Node.t) -> lvl.(n.Node.id) > lvl.(c.Node.id)) n.Node.children)
        d.Structure.nodes)

(* ---------- treebank parsing ---------- *)

module Treebank = Cortex_ds.Treebank

let test_treebank_parse () =
  let v = Treebank.vocab () in
  let t = Treebank.parse v "(3 (2 (2 The) (2 movie)) (4 (3 (2 was) (3 great)) (2 .)))" in
  Alcotest.(check int) "nodes (5 leaves, binary)" 9 (Structure.num_nodes t.Treebank.structure);
  Alcotest.(check int) "leaves" 5 (Structure.num_leaves t.Treebank.structure);
  (* vocabulary: null + 5 tokens *)
  Alcotest.(check int) "vocab" 6 (Treebank.vocab_size v);
  Alcotest.(check (option int)) "lookup" (Treebank.lookup v "movie")
    (Some (Treebank.word_id v "movie"));
  (* root label *)
  (match t.Treebank.structure.Structure.roots with
   | [ root ] -> Alcotest.(check int) "root label" 3 t.Treebank.labels.(root.Node.id)
   | _ -> Alcotest.fail "one root expected");
  (* internal nodes carry the reserved null word *)
  Array.iter
    (fun (n : Node.t) ->
      if not (Node.is_leaf n) then
        Alcotest.(check int) "null payload" (Treebank.null_word v) n.Node.payload)
    t.Treebank.structure.Structure.nodes

let test_treebank_roundtrip () =
  let v = Treebank.vocab () in
  let trees = Treebank.parse_many v Treebank.sample_sst in
  Alcotest.(check int) "8 samples" 8 (List.length trees);
  List.iter
    (fun t ->
      let printed = Treebank.to_string t in
      let v2 = Treebank.vocab () in
      let t2 = Treebank.parse v2 printed in
      Alcotest.(check int) "same node count"
        (Structure.num_nodes t.Treebank.structure)
        (Structure.num_nodes t2.Treebank.structure);
      Alcotest.(check string) "fixed point" printed (Treebank.to_string t2))
    trees

let test_treebank_merge () =
  let v = Treebank.vocab () in
  let trees = Treebank.parse_many v Treebank.sample_sst in
  let batch = Treebank.merge trees in
  Alcotest.(check int) "roots" 8 (List.length batch.Structure.roots);
  Alcotest.(check int) "nodes"
    (List.fold_left (fun a t -> a + Structure.num_nodes t.Treebank.structure) 0 trees)
    (Structure.num_nodes batch)

let test_treebank_unlabelled_and_nary () =
  let v = Treebank.vocab () in
  let t = Treebank.parse v "((a b) (c d e))" in
  Alcotest.(check int) "n-ary fanout accepted" 3 t.Treebank.structure.Structure.max_children;
  Alcotest.(check int) "nodes" 8 (Structure.num_nodes t.Treebank.structure);
  (match t.Treebank.structure.Structure.roots with
   | [ root ] -> Alcotest.(check int) "no label" (-1) t.Treebank.labels.(root.Node.id)
   | _ -> Alcotest.fail "one root expected")

let test_treebank_errors () =
  let v = Treebank.vocab () in
  let bad input =
    try
      ignore (Treebank.parse v input);
      Alcotest.failf "accepted %S" input
    with Treebank.Parse_error _ -> ()
  in
  bad "(2 (2 a)";
  bad "()";
  bad "(2 a) trailing";
  bad ""

let () =
  Alcotest.run "ds"
    [
      ( "structure",
        [
          Alcotest.test_case "validation" `Quick test_structure_validation;
          Alcotest.test_case "child-above-parent" `Quick test_child_numbered_above_parent;
          Alcotest.test_case "shared-id" `Quick test_shared_id;
          Alcotest.test_case "merge" `Quick test_merge;
          QCheck_alcotest.to_alcotest test_random_generators_valid;
          QCheck_alcotest.to_alcotest test_levels_respect_children;
        ] );
      ( "generators",
        [
          Alcotest.test_case "perfect-tree" `Quick test_perfect_tree;
          Alcotest.test_case "sst-tree" `Quick test_sst_tree;
          Alcotest.test_case "sst-lengths" `Quick test_sst_length_distribution;
          Alcotest.test_case "grid-dag" `Quick test_grid_dag;
          Alcotest.test_case "sequence" `Quick test_sequence;
        ] );
      ( "treebank",
        [
          Alcotest.test_case "parse" `Quick test_treebank_parse;
          Alcotest.test_case "roundtrip" `Quick test_treebank_roundtrip;
          Alcotest.test_case "merge" `Quick test_treebank_merge;
          Alcotest.test_case "unlabelled-nary" `Quick test_treebank_unlabelled_and_nary;
          Alcotest.test_case "errors" `Quick test_treebank_errors;
        ] );
    ]
