(* Tests for the data structure linearizer (§4.2, Appendix B) and the
   unrolled grouping of §3.1/§7.4.  [Linearizer.check] verifies every
   documented invariant (numbering permutation, children numbered higher
   than parents, contiguous batches, dependence-respecting batch order,
   single-comparison leaf check, valid postorder); the property tests
   here drive it over random structures and add targeted cases. *)

module Rng = Cortex_util.Rng
module Structure = Cortex_ds.Structure
module Node = Cortex_ds.Node
module Gen = Cortex_ds.Gen
module Linearizer = Cortex_linearizer.Linearizer
module Unrolling = Cortex_linearizer.Unrolling

let prop_check name gen =
  QCheck.Test.make ~name ~count:300 QCheck.small_int (fun seed ->
      let s = gen (Rng.create seed) in
      let lin = Linearizer.run s in
      Linearizer.check lin;
      true)

let random_tree rng = Gen.random_tree rng ~max_nodes:40 ~max_children:3
let random_dag rng = Gen.random_dag rng ~max_nodes:40 ~max_children:3
let random_seq rng = Gen.sequence rng ~len:(1 + Rng.int rng 40) ()
let random_forest rng =
  Structure.merge (List.init (1 + Rng.int rng 5) (fun _ -> random_tree rng))

(* The inspector's priced charge is linear in the layout: one per-node
   constant per structure kind, shared by trees and sequences, so a
   layout of n nodes costs exactly n one-node layouts of its kind. *)
let prop_priced_proportional =
  let one_node kind =
    let b = Node.builder () in
    Linearizer.priced_us
      (Linearizer.run (Structure.create ~kind ~max_children:1 [ Node.make b [] ]))
  in
  QCheck.Test.make ~name:"priced_us proportional to nodes" ~count:100 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      one_node Structure.Tree = one_node Structure.Sequence
      && List.for_all
           (fun (kind, s) ->
             let lin = Linearizer.run s in
             Linearizer.priced_us lin
             = one_node kind *. float_of_int lin.Linearizer.num_nodes)
           [
             (Structure.Tree, random_tree rng);
             (Structure.Tree, random_forest rng);
             (Structure.Sequence, random_seq rng);
             (Structure.Dag, random_dag rng);
           ])

let test_batches_are_levels () =
  let rng = Rng.create 9 in
  let s = Gen.perfect_tree rng ~height:5 () in
  let lin = Linearizer.run s in
  Alcotest.(check int) "one batch per level" 5 (Array.length lin.Linearizer.batches);
  let lens = Array.map snd lin.Linearizer.batches in
  Alcotest.(check (array int)) "leaf batch first" [| 16; 8; 4; 2; 1 |] lens;
  Alcotest.(check int) "leaf partition size" 16 (snd (Linearizer.leaf_batch lin));
  Alcotest.(check int) "internal batches" 4 (Array.length (Linearizer.internal_batches lin))

let test_leaf_check_is_single_comparison () =
  let rng = Rng.create 10 in
  let s = random_forest rng in
  let lin = Linearizer.run s in
  (* Appendix B: leaves are exactly the ids >= leaf_begin. *)
  for id = 0 to lin.Linearizer.num_nodes - 1 do
    Alcotest.(check bool) "leaf check" (lin.Linearizer.num_children.(id) = 0)
      (Linearizer.is_leaf lin id)
  done

let test_grid_dag_batches () =
  let lin = Linearizer.run (Gen.grid_dag ~rows:4 ~cols:6) in
  Linearizer.check lin;
  Alcotest.(check int) "anti-diagonals" 9 (Array.length lin.Linearizer.batches);
  Alcotest.(check int) "single leaf" 1 lin.Linearizer.num_leaves

let test_memory_accounting () =
  let rng = Rng.create 11 in
  let lin = Linearizer.run (random_tree rng) in
  Alcotest.(check bool) "positive footprint" true (Linearizer.memory_bytes lin > 0);
  (* The executor resolves exactly four tables on device: child tables
     (max_children x n), fanout counts (n), payloads (n) and the batch
     table (2 ints per batch) — 8 bytes per int.  Pin the formula so the
     accounting can't silently drift back to billing host-side arrays. *)
  let n = lin.Linearizer.num_nodes in
  let mc = lin.Linearizer.max_children in
  let b = Array.length lin.Linearizer.batches in
  Alcotest.(check int) "executor tables only"
    (8 * ((mc * n) + n + n + (2 * b)))
    (Linearizer.memory_bytes lin)

(* A corrupted linearization must be rejected by the checker. *)
let test_check_catches_corruption () =
  let rng = Rng.create 12 in
  let lin = Linearizer.run (Gen.perfect_tree rng ~height:4 ()) in
  let swap a i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  (* Swapping two entries of the postorder breaks the children-first
     property somewhere in a perfect tree. *)
  swap lin.Linearizer.postorder 0 (lin.Linearizer.num_nodes - 1);
  (try
     Linearizer.check lin;
     Alcotest.fail "corrupted postorder accepted"
   with Failure _ -> ());
  swap lin.Linearizer.postorder 0 (lin.Linearizer.num_nodes - 1);
  Linearizer.check lin

(* ---------- shape keys and payload re-binding ---------- *)

(* Same topology, different payloads: perfect trees are deterministic
   shapes, the rng only draws leaf payloads. *)
let perfect3 seed = Gen.perfect_tree (Rng.create seed) ~vocab:30 ~height:3 ()

let test_shape_key_is_shape_equality () =
  let a = [ perfect3 1; perfect3 2 ] and b = [ perfect3 3; perfect3 4 ] in
  Alcotest.(check string) "payloads don't enter the key"
    (Linearizer.shape_key a) (Linearizer.shape_key b);
  let c = [ perfect3 1; Gen.perfect_tree (Rng.create 2) ~vocab:30 ~height:4 () ] in
  Alcotest.(check bool) "different topology, different key" false
    (Linearizer.shape_key a = Linearizer.shape_key c);
  (* Order matters: a forest's numbering depends on submission order. *)
  Alcotest.(check bool) "request order enters the key" false
    (Linearizer.shape_key c = Linearizer.shape_key (List.rev c));
  (* The fanout bound is the child-table width, so it must enter the
     key: equal shapes under different bounds are different layouts. *)
  Alcotest.(check bool) "max_children enters the key" false
    (Linearizer.shape_key ~max_children:2 a = Linearizer.shape_key ~max_children:3 a);
  Alcotest.(check string) "default bound is the declared maximum"
    (Linearizer.shape_key ~max_children:2 a)
    (Linearizer.shape_key a)

let test_rebind_matches_cold_run () =
  (* Rebinding a forest to its own structures must be the identity... *)
  let cold_input = List.map (fun s -> Gen.sst_tree (Rng.create s) ~vocab:30 ()) [ 1; 2; 3 ] in
  let cached = Linearizer.run_forest cold_input in
  let rebound = Linearizer.rebind_forest cached cold_input in
  Linearizer.check_forest rebound;
  Alcotest.(check (array int)) "same numbering"
    cached.Linearizer.lin.Linearizer.new_of_old
    rebound.Linearizer.lin.Linearizer.new_of_old;
  Alcotest.(check (array int)) "same payloads"
    cached.Linearizer.lin.Linearizer.payload
    rebound.Linearizer.lin.Linearizer.payload;
  (* Different payloads, same shape: the rebound forest must equal a
     cold linearization of the new requests, array for array. *)
  let cached = Linearizer.run_forest [ perfect3 1; perfect3 2 ] in
  let fresh = [ perfect3 5; perfect3 6 ] in
  let rebound = Linearizer.rebind_forest cached fresh in
  let cold = Linearizer.run_forest fresh in
  Linearizer.check_forest rebound;
  Alcotest.(check (array int)) "numbering matches cold run"
    cold.Linearizer.lin.Linearizer.new_of_old
    rebound.Linearizer.lin.Linearizer.new_of_old;
  Alcotest.(check (array int)) "payloads match cold run"
    cold.Linearizer.lin.Linearizer.payload
    rebound.Linearizer.lin.Linearizer.payload;
  Alcotest.(check bool) "cold payload table untouched" false
    (cached.Linearizer.lin.Linearizer.payload = cold.Linearizer.lin.Linearizer.payload);
  Array.iteri
    (fun k (span : Linearizer.span) ->
      let cold_span = cold.Linearizer.spans.(k) in
      Alcotest.(check (array int)) "span ids match" cold_span.Linearizer.span_ids
        span.Linearizer.span_ids;
      Alcotest.(check bool) "span points at the new request" true
        (span.Linearizer.span_structure == List.nth fresh k))
    rebound.Linearizer.spans

let test_rebind_rejects_shape_mismatch () =
  let cached = Linearizer.run_forest [ perfect3 1; perfect3 2 ] in
  Alcotest.check_raises "request count mismatch"
    (Invalid_argument "Linearizer.rebind_forest: request count mismatch")
    (fun () -> ignore (Linearizer.rebind_forest cached [ perfect3 1 ]));
  let taller = Gen.perfect_tree (Rng.create 9) ~vocab:30 ~height:4 () in
  try
    ignore (Linearizer.rebind_forest cached [ perfect3 1; taller ]);
    Alcotest.fail "node-count mismatch accepted"
  with Invalid_argument _ -> ()

(* ---------- delta linearization ---------- *)

let forest_equal (a : Linearizer.forest) (b : Linearizer.forest) =
  let open Linearizer in
  let la = a.lin and lb = b.lin in
  la.num_nodes = lb.num_nodes
  && la.num_leaves = lb.num_leaves
  && la.max_children = lb.max_children
  && la.leaf_begin = lb.leaf_begin
  && la.new_of_old = lb.new_of_old
  && la.old_of_new = lb.old_of_new
  && la.child = lb.child
  && la.num_children = lb.num_children
  && la.payload = lb.payload
  && la.level_of = lb.level_of
  && la.batches = lb.batches
  && la.postorder = lb.postorder
  && Array.length a.spans = Array.length b.spans
  && Array.for_all2
       (fun (x : span) (y : span) ->
         x.span_ids = y.span_ids && x.span_levels = y.span_levels)
       a.spans b.spans

let delta_of ~prev ~grown =
  let b = Structure.num_nodes prev in
  let d = Structure.num_nodes grown - b in
  {
    Linearizer.d_request = 0;
    d_roots = grown.Structure.roots;
    d_nodes = Array.sub grown.Structure.nodes b d;
  }

(* The core tentpole property: over a random grow-by-one sequence,
   [extend] must equal a cold [run_forest] of the full structure, array
   for array — same numbering, same batches, same spans — and satisfy
   every check_forest invariant. *)
let prop_extend_equals_cold =
  QCheck.Test.make ~name:"extend = cold run over grow sequences" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1) in
      let kind = if Rng.int rng 2 = 0 then Structure.Sequence else Structure.Tree in
      let g = Gen.growth_start rng ~vocab:50 ~kind () in
      let f = ref (Linearizer.run_forest [ Gen.growth_structure g ]) in
      let steps = 2 + Rng.int rng 15 in
      for _ = 1 to steps do
        let prev = Gen.growth_structure g in
        let grown = Gen.grow_one rng g in
        let ext = Linearizer.extend !f (delta_of ~prev ~grown) in
        Linearizer.check_forest ext;
        let cold = Linearizer.run_forest [ grown ] in
        if not (forest_equal ext cold) then
          QCheck.Test.fail_report "extended forest differs from cold run";
        f := ext
      done;
      true)

(* Multi-request forests: growing any request — including one that is
   not last, which exercises the re-merge fallback — must still equal
   the cold run of the whole window. *)
let prop_extend_multi_request =
  QCheck.Test.make ~name:"extend inside a batched window" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 101) in
      let r = 2 + Rng.int rng 3 in
      let gs =
        Array.init r (fun _ ->
            let g = Gen.growth_start rng ~vocab:50 ~kind:Structure.Tree () in
            for _ = 1 to Rng.int rng 4 do
              ignore (Gen.grow_one rng g)
            done;
            g)
      in
      let structures () = Array.to_list (Array.map Gen.growth_structure gs) in
      let f = ref (Linearizer.run_forest (structures ())) in
      for _ = 1 to 6 do
        let k = Rng.int rng r in
        let prev = Gen.growth_structure gs.(k) in
        let grown = Gen.grow_one rng gs.(k) in
        let dl = { (delta_of ~prev ~grown) with Linearizer.d_request = k } in
        let ext = Linearizer.extend !f dl in
        Linearizer.check_forest ext;
        let cold = Linearizer.run_forest (structures ()) in
        if not (forest_equal ext cold) then
          QCheck.Test.fail_report "extended window differs from cold run";
        f := ext
      done;
      true)

(* The session-table pricing primitive: [memory_bytes] is the closed
   form [layout_bytes] over the forest's own dimensions, and growing a
   forest never shrinks it — so the engine's accounted bytes, which
   re-price the same formula after every grow step, are monotone over
   a conversation's life. *)
let prop_memory_bytes_monotone =
  QCheck.Test.make ~name:"memory_bytes monotone under extend" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 501) in
      let kind = if Rng.int rng 2 = 0 then Structure.Sequence else Structure.Tree in
      let g = Gen.growth_start rng ~vocab:50 ~kind () in
      let f = ref (Linearizer.run_forest [ Gen.growth_structure g ]) in
      let steps = 2 + Rng.int rng 12 in
      for _ = 1 to steps do
        let lin = (!f).Linearizer.lin in
        if
          Linearizer.memory_bytes lin
          <> Linearizer.layout_bytes ~num_nodes:lin.Linearizer.num_nodes
               ~num_batches:(Array.length lin.Linearizer.batches)
               ~max_children:lin.Linearizer.max_children
        then QCheck.Test.fail_report "memory_bytes disagrees with layout_bytes";
        let prev_bytes = Linearizer.memory_bytes lin in
        let prev = Gen.growth_structure g in
        let grown = Gen.grow_one rng g in
        let ext = Linearizer.extend !f (delta_of ~prev ~grown) in
        if Linearizer.memory_bytes ext.Linearizer.lin < prev_bytes then
          QCheck.Test.fail_report "memory_bytes shrank under extend";
        f := ext
      done;
      (* And the state-row half of the session price is exactly linear. *)
      let n = (!f).Linearizer.lin.Linearizer.num_nodes in
      Linearizer.state_rows_bytes ~num_nodes:n ~bytes_per_node:48 = 48 * n)

let test_extend_rejects_bad_deltas () =
  let rng = Rng.create 77 in
  let g = Gen.growth_start rng ~vocab:50 ~kind:Structure.Tree () in
  for _ = 1 to 4 do
    ignore (Gen.grow_one rng g)
  done;
  let s = Gen.growth_structure g in
  let f = Linearizer.run_forest [ s ] in
  let reject name dl expect =
    try
      ignore (Linearizer.extend f dl);
      Alcotest.fail (name ^ " accepted")
    with Linearizer.Rejected r ->
      if not (expect r) then
        Alcotest.fail
          (Printf.sprintf "%s rejected as %s" name (Linearizer.rejection_to_string r))
  in
  reject "empty delta"
    { Linearizer.d_request = 0; d_roots = s.Structure.roots; d_nodes = [||] }
    (function Linearizer.Empty_delta -> true | _ -> false);
  (* Wrong ids: nodes from a foreign builder starting at 0. *)
  let fb = Cortex_ds.Node.builder () in
  let foreign = Cortex_ds.Node.make fb ~payload:1 [] in
  reject "foreign ids"
    { Linearizer.d_request = 0; d_roots = [ foreign ]; d_nodes = [| foreign |] }
    (function Linearizer.Bad_delta _ -> true | _ -> false);
  (* A graft whose DFS visits the new leaf first merely interleaves —
     the old nodes keep their relative order, so extend handles it
     (exercising the non-tail insertion positions). *)
  let b = Structure.num_nodes s in
  let nb = Cortex_ds.Node.builder_from b in
  let old_root = List.hd s.Structure.roots in
  let leaf = Cortex_ds.Node.make nb ~payload:3 [] in
  let top = Cortex_ds.Node.make nb ~payload:50 [ leaf; old_root ] in
  let grown = Structure.append s ~roots:[ top ] ~added:[| leaf; top |] in
  let ext =
    Linearizer.extend f
      { Linearizer.d_request = 0; d_roots = [ top ]; d_nodes = [| leaf; top |] }
  in
  Linearizer.check_forest ext;
  Alcotest.(check bool) "leaf-first graft equals cold run" true
    (forest_equal ext (Linearizer.run_forest [ grown ]));
  (* A DAG edge into the middle of the old structure makes the grown DFS
     visit old nodes in a different relative order.  [extend] runs the
     grown forest cold, so this graft is linearized like any other. *)
  let db = Cortex_ds.Node.builder () in
  let l1 = Cortex_ds.Node.make db ~payload:1 [] in
  let l2 = Cortex_ds.Node.make db ~payload:2 [] in
  let droot = Cortex_ds.Node.make db ~payload:9 [ l1; l2 ] in
  let dag = Structure.create ~kind:Structure.Dag ~max_children:2 [ droot ] in
  let df = Linearizer.run_forest [ dag ] in
  let nb = Cortex_ds.Node.builder_from 3 in
  let dtop = Cortex_ds.Node.make nb ~payload:9 [ l2; droot ] in
  let dgrown = Structure.append dag ~roots:[ dtop ] ~added:[| dtop |] in
  let dext =
    Linearizer.extend df
      { Linearizer.d_request = 0; d_roots = [ dtop ]; d_nodes = [| dtop |] }
  in
  Linearizer.check_forest dext;
  Alcotest.(check bool) "reordering DAG graft equals cold run" true
    (forest_equal dext (Linearizer.run_forest [ dgrown ]));
  (* Fanout beyond the model's bound (the forest was linearized with
     max_children = 2). *)
  let nb = Cortex_ds.Node.builder_from b in
  let l1 = Cortex_ds.Node.make nb ~payload:1 [] in
  let l2 = Cortex_ds.Node.make nb ~payload:2 [] in
  let wide = Cortex_ds.Node.make nb ~payload:50 [ old_root; l1; l2 ] in
  reject "fanout violation"
    { Linearizer.d_request = 0; d_roots = [ wide ]; d_nodes = [| l1; l2; wide |] }
    (function Linearizer.Fanout_exceeded _ -> true | _ -> false)

(* An extended forest is a first-class forest: it can be cached under
   the grown structures' shape key and rebound like a cold one. *)
let test_extend_then_rebind () =
  let rng = Rng.create 78 in
  let g = Gen.growth_start rng ~vocab:50 ~kind:Structure.Sequence () in
  let f = ref (Linearizer.run_forest [ Gen.growth_structure g ]) in
  for _ = 1 to 5 do
    let prev = Gen.growth_structure g in
    let grown = Gen.grow_one rng g in
    f := Linearizer.extend !f (delta_of ~prev ~grown)
  done;
  let grown = Gen.growth_structure g in
  Alcotest.(check string) "extended forest shares the cold shape key"
    (Linearizer.shape_key [ grown ])
    (Linearizer.shape_key
       [ (Array.get !f.Linearizer.spans 0).Linearizer.span_structure ]);
  (* Rebind the extended layout onto a fresh same-shape conversation. *)
  let rng2 = Rng.create 79 in
  let g2 = Gen.growth_start rng2 ~vocab:50 ~kind:Structure.Sequence () in
  for _ = 1 to 5 do
    ignore (Gen.grow_one rng2 g2)
  done;
  let fresh = Gen.growth_structure g2 in
  let rebound = Linearizer.rebind_forest !f [ fresh ] in
  Linearizer.check_forest rebound;
  let cold = Linearizer.run_forest [ fresh ] in
  Alcotest.(check bool) "rebound extended forest = cold run" true
    (forest_equal rebound cold)

(* ---------- growing layouts ---------- *)

(* A random growth step over [s]: one to four appended nodes, each over
   up to [max_children] children — current roots for trees and
   sequences (so every node keeps one parent), any earlier nodes for
   DAGs — with the roots left parentless as the new root list. *)
let random_step rng (s : Structure.t) =
  let mc = s.Structure.max_children in
  let bld = Node.builder_from (Structure.num_nodes s) in
  let roots = ref s.Structure.roots in
  let earlier = ref (Array.to_list s.Structure.nodes) in
  let added = ref [] in
  for _ = 1 to 1 + Rng.int rng 4 do
    let pool = match s.Structure.kind with Structure.Dag -> !earlier | _ -> !roots in
    let pool = Array.of_list pool in
    Rng.shuffle rng pool;
    let arity = Rng.int rng (1 + min mc (Array.length pool)) in
    let children = Array.to_list (Array.sub pool 0 arity) in
    let node = Node.make bld ~payload:(Rng.int rng 50) children in
    roots := node :: List.filter (fun r -> not (List.memq r children)) !roots;
    earlier := node :: !earlier;
    added := node :: !added
  done;
  Structure.append s ~roots:!roots ~added:(Array.of_list (List.rev !added))

let random_start rng kind =
  match kind with
  | Structure.Tree -> Gen.random_tree rng ~max_nodes:12 ~max_children:3
  | Structure.Dag -> Gen.random_dag rng ~max_nodes:12 ~max_children:3
  | Structure.Sequence -> Gen.sequence rng ~len:(1 + Rng.int rng 8) ()

let random_kind rng =
  [| Structure.Tree; Structure.Dag; Structure.Sequence |].(Rng.int rng 3)

(* A layout seeded as a cold serve (the whole first structure) or as a
   restore (a prefix of it, the rest one step), then grown by [steps]
   random steps: the layout, and each grown structure with its step,
   oldest first. *)
let grow_layout rng kind ~steps =
  let s0 = random_start rng kind in
  let g = Linearizer.empty_layout ~max_children:s0.Structure.max_children in
  let n0 = Structure.num_nodes s0 in
  let prefix = if Rng.int rng 2 = 0 then n0 else 1 + Rng.int rng n0 in
  Linearizer.reseed g s0 ~prefix;
  let grow s =
    match Linearizer.grow g s with
    | Some st -> st
    | None -> QCheck.Test.fail_report "grow refused a growth step"
  in
  let first = if prefix < n0 then [ (s0, grow s0) ] else [] in
  let rec go s k acc =
    if k = 0 then List.rev acc
    else
      let s' = random_step rng s in
      go s' (k - 1) ((s', grow s') :: acc)
  in
  (g, first @ go s0 steps [])

(* A step's compact view, row by row.  Rows [0, k) are its boundary:
   the distinct old rows its nodes read, each a childless copy of its
   layout row (payload and level); rows [k, k + d) are its nodes, each
   its layout row with the children remapped into the view.  The
   batches tile exactly the node rows, leaf run first, in strictly
   ascending level order, and every child sits at a lower level than
   its parent: what [Linearizer.pack] relies on without checking it. *)
let check_step g (st : Linearizer.step) =
  let v = st.Linearizer.step_view in
  let base = st.Linearizer.step_base in
  let boundary = st.Linearizer.step_boundary in
  let k = Array.length boundary and d = Array.length st.Linearizer.step_nodes in
  if v.Linearizer.num_nodes <> k + d || v.Linearizer.leaf_begin <> k then
    QCheck.Test.fail_report "view is not its boundary plus its nodes";
  (* The boundary is exactly the distinct old rows the nodes read. *)
  let read = Hashtbl.create 16 in
  Array.iteri
    (fun i (nd : Node.t) ->
      if Linearizer.layout_id g nd.Node.id <> base + i then
        QCheck.Test.fail_reportf "step node %d not at its push-order layout id" nd.Node.id;
      Array.iter
        (fun (c : Node.t) ->
          if c.Node.id < base then Hashtbl.replace read (Linearizer.layout_id g c.Node.id) ())
        nd.Node.children)
    st.Linearizer.step_nodes;
  let slot = Hashtbl.create 16 in
  Array.iteri
    (fun r lid ->
      if lid >= base || Hashtbl.mem slot lid || not (Hashtbl.mem read lid) then
        QCheck.Test.fail_reportf "boundary row %d (layout id %d) is not a distinct old child" r
          lid;
      Hashtbl.replace slot lid r)
    boundary;
  if Hashtbl.length slot <> Hashtbl.length read then
    QCheck.Test.fail_report "the boundary misses an old child";
  let vid lid = if lid >= base then k + lid - base else Hashtbl.find slot lid in
  for r = 0 to k + d - 1 do
    let lid = if r < k then boundary.(r) else base + r - k in
    let row = Linearizer.layout_row g lid in
    let arity = if r < k then 0 else Array.length row.Linearizer.row_children in
    if
      v.Linearizer.payload.(r) <> row.Linearizer.row_payload
      || v.Linearizer.level_of.(r) <> row.Linearizer.row_level
      || v.Linearizer.num_children.(r) <> arity
    then QCheck.Test.fail_reportf "view row %d differs from layout id %d" r lid;
    for j = 0 to v.Linearizer.max_children - 1 do
      let want = if j < arity then vid row.Linearizer.row_children.(j) else -1 in
      let c = v.Linearizer.child.(j).(r) in
      if c <> want then QCheck.Test.fail_reportf "child %d of view row %d not remapped" j r;
      if c >= 0 && v.Linearizer.level_of.(c) >= v.Linearizer.level_of.(r) then
        QCheck.Test.fail_reportf "child %d of %d not at a lower level" c r
    done
  done;
  let cursor = ref k in
  Array.iteri
    (fun i (b, len) ->
      if b <> !cursor || (i > 0 && len <= 0) then
        QCheck.Test.fail_report "step batches do not tile the node rows";
      let level = if i = 0 then 0 else v.Linearizer.level_of.(b) in
      if i > 1 && level <= v.Linearizer.level_of.(fst v.Linearizer.batches.(i - 1)) then
        QCheck.Test.fail_report "step batch levels not ascending";
      for l = b to b + len - 1 do
        if v.Linearizer.level_of.(l) <> level then
          QCheck.Test.fail_report "a step batch mixes levels"
      done;
      cursor := b + len)
    v.Linearizer.batches;
  if !cursor <> k + d then QCheck.Test.fail_report "step batches stop short of the view"

(* What a session relies on: its layout's own tables, read at layout
   ids, are a cold [run_forest] of the final structure node for node. *)
let check_layout_is_cold g ~mc (final : Structure.t) =
  let cold = Linearizer.run_forest ~max_children:mc [ final ] in
  let ids = cold.Linearizer.spans.(0).Linearizer.span_ids in
  let c = cold.Linearizer.lin in
  Array.iter
    (fun (nd : Node.t) ->
      let row = Linearizer.layout_row g (Linearizer.layout_id g nd.Node.id)
      and k = ids.(nd.Node.id) in
      let arity = Array.length nd.Node.children in
      let same =
        row.Linearizer.row_payload = c.Linearizer.payload.(k)
        && Array.length row.Linearizer.row_children = arity
        && c.Linearizer.num_children.(k) = arity
        && row.Linearizer.row_level = c.Linearizer.level_of.(k)
      in
      if not same then QCheck.Test.fail_reportf "node %d differs from the cold run" nd.Node.id;
      Array.iteri
        (fun j (ch : Node.t) ->
          if
            row.Linearizer.row_children.(j) <> Linearizer.layout_id g ch.Node.id
            || c.Linearizer.child.(j).(k) <> ids.(ch.Node.id)
          then QCheck.Test.fail_reportf "child %d of node %d differs" j nd.Node.id)
        nd.Node.children;
      for j = arity to mc - 1 do
        if c.Linearizer.child.(j).(k) <> -1 then
          QCheck.Test.fail_reportf "cold child %d of node %d" j nd.Node.id
      done)
    final.Structure.nodes

let prop_growing_layout =
  QCheck.Test.make ~name:"growing layout steps = cold run" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 901) in
      let g, steps = grow_layout rng (random_kind rng) ~steps:(1 + Rng.int rng 6) in
      List.iter (fun (_, st) -> check_step g st) steps;
      let final, last =
        match List.rev steps with
        | (s, st) :: _ -> (s, st)
        | [] -> QCheck.Test.fail_report "no step"
      in
      (* [view_id] maps the latest step's rows to their view rows. *)
      let k = Array.length last.Linearizer.step_boundary in
      Array.iteri
        (fun r lid ->
          if Linearizer.view_id g lid <> r then
            QCheck.Test.fail_reportf "view_id of boundary row %d" r)
        last.Linearizer.step_boundary;
      Array.iteri
        (fun i (nd : Node.t) ->
          if Linearizer.view_id g (Linearizer.layout_id g nd.Node.id) <> k + i then
            QCheck.Test.fail_reportf "view_id of step node %d" nd.Node.id)
        last.Linearizer.step_nodes;
      check_layout_is_cold g ~mc:final.Structure.max_children final;
      (* Nothing more to lay out: the same structure is not growth. *)
      Linearizer.grow g final = None)

(* Packs of 2-4 steps of one kind, each its layout's latest: every
   member view row maps through [pack_id] to a distinct packed row with
   its payload, arity, level and remapped children, boundary rows below
   the base and step rows above it, and the packed batches tile the
   step rows as contiguous, strictly ascending level runs. *)
let prop_pack =
  QCheck.Test.make ~name:"pack = members' rows, contiguous level runs" ~count:150
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1901) in
      let kind = random_kind rng in
      let members =
        List.init (2 + Rng.int rng 3) (fun _ ->
            let _, steps = grow_layout rng kind ~steps:(1 + Rng.int rng 3) in
            snd (List.nth steps (List.length steps - 1)))
      in
      let p = Linearizer.pack (List.hd members) (List.tl members) in
      let pv = p.Linearizer.pk_view in
      let seen = Array.make pv.Linearizer.num_nodes false in
      List.iteri
        (fun i (st : Linearizer.step) ->
          let v = st.Linearizer.step_view in
          let k = Array.length st.Linearizer.step_boundary in
          let row r = Linearizer.pack_id p ~member:i r in
          for r = 0 to v.Linearizer.num_nodes - 1 do
            let y = row r in
            if seen.(y) then QCheck.Test.fail_reportf "packed row %d claimed twice" y;
            seen.(y) <- true;
            if
              pv.Linearizer.payload.(y) <> v.Linearizer.payload.(r)
              || pv.Linearizer.num_children.(y) <> v.Linearizer.num_children.(r)
              || pv.Linearizer.level_of.(y) <> v.Linearizer.level_of.(r)
            then QCheck.Test.fail_reportf "member %d row %d differs in the pack" i r;
            for j = 0 to v.Linearizer.max_children - 1 do
              let c = v.Linearizer.child.(j).(r) in
              let want = if c < 0 then -1 else row c in
              if pv.Linearizer.child.(j).(y) <> want then
                QCheck.Test.fail_reportf "member %d row %d child %d not remapped" i r j
            done;
            if (r >= k) <> (y >= p.Linearizer.pk_base) then
              QCheck.Test.fail_reportf "member %d row %d on the wrong side of the base" i r
          done)
        members;
      if Array.exists not seen then QCheck.Test.fail_report "a packed row has no member";
      let cursor = ref p.Linearizer.pk_base in
      Array.iteri
        (fun k (b, len) ->
          if b <> !cursor || (k > 0 && len <= 0) then
            QCheck.Test.fail_report "packed batches are not contiguous";
          let level = if k = 0 then 0 else pv.Linearizer.level_of.(b) in
          if k > 1 && level <= pv.Linearizer.level_of.(fst pv.Linearizer.batches.(k - 1))
          then QCheck.Test.fail_report "packed batch levels not ascending";
          for y = b to b + len - 1 do
            if pv.Linearizer.level_of.(y) <> level then
              QCheck.Test.fail_report "a packed batch mixes levels"
          done;
          cursor := b + len)
        pv.Linearizer.batches;
      !cursor = pv.Linearizer.num_nodes && p.Linearizer.pk_members = List.length members)

(* ---------- empty structures ---------- *)

(* [Structure.create] refuses rootless structures, so a node-free
   structure is unconstructible through the public API; forge one to
   pin down the linearizer's own guard (it would otherwise emit a
   phantom (0,0) batch — one kernel launch over nothing). *)
let forged_empty_structure () : Structure.t =
  let module Forged = struct
    type forged = {
      kind : Structure.kind;
      max_children : int;
      roots : Cortex_ds.Node.t list;
      nodes : Cortex_ds.Node.t array;
    }
  end in
  Obj.magic
    { Forged.kind = Structure.Tree; max_children = 2; roots = []; nodes = [||] }

let test_rejects_empty_structure () =
  let empty = forged_empty_structure () in
  (try
     ignore (Linearizer.run empty);
     Alcotest.fail "empty structure accepted by run"
   with Linearizer.Rejected Linearizer.Empty_structure -> ());
  let rng = Rng.create 15 in
  let tree = Gen.sst_tree rng ~vocab:10 () in
  (try
     ignore (Linearizer.run_forest [ tree; empty ]);
     Alcotest.fail "empty structure accepted by run_forest"
   with Linearizer.Rejected Linearizer.Empty_structure -> ());
  Alcotest.(check string) "rejection prints" "empty structure"
    (Linearizer.rejection_to_string Linearizer.Empty_structure)

(* ---------- unrolled grouping ---------- *)

let prop_unrolling name gen =
  QCheck.Test.make ~name ~count:300 QCheck.small_int (fun seed ->
      let s = gen (Rng.create seed) in
      let lin = Linearizer.run s in
      let u = Unrolling.compute lin in
      Unrolling.check lin u;
      true)

let test_unrolling_sequence_pairs () =
  let rng = Rng.create 13 in
  let lin = Linearizer.run (Gen.sequence rng ~len:9 ()) in
  let u = Unrolling.compute lin in
  Unrolling.check lin u;
  (* A chain of 8 internal nodes groups into pairs: 4 group levels, two
     phases each (the head-only deepest group has no child phase). *)
  let internal = Array.fold_left (fun a b -> a + Array.length b) 0 u.Unrolling.batches in
  Alcotest.(check int) "all internal nodes covered" 8 internal;
  Alcotest.(check bool) "more batches than trivial" true (Array.length u.Unrolling.batches >= 4)

let test_unrolling_rejects_dags () =
  let lin = Linearizer.run (Gen.grid_dag ~rows:3 ~cols:3) in
  (try
     ignore (Unrolling.compute lin);
     Alcotest.fail "unrolling accepted a DAG"
   with Failure _ -> ())

let test_unrolling_phase_structure () =
  let rng = Rng.create 14 in
  let lin = Linearizer.run (Gen.perfect_tree rng ~height:5 ()) in
  let u = Unrolling.compute lin in
  Unrolling.check lin u;
  (* phases alternate child-then-parent within each level *)
  Array.iteri
    (fun i role ->
      match role with
      | Unrolling.Parent_phase -> ()
      | Unrolling.Child_phase ->
        if i + 1 < Array.length u.Unrolling.roles then
          Alcotest.(check bool) "child phase precedes a parent phase" true
            (u.Unrolling.roles.(i + 1) = Unrolling.Parent_phase))
    u.Unrolling.roles

let () =
  Alcotest.run "linearizer"
    [
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest (prop_check "random trees" random_tree);
          QCheck_alcotest.to_alcotest (prop_check "random DAGs" random_dag);
          QCheck_alcotest.to_alcotest (prop_check "sequences" random_seq);
          QCheck_alcotest.to_alcotest (prop_check "forests (batches)" random_forest);
          QCheck_alcotest.to_alcotest
            (prop_check "SST batches" (fun rng -> Gen.sst_batch rng ~batch:3 ()));
        ] );
      ( "structure",
        [
          Alcotest.test_case "batches-are-levels" `Quick test_batches_are_levels;
          Alcotest.test_case "leaf-check" `Quick test_leaf_check_is_single_comparison;
          Alcotest.test_case "grid-batches" `Quick test_grid_dag_batches;
          Alcotest.test_case "memory" `Quick test_memory_accounting;
          QCheck_alcotest.to_alcotest prop_priced_proportional;
          Alcotest.test_case "checker-rejects-corruption" `Quick test_check_catches_corruption;
        ] );
      ( "shape-cache",
        [
          Alcotest.test_case "shape-key" `Quick test_shape_key_is_shape_equality;
          Alcotest.test_case "rebind" `Quick test_rebind_matches_cold_run;
          Alcotest.test_case "rebind-mismatch" `Quick test_rebind_rejects_shape_mismatch;
          Alcotest.test_case "empty-structure" `Quick test_rejects_empty_structure;
        ] );
      ( "delta",
        [
          QCheck_alcotest.to_alcotest prop_extend_equals_cold;
          QCheck_alcotest.to_alcotest prop_extend_multi_request;
          QCheck_alcotest.to_alcotest prop_memory_bytes_monotone;
          Alcotest.test_case "rejects-bad-deltas" `Quick test_extend_rejects_bad_deltas;
          Alcotest.test_case "extend-then-rebind" `Quick test_extend_then_rebind;
        ] );
      ( "growing",
        [
          QCheck_alcotest.to_alcotest prop_growing_layout;
          QCheck_alcotest.to_alcotest prop_pack;
        ] );
      ( "unrolling",
        [
          QCheck_alcotest.to_alcotest (prop_unrolling "random trees" random_tree);
          QCheck_alcotest.to_alcotest (prop_unrolling "forests" random_forest);
          QCheck_alcotest.to_alcotest (prop_unrolling "sequences" random_seq);
          Alcotest.test_case "sequence-pairs" `Quick test_unrolling_sequence_pairs;
          Alcotest.test_case "rejects-dags" `Quick test_unrolling_rejects_dags;
          Alcotest.test_case "phase-structure" `Quick test_unrolling_phase_structure;
        ] );
    ]
