module Structure = Cortex_ds.Structure
module Node = Cortex_ds.Node

type t = {
  structure : Structure.t;
  num_nodes : int;
  num_leaves : int;
  max_children : int;
  new_of_old : int array;
  old_of_new : int array;
  leaf_begin : int;
  child : int array array;
  num_children : int array;
  payload : int array;
  level_of : int array;
  batches : (int * int) array;
  postorder : int array;
}

type rejection =
  | Fanout_exceeded of { node : int; arity : int; max_children : int }
  | Mixed_kinds of Structure.kind * Structure.kind
  | Empty_forest
  | Empty_structure
  | Empty_delta
  | Bad_delta of string
  | Pack_incompatible of { member : int; reason : string }

exception Rejected of rejection

let kind_name = function
  | Structure.Sequence -> "sequence"
  | Structure.Tree -> "tree"
  | Structure.Dag -> "dag"

let rejection_to_string = function
  | Fanout_exceeded { node; arity; max_children } ->
    Printf.sprintf "node %d has %d children but the model admits at most %d" node
      arity max_children
  | Mixed_kinds (a, b) ->
    Printf.sprintf "forest mixes %s and %s structures" (kind_name a) (kind_name b)
  | Empty_forest -> "empty forest"
  | Empty_structure -> "empty structure"
  | Empty_delta -> "empty delta"
  | Bad_delta msg -> "bad delta: " ^ msg
  | Pack_incompatible { member; reason } ->
    Printf.sprintf "pack member %d incompatible: %s" member reason

let run ?max_children structure =
  let n = Structure.num_nodes structure in
  (* A structure with no nodes would fall through the numbering and
     emit a phantom (0, 0) batch — one launch over nothing. *)
  if n = 0 then raise (Rejected Empty_structure);
  let max_children =
    Option.value max_children ~default:structure.Structure.max_children
  in
  Array.iter
    (fun (node : Node.t) ->
      let arity = Array.length node.children in
      if arity > max_children then
        raise (Rejected (Fanout_exceeded { node = node.id; arity; max_children })))
    structure.Structure.nodes;
  let old_level = Structure.level structure in
  let height = Array.fold_left max 0 old_level in
  (* Count nodes per level, then hand out id ranges: the highest level
     (roots) gets the lowest ids and leaves (level 0) the highest, so
     children always outnumber their parents and each level is
     contiguous. *)
  let width = Array.make (height + 1) 0 in
  Array.iter (fun l -> width.(l) <- width.(l) + 1) old_level;
  let first_id = Array.make (height + 1) 0 in
  let running = ref 0 in
  for l = height downto 0 do
    first_id.(l) <- !running;
    running := !running + width.(l)
  done;
  let cursor = Array.copy first_id in
  let new_of_old = Array.make n (-1) in
  Array.iteri
    (fun old_id l ->
      new_of_old.(old_id) <- cursor.(l);
      cursor.(l) <- cursor.(l) + 1)
    old_level;
  let old_of_new = Array.make n (-1) in
  Array.iteri (fun old_id new_id -> old_of_new.(new_id) <- old_id) new_of_old;
  let child = Array.init max_children (fun _ -> Array.make n (-1)) in
  let num_children = Array.make n 0 in
  let payload = Array.make n (-1) in
  let level_of = Array.make n (-1) in
  Array.iter
    (fun (node : Node.t) ->
      let id = new_of_old.(node.id) in
      num_children.(id) <- Array.length node.children;
      payload.(id) <- node.payload;
      level_of.(id) <- old_level.(node.id);
      Array.iteri (fun k (c : Node.t) -> child.(k).(id) <- new_of_old.(c.id)) node.children)
    structure.Structure.nodes;
  (* Execution order is leaves first: batch index = level, so index 0 is
     the leaf batch and the last batch holds the roots. *)
  let batches = Array.init (height + 1) (fun l -> (first_id.(l), width.(l))) in
  let leaf_begin = first_id.(0) in
  (* Children-first DFS over the original traversal; in a DAG each node
     is visited once (first visit), matching the inspector pseudocode. *)
  let postorder = Array.make n (-1) in
  let filled = ref 0 in
  let seen = Array.make n false in
  let rec visit (node : Node.t) =
    if not seen.(node.id) then begin
      seen.(node.id) <- true;
      Array.iter visit node.children;
      postorder.(!filled) <- new_of_old.(node.id);
      incr filled
    end
  in
  List.iter visit structure.Structure.roots;
  assert (!filled = n);
  {
    structure;
    num_nodes = n;
    num_leaves = width.(0);
    max_children;
    new_of_old;
    old_of_new;
    leaf_begin;
    child;
    num_children;
    payload;
    level_of;
    batches;
    postorder;
  }

let leaf_batch t = t.batches.(0)

let internal_batches t = Array.sub t.batches 1 (Array.length t.batches - 1)

let is_leaf t n = n >= t.leaf_begin

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let n = t.num_nodes in
  if n <> Structure.num_nodes t.structure then fail "node count mismatch";
  (* Numbering is a permutation. *)
  let seen = Array.make n false in
  Array.iter
    (fun id ->
      if id < 0 || id >= n then fail "numbering out of range";
      if seen.(id) then fail "numbering not injective";
      seen.(id) <- true)
    t.new_of_old;
  Array.iteri
    (fun new_id old_id ->
      if t.new_of_old.(old_id) <> new_id then fail "old_of_new is not the inverse")
    t.old_of_new;
  (* Children numbered higher than parents; payload and arity correct. *)
  Array.iter
    (fun (node : Node.t) ->
      let id = t.new_of_old.(node.id) in
      if t.num_children.(id) <> Array.length node.children then fail "arity mismatch";
      if t.payload.(id) <> node.payload then fail "payload mismatch";
      Array.iteri
        (fun k (c : Node.t) ->
          let cid = t.new_of_old.(c.id) in
          if t.child.(k).(id) <> cid then fail "child array mismatch";
          if cid <= id then fail "child %d not numbered higher than parent %d" cid id)
        node.children;
      for k = Array.length node.children to t.max_children - 1 do
        if t.child.(k).(id) <> -1 then fail "child array has ghost entry"
      done;
      (* Leaf check agrees with the structure. *)
      if is_leaf t id <> Node.is_leaf node then fail "leaf check disagrees for node %d" id)
    t.structure.Structure.nodes;
  (* Batches are contiguous, cover all nodes, and respect dependences:
     no node in a batch has a child in the same or a later batch. *)
  let covered = Array.make n false in
  Array.iteri
    (fun b (first, len) ->
      for id = first to first + len - 1 do
        if covered.(id) then fail "batches overlap at %d" id;
        covered.(id) <- true;
        if t.level_of.(id) <> b then fail "node %d in wrong batch" id;
        for k = 0 to t.max_children - 1 do
          let c = t.child.(k).(id) in
          if c >= 0 && t.level_of.(c) >= b then
            fail "dependence violated: child %d of %d in batch %d >= %d" c id t.level_of.(c) b
        done
      done)
    t.batches;
  Array.iteri (fun id c -> if not c then fail "node %d in no batch" id) covered;
  (* Postorder is a valid children-first order. *)
  let pos = Array.make n (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) t.postorder;
  Array.iteri
    (fun id _ ->
      for k = 0 to t.max_children - 1 do
        let c = t.child.(k).(id) in
        if c >= 0 && pos.(c) >= pos.(id) then fail "postorder violates dependences"
      done)
    pos

(* ---------- forest linearization (cross-request batching) ---------- *)

type span = {
  span_structure : Structure.t;
  span_ids : int array;
  span_levels : (int * int) array;
}

type forest = { lin : t; spans : span array }

let run_forest ?max_children structures =
  (match structures with
   | [] -> raise (Rejected Empty_forest)
   | first :: rest ->
     List.iter
       (fun (s : Structure.t) ->
         if Structure.num_nodes s = 0 then raise (Rejected Empty_structure);
         if s.Structure.kind <> first.Structure.kind then
           raise (Rejected (Mixed_kinds (first.Structure.kind, s.Structure.kind))))
       (first :: rest));
  (* Validate each request's fanout up front so a bad request is
     reported against its own node ids, not the merged renumbering. *)
  (match max_children with
   | None -> ()
   | Some mc ->
     List.iter
       (fun (s : Structure.t) ->
         Array.iter
           (fun (node : Node.t) ->
             let arity = Array.length node.children in
             if arity > mc then
               raise
                 (Rejected (Fanout_exceeded { node = node.id; arity; max_children = mc })))
           s.Structure.nodes)
       structures);
  let merged, maps = Structure.merge_mapped structures in
  let lin = run ?max_children merged in
  let span_of s map =
    let ids = Array.map (fun merged_id -> lin.new_of_old.(merged_id)) map in
    let height = Array.fold_left (fun m id -> max m lin.level_of.(id)) 0 ids in
    let lo = Array.make (height + 1) max_int in
    let hi = Array.make (height + 1) (-1) in
    let count = Array.make (height + 1) 0 in
    Array.iter
      (fun id ->
        let l = lin.level_of.(id) in
        lo.(l) <- min lo.(l) id;
        hi.(l) <- max hi.(l) id;
        count.(l) <- count.(l) + 1)
      ids;
    let span_levels =
      Array.init (height + 1) (fun l ->
          if hi.(l) - lo.(l) + 1 <> count.(l) then
            failwith "Linearizer.run_forest: request batch not contiguous";
          (lo.(l), count.(l)))
    in
    { span_structure = s; span_ids = ids; span_levels }
  in
  let spans =
    Array.of_list (List.map2 span_of structures (Array.to_list maps))
  in
  { lin; spans }

(* The canonical shape encoding: everything the numbering depends on —
   the fanout bound, structure kinds, node counts, root ids and per-node
   children ids — and nothing it doesn't (payloads).  Two forests
   produce equal keys iff [run_forest] would produce identical
   numberings for them, so a shape-keyed cache needs no collision
   handling: string equality on the key is shape equality.

   [max_children] must be in the key: it is the child-table width and
   the fanout-validation bound, so equal shapes linearized under
   different bounds are *different* layouts.  The default mirrors
   [run_forest]'s (the maximum declared bound across the requests). *)
let shape_key ?max_children structures =
  let b = Buffer.create 256 in
  let add_int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ','
  in
  let mc =
    match max_children with
    | Some mc -> mc
    | None ->
      List.fold_left (fun m (s : Structure.t) -> max m s.Structure.max_children) 1
        structures
  in
  Buffer.add_char b 'm';
  add_int mc;
  Buffer.add_char b '!';
  List.iter
    (fun (s : Structure.t) ->
      Buffer.add_char b
        (match s.Structure.kind with
         | Structure.Sequence -> 's'
         | Structure.Tree -> 't'
         | Structure.Dag -> 'd');
      add_int (Structure.num_nodes s);
      List.iter (fun (r : Node.t) -> add_int r.Node.id) s.Structure.roots;
      Buffer.add_char b '|';
      Array.iter
        (fun (node : Node.t) ->
          Array.iter (fun (c : Node.t) -> add_int c.Node.id) node.Node.children;
          Buffer.add_char b ';')
        s.Structure.nodes;
      Buffer.add_char b '#')
    structures;
  Buffer.contents b

(* Reuse a cached numbering for a forest of identical shape: everything
   but the payload table is a pure function of the shape, so a cache hit
   re-binds payloads through the span maps and shares the rest.  The
   [structure] field of the result still names the shape-representative
   merged structure of the original cold run (its payloads are stale);
   nothing downstream reads payloads from it — the executor goes through
   the [payload] array rebound here. *)
let rebind_forest f structures =
  let spans = f.spans in
  if List.length structures <> Array.length spans then
    invalid_arg "Linearizer.rebind_forest: request count mismatch";
  (* Re-merge the new requests: [Structure.merge_mapped] assigns
     creation ids by topology alone, so an equal shape reproduces the
     cached merged structure exactly (modulo payloads) and the cached
     [new_of_old]/[old_of_new] tables remain valid against it.  This
     keeps every [check]/[check_forest] invariant true of a rebound
     forest, at O(nodes) — the expensive part of a cold run (numbering,
     batching, span building) is still skipped. *)
  let merged, _maps = Structure.merge_mapped structures in
  if Structure.num_nodes merged <> f.lin.num_nodes then
    invalid_arg "Linearizer.rebind_forest: shape mismatch";
  let payload = Array.copy f.lin.payload in
  let spans =
    Array.of_list
      (List.mapi
         (fun k (s : Structure.t) ->
           let span = spans.(k) in
           if Structure.num_nodes s <> Array.length span.span_ids then
             invalid_arg "Linearizer.rebind_forest: shape mismatch";
           Array.iter
             (fun (node : Node.t) ->
               payload.(span.span_ids.(node.Node.id)) <- node.Node.payload)
             s.Structure.nodes;
           { span with span_structure = s })
         structures)
  in
  { lin = { f.lin with structure = merged; payload }; spans }

let check_forest f =
  let fail fmt = Printf.ksprintf failwith fmt in
  check f.lin;
  (* The spans partition the forest's id space... *)
  let owner = Array.make f.lin.num_nodes (-1) in
  Array.iteri
    (fun k span ->
      Array.iter
        (fun id ->
          if id < 0 || id >= f.lin.num_nodes then fail "span id out of range";
          if owner.(id) >= 0 then fail "node %d claimed by two requests" id;
          owner.(id) <- k)
        span.span_ids)
    f.spans;
  Array.iteri (fun id k -> if k < 0 then fail "node %d in no request" id) owner;
  (* ... and each span is an isomorphic image of its request: payloads,
     arities and edges all map through span_ids. *)
  Array.iter
    (fun span ->
      Array.iter
        (fun (node : Node.t) ->
          let id = span.span_ids.(node.id) in
          if f.lin.payload.(id) <> node.payload then fail "span payload mismatch";
          if f.lin.num_children.(id) <> Array.length node.children then
            fail "span arity mismatch";
          Array.iteri
            (fun k (c : Node.t) ->
              if f.lin.child.(k).(id) <> span.span_ids.(c.id) then
                fail "span edge mismatch at node %d" node.id)
            node.children;
          let l = f.lin.level_of.(id) in
          let first, len = span.span_levels.(l) in
          if id < first || id >= first + len then
            fail "node %d outside its request's level range" id)
        span.span_structure.Structure.nodes)
    f.spans

(* ---------- delta linearization (incremental growth) ---------- *)

type delta = {
  d_request : int;
  d_roots : Node.t list;
  d_nodes : Node.t array;
}

(* Grow request [d_request] of an already-linearized forest without a
   cold [run_forest] of the whole thing.  The numbering scheme forces a
   global renumbering in the worst case — level blocks are laid out in
   descending level order, so grafting a new root shifts every id — but
   all the numbering *decisions* are made per delta node and per level:
   untouched levels keep their cached internal order and only pick up a
   block offset, and the rebuild is a handful of tight O(n) mapping
   passes instead of a cold run's graph merge, level DFS and span
   construction.  The result is *identical* (array for array) to
   [run_forest] of the grown structures, so it shares their shape key,
   satisfies [check_forest], and can be cached and rebound like any
   cold forest. *)
let extend f (dl : delta) =
  let lin = f.lin in
  let spans = f.spans in
  let r = Array.length spans in
  let k = dl.d_request in
  if k < 0 || k >= r then
    raise (Rejected (Bad_delta (Printf.sprintf "no request %d in a %d-request forest" k r)));
  let d = Array.length dl.d_nodes in
  if d = 0 then raise (Rejected Empty_delta);
  let span = spans.(k) in
  let base = span.span_structure in
  let bsize = Structure.num_nodes base in
  let n = lin.num_nodes in
  let n' = n + d in
  let mc = lin.max_children in
  (* The model's fanout bound applies to the new nodes too. *)
  Array.iter
    (fun (node : Node.t) ->
      let arity = Array.length node.children in
      if arity > mc then
        raise (Rejected (Fanout_exceeded { node = node.id; arity; max_children = mc })))
    dl.d_nodes;
  let grown =
    try Structure.append base ~roots:dl.d_roots ~added:dl.d_nodes
    with Structure.Invalid msg -> raise (Rejected (Bad_delta msg))
  in
  (* Request-local creation order of the grown structure: the order
     [Structure.merge_mapped] would copy it in (children-first DFS from
     the roots).  The cold numbering hands out per-level ids in creation
     order, so this ranking decides where each delta node lands in its
     level slice. *)
  let rank = Array.make (bsize + d) (-1) in
  let next = ref 0 in
  let rec visit (node : Node.t) =
    if rank.(node.id) = -1 then begin
      rank.(node.id) <- -2;
      Array.iter visit node.children;
      rank.(node.id) <- !next;
      incr next
    end
  in
  List.iter visit grown.Structure.roots;
  let order = Array.make (bsize + d) (-1) in
  Array.iteri (fun local rk -> order.(rk) <- local) rank;
  (* Merged creation-id block of request [k], and each old node's rank
     within it under the *base* roots. *)
  let off_k = ref 0 in
  for j = 0 to k - 1 do
    off_k := !off_k + Array.length spans.(j).span_ids
  done;
  let off_k = !off_k in
  let base_rank local = lin.old_of_new.(span.span_ids.(local)) - off_k in
  (* The cached numbering is only reusable if the delta preserves the
     old nodes' relative creation order (it appends; it does not
     reshuffle).  [tail_append] additionally means every delta node
     ranks after every old node — the only case a grow-by-one session
     produces, and the one that keeps delta batches contiguous. *)
  let tail_append = ref true in
  let prev = ref (-1) in
  Array.iter
    (fun local ->
      if local < bsize then begin
        let br = base_rank local in
        if br < !prev then
          raise (Rejected (Bad_delta "delta reorders existing nodes"));
        prev := br;
        if rank.(local) <> br then tail_append := false
      end)
    order;
  let tail_append = !tail_append in
  (* Levels of the delta nodes (children have smaller ids, so new
     children are already computed when their parent is). *)
  let new_level = Array.make d 0 in
  Array.iteri
    (fun i (node : Node.t) ->
      let lv =
        Array.fold_left
          (fun m (c : Node.t) ->
            let cl =
              if c.id < bsize then lin.level_of.(span.span_ids.(c.id))
              else new_level.(c.id - bsize)
            in
            max m cl)
          (-1) node.children
      in
      new_level.(i) <- lv + 1)
    dl.d_nodes;
  let old_height = Array.length lin.batches - 1 in
  let height' = Array.fold_left max old_height new_level in
  let ins = Array.make (height' + 1) 0 in
  Array.iter (fun lv -> ins.(lv) <- ins.(lv) + 1) new_level;
  let old_width l = if l <= old_height then snd lin.batches.(l) else 0 in
  let old_first l = fst lin.batches.(l) in
  let width' = Array.init (height' + 1) (fun l -> old_width l + ins.(l)) in
  let first' = Array.make (height' + 1) 0 in
  let running = ref 0 in
  for l = height' downto 0 do
    first'.(l) <- !running;
    running := !running + width'.(l)
  done;
  (* Where request [k]'s slice starts within each level, relative to the
     level's first id: unchanged where the request already has nodes;
     the sum of earlier requests' widths where it does not (requests
     occupy level slices in request order). *)
  let span_height = Array.length span.span_levels - 1 in
  let old_count l = if l <= span_height then snd span.span_levels.(l) else 0 in
  let rel_start l =
    if old_count l > 0 then fst span.span_levels.(l) - old_first l
    else begin
      let acc = ref 0 in
      for j = 0 to k - 1 do
        let sl = spans.(j).span_levels in
        if l < Array.length sl then acc := !acc + snd sl.(l)
      done;
      !acc
    end
  in
  (* Slice position of every request-[k] node (old and new) in its
     level, by grown creation rank — old relative order is preserved,
     delta nodes interleave where their rank puts them. *)
  let slice_pos = Array.make (bsize + d) 0 in
  let counters = Array.make (height' + 1) 0 in
  Array.iter
    (fun local ->
      let lv =
        if local < bsize then lin.level_of.(span.span_ids.(local))
        else new_level.(local - bsize)
      in
      slice_pos.(local) <- counters.(lv);
      counters.(lv) <- counters.(lv) + 1)
    order;
  (* New forest ids: [fmap] for survivors, [new_fid] for delta nodes. *)
  let fmap = Array.make n (-1) in
  Array.iteri
    (fun j sp ->
      if j <> k then
        Array.iter
          (fun x ->
            let l = lin.level_of.(x) in
            fmap.(x) <- x + (first'.(l) - old_first l) + (if j > k then ins.(l) else 0))
          sp.span_ids)
    spans;
  for local = 0 to bsize - 1 do
    let x = span.span_ids.(local) in
    let l = lin.level_of.(x) in
    fmap.(x) <- first'.(l) + rel_start l + slice_pos.(local)
  done;
  let new_fid =
    Array.init d (fun i ->
        let l = new_level.(i) in
        first'.(l) + rel_start l + slice_pos.(bsize + i))
  in
  (* Rebuild the tables by mapping passes. *)
  let child' = Array.init mc (fun _ -> Array.make n' (-1)) in
  let num_children' = Array.make n' 0 in
  let payload' = Array.make n' (-1) in
  let level_of' = Array.make n' (-1) in
  for x = 0 to n - 1 do
    let y = fmap.(x) in
    num_children'.(y) <- lin.num_children.(x);
    payload'.(y) <- lin.payload.(x);
    level_of'.(y) <- lin.level_of.(x);
    for c = 0 to mc - 1 do
      let ch = lin.child.(c).(x) in
      if ch >= 0 then child'.(c).(y) <- fmap.(ch)
    done
  done;
  let local_fid local =
    if local < bsize then fmap.(span.span_ids.(local)) else new_fid.(local - bsize)
  in
  Array.iteri
    (fun i (node : Node.t) ->
      let y = new_fid.(i) in
      num_children'.(y) <- Array.length node.children;
      payload'.(y) <- node.payload;
      level_of'.(y) <- new_level.(i);
      Array.iteri (fun c (ch : Node.t) -> child'.(c).(y) <- local_fid ch.id) node.children)
    dl.d_nodes;
  (* The grown merged structure.  When the grown request is last and the
     delta is a pure tail append, graft copies of the delta nodes onto
     the cached merged structure directly; otherwise fall back to a
     re-merge (creation ids come out the same either way). *)
  let structure' =
    if k = r - 1 && tail_append then begin
      let bld = Node.builder_from n in
      let copies = Array.make d None in
      let merged_of_local local =
        if local < bsize then lin.structure.Structure.nodes.(off_k + base_rank local)
        else
          match copies.(local - bsize) with
          | Some node -> node
          | None -> assert false
      in
      for rk = bsize to bsize + d - 1 do
        let local = order.(rk) in
        let node = dl.d_nodes.(local - bsize) in
        let children =
          Array.to_list (Array.map (fun (c : Node.t) -> merged_of_local c.id) node.children)
        in
        copies.(local - bsize) <- Some (Node.make bld ~payload:node.payload children)
      done;
      let added =
        Array.map (function Some node -> node | None -> assert false) copies
      in
      (* Re-sort into creation-id order (copies were made in rank order). *)
      Array.sort (fun (a : Node.t) (b : Node.t) -> compare a.id b.id) added;
      let prefix_roots = ref [] in
      let rest = ref lin.structure.Structure.roots in
      for j = 0 to k - 1 do
        List.iter
          (fun _ ->
            match !rest with
            | root :: tl ->
              prefix_roots := root :: !prefix_roots;
              rest := tl
            | [] -> assert false)
          spans.(j).span_structure.Structure.roots
      done;
      let new_roots = List.map (fun (rt : Node.t) -> merged_of_local rt.id) grown.Structure.roots in
      let roots = List.rev_append !prefix_roots new_roots in
      (try Structure.append lin.structure ~roots ~added
       with Structure.Invalid msg -> raise (Rejected (Bad_delta msg)))
    end
    else begin
      let structures =
        List.mapi
          (fun j sp -> if j = k then grown else sp.span_structure)
          (Array.to_list spans)
      in
      fst (Structure.merge_mapped structures)
    end
  in
  assert (Structure.num_nodes structure' = n');
  (* Creation-id maps: requests before [k] keep their block, request
     [k]'s block reorders by grown rank and absorbs the delta, requests
     after shift by [d]. *)
  let base_order = Array.make bsize (-1) in
  for local = 0 to bsize - 1 do
    base_order.(base_rank local) <- local
  done;
  let new_of_old' = Array.make n' (-1) in
  for m = 0 to n - 1 do
    let m' =
      if m < off_k then m
      else if m < off_k + bsize then off_k + rank.(base_order.(m - off_k))
      else m + d
    in
    new_of_old'.(m') <- fmap.(lin.new_of_old.(m))
  done;
  for i = 0 to d - 1 do
    new_of_old'.(off_k + rank.(bsize + i)) <- new_fid.(i)
  done;
  let old_of_new' = Array.make n' (-1) in
  Array.iteri (fun m y -> old_of_new'.(y) <- m) new_of_old';
  (* Children-first DFS over the new tables, in merged-root order —
     exactly the traversal a cold [run] performs. *)
  let root_fids =
    List.concat
      (List.mapi
         (fun j sp ->
           if j = k then List.map (fun (rt : Node.t) -> local_fid rt.id) grown.Structure.roots
           else
             List.map
               (fun (rt : Node.t) -> fmap.(sp.span_ids.(rt.id)))
               sp.span_structure.Structure.roots)
         (Array.to_list spans))
  in
  let postorder' = Array.make n' (-1) in
  let filled = ref 0 in
  let seen = Array.make n' false in
  let rec dfs y =
    if not seen.(y) then begin
      seen.(y) <- true;
      for c = 0 to num_children'.(y) - 1 do
        dfs child'.(c).(y)
      done;
      postorder'.(!filled) <- y;
      incr filled
    end
  in
  List.iter dfs root_fids;
  assert (!filled = n');
  let batches' = Array.init (height' + 1) (fun l -> (first'.(l), width'.(l))) in
  let lin' =
    {
      structure = structure';
      num_nodes = n';
      num_leaves = width'.(0);
      max_children = mc;
      new_of_old = new_of_old';
      old_of_new = old_of_new';
      leaf_begin = first'.(0);
      child = child';
      num_children = num_children';
      payload = payload';
      level_of = level_of';
      batches = batches';
      postorder = postorder';
    }
  in
  (* Rebuild the spans: untouched requests shift wholesale, the grown
     request extends. *)
  let height_k' =
    let h = ref 0 in
    for local = 0 to bsize - 1 do
      h := max !h lin.level_of.(span.span_ids.(local))
    done;
    Array.fold_left max !h new_level
  in
  let spans' =
    Array.mapi
      (fun j sp ->
        if j <> k then
          {
            sp with
            span_ids = Array.map (fun x -> fmap.(x)) sp.span_ids;
            span_levels = Array.map (fun (lo, c) -> (fmap.(lo), c)) sp.span_levels;
          }
        else begin
          let span_ids = Array.init (bsize + d) local_fid in
          let span_levels =
            Array.init (height_k' + 1) (fun l ->
                (first'.(l) + rel_start l, old_count l + ins.(l)))
          in
          { span_structure = grown; span_ids; span_levels }
        end)
      spans
  in
  { lin = lin'; spans = spans' }

let layout_bytes ~num_nodes ~num_batches ~max_children =
  (* ints are 8 bytes on this platform.  The dynamic-batching executor
     resolves exactly four tables on device ([Lower.bind]): the child
     tables ([max_children] x n, via [u_child]), the fanout counts
     (n, via [u_num_children]), the payloads (n, via [u_payload]) and
     the batch table (2 ints per batch, via [u_batch_begin]/[u_batch_len]).
     [postorder] and the numbering maps are host-side inspector state and
     are not billed — [Cost] only ever charges the resolved tables.
     Exposed in closed form so the session table can price a conversation
     it has not linearized yet (a single structure of n nodes and height h
     lays out as num_batches = h + 1). *)
  if num_nodes <= 0 then 0
  else
    let ints =
      (max_children * num_nodes) + num_nodes + num_nodes + (2 * num_batches)
    in
    8 * ints

let state_rows_bytes ~num_nodes ~bytes_per_node =
  (* The other half of a session's footprint: the per-node hidden-state
     rows its device pins between tokens.  [bytes_per_node] is the sum of
     one node's row bytes across the model's state tensors (0 when the
     engine serves shapes only). *)
  if num_nodes <= 0 then 0 else num_nodes * bytes_per_node

let memory_bytes t =
  layout_bytes ~num_nodes:t.num_nodes ~num_batches:(Array.length t.batches)
    ~max_children:t.max_children

(* The minimax fit of the paper's six §7.5 cells (SST 1.31/9.64 us,
   TreeFC 3.04/30.36, DAG-RNN 8.2/95.14 at batch 1/10) over our
   datasets of 73/446, 127/1270 and 100/1000 nodes: each within 15%. *)
let priced_us t =
  let per_node =
    match t.structure.Structure.kind with
    | Structure.Tree | Structure.Sequence -> 0.0205
    | Structure.Dag -> 0.0881
  in
  per_node *. float_of_int t.num_nodes

(* ---------- packed delta merge (multi-session batching) ---------- *)

type packed = {
  pk_view : t;
  pk_members : int;
  pk_base : int;
  pk_old_off : int array;
  pk_delta_base : int array;
  pk_delta_of : int array array;
}

let pack_id p ~member sid =
  if sid < p.pk_delta_base.(member) then p.pk_old_off.(member) + sid
  else p.pk_delta_of.(member).(sid - p.pk_delta_base.(member))

let pack_views views =
  let reject member reason =
    raise (Rejected (Pack_incompatible { member; reason }))
  in
  if views = [] then reject 0 "empty member list";
  let views = Array.of_list views in
  let m = Array.length views in
  let first = views.(0) in
  let mc = first.max_children in
  (* Per member: validate the delta-view shape (a leaf batch at the
     delta base, then contiguous strictly-ascending level runs covering
     the whole tail) and collect its batch levels. *)
  let delta_base = Array.make m 0 in
  let member_batches = Array.make m [||] in
  let max_level = ref 0 in
  Array.iteri
    (fun i v ->
      if v.max_children <> mc then
        reject i
          (Printf.sprintf "child-table width %d, pack is %d" v.max_children mc);
      if v.structure.Structure.kind <> first.structure.Structure.kind then
        reject i "structure kind differs from the pack's";
      let nb = Array.length v.batches in
      if nb = 0 then reject i "no batches";
      let db = fst v.batches.(0) in
      if v.leaf_begin <> db then reject i "leaf batch not at the delta base";
      if v.num_nodes <= db then reject i "no delta nodes";
      (* The runs must tile [db, num_nodes) in order: that is what lets
         member blocks concatenate into contiguous packed batches. *)
      let cursor = ref db in
      let levels =
        Array.mapi
          (fun k (b, len) ->
            if b <> !cursor || len < 0 then reject i "non-contiguous delta batches";
            cursor := b + len;
            let l = if k = 0 then 0 else v.level_of.(b) in
            if k = 1 && l < 1 then reject i "internal batch at leaf level";
            if k > 1 && l <= v.level_of.(fst v.batches.(k - 1)) then
              reject i "batch levels not ascending";
            if l > !max_level then max_level := l;
            (l, b, len))
          v.batches
      in
      if !cursor <> v.num_nodes then reject i "batches do not cover the delta";
      delta_base.(i) <- db;
      member_batches.(i) <- levels)
    views;
  (* Region A: each member's old prefix, concatenated.  No batch covers
     these rows, but they are not inert: boundary state rows are
     pre-seeded here, and the setup kernels' precompute loops run over
     the whole id space [0, num_nodes), so the rows must carry the
     member's real payload/child data (like a single-session delta view,
     whose arrays cover the whole conversation). *)
  let old_off = Array.make m 0 in
  let base = ref 0 in
  Array.iteri
    (fun i db ->
      old_off.(i) <- !base;
      base := !base + db)
    delta_base;
  let base = !base in
  (* Region B: delta nodes grouped by level, members in pack order
     within each level, so every packed batch is one contiguous run. *)
  let delta_of =
    Array.init m (fun i -> Array.make (views.(i).num_nodes - delta_base.(i)) (-1))
  in
  let cursor = ref base in
  let batches = ref [] in
  for l = 0 to !max_level do
    let level_begin = !cursor in
    for i = 0 to m - 1 do
      Array.iter
        (fun (lv, b, len) ->
          if lv = l && len > 0 then begin
            for k = 0 to len - 1 do
              delta_of.(i).(b + k - delta_base.(i)) <- !cursor + k
            done;
            cursor := !cursor + len
          end)
        member_batches.(i)
    done;
    let width = !cursor - level_begin in
    (* The leaf batch is always present (possibly empty, like the member
       views'); higher levels only when some member reaches them. *)
    if l = 0 || width > 0 then batches := (level_begin, width) :: !batches
  done;
  let num_nodes = !cursor in
  let num_leaves =
    match List.rev !batches with (_, w) :: _ -> w | [] -> 0
  in
  let child = Array.init mc (fun _ -> Array.make num_nodes (-1)) in
  let num_children = Array.make num_nodes 0 in
  let payload = Array.make num_nodes (-1) in
  let level_of = Array.make num_nodes 0 in
  for i = 0 to m - 1 do
    let v = views.(i) in
    let db = delta_base.(i) in
    let remap c =
      if c < 0 then -1
      else if c < db then old_off.(i) + c
      else delta_of.(i).(c - db)
    in
    for s = 0 to db - 1 do
      let y = old_off.(i) + s in
      num_children.(y) <- v.num_children.(s);
      payload.(y) <- v.payload.(s);
      level_of.(y) <- v.level_of.(s);
      for k = 0 to mc - 1 do
        child.(k).(y) <- remap v.child.(k).(s)
      done
    done;
    for s = db to v.num_nodes - 1 do
      let y = delta_of.(i).(s - db) in
      num_children.(y) <- v.num_children.(s);
      payload.(y) <- v.payload.(s);
      level_of.(y) <- v.level_of.(s);
      for k = 0 to mc - 1 do
        child.(k).(y) <- remap v.child.(k).(s)
      done
    done
  done;
  let view =
    {
      structure = first.structure;
      num_nodes;
      num_leaves;
      max_children = mc;
      (* Host-side inspector state the executor never resolves — left
         empty like the member delta views.  Region A above still makes
         a pack O(max_children * sum of conversation sizes). *)
      new_of_old = [||];
      old_of_new = [||];
      leaf_begin = base;
      child;
      num_children;
      payload;
      level_of;
      batches = Array.of_list (List.rev !batches);
      postorder = [||];
    }
  in
  {
    pk_view = view;
    pk_members = m;
    pk_base = base;
    pk_old_off = old_off;
    pk_delta_base = delta_base;
    pk_delta_of = delta_of;
  }
