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
   [structure] field of the result is the merge of the new requests,
   their payloads included, not the cold run's. *)
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

(* Grow request [d_request] of a linearized forest: validate the delta,
   append it to the request and linearize the grown forest cold.  The
   result is therefore [run_forest] of the grown structures, array for
   array, at a cold run's cost. *)
let extend f (dl : delta) =
  let spans = f.spans in
  let r = Array.length spans in
  let k = dl.d_request in
  if k < 0 || k >= r then
    raise (Rejected (Bad_delta (Printf.sprintf "no request %d in a %d-request forest" k r)));
  if Array.length dl.d_nodes = 0 then raise (Rejected Empty_delta);
  (* The model's fanout bound applies to the new nodes too. *)
  let max_children = f.lin.max_children in
  Array.iter
    (fun (node : Node.t) ->
      let arity = Array.length node.children in
      if arity > max_children then
        raise (Rejected (Fanout_exceeded { node = node.id; arity; max_children })))
    dl.d_nodes;
  let grown =
    try Structure.append spans.(k).span_structure ~roots:dl.d_roots ~added:dl.d_nodes
    with Structure.Invalid msg -> raise (Rejected (Bad_delta msg))
  in
  run_forest ~max_children
    (List.mapi (fun j sp -> if j = k then grown else sp.span_structure) (Array.to_list spans))

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

(* ---------- growing layouts (pinned sessions) ---------- *)

(* A pinned conversation's one layout: child, payload and level rows at
   per-session layout ids, handed out in push order, in tables that
   double when they fill up.  [g_id] maps a request-local node id to its
   layout id. *)
type growing = {
  mutable g_used : int;  (* layout ids in use *)
  mutable g_child : int array array;  (* child.(k).(lid), k < max_children *)
  mutable g_num_children : int array;
  mutable g_payload : int array;
  mutable g_level : int array;
  mutable g_id : int array;
  mutable g_height : int;  (* max level laid out since the last reseed *)
  mutable g_regrowths : int;
}

type step = { step_view : t; step_nodes : Node.t array; step_base : int }

let empty_layout ~max_children =
  {
    g_used = 0;
    g_child = Array.make max_children [||];
    g_num_children = [||];
    g_payload = [||];
    g_level = [||];
    g_id = [||];
    g_height = 0;
    g_regrowths = 0;
  }

let layout_id g id = g.g_id.(id)
let layout_height g = g.g_height
let regrowths g = g.g_regrowths

(* Doubling growth, so n laid-out nodes cost O(n) total copying.  A
   regrowth of an allocated table is the layout's only O(n) rebuild. *)
let reserve g n =
  let cap = Array.length g.g_num_children in
  if n > cap then begin
    if cap > 0 then g.g_regrowths <- g.g_regrowths + 1;
    let cap' = max n (max 16 (2 * cap)) in
    let grow a =
      let a' = Array.make cap' (-1) in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    g.g_child <- Array.map grow g.g_child;
    g.g_num_children <- grow g.g_num_children;
    g.g_payload <- grow g.g_payload;
    g.g_level <- grow g.g_level;
    g.g_id <- grow g.g_id
  end

(* Lay [node] out at the next layout id.  Its children must already be
   laid out (callers push children first). *)
let push g (node : Node.t) =
  let lid = g.g_used in
  g.g_used <- lid + 1;
  g.g_id.(node.Node.id) <- lid;
  let ch = node.Node.children in
  let arity = Array.length ch in
  g.g_num_children.(lid) <- arity;
  g.g_payload.(lid) <- node.Node.payload;
  let lv = ref 0 in
  for k = 0 to Array.length g.g_child - 1 do
    if k < arity then begin
      let c = g.g_id.(ch.(k).Node.id) in
      g.g_child.(k).(lid) <- c;
      if g.g_level.(c) + 1 > !lv then lv := g.g_level.(c) + 1
    end
    else g.g_child.(k).(lid) <- -1
  done;
  g.g_level.(lid) <- !lv;
  if !lv > g.g_height then g.g_height <- !lv

(* [Structure.create] puts children below their parents, so laying a
   prefix out in node-id order pushes children first, and its layout
   ids are its node ids. *)
let reseed g (s : Structure.t) ~prefix =
  g.g_used <- 0;
  g.g_height <- 0;
  reserve g (Structure.num_nodes s);
  for i = 0 to prefix - 1 do
    push g s.Structure.nodes.(i)
  done

(* Lay nodes [b, n) of [s] out as one step: level-sorted (stably, so
   each level run keeps node-id order) and pushed; the view windows
   over the live tables, so its batches cover only the step while its
   node-id space covers the whole conversation. *)
let lay_out g (s : Structure.t) b =
  let n = Structure.num_nodes s in
  let nodes = s.Structure.nodes in
  reserve g n;
  let d = n - b in
  let dlv = Array.make d 0 in
  for i = 0 to d - 1 do
    Array.iter
      (fun (c : Node.t) ->
        let cl =
          if c.Node.id < b then g.g_level.(g.g_id.(c.Node.id)) else dlv.(c.Node.id - b)
        in
        if cl + 1 > dlv.(i) then dlv.(i) <- cl + 1)
      nodes.(b + i).Node.children
  done;
  let order = Array.init d Fun.id in
  Array.stable_sort (fun i j -> compare dlv.(i) dlv.(j)) order;
  let news = Array.map (fun i -> nodes.(b + i)) order in
  Array.iter (push g) news;
  (* The leaf run first (possibly empty: a sequence token appends no
     leaf), then one batch per level run. *)
  let leaves = ref 0 in
  Array.iter (fun i -> if dlv.(i) = 0 then incr leaves) order;
  let batches = ref [ (b, !leaves) ] in
  let i = ref !leaves in
  while !i < d do
    let l = dlv.(order.(!i)) in
    let j = ref !i in
    while !j < d && dlv.(order.(!j)) = l do
      incr j
    done;
    batches := (b + !i, !j - !i) :: !batches;
    i := !j
  done;
  let view =
    {
      structure = s;
      num_nodes = g.g_used;
      num_leaves = !leaves;
      max_children = Array.length g.g_child;
      (* Host-side inspector state the executor never resolves; left
         empty so a step costs O(delta). *)
      new_of_old = [||];
      old_of_new = [||];
      leaf_begin = b;
      child = g.g_child;
      num_children = g.g_num_children;
      payload = g.g_payload;
      level_of = g.g_level;
      batches = Array.of_list (List.rev !batches);
      postorder = [||];
    }
  in
  { step_view = view; step_nodes = news; step_base = b }

(* Nothing to check: [Structure.create] orders children first. *)
let seed g s =
  g.g_used <- 0;
  g.g_height <- 0;
  lay_out g s 0

(* O(delta): [Structure.create] already orders every node's children
   before it, so an appended node is checked only for its arity and for
   children that are members of [s]; then the step is laid out. *)
let grow g (s : Structure.t) =
  let b = g.g_used in
  let n = Structure.num_nodes s in
  let nodes = s.Structure.nodes in
  let mc = Array.length g.g_child in
  let appended (nd : Node.t) =
    Array.length nd.Node.children <= mc
    && Array.for_all (fun (c : Node.t) -> nodes.(c.Node.id) == c) nd.Node.children
  in
  let rec valid i = i >= n || (appended nodes.(i) && valid (i + 1)) in
  if n <= b || not (valid b) then None else Some (lay_out g s b)

(* ---------- packed steps (multi-session batching) ---------- *)

type packed = {
  pk_view : t;
  pk_members : int;
  pk_base : int;
  pk_old_off : int array;
  pk_delta_base : int array;
  pk_delta_of : int array array;
}

let pack_id p ~member lid =
  if lid < p.pk_delta_base.(member) then p.pk_old_off.(member) + lid
  else p.pk_delta_of.(member).(lid - p.pk_delta_base.(member))

(* Every member is a step [grow] built over its own layout, so nothing
   needs re-checking: a step's batches tile [step_base, num_nodes) as a
   leaf run then strictly ascending level runs, and one engine gives
   every layout the same child-table width. *)
let pack first rest =
  let members = Array.of_list (first :: rest) in
  let m = Array.length members in
  let mc = Array.length (fst first).g_child in
  let delta_base = Array.map (fun (_, st) -> st.step_base) members in
  let extent i = (snd members.(i)).step_view.num_nodes in
  (* Each member's batches with their levels: the leaf run is level 0. *)
  let member_batches =
    Array.map
      (fun (g, st) ->
        Array.mapi
          (fun k (b, len) -> ((if k = 0 then 0 else g.g_level.(b)), b, len))
          st.step_view.batches)
      members
  in
  let max_level =
    Array.fold_left
      (fun acc runs -> Array.fold_left (fun acc (l, _, _) -> max acc l) acc runs)
      0 member_batches
  in
  (* Region A: each member's old prefix, concatenated.  No batch covers
     these rows, but they are not inert: boundary state rows are
     pre-seeded here, and the setup kernels' precompute loops run over
     the whole id space [0, num_nodes), so the rows must carry the
     member's real payload/child data (like a single step's view, whose
     arrays cover the whole conversation). *)
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
  let delta_of = Array.init m (fun i -> Array.make (extent i - delta_base.(i)) (-1)) in
  let cursor = ref base in
  let batches = ref [] in
  for l = 0 to max_level do
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
    (* The leaf batch is always present (possibly empty, like a step's);
       higher levels only when some member reaches them. *)
    if l = 0 || width > 0 then batches := (level_begin, width) :: !batches
  done;
  let num_nodes = !cursor in
  let num_leaves = match List.rev !batches with (_, w) :: _ -> w | [] -> 0 in
  let child = Array.init mc (fun _ -> Array.make num_nodes (-1)) in
  let num_children = Array.make num_nodes 0 in
  let payload = Array.make num_nodes (-1) in
  let level_of = Array.make num_nodes 0 in
  Array.iteri
    (fun i (g, _) ->
      let db = delta_base.(i) in
      let row lid =
        if lid < db then old_off.(i) + lid else delta_of.(i).(lid - db)
      in
      for lid = 0 to extent i - 1 do
        let y = row lid in
        num_children.(y) <- g.g_num_children.(lid);
        payload.(y) <- g.g_payload.(lid);
        level_of.(y) <- g.g_level.(lid);
        for k = 0 to mc - 1 do
          let c = g.g_child.(k).(lid) in
          child.(k).(y) <- (if c < 0 then -1 else row c)
        done
      done)
    members;
  let view =
    {
      structure = (snd first).step_view.structure;
      num_nodes;
      num_leaves;
      max_children = mc;
      (* Host-side inspector state the executor never resolves — left
         empty like a step's view.  Region A above still makes a pack
         O(max_children * sum of conversation sizes). *)
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
