type kind = Sequence | Tree | Dag

type t = {
  kind : kind;
  max_children : int;
  roots : Node.t list;
  nodes : Node.t array;
}

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let collect_reachable roots =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go (n : Node.t) =
    if not (Hashtbl.mem seen n.id) then begin
      Hashtbl.add seen n.id ();
      acc := n :: !acc;
      Array.iter go n.children
    end
  in
  List.iter go roots;
  !acc

let create ~kind ~max_children roots =
  if roots = [] then fail "structure with no roots";
  if max_children < 1 then fail "max_children must be >= 1";
  let reachable = collect_reachable roots in
  let n = List.length reachable in
  let nodes = Array.make n (List.hd reachable) in
  List.iter
    (fun (node : Node.t) ->
      if node.id < 0 || node.id >= n then
        fail "node ids are not dense: id %d with %d reachable nodes" node.id n;
      nodes.(node.id) <- node)
    reachable;
  (* The walk keeps one node per id, so a second node with a taken id
     is never collected; every edge or root pointing at it must be
     refused, or it would resolve to the first. *)
  let stored (m : Node.t) =
    if nodes.(m.id) != m then fail "two nodes share id %d" m.id
  in
  List.iter stored roots;
  let parents = Array.make n 0 in
  Array.iter
    (fun (node : Node.t) ->
      if Array.length node.children > max_children then
        fail "node %d has %d children (max %d)" node.id (Array.length node.children)
          max_children;
      Array.iter
        (fun (c : Node.t) ->
          stored c;
          (* Ids fall along every edge: that alone makes the structure
             acyclic, and node-id order lists children first. *)
          if c.id >= node.id then
            fail "node %d lists child %d: children must precede their parent" node.id c.id;
          parents.(c.id) <- parents.(c.id) + 1)
        node.children)
    nodes;
  (match kind with
   | Dag -> ()
   | Tree ->
     Array.iteri
       (fun id p -> if p > 1 then fail "node %d has %d parents in a tree" id p)
       parents
   | Sequence ->
     if max_children <> 1 then fail "a sequence must declare max_children = 1";
     Array.iteri
       (fun id p -> if p > 1 then fail "node %d has %d parents in a sequence" id p)
       parents);
  { kind; max_children; roots; nodes }

let num_nodes t = Array.length t.nodes

(* Graft [added] nodes (ids continuing [base]'s) under fresh [roots]
   without re-walking the whole graph.  Acyclicity is free — appended
   nodes may only link nodes with strictly smaller ids — so validation
   is O(|added| * fanout) plus one O(n) parent-count pass for the
   Tree/Sequence single-parent rule. *)
let append base ~roots ~(added : Node.t array) =
  let b = num_nodes base in
  let d = Array.length added in
  Array.iteri
    (fun i (n : Node.t) ->
      if n.id <> b + i then
        fail "appended ids must continue the structure: got %d, want %d" n.id (b + i))
    added;
  let is_base (n : Node.t) = n.id >= 0 && n.id < b && n == base.nodes.(n.id) in
  let is_added (n : Node.t) = n.id >= b && n.id < b + d && n == added.(n.id - b) in
  let member n = is_base n || is_added n in
  let max_children =
    match base.kind with
    | Sequence -> 1 (* a sequence must keep max_children = 1 *)
    | Tree | Dag ->
      Array.fold_left (fun m n -> max m (Node.num_children n)) base.max_children added
  in
  Array.iter
    (fun (n : Node.t) ->
      if Array.length n.children > max_children then
        fail "node %d has %d children (max %d)" n.id (Array.length n.children)
          max_children;
      Array.iter
        (fun (c : Node.t) ->
          if c.id >= n.id then
            fail "appended node %d lists child %d: children must predate their parent"
              n.id c.id;
          if not (member c) then fail "appended node %d links a foreign node %d" n.id c.id)
        n.children)
    added;
  if roots = [] then fail "structure with no roots";
  List.iter
    (fun (r : Node.t) -> if not (member r) then fail "root %d is not a member" r.Node.id)
    roots;
  (* Every appended node must be reachable from the new roots.  Old nodes
     have no new out-edges, so a DFS restricted to appended nodes is
     complete. *)
  let seen = Array.make (max d 1) false in
  let rec mark (n : Node.t) =
    if is_added n && not seen.(n.id - b) then begin
      seen.(n.id - b) <- true;
      Array.iter mark n.children
    end
  in
  List.iter mark roots;
  Array.iteri
    (fun i s ->
      if not s then fail "appended node %d is unreachable from the new roots" (b + i))
    seen;
  (* Every old root must stay reachable: either it remains a root or an
     appended node links it.  (Old non-roots are reachable through their
     old parents, which the base structure already validated.) *)
  let covered = Hashtbl.create 8 in
  List.iter (fun (r : Node.t) -> if is_base r then Hashtbl.replace covered r.id ()) roots;
  Array.iter
    (fun (n : Node.t) ->
      Array.iter
        (fun (c : Node.t) -> if c.id < b then Hashtbl.replace covered c.id ())
        n.children)
    added;
  List.iter
    (fun (r : Node.t) ->
      if not (Hashtbl.mem covered r.id) then
        fail "old root %d is neither a root nor referenced by an appended node" r.id)
    base.roots;
  (match base.kind with
   | Dag -> ()
   | Tree | Sequence ->
     let parents = Array.make (b + d) 0 in
     let count (n : Node.t) =
       Array.iter (fun (c : Node.t) -> parents.(c.id) <- parents.(c.id) + 1) n.children
     in
     Array.iter count base.nodes;
     Array.iter count added;
     let what = match base.kind with Sequence -> "sequence" | _ -> "tree" in
     Array.iteri
       (fun id p -> if p > 1 then fail "node %d has %d parents in a %s" id p what)
       parents);
  { base with max_children; roots; nodes = Array.append base.nodes added }

let num_leaves t =
  Array.fold_left (fun acc n -> if Node.is_leaf n then acc + 1 else acc) 0 t.nodes

let level t =
  let n = num_nodes t in
  let lvl = Array.make n (-1) in
  let rec go (node : Node.t) =
    if lvl.(node.id) < 0 then begin
      let deepest = ref (-1) in
      Array.iter
        (fun (c : Node.t) ->
          go c;
          if lvl.(c.id) > !deepest then deepest := lvl.(c.id))
        node.children;
      lvl.(node.id) <- !deepest + 1
    end
  in
  List.iter go t.roots;
  lvl

let height t = Array.fold_left max 0 (level t)

let level_widths t =
  let lvl = level t in
  let h = Array.fold_left max 0 lvl in
  let widths = Array.make (h + 1) 0 in
  Array.iter (fun l -> widths.(l) <- widths.(l) + 1) lvl;
  widths

let parents_count t =
  let parents = Array.make (num_nodes t) 0 in
  Array.iter
    (fun (node : Node.t) ->
      Array.iter (fun (c : Node.t) -> parents.(c.id) <- parents.(c.id) + 1) node.children)
    t.nodes;
  parents

let merge_mapped structures =
  match structures with
  | [] -> fail "merge of no structures"
  | first :: rest ->
    List.iter
      (fun s -> if s.kind <> first.kind then fail "merge of mixed structure kinds")
      rest;
    let max_children =
      List.fold_left (fun m s -> max m s.max_children) first.max_children rest
    in
    let b = Node.builder () in
    let copy_structure s =
      let memo = Hashtbl.create (num_nodes s) in
      let rec copy (n : Node.t) =
        match Hashtbl.find_opt memo n.id with
        | Some n' -> n'
        | None ->
          let children = Array.to_list (Array.map copy n.children) in
          let n' = Node.make b ~payload:n.payload children in
          Hashtbl.add memo n.id n';
          n'
      in
      let roots = List.map copy s.roots in
      let map =
        Array.map (fun (n : Node.t) -> (Hashtbl.find memo n.id : Node.t).id) s.nodes
      in
      (roots, map)
    in
    let copies = List.map copy_structure structures in
    let roots = List.concat_map fst copies in
    let merged = create ~kind:first.kind ~max_children roots in
    (merged, Array.of_list (List.map snd copies))

let merge structures =
  (match structures with
   | first :: rest ->
     List.iter
       (fun s ->
         if s.max_children <> first.max_children then fail "merge of mixed max_children")
       rest
   | [] -> ());
  fst (merge_mapped structures)
