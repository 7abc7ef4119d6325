module Rng = Cortex_util.Rng

let vocab_size = 20_000

(* Internal parse-tree nodes carry no word; they are given the reserved
   "null word" id [vocab_size], for which models keep a zero embedding
   row.  This mirrors how TreeLSTM implementations feed x = 0 at
   internal nodes of the sentiment treebank. *)
let null_word = vocab_size

let perfect_tree rng ?(vocab = vocab_size) ~height () =
  if height < 1 then invalid_arg "Gen.perfect_tree";
  let b = Node.builder () in
  let rec build h =
    if h = 1 then Node.make b ~payload:(Rng.int rng vocab) []
    else begin
      let left = build (h - 1) in
      let right = build (h - 1) in
      (* The null word of a [vocab]-word model is id [vocab] (its Emb
         holds [vocab + 1] rows) — matching [sst_tree] below, not the
         default vocabulary's [null_word]. *)
      Node.make b ~payload:vocab [ left; right ]
    end
  in
  Structure.create ~kind:Tree ~max_children:2 [ build height ]

(* SST dev/test sentences average ~19 tokens with a long tail; a clipped
   gaussian reproduces the level-width statistics that drive dynamic
   batching. *)
let sst_sentence_length rng =
  let draw = Rng.gaussian rng ~mean:19.2 ~std:9.1 in
  Cortex_util.Stats.clamp_int ~lo:3 ~hi:60 (int_of_float (Float.round draw))

let sst_tree rng ?(vocab = vocab_size) ?len () =
  let len = match len with Some l -> l | None -> sst_sentence_length rng in
  if len < 1 then invalid_arg "Gen.sst_tree";
  let b = Node.builder () in
  let leaves = Array.init len (fun _ -> Node.make b ~payload:(Rng.int rng vocab) []) in
  (* Random binary bracketing: repeatedly merge a random adjacent pair,
     as a shift-reduce parser with random reduce positions would. *)
  let spans = ref (Array.to_list leaves) in
  while List.length !spans > 1 do
    let arr = Array.of_list !spans in
    let i = Rng.int rng (Array.length arr - 1) in
    let merged = Node.make b ~payload:vocab [ arr.(i); arr.(i + 1) ] in
    let out = ref [] in
    Array.iteri
      (fun j n ->
        if j = i then out := merged :: !out
        else if j <> i + 1 then out := n :: !out)
      arr;
    spans := List.rev !out
  done;
  match !spans with
  | [ root ] -> Structure.create ~kind:Tree ~max_children:2 [ root ]
  | _ -> assert false

let sst_batch rng ?vocab ~batch () =
  Structure.merge (List.init batch (fun _ -> sst_tree rng ?vocab ()))

let perfect_batch rng ?vocab ~batch ~height () =
  Structure.merge (List.init batch (fun _ -> perfect_tree rng ?vocab ~height ()))

let grid_dag ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid_dag";
  let b = Node.builder () in
  let grid = Array.make_matrix rows cols None in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let dep r c =
        if r < 0 || c < 0 then None
        else grid.(r).(c)
      in
      let children = List.filter_map Fun.id [ dep (i - 1) j; dep i (j - 1) ] in
      grid.(i).(j) <- Some (Node.make b ~payload:((i * cols) + j) children)
    done
  done;
  match grid.(rows - 1).(cols - 1) with
  | Some root -> Structure.create ~kind:Dag ~max_children:2 [ root ]
  | None -> assert false

let grid_batch ~batch ~rows ~cols =
  Structure.merge (List.init batch (fun _ -> grid_dag ~rows ~cols))

let sequence rng ?(vocab = vocab_size) ~len () =
  if len < 1 then invalid_arg "Gen.sequence";
  let b = Node.builder () in
  let rec build prev i =
    if i = len then prev
    else
      let n = Node.make b ~payload:(Rng.int rng vocab) [ prev ] in
      build n (i + 1)
  in
  let head = Node.make b ~payload:(Rng.int rng vocab) [] in
  Structure.create ~kind:Sequence ~max_children:1 [ build head 1 ]

(* ---------- incremental growth (sessions) ---------- *)

(* A growing conversation: each step appends nodes with [Structure.append]
   so successive structures share their prefix nodes physically — the
   property the serving engine's session table keys on. *)
type growth = {
  g_vocab : int;
  g_kind : Structure.kind;
  g_builder : Node.builder;
  mutable g_structure : Structure.t;
}

let growth_start rng ?(vocab = vocab_size) ~kind () =
  let b = Node.builder () in
  let leaf = Node.make b ~payload:(Rng.int rng vocab) [] in
  let max_children = match kind with Structure.Sequence -> 1 | _ -> 2 in
  let s = Structure.create ~kind ~max_children [ leaf ] in
  { g_vocab = vocab; g_kind = kind; g_builder = b; g_structure = s }

let growth_structure g = g.g_structure

let grow_one rng g =
  let root = List.hd g.g_structure.Structure.roots in
  let s' =
    match g.g_kind with
    | Structure.Sequence ->
      (* The conversation's new token becomes the new root of the chain. *)
      let n = Node.make g.g_builder ~payload:(Rng.int rng g.g_vocab) [ root ] in
      Structure.append g.g_structure ~roots:[ n ] ~added:[| n |]
    | Structure.Tree | Structure.Dag ->
      (* Left-branching growth: a new leaf and a new root over
         [old root; new leaf] — how an incremental parse extends. *)
      let leaf = Node.make g.g_builder ~payload:(Rng.int rng g.g_vocab) [] in
      let top = Node.make g.g_builder ~payload:g.g_vocab [ root; leaf ] in
      Structure.append g.g_structure ~roots:[ top ] ~added:[| leaf; top |]
  in
  g.g_structure <- s';
  s'

let conversation rng ?vocab ~kind ~tokens () =
  let g = growth_start rng ?vocab ~kind () in
  (* Bound before growing: [::] evaluates its tail first, so an inline
     [growth_structure g] would read the fully grown conversation. *)
  let start = growth_structure g in
  start :: List.init tokens (fun _ -> grow_one rng g)

let random_tree rng ~max_nodes ~max_children =
  let n = 1 + Rng.int rng (max max_nodes 1) in
  let b = Node.builder () in
  (* Grow by attaching each new node under a random node with spare
     fanout; then invert so the attachment order builds leaves first. *)
  let rec build budget =
    if budget <= 1 then Node.make b ~payload:(Rng.int rng vocab_size) []
    else begin
      let fanout = 1 + Rng.int rng max_children in
      let fanout = min fanout (budget - 1) in
      let shares = Array.make fanout 1 in
      let remaining = ref (budget - 1 - fanout) in
      while !remaining > 0 do
        let i = Rng.int rng fanout in
        shares.(i) <- shares.(i) + 1;
        decr remaining
      done;
      let children = Array.to_list (Array.map build shares) in
      Node.make b ~payload:(Rng.int rng vocab_size) children
    end
  in
  Structure.create ~kind:Tree ~max_children [ build n ]

let random_dag rng ~max_nodes ~max_children =
  let n = 2 + Rng.int rng (max (max_nodes - 1) 1) in
  let b = Node.builder () in
  let made = ref [] in
  (* Children are chosen among already-made nodes, so the result is
     acyclic; every earlier node is reachable because node i always
     links to node i-1 when it has any children. *)
  for i = 0 to n - 1 do
    let prior = Array.of_list (List.rev !made) in
    let children =
      if i = 0 then []
      else begin
        let fanout = 1 + Rng.int rng max_children in
        let picks = List.init (fanout - 1) (fun _ -> prior.(Rng.int rng i)) in
        let uniq =
          List.sort_uniq (fun (a : Node.t) b -> compare a.id b.id) (prior.(i - 1) :: picks)
        in
        uniq
      end
    in
    made := Node.make b ~payload:(Rng.int rng vocab_size) children :: !made
  done;
  match !made with
  | root :: _ -> Structure.create ~kind:Dag ~max_children [ root ]
  | [] -> assert false
