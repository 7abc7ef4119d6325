type vocab = { table : (string, int) Hashtbl.t; mutable next : int }

(* Word id 0 is reserved for the null word internal nodes carry, so the
   vocabulary can keep growing while structures are being built. *)
let vocab () =
  let v = { table = Hashtbl.create 1024; next = 0 } in
  Hashtbl.add v.table "<null>" 0;
  v.next <- 1;
  v

let vocab_size v = v.next

let word_id v token =
  match Hashtbl.find_opt v.table token with
  | Some id -> id
  | None ->
    let id = v.next in
    v.next <- id + 1;
    Hashtbl.add v.table token id;
    id

let lookup v token = Hashtbl.find_opt v.table token
let null_word _ = 0

type tree = { structure : Structure.t; labels : int array; tokens : string array }

exception Parse_error of string * int

let fail pos fmt = Printf.ksprintf (fun s -> raise (Parse_error (s, pos))) fmt

(* ---------- lexing ---------- *)

type token = Lparen | Rparen | Atom of string

let lex input =
  let n = String.length input in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    (match input.[!i] with
     | '(' ->
       out := (Lparen, !i) :: !out;
       incr i
     | ')' ->
       out := (Rparen, !i) :: !out;
       incr i
     | ' ' | '\t' | '\n' | '\r' -> incr i
     | _ ->
       let start = !i in
       while
         !i < n
         && (match input.[!i] with '(' | ')' | ' ' | '\t' | '\n' | '\r' -> false | _ -> true)
       do
         incr i
       done;
       out := (Atom (String.sub input start (!i - start)), start) :: !out);
  done;
  List.rev !out

(* ---------- parsing to an AST ---------- *)

type ast = Leaf of int option * string | Inner of int option * ast list

let is_int s =
  s <> "" && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s

let parse_ast tokens =
  let rec tree = function
    | (Atom a, _) :: rest -> (Leaf (None, a), rest)
    | (Lparen, pos) :: rest ->
      let label, rest =
        match rest with
        | (Atom a, _) :: ((Lparen, _) :: _ as tl) when is_int a -> (Some (int_of_string a), tl)
        | (Atom a, _) :: ((Atom _, _) :: _ as tl) when is_int a -> (Some (int_of_string a), tl)
        | _ -> (None, rest)
      in
      let rec children acc rest =
        match rest with
        | (Rparen, _) :: tl -> (List.rev acc, tl)
        | [] -> fail pos "unterminated '('"
        | _ ->
          let child, rest = tree rest in
          children (child :: acc) rest
      in
      let kids, rest = children [] rest in
      (match kids with
       | [] -> fail pos "empty node"
       | [ Leaf (None, token) ] -> (Leaf (label, token), rest)
       | kids -> (Inner (label, kids), rest))
    | (Rparen, pos) :: _ -> fail pos "unexpected ')'"
    | [] -> fail 0 "empty input"
  in
  let t, rest = tree tokens in
  (match rest with
   | [] -> ()
   | (_, pos) :: _ -> fail pos "trailing input after tree");
  t

(* ---------- AST -> structure ---------- *)

let rec max_fanout = function
  | Leaf _ -> 0
  | Inner (_, kids) -> List.fold_left (fun m k -> max m (max_fanout k)) (List.length kids) kids

let build v ast =
  let b = Node.builder () in
  let labels = ref [] and tokens = ref [] in
  let note (node : Node.t) label token =
    labels := (node.Node.id, label) :: !labels;
    tokens := (node.Node.id, token) :: !tokens;
    node
  in
  let rec go = function
    | Leaf (label, token) ->
      note (Node.make b ~payload:(word_id v token) []) (Option.value label ~default:(-1)) token
    | Inner (label, kids) ->
      let children = List.map go kids in
      note
        (Node.make b ~payload:(null_word v) children)
        (Option.value label ~default:(-1))
        ""
  in
  let root = go ast in
  let fanout = max 2 (max_fanout ast) in
  let structure = Structure.create ~kind:Structure.Tree ~max_children:fanout [ root ] in
  let n = Structure.num_nodes structure in
  let label_arr = Array.make n (-1) and token_arr = Array.make n "" in
  List.iter (fun (id, l) -> label_arr.(id) <- l) !labels;
  List.iter (fun (id, t) -> token_arr.(id) <- t) !tokens;
  { structure; labels = label_arr; tokens = token_arr }

let parse v input = build v (parse_ast (lex input))

let parse_many v input =
  String.split_on_char '\n' input
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None else Some (parse v line))

(* ---------- printing ---------- *)

let to_string t =
  let buf = Buffer.create 256 in
  let rec go (node : Node.t) =
    let label = t.labels.(node.Node.id) in
    if Node.is_leaf node then begin
      if label >= 0 then Buffer.add_string buf (Printf.sprintf "(%d %s)" label t.tokens.(node.Node.id))
      else Buffer.add_string buf t.tokens.(node.Node.id)
    end
    else begin
      Buffer.add_char buf '(';
      if label >= 0 then Buffer.add_string buf (string_of_int label);
      Array.iter
        (fun c ->
          Buffer.add_char buf ' ';
          go c)
        node.Node.children;
      Buffer.add_char buf ')'
    end
  in
  (match t.structure.Structure.roots with
   | [ root ] -> go root
   | roots -> List.iter go roots);
  Buffer.contents buf

let merge trees = Structure.merge (List.map (fun t -> t.structure) trees)

let sample_sst =
  String.concat "\n"
    [
      "(3 (2 (2 The) (2 movie)) (4 (3 (2 was) (3 great)) (2 .)))";
      "(1 (2 (2 The) (2 plot)) (1 (1 (2 was) (1 terrible)) (2 .)))";
      "(4 (3 (2 A) (4 (4 wonderful) (2 performance))) (2 (2 by) (2 (2 the) (2 cast))))";
      "(0 (1 (2 An) (1 (0 awful) (2 script))) (1 (1 ruins) (2 (2 the) (2 film))))";
      "(2 (2 It) (2 (2 is) (2 (2 a) (2 (2 dog) (2 .)))))";
      "(3 (2 (2 Surprisingly) (2 ,)) (3 (2 it) (3 (3 (2 mostly) (3 works)) (2 .))))";
      "(4 (4 (4 Brilliant) (2 direction)) (3 (2 and) (3 (3 sharp) (2 writing))))";
      "(1 (2 (2 Two) (2 hours)) (1 (1 (2 I) (1 (2 will) (1 (2 never) (1 (2 get) (2 back))))) (2 .)))";
    ]
