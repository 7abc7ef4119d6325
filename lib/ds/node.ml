type t = { id : int; payload : int; children : t array }

type builder = { mutable next_id : int }

let builder () = { next_id = 0 }

let builder_from next_id =
  if next_id < 0 then invalid_arg "Node.builder_from";
  { next_id }

let make b ?(payload = -1) children =
  let id = b.next_id in
  b.next_id <- id + 1;
  { id; payload; children = Array.of_list children }

let is_leaf n = Array.length n.children = 0
let num_children n = Array.length n.children

let child n i =
  if i < 0 || i >= Array.length n.children then invalid_arg "Node.child";
  n.children.(i)
