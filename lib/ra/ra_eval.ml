module Tensor = Cortex_tensor.Tensor
module Nonlinear = Cortex_tensor.Nonlinear
module Node = Cortex_ds.Node
module Structure = Cortex_ds.Structure
open Ra

(* Ra exports arithmetic on rexprs; restore integer arithmetic here. *)
let ( - ) = Stdlib.( - )

type t = {
  program : Ra.t;
  structure : Structure.t;
  values : (string, Tensor.t) Hashtbl.t array;  (* per node.id: op name -> value *)
}

let apply_bop op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | Min -> Float.min a b
  | Max -> Float.max a b

let init_value program ~params st dims =
  match st.st_init with
  | Zero -> Tensor.zeros (Array.of_list dims)
  | Init_param p ->
    ignore program;
    params p

let run program ~params structure =
  Ra.validate program;
  (* Check parameter shapes once. *)
  List.iter
    (fun (name, dims) ->
      let t = params name in
      if Array.to_list t.Tensor.shape <> dims then
        invalid_arg
          (Printf.sprintf "Ra_eval: parameter %s has shape %s, declared %s" name
             (Cortex_tensor.Shape.to_string t.Tensor.shape)
             (String.concat "," (List.map string_of_int dims))))
    program.params;
  let n = Structure.num_nodes structure in
  let values = Array.init n (fun _ -> Hashtbl.create 8) in
  let state_dims st = op_dims (find_op program.rec_ops st.st_op) in
  (* Value a ChildState reference sees for a missing child. *)
  let missing_child_value st =
    init_value program ~params st (state_dims st)
  in
  let rec eval_node (node : Node.t) =
    if Hashtbl.length values.(node.id) = 0 then begin
      Array.iter eval_node node.children;
      let is_leaf = Node.is_leaf node in
      let ops =
        match (is_leaf, program.leaf_ops) with
        | true, Some ops -> ops
        | true, None | false, _ -> program.rec_ops
      in
      List.iter (eval_op node) ops
    end
  and eval_op (node : Node.t) op =
    let dims = Array.of_list (op_dims op) in
    let out =
      Tensor.init dims (fun idx ->
          let env =
            List.mapi (fun i (a, _) -> (a, idx.(i))) op.op_axes
          in
          eval_expr node env None op.op_body)
    in
    Hashtbl.replace values.(node.id) op.op_name out
  and eval_expr (node : Node.t) env current_child e =
    let eval_idx = function
      | IAxis a ->
        (try List.assoc a env
         with Not_found -> failwith ("Ra_eval: unbound axis " ^ a))
      | IConst k -> k
      | IPayload ->
        if node.payload < 0 then
          failwith (Printf.sprintf "Ra_eval: node %d has no payload" node.id)
        else node.payload
    in
    match e with
    | Const v -> v
    | Param (p, idx) -> Tensor.get (params p) (Array.of_list (List.map eval_idx idx))
    | Temp (name, idx) ->
      let t = Hashtbl.find values.(node.id) name in
      Tensor.get t (Array.of_list (List.map eval_idx idx))
    | ChildState (st_name, sel, idx) ->
      let st = state_by_name program st_name in
      let value =
        match sel with
        | Current ->
          (match current_child with
           | Some (c : Node.t) -> Hashtbl.find values.(c.id) st.st_op
           | None -> failwith "Ra_eval: Current child outside ChildSum")
        | Child k ->
          if k < Array.length node.children then
            Hashtbl.find values.((Node.child node k).id) st.st_op
          else missing_child_value st
      in
      Tensor.get value (Array.of_list (List.map eval_idx idx))
    | Binop (op, a, b) ->
      apply_bop op (eval_expr node env current_child a) (eval_expr node env current_child b)
    | Math (k, a) -> Nonlinear.apply k (eval_expr node env current_child a)
    | Sum (ax, extent, body) ->
      let acc = ref 0.0 in
      for i = 0 to extent - 1 do
        acc := !acc +. eval_expr node ((ax, i) :: env) current_child body
      done;
      !acc
    | ChildSum body ->
      Array.fold_left
        (fun acc c -> acc +. eval_expr node env (Some c) body)
        0.0 node.children
  in
  List.iter eval_node structure.Structure.roots;
  { program; structure; values }

(* Value of any operator at a node (leaf nodes expose their leaf-case
   operators). *)
let op_value t name (node : Node.t) =
  match Hashtbl.find_opt t.values.(node.id) name with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Ra_eval: no value for %s at node %d" name node.id)

let state t st_name node =
  let st = state_by_name t.program st_name in
  op_value t st.st_op node
