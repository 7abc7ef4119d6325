open Ra
module Nonlinear = Cortex_tensor.Nonlinear

let leaf_substitute (program : Ra.t) e =
  let init_of st_name idx =
    let st = state_by_name program st_name in
    match st.st_init with
    | Zero -> Const 0.0
    | Init_param p -> Param (p, idx)
  in
  let rec go e =
    match e with
    | ChildSum _ -> Const 0.0
    | ChildState (st, Child _, idx) -> init_of st idx
    | ChildState (_, Current, _) ->
      (* Unreachable after ChildSum substitution, but keep it total. *)
      Const 0.0
    | Const _ | Param _ | Temp _ -> e
    | Binop (op, a, b) -> Binop (op, go a, go b)
    | Math (k, a) -> Math (k, go a)
    | Sum (ax, n, b) -> Sum (ax, n, go b)
  in
  go e

let is_zero = function Const 0.0 -> true | _ -> false
let is_one = function Const 1.0 -> true | _ -> false

let rec fold e =
  match e with
  | Const _ | Param _ | ChildState _ | Temp _ -> e
  | Binop (op, a, b) ->
    let a = fold a and b = fold b in
    (match (op, a, b) with
     | Add, Const x, Const y -> Const (x +. y)
     | Sub, Const x, Const y -> Const (x -. y)
     | Mul, Const x, Const y -> Const (x *. y)
     | Div, Const x, Const y when y <> 0.0 -> Const (x /. y)
     | Min, Const x, Const y -> Const (Float.min x y)
     | Max, Const x, Const y -> Const (Float.max x y)
     | Add, z, x when is_zero z -> x
     | Add, x, z when is_zero z -> x
     | Sub, x, z when is_zero z -> x
     | Mul, z, _ when is_zero z -> Const 0.0
     | Mul, _, z when is_zero z -> Const 0.0
     | Mul, o, x when is_one o -> x
     | Mul, x, o when is_one o -> x
     | Div, x, o when is_one o -> x
     | _ -> Binop (op, a, b))
  | Math (k, a) ->
    (match fold a with
     | Const v -> Const (Nonlinear.apply k v)
     | a -> Math (k, a))
  | Sum (ax, n, b) ->
    (match fold b with
     | Const 0.0 -> Const 0.0
     | Const v -> Const (float_of_int n *. v)
     | b -> Sum (ax, n, b))
  | ChildSum b ->
    (match fold b with Const 0.0 -> Const 0.0 | b -> ChildSum b)

let rec node_dependent ~ops e =
  match e with
  | Const _ -> false
  | Param (_, idx) | Temp (_, idx) | ChildState (_, _, idx)
    when List.exists (function IPayload -> true | IAxis _ | IConst _ -> false) idx ->
    true
  | Param _ -> false
  | ChildState _ | ChildSum _ -> true
  | Temp (name, _) ->
    (match List.find_opt (fun o -> o.op_name = name) ops with
     | Some def -> node_dependent ~ops def.op_body
     | None -> true)
  | Binop (_, a, b) -> node_dependent ~ops a || node_dependent ~ops b
  | Math (_, a) | Sum (_, _, a) -> node_dependent ~ops a

(* Replace temp references whose defining operator folded to a
   constant. *)
let rec subst_const_temps lookup e =
  match e with
  | Temp (name, _) -> (match lookup name with Some v -> Const v | None -> e)
  | Const _ | Param _ | ChildState _ -> e
  | Binop (op, a, b) -> Binop (op, subst_const_temps lookup a, subst_const_temps lookup b)
  | Math (k, a) -> Math (k, subst_const_temps lookup a)
  | Sum (ax, n, a) -> Sum (ax, n, subst_const_temps lookup a)
  | ChildSum a -> ChildSum (subst_const_temps lookup a)

let const_propagate ops =
  let consts : (string, float) Hashtbl.t = Hashtbl.create 8 in
  List.map
    (fun (o : op) ->
      let body = fold (subst_const_temps (Hashtbl.find_opt consts) o.op_body) in
      (match body with
       | Const v -> Hashtbl.replace consts o.op_name v
       | _ -> ());
      { o with op_body = body })
    ops
