module Nonlinear = Cortex_tensor.Nonlinear

type bop = Add | Sub | Mul | Div | Min | Max

type child_sel = Child of int | Current

type ridx = IAxis of string | IConst of int | IPayload

type rexpr =
  | Const of float
  | Param of string * ridx list
  | ChildState of string * child_sel * ridx list
  | Temp of string * ridx list
  | Binop of bop * rexpr * rexpr
  | Math of Nonlinear.kind * rexpr
  | Sum of string * int * rexpr
  | ChildSum of rexpr

type op = {
  op_name : string;
  op_axes : (string * int) list;
  op_body : rexpr;
  op_phase : int;
  op_precompute : bool;
}

type init = Zero | Init_param of string

type state = { st_name : string; st_op : string; st_init : init }

type facts = {
  refactor_publish : string list;
  refactor_removes_barrier : bool;
  block_local_unroll : bool;
}

let no_facts =
  { refactor_publish = []; refactor_removes_barrier = true; block_local_unroll = false }

type t = {
  name : string;
  kind : Cortex_ds.Structure.kind;
  max_children : int;
  params : (string * int list) list;
  rec_ops : op list;
  leaf_ops : op list option;
  states : state list;
  outputs : string list;
  facts : facts;
}

let op ?(phase = 0) ?(precompute = false) op_name ~axes op_body =
  { op_name; op_axes = axes; op_body; op_phase = phase; op_precompute = precompute }

let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let tanh_ a = Math (Nonlinear.Tanh, a)
let relu_ a = Math (Nonlinear.Relu, a)

exception Invalid_program of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_program s)) fmt

let op_dims o = List.map snd o.op_axes

let find_op ops name =
  match List.find_opt (fun o -> o.op_name = name) ops with
  | Some o -> o
  | None -> fail "no operator named %s" name

let state_by_name t name =
  match List.find_opt (fun s -> s.st_name = name) t.states with
  | Some s -> s
  | None -> fail "no state named %s" name

let num_phases ops = Stdlib.( + ) 1 (List.fold_left (fun m o -> max m o.op_phase) 0 ops)

(* ---------- validation ---------- *)

let validate_case t ~is_leaf ops =
  (* Unique names and temp ordering. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun o ->
      if Hashtbl.mem seen o.op_name then fail "duplicate operator %s" o.op_name;
      Hashtbl.add seen o.op_name o)
    ops;
  (* Phases dense from 0. *)
  let phases = List.sort_uniq compare (List.map (fun o -> o.op_phase) ops) in
  List.iteri
    (fun i p -> if p <> i then fail "phases are not dense from 0 (found %d)" p)
    phases;
  let param_dims name =
    match List.assoc_opt name t.params with
    | Some dims -> dims
    | None -> fail "unknown parameter %s" name
  in
  let defined_before = Hashtbl.create 16 in
  List.iter
    (fun o ->
      let rec check_expr ~axes ~in_childsum e =
        match e with
        | Const _ -> ()
        | Param (p, idx) ->
          let dims = param_dims p in
          if List.length idx <> List.length dims then
            fail "%s: parameter %s indexed with %d of %d dims" o.op_name p
              (List.length idx) (List.length dims);
          List.iter (check_idx ~axes) idx
        | Temp (name, idx) ->
          (match Hashtbl.find_opt defined_before name with
           | None -> fail "%s: temp %s not defined earlier" o.op_name name
           | Some def ->
             if List.length idx <> List.length def.op_axes then
               fail "%s: temp %s indexed with %d of %d dims" o.op_name name
                 (List.length idx)
                 (List.length def.op_axes));
          List.iter (check_idx ~axes) idx
        | ChildState (st, sel, idx) ->
          if is_leaf then fail "leaf operator %s references children" o.op_name;
          if o.op_precompute then fail "precompute operator %s references children" o.op_name;
          (match List.find_opt (fun s -> s.st_name = st) t.states with
           | None -> fail "%s: unknown state %s" o.op_name st
           | Some _ -> ());
          (match sel with
           | Current ->
             if not in_childsum then fail "%s: Current child outside ChildSum" o.op_name
           | Child k ->
             if k < 0 || k >= t.max_children then
               fail "%s: child %d out of range" o.op_name k);
          List.iter (check_idx ~axes) idx
        | Binop (_, a, b) ->
          check_expr ~axes ~in_childsum a;
          check_expr ~axes ~in_childsum b
        | Math (_, a) -> check_expr ~axes ~in_childsum a
        | Sum (ax, extent, body) ->
          if extent <= 0 then fail "%s: reduction %s has extent %d" o.op_name ax extent;
          if List.mem_assoc ax axes then fail "%s: axis %s shadowed" o.op_name ax;
          check_expr ~axes:((ax, extent) :: axes) ~in_childsum body
        | ChildSum body ->
          if is_leaf then fail "leaf operator %s uses ChildSum" o.op_name;
          if in_childsum then fail "%s: nested ChildSum" o.op_name;
          check_expr ~axes ~in_childsum:true body
      and check_idx ~axes = function
        | IAxis a -> if not (List.mem_assoc a axes) then fail "%s: unbound axis %s" o.op_name a
        | IConst _ | IPayload -> ()
      in
      List.iter
        (fun (a, extent) ->
          if extent <= 0 then fail "%s: axis %s has extent %d" o.op_name a extent)
        o.op_axes;
      check_expr ~axes:o.op_axes ~in_childsum:false o.op_body;
      Hashtbl.add defined_before o.op_name o)
    ops

let validate t =
  if t.max_children < 1 then fail "max_children must be positive";
  (match t.kind with
   | Cortex_ds.Structure.Sequence ->
     if t.max_children <> 1 then fail "sequences have max_children = 1"
   | Cortex_ds.Structure.Tree | Cortex_ds.Structure.Dag -> ());
  let param_seen = Hashtbl.create 16 in
  List.iter
    (fun (p, dims) ->
      if Hashtbl.mem param_seen p then fail "duplicate parameter %s" p;
      Hashtbl.add param_seen p ();
      List.iter (fun d -> if d <= 0 then fail "parameter %s has extent %d" p d) dims)
    t.params;
  validate_case t ~is_leaf:false t.rec_ops;
  (match t.leaf_ops with
   | Some ops -> validate_case t ~is_leaf:true ops
   | None -> ());
  if t.states = [] then fail "a program needs at least one state";
  List.iter
    (fun st ->
      let rec_op = find_op t.rec_ops st.st_op in
      (match t.leaf_ops with
       | Some ops ->
         let leaf_op = find_op ops st.st_op in
         if op_dims leaf_op <> op_dims rec_op then
           fail "state %s has mismatched dims between cases" st.st_name
       | None -> ());
      (match st.st_init with
       | Zero -> ()
       | Init_param p ->
         (match List.assoc_opt p t.params with
          | Some dims when dims = op_dims rec_op -> ()
          | Some _ -> fail "init parameter %s has wrong dims for state %s" p st.st_name
          | None -> fail "unknown init parameter %s" p)))
    t.states;
  List.iter (fun o -> ignore (state_by_name t o)) t.outputs;
  if t.outputs = [] then fail "a program needs at least one output state";
  List.iter (fun name -> ignore (find_op t.rec_ops name)) t.facts.refactor_publish

(* ---------- printing ---------- *)

let bop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Min -> "min"
  | Max -> "max"

let ridx_to_string = function
  | IAxis a -> a
  | IConst k -> string_of_int k
  | IPayload -> "payload(n)"

let sel_to_string = function Child k -> Printf.sprintf "child%d" k | Current -> "k"

let rec rexpr_to_string e =
  let idx l = String.concat ", " (List.map ridx_to_string l) in
  match e with
  | Const v -> Printf.sprintf "%g" v
  | Param (p, i) -> Printf.sprintf "%s[%s]" p (idx i)
  | ChildState (s, sel, i) -> Printf.sprintf "%s@%s[%s]" s (sel_to_string sel) (idx i)
  | Temp (name, i) -> Printf.sprintf "%s[%s]" name (idx i)
  | Binop ((Min | Max) as o, a, b) ->
    Printf.sprintf "%s(%s, %s)" (bop_name o) (rexpr_to_string a) (rexpr_to_string b)
  | Binop (o, a, b) ->
    Printf.sprintf "(%s %s %s)" (rexpr_to_string a) (bop_name o) (rexpr_to_string b)
  | Math (k, a) -> Printf.sprintf "%s(%s)" (Nonlinear.name k) (rexpr_to_string a)
  | Sum (ax, extent, b) -> Printf.sprintf "sum(%s<%d, %s)" ax extent (rexpr_to_string b)
  | ChildSum b -> Printf.sprintf "childsum(%s)" (rexpr_to_string b)

let to_string t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "model %s (max_children=%d)\n" t.name t.max_children);
  List.iter
    (fun (p, dims) ->
      Buffer.add_string buf
        (Printf.sprintf "  param %s[%s]\n" p
           (String.concat "," (List.map string_of_int dims))))
    t.params;
  let case label ops =
    Buffer.add_string buf (Printf.sprintf "  %s:\n" label);
    List.iter
      (fun o ->
        let axes =
          String.concat ","
            (List.map (fun (a, e) -> Printf.sprintf "%s<%d" a e) o.op_axes)
        in
        let tags =
          (if o.op_phase > 0 then Printf.sprintf " @phase%d" o.op_phase else "")
          ^ if o.op_precompute then " @precompute" else ""
        in
        Buffer.add_string buf
          (Printf.sprintf "    %s(%s)%s = %s\n" o.op_name axes tags
             (rexpr_to_string o.op_body)))
      ops
  in
  case "recursive case" t.rec_ops;
  (match t.leaf_ops with Some ops -> case "leaf case" ops | None -> ());
  List.iter
    (fun s -> Buffer.add_string buf (Printf.sprintf "  state %s = %s\n" s.st_name s.st_op))
    t.states;
  Buffer.add_string buf
    (Printf.sprintf "  outputs: %s\n" (String.concat ", " t.outputs));
  Buffer.contents buf
