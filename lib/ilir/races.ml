open Ir
module Tensor = Cortex_tensor.Tensor
module Shape = Cortex_tensor.Shape
module Nonlinear = Cortex_tensor.Nonlinear

type race = {
  tensor : string;
  offset : int;
  writer : string;
  reader : string;
  epoch : int;
}

let to_string r =
  Printf.sprintf "race on %s[%d]: written by %s, read by %s in epoch %d" r.tensor r.offset
    r.writer r.reader r.epoch

let max_races = 32

type state = {
  ctx : Interp.context;
  writes : (int * int, int * string) Hashtbl.t;  (* (tid, offset) -> epoch, task *)
  mutable epoch : int;
  mutable races : race list;
  mutable race_count : int;
}

let record st tensor offset ~writer ~reader =
  if st.race_count < max_races then
    st.races <- { tensor; offset; writer; reader; epoch = st.epoch } :: st.races;
  st.race_count <- st.race_count + 1

let as_int = function
  | Interp.Vi n -> n
  | Interp.Vf _ -> failwith "Races: expected int"

let as_float = function Interp.Vf v -> v | Interp.Vi n -> float_of_int n

(* Expression evaluation mirroring the interpreter, with read
   interception; [task] identifies the current thread group. *)
let rec eval st env ~task e =
  match e with
  | Int _ | Flt _ | Var _ | UfCall _ -> Interp.eval_expr st.ctx env e
  | Binop (op, a, b) ->
    let va = eval st env ~task a and vb = eval st env ~task b in
    (match (va, vb) with
     | Interp.Vi x, Interp.Vi y ->
       Interp.Vi
         (match op with
          | Add -> x + y
          | Sub -> x - y
          | Mul -> x * y
          | Div -> x / y
          | Mod -> x mod y
          | Min -> min x y
          | Max -> max x y)
     | _ ->
       let x = as_float va and y = as_float vb in
       Interp.Vf
         (match op with
          | Add -> x +. y
          | Sub -> x -. y
          | Mul -> x *. y
          | Div -> x /. y
          | Mod -> Float.rem x y
          | Min -> Float.min x y
          | Max -> Float.max x y))
  | Cmp (op, a, b) ->
    let x = as_float (eval st env ~task a) and y = as_float (eval st env ~task b) in
    let r =
      match op with Lt -> x < y | Le -> x <= y | Gt -> x > y | Ge -> x >= y | Eq -> x = y | Ne -> x <> y
    in
    Interp.Vi (if r then 1 else 0)
  | And (a, b) ->
    Interp.Vi
      (if as_int (eval st env ~task a) <> 0 && as_int (eval st env ~task b) <> 0 then 1 else 0)
  | Or (a, b) ->
    Interp.Vi
      (if as_int (eval st env ~task a) <> 0 || as_int (eval st env ~task b) <> 0 then 1 else 0)
  | Not a -> Interp.Vi (if as_int (eval st env ~task a) = 0 then 1 else 0)
  | Select (c, a, b) ->
    if as_int (eval st env ~task c) <> 0 then eval st env ~task a else eval st env ~task b
  | Math (k, a) -> Interp.Vf (Nonlinear.apply k (as_float (eval st env ~task a)))
  | Load (t, idx) ->
    let storage = Interp.get_tensor st.ctx t in
    let offsets = Array.of_list (List.map (fun i -> as_int (eval st env ~task i)) idx) in
    let off = Shape.flatten_index storage.Tensor.shape offsets in
    (match Hashtbl.find_opt st.writes (t.tid, off) with
     | Some (e, writer) when e = st.epoch && writer <> task && t.space <> Param ->
       record st t.tname off ~writer ~reader:task
     | Some _ | None -> ());
    Interp.Vf (Tensor.get_flat storage off)

let rec run st env ~task s =
  match s with
  | Nop -> ()
  | Barrier -> st.epoch <- st.epoch + 1
  | Seq ss -> List.iter (run st env ~task) ss
  | Let (v, e, body) -> run st ((v.Var.vid, eval st env ~task e) :: env) ~task body
  | Store (t, idx, value) ->
    let storage = Interp.get_tensor st.ctx t in
    let offsets = Array.of_list (List.map (fun i -> as_int (eval st env ~task i)) idx) in
    let off = Shape.flatten_index storage.Tensor.shape offsets in
    let v = as_float (eval st env ~task value) in
    Tensor.set_flat storage off v;
    Hashtbl.replace st.writes (t.tid, off) (st.epoch, task)
  | If (c, a, b) ->
    if as_int (eval st env ~task c) <> 0 then run st env ~task a
    else (match b with Some b -> run st env ~task b | None -> ())
  | For { v; extent; kind; body; _ } ->
    let n = as_int (eval st env ~task extent) in
    for i = 0 to n - 1 do
      let task' =
        match kind with
        | Parallel -> Printf.sprintf "%s.%d" task i
        | Serial | Vectorized | Unrolled -> task
      in
      run st ((v.Var.vid, Interp.Vi i) :: env) ~task:task' body
    done

(* Replays kernels in [Interp.run_program]'s launch order so the replay
   produces the same final state; every kernel launch starts a fresh
   epoch (launches synchronize the device). *)
let check_program ~ctx (p : program) =
  let st = { ctx; writes = Hashtbl.create 1024; epoch = 0; races = []; race_count = 0 } in
  let launch env (k : kernel) =
    st.epoch <- st.epoch + 1;
    run st env ~task:"t" k.body
  in
  List.iter
    (function
      | Single k -> launch [] k
      | Batch_run run ->
        for b = 0 to Interp.num_internal_batches ctx - 1 do
          List.iter (fun (bvar, k) -> launch [ (bvar.Var.vid, Interp.Vi b) ] k) run
        done)
    (launch_groups p);
  List.rev st.races
