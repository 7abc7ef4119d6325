open Ir
module Tensor = Cortex_tensor.Tensor
module Shape = Cortex_tensor.Shape
module Nonlinear = Cortex_tensor.Nonlinear

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type value = Vi of int | Vf of float

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable flops : int;
  mutable loads_by_space : int array;
  mutable stores_by_space : int array;
}

let space_index = function Param -> 0 | Global -> 1 | Shared -> 2 | Register -> 3

let fresh_counters () =
  { loads = 0; stores = 0; flops = 0; loads_by_space = Array.make 4 0; stores_by_space = Array.make 4 0 }

type context = {
  ufs : (int, int array -> int) Hashtbl.t;
  storage : (int, Tensor.t) Hashtbl.t;
  tensors_meta : (int, tensor) Hashtbl.t;
  num_internal_batches : int;
  count : bool;
  ctrs : counters;
}

let create ?(count = false) ~num_internal_batches () =
  {
    ufs = Hashtbl.create 16;
    storage = Hashtbl.create 16;
    tensors_meta = Hashtbl.create 16;
    num_internal_batches;
    count;
    ctrs = fresh_counters ();
  }

let counters ctx = ctx.ctrs
let num_internal_batches ctx = ctx.num_internal_batches

let bind_uf ctx (u : Uf.t) f = Hashtbl.replace ctx.ufs u.Uf.uid f
let bind_uf0 ctx u v = bind_uf ctx u (fun _ -> v)

let bind_tensor ctx (t : tensor) storage =
  Hashtbl.replace ctx.tensors_meta t.tid t;
  Hashtbl.replace ctx.storage t.tid storage

let as_int = function
  | Vi n -> n
  | Vf v -> fail "expected int, got float %g" v

let as_float = function Vf v -> v | Vi n -> float_of_int n

(* ---------- compilation to closures ---------- *)

(* A compiled expression, typed by the value it always produces: int
   unless a [Flt], [Load] or [Math] is involved.  [V] is the run-time
   typed case, needed only below a [Select] whose branches differ in
   type. *)
type code = I of (unit -> int) | F of (unit -> float) | V of (unit -> value)

(* Where a bound variable lives in the frame. *)
type slot = Si of int | Sf of int | Sv of int

module Scope = Map.Make (Int)

(* A tensor as the compiled code sees it: resolved to its storage on
   first access, so unbound temporaries are still allocated lazily. *)
type cell = {
  tensor : tensor;
  mutable ready : bool;
  mutable data : float array;
  mutable shape : int array;
  mutable strides : int array;
}

(* One compilation: the variable slots of every binder it compiles and
   the tensor cells its loads and stores share. *)
type frame = {
  ctx : context;
  ints : int array;
  floats : float array;
  values : value array;
  mutable next_slot : int;
  cells : (int, cell) Hashtbl.t;
}

(* Every [For] and [Let] gets its own slot, so a frame is sized by
   counting them before compiling. *)
let binders s =
  fold_stmt ~expr:(fun n _ -> n) ~stmt:(fun n s -> match s with For _ | Let _ -> n + 1 | _ -> n) 0 s

(* Most frames are [get_tensor]'s, for an unbound tensor's extents:
   no slots and no tensor accesses, so they allocate next to nothing. *)
let new_frame ctx ~slots =
  let make init = if slots = 0 then [||] else Array.make slots init in
  {
    ctx;
    ints = make 0;
    floats = make 0.0;
    values = make (Vi 0);
    next_slot = 0;
    cells = Hashtbl.create 1;
  }

let fresh_slot fr =
  let k = fr.next_slot in
  fr.next_slot <- k + 1;
  k

let int_code = function
  | I f -> f
  | F f -> fun () -> as_int (Vf (f ()))
  | V f -> fun () -> as_int (f ())

let float_code = function
  | I f -> fun () -> float_of_int (f ())
  | F f -> f
  | V f -> fun () -> as_float (f ())

let value_code = function
  | I f -> fun () -> Vi (f ())
  | F f -> fun () -> Vf (f ())
  | V f -> f

let int_op op x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then fail "division by zero" else x / y
  | Mod -> if y = 0 then fail "mod by zero" else x mod y
  | Min -> min x y
  | Max -> max x y

let float_op op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Mod -> Float.rem x y
  | Min -> Float.min x y
  | Max -> Float.max x y

let int_cmp op (x : int) y =
  match op with Lt -> x < y | Le -> x <= y | Gt -> x > y | Ge -> x >= y | Eq -> x = y | Ne -> x <> y

let float_cmp op (x : float) y =
  match op with Lt -> x < y | Le -> x <= y | Gt -> x > y | Ge -> x >= y | Eq -> x = y | Ne -> x <> y

(* Operands are evaluated left to right, as every check below relies
   on: a later operand's error never pre-empts an earlier one's. *)
let int_binop op a b =
  match op with
  | Add -> fun () -> let x = a () in x + b ()
  | Sub -> fun () -> let x = a () in x - b ()
  | Mul -> fun () -> let x = a () in x * b ()
  | _ -> fun () -> let x = a () in int_op op x (b ())

let float_binop op a b =
  match op with
  | Add -> fun () -> let x = a () in x +. b ()
  | Sub -> fun () -> let x = a () in x -. b ()
  | Mul -> fun () -> let x = a () in x *. b ()
  | Div -> fun () -> let x = a () in x /. b ()
  | _ -> fun () -> let x = a () in float_op op x (b ())

let nop () = ()

(* Counter updates, compiled in only under [~count:true]. *)
let flop_counter ctx n =
  if not ctx.count then nop
  else
    let c = ctx.ctrs in
    fun () -> c.flops <- c.flops + n

let load_counter ctx space =
  if not ctx.count then nop
  else
    let c = ctx.ctrs and s = space_index space in
    fun () ->
      c.loads <- c.loads + 1;
      c.loads_by_space.(s) <- c.loads_by_space.(s) + 1

let store_counter ctx space =
  if not ctx.count then nop
  else
    let c = ctx.ctrs and s = space_index space in
    fun () ->
      c.stores <- c.stores + 1;
      c.stores_by_space.(s) <- c.stores_by_space.(s) + 1

(* The per-dimension checks and messages of [Shape.flatten_index]. *)
let bad_rank what cell got =
  fail "%s %s: Shape.flatten_index: rank %d vs %d" what cell.tensor.tname got
    (Array.length cell.shape)

let dim what cell d i =
  if i < 0 || i >= cell.shape.(d) then
    fail "%s %s: Shape.flatten_index: index %d out of [0,%d) at dim %d" what cell.tensor.tname i
      cell.shape.(d) d;
  i * cell.strides.(d)

let offset1 what cell a =
  if Array.length cell.shape <> 1 then bad_rank what cell 1;
  dim what cell 0 a

let offset2 what cell a b =
  if Array.length cell.shape <> 2 then bad_rank what cell 2;
  let o = dim what cell 0 a in
  o + dim what cell 1 b

let offset3 what cell a b c =
  if Array.length cell.shape <> 3 then bad_rank what cell 3;
  let o = dim what cell 0 a in
  let o = o + dim what cell 1 b in
  o + dim what cell 2 c

let offset_n what cell idx =
  if Array.length cell.shape <> Array.length idx then bad_rank what cell (Array.length idx);
  let o = ref 0 in
  Array.iteri (fun d i -> o := !o + dim what cell d i) idx;
  !o

(* An access site's flat offset: its indices evaluated left to right,
   then [between] (the counters, and a store's value), then the bounds
   checks. *)
let address what cell ~between (idx : (unit -> int) list) : unit -> int =
  match idx with
  | [ i0 ] ->
    fun () ->
      let a = i0 () in
      between ();
      offset1 what cell a
  | [ i0; i1 ] ->
    fun () ->
      let a = i0 () in
      let b = i1 () in
      between ();
      offset2 what cell a b
  | [ i0; i1; i2 ] ->
    fun () ->
      let a = i0 () in
      let b = i1 () in
      let c = i2 () in
      between ();
      offset3 what cell a b c
  | idx ->
    let idx = Array.of_list idx in
    fun () ->
      let v = Array.map (fun i -> i ()) idx in
      between ();
      offset_n what cell v

(* Without counters, indices that are all int variables are read
   straight from their slots. *)
let slot_address what cell ints scope idx =
  let slot = function
    | Var v -> (match Scope.find_opt v.Var.vid scope with Some (Si k) -> Some k | _ -> None)
    | _ -> None
  in
  match List.map slot idx with
  | [ Some k0 ] -> Some (fun () -> offset1 what cell ints.(k0))
  | [ Some k0; Some k1 ] -> Some (fun () -> offset2 what cell ints.(k0) ints.(k1))
  | [ Some k0; Some k1; Some k2 ] ->
    Some (fun () -> offset3 what cell ints.(k0) ints.(k1) ints.(k2))
  | _ -> None

let rec compile_expr fr scope e =
  match e with
  | Int n -> I (fun () -> n)
  | Flt v -> F (fun () -> v)
  | Var v -> (
    match Scope.find_opt v.Var.vid scope with
    | Some (Si k) ->
      let ints = fr.ints in
      I (fun () -> ints.(k))
    | Some (Sf k) ->
      let floats = fr.floats in
      F (fun () -> floats.(k))
    | Some (Sv k) ->
      let values = fr.values in
      V (fun () -> values.(k))
    | None ->
      let name = v.Var.vname in
      I (fun () -> fail "unbound variable %s" name))
  | Binop (op, a, b) -> (
    let a = compile_expr fr scope a and b = compile_expr fr scope b in
    let flop = flop_counter fr.ctx 1 in
    match (a, b) with
    | I a, I b -> I (int_binop op a b)
    | (I _ | F _), (I _ | F _) ->
      (* A float operation is counted once both operands are evaluated. *)
      let b = float_code b in
      let b =
        if fr.ctx.count then fun () ->
          let y = b () in
          flop ();
          y
        else b
      in
      F (float_binop op (float_code a) b)
    | a, b ->
      let a = value_code a and b = value_code b in
      V
        (fun () ->
          let va = a () in
          match (va, b ()) with
          | Vi x, Vi y -> Vi (int_op op x y)
          | _, vb ->
            flop ();
            Vf (float_op op (as_float va) (as_float vb))))
  | Cmp (op, a, b) -> (
    let a = compile_expr fr scope a and b = compile_expr fr scope b in
    let bit r = if r then 1 else 0 in
    match (a, b) with
    | I a, I b -> I (fun () -> let x = a () in bit (int_cmp op x (b ())))
    | (I _ | F _), (I _ | F _) ->
      let a = float_code a and b = float_code b in
      I (fun () -> let x = a () in bit (float_cmp op x (b ())))
    | a, b ->
      let a = value_code a and b = value_code b in
      I
        (fun () ->
          let va = a () in
          match (va, b ()) with
          | Vi x, Vi y -> bit (int_cmp op x y)
          | _, vb -> bit (float_cmp op (as_float va) (as_float vb))))
  | And (a, b) ->
    let a = int_code (compile_expr fr scope a) and b = int_code (compile_expr fr scope b) in
    I (fun () -> if a () <> 0 && b () <> 0 then 1 else 0)
  | Or (a, b) ->
    let a = int_code (compile_expr fr scope a) and b = int_code (compile_expr fr scope b) in
    I (fun () -> if a () <> 0 || b () <> 0 then 1 else 0)
  | Not a ->
    let a = int_code (compile_expr fr scope a) in
    I (fun () -> if a () = 0 then 1 else 0)
  | Select (c, a, b) -> (
    let c = int_code (compile_expr fr scope c) in
    match (compile_expr fr scope a, compile_expr fr scope b) with
    | I a, I b -> I (fun () -> if c () <> 0 then a () else b ())
    | F a, F b -> F (fun () -> if c () <> 0 then a () else b ())
    | a, b ->
      let a = value_code a and b = value_code b in
      V (fun () -> if c () <> 0 then a () else b ()))
  | Load (t, idx) ->
    let cell = cell_of fr t in
    let addr =
      match if fr.ctx.count then None else slot_address "load" cell fr.ints scope idx with
      | Some addr -> addr
      | None ->
        address "load" cell ~between:(load_counter fr.ctx t.space)
          (List.map (fun i -> int_code (compile_expr fr scope i)) idx)
    in
    F
      (fun () ->
        if not cell.ready then resolve fr cell;
        let off = addr () in
        cell.data.(off))
  | UfCall (u, args) -> (
    match Hashtbl.find_opt fr.ctx.ufs u.Uf.uid with
    | None ->
      let name = u.Uf.uname in
      I (fun () -> fail "unbound uninterpreted function %s" name)
    | Some f -> (
      match List.map (fun a -> int_code (compile_expr fr scope a)) args with
      | [] -> I (fun () -> f [||])
      | [ a0 ] -> I (fun () -> f [| a0 () |])
      | [ a0; a1 ] ->
        I
          (fun () ->
            let x = a0 () in
            f [| x; a1 () |])
      | args ->
        let args = Array.of_list args in
        I (fun () -> f (Array.map (fun a -> a ()) args))))
  | Math (k, a) ->
    (* Counted before its operand is evaluated. *)
    let g = Nonlinear.apply k and a = float_code (compile_expr fr scope a) in
    if fr.ctx.count then
      let flops = flop_counter fr.ctx (Nonlinear.flops k) in
      F
        (fun () ->
          flops ();
          g (a ()))
    else F (fun () -> g (a ()))

and cell_of fr (t : tensor) =
  match Hashtbl.find_opt fr.cells t.tid with
  | Some c -> c
  | None ->
    let c = { tensor = t; ready = false; data = [||]; shape = [||]; strides = [||] } in
    Hashtbl.replace fr.cells t.tid c;
    c

and resolve fr cell =
  let s = get_tensor fr.ctx cell.tensor in
  cell.data <- s.Tensor.data;
  cell.shape <- s.Tensor.shape;
  cell.strides <- Shape.strides s.Tensor.shape;
  cell.ready <- true

and get_tensor ctx (t : tensor) =
  match Hashtbl.find_opt ctx.storage t.tid with
  | Some s -> s
  | None ->
    let fr = new_frame ctx ~slots:0 in
    let extent e = int_code (compile_expr fr Scope.empty e) () in
    let storage = Tensor.zeros (Array.of_list (List.map extent t.extents)) in
    bind_tensor ctx t storage;
    storage

(* The first binding of a vid in [env] wins, as with [List.assoc]. *)
let bind_env fr env =
  List.fold_right
    (fun (vid, v) scope ->
      let k = fresh_slot fr in
      match v with
      | Vi n ->
        fr.ints.(k) <- n;
        Scope.add vid (Si k) scope
      | Vf x ->
        fr.floats.(k) <- x;
        Scope.add vid (Sf k) scope)
    env Scope.empty

let eval_expr ctx env e =
  let fr = new_frame ctx ~slots:(List.length env) in
  match compile_expr fr (bind_env fr env) e with
  | I f -> Vi (f ())
  | F f -> Vf (f ())
  | V f -> f ()

let rec compile_stmt fr scope s =
  match s with
  | For { v; extent; body; _ } ->
    let n = int_code (compile_expr fr scope extent) in
    let k = fresh_slot fr in
    let body = compile_stmt fr (Scope.add v.Var.vid (Si k) scope) body in
    let ints = fr.ints in
    fun () ->
      for i = 0 to n () - 1 do
        ints.(k) <- i;
        body ()
      done
  | Let (v, e, body) -> (
    let k = fresh_slot fr in
    let bind slot = compile_stmt fr (Scope.add v.Var.vid slot scope) body in
    match compile_expr fr scope e with
    | I f ->
      let body = bind (Si k) and ints = fr.ints in
      fun () ->
        ints.(k) <- f ();
        body ()
    | F f ->
      let body = bind (Sf k) and floats = fr.floats in
      fun () ->
        floats.(k) <- f ();
        body ()
    | V f ->
      let body = bind (Sv k) and values = fr.values in
      fun () ->
        values.(k) <- f ();
        body ())
  | Store (t, idx, value) -> (
    let cell = cell_of fr t in
    let value = float_code (compile_expr fr scope value) in
    match if fr.ctx.count then None else slot_address "store" cell fr.ints scope idx with
    | Some addr ->
      (* Slot reads cannot fail, so reading them after the value keeps
         every order of effects. *)
      fun () ->
        if not cell.ready then resolve fr cell;
        let v = value () in
        cell.data.(addr ()) <- v
    | None ->
      let v = [| 0.0 |] and count = store_counter fr.ctx t.space in
      let addr =
        address "store" cell ~between:(fun () ->
            v.(0) <- value ();
            count ())
          (List.map (fun i -> int_code (compile_expr fr scope i)) idx)
      in
      fun () ->
        if not cell.ready then resolve fr cell;
        let off = addr () in
        cell.data.(off) <- v.(0))
  | If (c, a, b) -> (
    let c = int_code (compile_expr fr scope c) in
    let a = compile_stmt fr scope a in
    match b with
    | None -> fun () -> if c () <> 0 then a ()
    | Some b ->
      let b = compile_stmt fr scope b in
      fun () -> if c () <> 0 then a () else b ())
  | Seq ss -> (
    match Array.of_list (List.map (compile_stmt fr scope) ss) with
    | [||] -> nop
    | [| a |] -> a
    | [| a; b |] ->
      fun () ->
        a ();
        b ()
    | fs -> fun () -> Array.iter (fun f -> f ()) fs)
  | Barrier | Nop -> nop

let run_stmt ctx env s =
  let fr = new_frame ctx ~slots:(List.length env + binders s) in
  compile_stmt fr (bind_env fr env) s ()

let run_program ctx (p : program) =
  let groups = launch_groups p in
  let slots =
    List.fold_left
      (fun n -> function
        | Single k -> n + binders k.body
        | Batch_run run -> List.fold_left (fun n (_, k) -> n + 1 + binders k.body) n run)
      0 groups
  in
  let fr = new_frame ctx ~slots in
  let launch = function
    | Single k -> compile_stmt fr Scope.empty k.body
    | Batch_run run ->
      let run =
        List.map
          (fun (b, k) ->
            let slot = fresh_slot fr in
            (slot, compile_stmt fr (Scope.singleton b.Var.vid (Si slot)) k.body))
          run
      in
      let ints = fr.ints in
      fun () ->
        for b = 0 to ctx.num_internal_batches - 1 do
          List.iter
            (fun (slot, body) ->
              ints.(slot) <- b;
              body ())
            run
        done
  in
  List.iter (fun f -> f ()) (List.map launch groups)
