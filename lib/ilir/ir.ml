(* The Irregular Loops IR (§5 of the paper).

   The ILIR is the loop-based, data-structure-agnostic program
   representation that recursion is lowered into.  It extends a
   tensor-compiler IR with (1) non-affine index expressions represented
   as uninterpreted functions of loop variables, (2) loops with variable
   (UF-valued) bounds and (3) a conditional operator.  Tensor dimensions
   and loops carry *named dimensions* (§A.2) so bounds inference can
   relate the two even when the correspondence is not one-to-one. *)

(* ---------- named dimensions ---------- *)

module Dim = struct
  type t = { dname : string; did : int }

  let counter = ref 0

  let fresh dname =
    incr counter;
    { dname; did = !counter }

  let name d = d.dname
end

(* ---------- uninterpreted functions ---------- *)

module Uf = struct
  (* An uninterpreted integer function backed at runtime by linearizer
     output (e.g. [child0(n)], [batch_len(b)]).  [range] is an inclusive
     interval on the result when one is known statically; the
     simplifier's interval analysis uses it the way the paper uses Z3
     facts. *)
  type t = { uname : string; uid : int; arity : int; range : (int * int) option }

  let counter = ref 0

  let fresh ?range uname ~arity =
    incr counter;
    { uname; uid = !counter; arity; range }
end

(* ---------- variables ---------- *)

module Var = struct
  type t = { vname : string; vid : int }

  let counter = ref 0

  let fresh vname =
    incr counter;
    { vname; vid = !counter }

  let equal a b = a.vid = b.vid
  let name v = v.vname
end

(* ---------- memory spaces and tensors ---------- *)

type space =
  | Param  (* model weights: global memory, candidates for persistence *)
  | Global  (* off-chip memory *)
  | Shared  (* on-chip scratchpad *)
  | Register  (* per-thread registers *)

let space_name = function
  | Param -> "param"
  | Global -> "global"
  | Shared -> "shared"
  | Register -> "register"

type binop = Add | Sub | Mul | Div | Mod | Min | Max
type cmpop = Lt | Le | Gt | Ge | Eq | Ne

type expr =
  | Int of int
  | Flt of float
  | Var of Var.t
  | Binop of binop * expr * expr
  | Cmp of cmpop * expr * expr  (* 1 when true, 0 when false *)
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Select of expr * expr * expr  (* cond, then, else *)
  | Load of tensor * expr list
  | UfCall of Uf.t * expr list
  | Math of Cortex_tensor.Nonlinear.kind * expr

and tensor = {
  tname : string;
  tid : int;
  dims : Dim.t list;  (* named dimension per tensor dimension *)
  extents : expr list;  (* per-dimension extents; may contain UF calls *)
  space : space;
}

type loop_kind =
  | Serial
  | Parallel  (* maps to GPU threads / CPU cores *)
  | Vectorized  (* maps to SIMD lanes on CPUs *)
  | Unrolled

type stmt =
  | For of { v : Var.t; extent : expr; kind : loop_kind; dim : Dim.t option; body : stmt }
  | Let of Var.t * expr * stmt  (* node = batch_begin(b) + n_idx, etc. *)
  | Store of tensor * expr list * expr
  | If of expr * stmt * stmt option  (* the conditional operator, §5.2 *)
  | Seq of stmt list
  | Barrier  (* global synchronization point *)
  | Nop

(* A kernel is the unit of device launch.  [PerInternalBatch b] kernels
   are launched once per internal dynamic batch with [b] bound to the
   batch index — this is what execution looks like when kernel fusion is
   off and each operator becomes its own launch. *)
type launch = Once | PerInternalBatch of Var.t

type kernel = { kname : string; launch : launch; body : stmt }

type program = {
  pname : string;
  params : tensor list;
  inputs : tensor list;  (* per-node model inputs (e.g. embedded words) *)
  temporaries : tensor list;
  outputs : tensor list;
  kernels : kernel list;
}

type launch_group = Single of kernel | Batch_run of (Var.t * kernel) list

(* A maximal run of consecutive per-batch kernels executes batch-major:
   for each batch, every kernel of the run. *)
let launch_groups (p : program) =
  let rec go = function
    | [] -> []
    | ({ launch = Once; _ } as k) :: rest -> Single k :: go rest
    | ({ launch = PerInternalBatch b; _ } as k) :: rest -> (
      match go rest with
      | Batch_run run :: groups -> Batch_run ((b, k) :: run) :: groups
      | groups -> Batch_run [ (b, k) ] :: groups)
  in
  go p.kernels

(* ---------- constructors ---------- *)

let tensor_counter = ref 0

let tensor ?(space = Global) tname dims extents =
  if List.length dims <> List.length extents then
    invalid_arg (Printf.sprintf "Ir.tensor %s: %d dims, %d extents" tname (List.length dims) (List.length extents));
  incr tensor_counter;
  { tname; tid = !tensor_counter; dims; extents; space }

let int n = Int n
let flt v = Flt v

let for_ ?(kind = Serial) ?dim v extent body = For { v; extent; kind; dim; body }
let seq stmts = match stmts with [ s ] -> s | stmts -> Seq stmts

(* ---------- traversals ---------- *)

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Int _ | Flt _ | Var _ -> acc
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
    fold_expr f (fold_expr f acc a) b
  | Not a | Math (_, a) -> fold_expr f acc a
  | Select (c, a, b) -> fold_expr f (fold_expr f (fold_expr f acc c) a) b
  | Load (_, idx) | UfCall (_, idx) -> List.fold_left (fold_expr f) acc idx

let rec fold_stmt ~expr ~stmt acc s =
  let acc = stmt acc s in
  match s with
  | For { extent; body; _ } -> fold_stmt ~expr ~stmt (fold_expr expr acc extent) body
  | Let (_, e, body) -> fold_stmt ~expr ~stmt (fold_expr expr acc e) body
  | Store (_, idx, value) ->
    fold_expr expr (List.fold_left (fold_expr expr) acc idx) value
  | If (c, a, b) ->
    let acc = fold_expr expr acc c in
    let acc = fold_stmt ~expr ~stmt acc a in
    (match b with Some b -> fold_stmt ~expr ~stmt acc b | None -> acc)
  | Seq ss -> List.fold_left (fold_stmt ~expr ~stmt) acc ss
  | Barrier | Nop -> acc

let rec map_expr f e =
  match f e with
  | Some e' -> e'
  | None ->
    (match e with
     | Int _ | Flt _ | Var _ -> e
     | Binop (op, a, b) -> Binop (op, map_expr f a, map_expr f b)
     | Cmp (op, a, b) -> Cmp (op, map_expr f a, map_expr f b)
     | And (a, b) -> And (map_expr f a, map_expr f b)
     | Or (a, b) -> Or (map_expr f a, map_expr f b)
     | Not a -> Not (map_expr f a)
     | Select (c, a, b) -> Select (map_expr f c, map_expr f a, map_expr f b)
     | Load (t, idx) -> Load (t, List.map (map_expr f) idx)
     | UfCall (u, idx) -> UfCall (u, List.map (map_expr f) idx)
     | Math (k, a) -> Math (k, map_expr f a))

let rec map_stmt ?(expr = fun _ -> None) ?(stmt = fun _ -> None) s =
  match stmt s with
  | Some s' -> s'
  | None ->
    (match s with
     | For r -> For { r with extent = map_expr expr r.extent; body = map_stmt ~expr ~stmt r.body }
     | Let (v, e, body) -> Let (v, map_expr expr e, map_stmt ~expr ~stmt body)
     | Store (t, idx, value) -> Store (t, List.map (map_expr expr) idx, map_expr expr value)
     | If (c, a, b) ->
       If (map_expr expr c, map_stmt ~expr ~stmt a, Option.map (map_stmt ~expr ~stmt) b)
     | Seq ss -> Seq (List.map (map_stmt ~expr ~stmt) ss)
     | Barrier | Nop -> s)

let subst_var_stmt v replacement s =
  map_stmt ~expr:(function Var v' when Var.equal v v' -> Some replacement | _ -> None) s

(* [Lower.lower] starts over, so a program's ids (and a bundle's bytes)
   do not depend on what the process lowered before. *)
let reset_ids () =
  Dim.counter := 0;
  Uf.counter := 0;
  Var.counter := 0;
  tensor_counter := 0

(* A program keeps the dim/var/uf/tensor ids it was lowered with, and
   the counters may since have been reset or moved on (or the program
   was read back from a bundle).  Advance them past every id it uses, or
   the next [fresh] minted into it (a staging tensor added by
   [Lower.apply_plan], a split loop's new var) could collide with one of
   its ids and alias a distinct object in every id-keyed table. *)
let claim_ids (p : program) =
  let claim r id = if id > !r then r := id in
  let claim_dim (d : Dim.t) = claim Dim.counter d.Dim.did in
  let claim_var (v : Var.t) = claim Var.counter v.Var.vid in
  let claim_uf (u : Uf.t) = claim Uf.counter u.Uf.uid in
  let rec claim_tensor t =
    claim tensor_counter t.tid;
    List.iter claim_dim t.dims;
    List.iter (fold_expr claim_expr ()) t.extents
  and claim_expr () e =
    match e with
    | Var v -> claim_var v
    | Load (t, _) -> claim_tensor t
    | UfCall (u, _) -> claim_uf u
    | _ -> ()
  in
  let claim_stmt () s =
    match s with
    | For { v; dim; _ } ->
      claim_var v;
      Option.iter claim_dim dim
    | Let (v, _, _) -> claim_var v
    | Store (t, _, _) -> claim_tensor t
    | _ -> ()
  in
  List.iter claim_tensor p.params;
  List.iter claim_tensor p.inputs;
  List.iter claim_tensor p.temporaries;
  List.iter claim_tensor p.outputs;
  List.iter
    (fun k ->
      (match k.launch with PerInternalBatch v -> claim_var v | Once -> ());
      fold_stmt ~expr:claim_expr ~stmt:claim_stmt () k.body)
    p.kernels

(* ---------- pretty printing ---------- *)

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"

let cmpop_name = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="

let rec expr_to_string e =
  match e with
  | Int n -> string_of_int n
  | Flt v -> Printf.sprintf "%g" v
  | Var v -> Var.name v
  | Binop ((Min | Max) as op, a, b) ->
    Printf.sprintf "%s(%s, %s)" (binop_name op) (expr_to_string a) (expr_to_string b)
  | Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_to_string a) (binop_name op) (expr_to_string b)
  | Cmp (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_to_string a) (cmpop_name op) (expr_to_string b)
  | And (a, b) -> Printf.sprintf "(%s && %s)" (expr_to_string a) (expr_to_string b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (expr_to_string a) (expr_to_string b)
  | Not a -> Printf.sprintf "!(%s)" (expr_to_string a)
  | Select (c, a, b) ->
    Printf.sprintf "select(%s, %s, %s)" (expr_to_string c) (expr_to_string a)
      (expr_to_string b)
  | Load (t, idx) ->
    Printf.sprintf "%s[%s]" t.tname (String.concat ", " (List.map expr_to_string idx))
  | UfCall (u, args) ->
    Printf.sprintf "%s(%s)" u.Uf.uname (String.concat ", " (List.map expr_to_string args))
  | Math (k, a) ->
    Printf.sprintf "%s(%s)" (Cortex_tensor.Nonlinear.name k) (expr_to_string a)

let loop_kind_name = function
  | Serial -> "for"
  | Parallel -> "parallel_for"
  | Vectorized -> "vector_for"
  | Unrolled -> "unrolled_for"

let rec stmt_to_buf buf indent s =
  let pad = String.make indent ' ' in
  match s with
  | For { v; extent; kind; dim; body } ->
    let dim_note = match dim with Some d -> "  # " ^ Dim.name d | None -> "" in
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s = 0:%s:%s\n" pad (loop_kind_name kind) (Var.name v)
         (expr_to_string extent) dim_note);
    stmt_to_buf buf (indent + 2) body
  | Let (v, e, body) ->
    Buffer.add_string buf (Printf.sprintf "%s%s = %s\n" pad (Var.name v) (expr_to_string e));
    stmt_to_buf buf indent body
  | Store (t, idx, value) ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s[%s] = %s\n" pad t.tname
         (String.concat ", " (List.map expr_to_string idx))
         (expr_to_string value))
  | If (c, a, b) ->
    Buffer.add_string buf (Printf.sprintf "%sif %s:\n" pad (expr_to_string c));
    stmt_to_buf buf (indent + 2) a;
    (match b with
     | Some b ->
       Buffer.add_string buf (Printf.sprintf "%selse:\n" pad);
       stmt_to_buf buf (indent + 2) b
     | None -> ())
  | Seq ss -> List.iter (stmt_to_buf buf indent) ss
  | Barrier -> Buffer.add_string buf (Printf.sprintf "%sbarrier()\n" pad)
  | Nop -> ()

let stmt_to_string s =
  let buf = Buffer.create 256 in
  stmt_to_buf buf 0 s;
  Buffer.contents buf

let program_to_string p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "program %s\n" p.pname);
  let tensor_line role t =
    Buffer.add_string buf
      (Printf.sprintf "  %s %s%s : %s  # dims %s\n" role (space_name t.space) t.tname
         ("[" ^ String.concat ", " (List.map expr_to_string t.extents) ^ "]")
         (String.concat "," (List.map Dim.name t.dims)))
  in
  List.iter (tensor_line "param") p.params;
  List.iter (tensor_line "input") p.inputs;
  List.iter (tensor_line "temp ") p.temporaries;
  List.iter (tensor_line "out  ") p.outputs;
  List.iter
    (fun k ->
      let launch =
        match k.launch with
        | Once -> "once"
        | PerInternalBatch v -> "per internal batch " ^ Var.name v
      in
      Buffer.add_string buf (Printf.sprintf "kernel %s (%s):\n" k.kname launch);
      stmt_to_buf buf 2 k.body)
    p.kernels;
  Buffer.contents buf
