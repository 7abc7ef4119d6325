open Cortex_ilir
open Cortex_ra
open Ra

(* [open Ra] brings rexpr-building operators into scope; restore integer
   arithmetic for the compiler's own bookkeeping. *)
let ( + ) = Stdlib.( + )
let ( - ) = Stdlib.( - )
let ( * ) = Stdlib.( * )

module Linearizer = Cortex_linearizer.Linearizer
module Unrolling = Cortex_linearizer.Unrolling
module Tensor = Cortex_tensor.Tensor
module Obs = Cortex_obs.Obs

exception Lowering_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Lowering_error s)) fmt

type options = {
  dynamic_batch : bool;
  specialize : bool;
  fuse : bool;
  persist : bool;
  unroll : bool;
  refactor : bool;
  barrier_mode : Barrier.mode;
}

let none =
  {
    dynamic_batch = false;
    specialize = false;
    fuse = false;
    persist = false;
    unroll = false;
    refactor = false;
    barrier_mode = Barrier.Carrier;
  }

let default = { none with dynamic_batch = true; specialize = true; fuse = true; persist = true }

let baseline =
  { default with specialize = false; fuse = false; persist = false }

(* Canonical textual form for options, round-tripping through bundle
   manifests and engine config files.  Comma-joined tokens: a flag name
   present means the boolean is on; [barrier=conservative] marks the
   non-default barrier placement.  The empty token list (printed
   ["none"]) is all-off; [default] names {!default}. *)
let options_to_string o =
  if o = default then "default"
  else begin
    let toks = ref [] in
    let add tok = toks := tok :: !toks in
    if o.dynamic_batch then add "dynamic_batch";
    if o.specialize then add "specialize";
    if o.fuse then add "fuse";
    if o.persist then add "persist";
    if o.unroll then add "unroll";
    if o.refactor then add "refactor";
    if o.barrier_mode = Barrier.Conservative then add "barrier=conservative";
    match List.rev !toks with [] -> "none" | toks -> String.concat "," toks
  end

let options_of_string s =
  let s = String.trim s in
  if s = "default" then Some default
  else if s = "none" then Some none
  else begin
    let o = ref none in
    let ok = ref true in
    List.iter
      (fun tok ->
        match String.trim tok with
        | "" -> ()
        | "dynamic_batch" -> o := { !o with dynamic_batch = true }
        | "specialize" -> o := { !o with specialize = true }
        | "fuse" -> o := { !o with fuse = true }
        | "persist" -> o := { !o with persist = true }
        | "unroll" -> o := { !o with unroll = true }
        | "refactor" -> o := { !o with refactor = true }
        | "barrier=conservative" -> o := { !o with barrier_mode = Barrier.Conservative }
        | "barrier=carrier" -> o := { !o with barrier_mode = Barrier.Carrier }
        | _ -> ok := false)
      (String.split_on_char ',' s);
    if !ok then Some !o else None
  end

type ufs = {
  u_num_nodes : Ir.Uf.t;
  u_num_leaves : Ir.Uf.t;
  u_leaf_begin : Ir.Uf.t;
  u_num_internal : Ir.Uf.t;
  u_num_batches : Ir.Uf.t;
  u_batch_begin : Ir.Uf.t;
  u_batch_len : Ir.Uf.t;
  u_max_batch_len : Ir.Uf.t;
  u_child : Ir.Uf.t;
  u_num_children : Ir.Uf.t;
  u_payload : Ir.Uf.t;
  u_order : Ir.Uf.t;
  u_sched_node : Ir.Uf.t;
  u_role : Ir.Uf.t;
  u_needs_sync : Ir.Uf.t;
}

type compiled = {
  ra : Ra.t;
  options : options;
  prog : Ir.program;
  ufs : ufs;
  state_tensors : (string * Ir.tensor) list;
  param_tensors : (string * Ir.tensor) list;
  aliases : (Ir.tensor * Ir.tensor) list;
  phases : int;
}

(* ---------- compile-time state ---------- *)

type temp_index = By_pos | By_node | Hoisted

type temp_info = { ti_tensor : Ir.tensor; ti_index : temp_index }

type cstate = {
  ra : Ra.t;
  opts : options;
  ufs : ufs;
  d_node : Ir.Dim.t;
  d_pos : Ir.Dim.t;
  d_child : Ir.Dim.t;
  d_feat : Ir.Dim.t;
  params : (string, Ir.tensor) Hashtbl.t;
  states : (string, Ir.tensor) Hashtbl.t;  (* state name -> global tensor *)
  state_mirrors : (string, Ir.tensor) Hashtbl.t;  (* on-chip mirror under unrolling *)
  caches : (string, Ir.tensor) Hashtbl.t;  (* state name -> child cache tensor *)
  mutable temporaries : Ir.tensor list;
  mutable fresh : int;
}

let uf0 name = Ir.Uf.fresh name ~arity:0
let uf1 name = Ir.Uf.fresh name ~arity:1

let make_ufs () =
  {
    u_num_nodes = uf0 "num_nodes";
    u_num_leaves = uf0 "num_leaves";
    u_leaf_begin = uf0 "leaf_begin";
    u_num_internal = uf0 "num_internal";
    u_num_batches = uf0 "num_batches";
    u_batch_begin = uf1 "batch_begin";
    u_batch_len = uf1 "batch_len";
    u_max_batch_len = uf0 "max_batch_len";
    u_child = Ir.Uf.fresh "child" ~arity:2;
    u_num_children = uf1 "num_children";
    u_payload = uf1 "payload";
    u_order = uf1 "order";
    u_sched_node = uf1 "sched_node";
    u_role = Ir.Uf.fresh "batch_role" ~arity:1 ~range:(0, 1);
    u_needs_sync = Ir.Uf.fresh "needs_sync" ~arity:1 ~range:(0, 1);
  }

let nullary u = Ir.UfCall (u, [])

(* Extent of the position dimension of temporaries.  Fused kernels use
   the dense batch-position layout of Â§5.1 (one slot per node live at
   once: the widest batch, or a single slot when execution is
   serialized); unfused kernels materialize temporaries per node in
   global memory, so the position index is the node id itself. *)
let pos_extent c =
  if c.opts.fuse then nullary c.ufs.u_max_batch_len else nullary c.ufs.u_num_nodes

let record_temp c t =
  c.temporaries <- t :: c.temporaries;
  t

let fresh_name c base =
  c.fresh <- c.fresh + 1;
  Printf.sprintf "%s_%d" base c.fresh

(* ---------- expression lowering ---------- *)

type ectx = {
  c : cstate;
  axes : (string * Ir.Var.t * int) list;  (* axis name, loop var, extent *)
  node : Ir.expr;
  pos : Ir.expr;
  pos_ext : Ir.expr;  (* extent of the position dimension of temps *)
  temps : (string, temp_info) Hashtbl.t;
  current_child : Ir.expr option;
  nests : Ir.stmt list ref;
  in_reduction : bool;
  op_name : string;
  stages : (string, Ir.tensor) Hashtbl.t;
      (* §A.3 caches for parameters gathered by the node payload *)
}

let bop_to_ir = function
  | Ra.Add -> Ir.Add
  | Ra.Sub -> Ir.Sub
  | Ra.Mul -> Ir.Mul
  | Ra.Div -> Ir.Div
  | Ra.Min -> Ir.Min
  | Ra.Max -> Ir.Max

let lower_idx ectx = function
  | IAxis a ->
    (match List.find_opt (fun (n, _, _) -> n = a) ectx.axes with
     | Some (_, v, _) -> Ir.Var v
     | None -> fail "unbound axis %s in %s" a ectx.op_name)
  | IConst k -> Ir.Int k
  | IPayload -> Ir.UfCall (ectx.c.ufs.u_payload, [ ectx.node ])

let init_expr c st idx_exprs =
  let st = state_by_name c.ra st in
  match st.st_init with
  | Zero -> Ir.Flt 0.0
  | Init_param p -> Ir.Load (Hashtbl.find c.params p, idx_exprs)

let temp_load ectx info idx_exprs =
  match info.ti_index with
  | By_pos -> Ir.Load (info.ti_tensor, ectx.pos :: idx_exprs)
  | By_node -> Ir.Load (info.ti_tensor, ectx.node :: idx_exprs)
  | Hoisted -> Ir.Load (info.ti_tensor, idx_exprs)

(* Loops over the op's output axes with fresh variables; [f] receives
   the fresh vars in axis order and produces the innermost statement. *)
let axis_loops ectx ~tag f =
  let fresh_axes =
    List.map
      (fun (a, _, extent) ->
        (a, Ir.Var.fresh (Printf.sprintf "%s_%s%s" ectx.op_name a tag), extent))
      ectx.axes
  in
  let inner = f (List.map (fun (_, v, _) -> Ir.Var v) fresh_axes) fresh_axes in
  List.fold_right
    (fun (_, v, extent) body ->
      Ir.For { v; extent = Ir.Int extent; kind = Ir.Vectorized; dim = Some ectx.c.d_feat; body })
    fresh_axes inner

let rec lower_rexpr ectx (e : rexpr) : Ir.expr =
  match e with
  | Const v -> Ir.Flt v
  | Param (p, idx) when ectx.in_reduction && List.mem IPayload idx ->
    (* A payload-gathered parameter read inside a reduction would touch
       the row once per reduction step; stage the row on-chip first
       (§A.3: caching tensors indexed by non-affine expressions). *)
    let stage = payload_stage ectx p idx in
    let rest = List.filter (fun i -> i <> IPayload) idx in
    Ir.Load (stage, ectx.pos :: List.map (lower_idx ectx) rest)
  | Param (p, idx) ->
    Ir.Load (Hashtbl.find ectx.c.params p, List.map (lower_idx ectx) idx)
  | Temp (name, idx) ->
    (match Hashtbl.find_opt ectx.temps name with
     | Some info -> temp_load ectx info (List.map (lower_idx ectx) idx)
     | None -> fail "temp %s not lowered before use in %s" name ectx.op_name)
  | ChildState (st, sel, idx) ->
    let cache =
      match Hashtbl.find_opt ectx.c.caches st with
      | Some t -> t
      | None -> fail "state %s read but no cache was created (%s)" st ectx.op_name
    in
    let k =
      match sel with
      | Child k -> Ir.Int k
      | Current ->
        (match ectx.current_child with
         | Some k -> k
         | None -> fail "Current child outside ChildSum in %s" ectx.op_name)
    in
    Ir.Load (cache, k :: ectx.pos :: List.map (lower_idx ectx) idx)
  | Binop (op, a, b) -> Ir.Binop (bop_to_ir op, lower_rexpr ectx a, lower_rexpr ectx b)
  | Math (k, a) -> Ir.Math (k, lower_rexpr ectx a)
  | Sum (ax, extent, body) ->
    if ectx.in_reduction then
      fail "nested reductions in %s: introduce an explicit operator" ectx.op_name;
    lower_sum ectx ax extent body
  | ChildSum body ->
    if ectx.in_reduction then
      fail "nested reductions in %s: introduce an explicit operator" ectx.op_name;
    lower_childsum ectx body

and payload_stage ectx p idx =
  match Hashtbl.find_opt ectx.stages p with
  | Some t -> t
  | None ->
    let c = ectx.c in
    let param_t = Hashtbl.find c.params p in
    (* Fresh loop vars for the non-payload dimensions, with the
       parameter's declared extents. *)
    let slots =
      List.mapi
        (fun k i ->
          match i with
          | IPayload -> None
          | IAxis _ | IConst _ ->
            Some (Ir.Var.fresh (Printf.sprintf "%s_%s_s%d" ectx.op_name p k),
                  List.nth param_t.Ir.extents k))
        idx
    in
    let vars = List.filter_map Fun.id slots in
    let stage =
      record_temp c
        (Ir.tensor ~space:Ir.Shared
           (fresh_name c ("stage_" ^ p))
           (c.d_pos :: List.map (fun _ -> c.d_feat) vars)
           (ectx.pos_ext :: List.map snd vars))
    in
    let src_idx =
      List.map
        (function
          | None -> Ir.UfCall (c.ufs.u_payload, [ ectx.node ])
          | Some (v, _) -> Ir.Var v)
        slots
    in
    let fill =
      List.fold_right
        (fun (v, extent) body ->
          Ir.For { v; extent; kind = Ir.Vectorized; dim = Some c.d_feat; body })
        vars
        (Ir.Store
           ( stage,
             ectx.pos :: List.map (fun (v, _) -> Ir.Var v) vars,
             Ir.Load (param_t, src_idx) ))
    in
    ectx.nests := !(ectx.nests) @ [ fill ];
    Hashtbl.replace ectx.stages p stage;
    stage

and reduction_temp ectx base =
  let c = ectx.c in
  let dims = c.d_pos :: List.map (fun _ -> c.d_feat) ectx.axes in
  let extents = ectx.pos_ext :: List.map (fun (_, _, e) -> Ir.Int e) ectx.axes in
  (* Reduction accumulators live in registers regardless of fusion. *)
  record_temp c (Ir.tensor ~space:Ir.Register (fresh_name c base) dims extents)

and lower_sum ectx ax extent body =
  let red = reduction_temp ectx (Printf.sprintf "r_%s" ectx.op_name) in
  let init =
    axis_loops ectx ~tag:"_z" (fun vars _ -> Ir.Store (red, ectx.pos :: vars, Ir.Flt 0.0))
  in
  let accum =
    axis_loops ectx ~tag:"_a" (fun vars fresh_axes ->
        let rv = Ir.Var.fresh (Printf.sprintf "%s_%s" ectx.op_name ax) in
        let body_ectx =
          {
            ectx with
            axes = (ax, rv, extent) :: fresh_axes;
            in_reduction = true;
          }
        in
        let body' = lower_rexpr body_ectx body in
        Ir.For
          {
            v = rv;
            extent = Ir.Int extent;
            kind = Ir.Serial;
            dim = Some ectx.c.d_feat;
            body =
              Ir.Store
                ( red,
                  ectx.pos :: vars,
                  Ir.Binop (Ir.Add, Ir.Load (red, ectx.pos :: vars), body') );
          })
  in
  ectx.nests := !(ectx.nests) @ [ init; accum ];
  Ir.Load (red, ectx.pos :: List.map (fun (_, v, _) -> Ir.Var v) ectx.axes)

and lower_childsum ectx body =
  let c = ectx.c in
  let cs = reduction_temp ectx (Printf.sprintf "cs_%s" ectx.op_name) in
  let init =
    axis_loops ectx ~tag:"_csz" (fun vars _ -> Ir.Store (cs, ectx.pos :: vars, Ir.Flt 0.0))
  in
  let kvar = Ir.Var.fresh (Printf.sprintf "%s_k" ectx.op_name) in
  let kbuf = ref [] in
  let accum =
    axis_loops ectx ~tag:"_csa" (fun vars fresh_axes ->
        let body_ectx =
          {
            ectx with
            axes = fresh_axes;
            current_child = Some (Ir.Var kvar);
            nests = kbuf;
          }
        in
        let body' = lower_rexpr body_ectx body in
        Ir.Store
          (cs, ectx.pos :: vars, Ir.Binop (Ir.Add, Ir.Load (cs, ectx.pos :: vars), body')))
  in
  let k_loop =
    Ir.For
      {
        v = kvar;
        extent = Ir.UfCall (c.ufs.u_num_children, [ ectx.node ]);
        kind = Ir.Serial;
        dim = Some c.d_child;
        body = Ir.seq (!kbuf @ [ accum ]);
      }
  in
  ectx.nests := !(ectx.nests) @ [ init; k_loop ];
  Ir.Load (cs, ectx.pos :: List.map (fun (_, v, _) -> Ir.Var v) ectx.axes)

(* ---------- per-op lowering ---------- *)

(* Lower one operator for one node into a statement sequence; registers
   its output temp in [temps]. *)
let lower_op c ~temps ~node ~pos ~(index : temp_index) (o : op) : Ir.stmt =
  let axes =
    List.map (fun (a, extent) -> (a, Ir.Var.fresh (Printf.sprintf "%s_%s" o.op_name a), extent)) o.op_axes
  in
  let pos_ext =
    match index with
    | Hoisted -> Ir.Int 1
    | By_node -> nullary c.ufs.u_num_nodes
    | By_pos -> pos_extent c
  in
  let ectx =
    {
      c;
      axes;
      node;
      pos;
      pos_ext;
      temps;
      current_child = None;
      nests = ref [];
      in_reduction = false;
      op_name = o.op_name;
      stages = Hashtbl.create 2;
    }
  in
  let out_tensor, out_index =
    match index with
    | Hoisted ->
      let dims = List.map (fun _ -> c.d_feat) o.op_axes in
      let extents = List.map (fun (_, _, e) -> Ir.Int e) axes in
      (record_temp c (Ir.tensor ~space:Ir.Global (fresh_name c o.op_name) dims extents), Hoisted)
    | By_pos ->
      let dims = c.d_pos :: List.map (fun _ -> c.d_feat) o.op_axes in
      let extents = pos_extent c :: List.map (fun (_, _, e) -> Ir.Int e) axes in
      let space = if c.opts.fuse then Ir.Shared else Ir.Global in
      (record_temp c (Ir.tensor ~space (fresh_name c o.op_name) dims extents), By_pos)
    | By_node ->
      let dims = c.d_node :: List.map (fun _ -> c.d_feat) o.op_axes in
      let extents =
        nullary c.ufs.u_num_nodes :: List.map (fun (_, _, e) -> Ir.Int e) axes
      in
      (record_temp c (Ir.tensor ~space:Ir.Global (fresh_name c o.op_name) dims extents), By_node)
  in
  let body' = lower_rexpr ectx o.op_body in
  let store =
    let prefix =
      match out_index with Hoisted -> [] | By_pos -> [ pos ] | By_node -> [ node ]
    in
    List.fold_right
      (fun (_, v, extent) body ->
        Ir.For { v; extent = Ir.Int extent; kind = Ir.Vectorized; dim = Some c.d_feat; body })
      axes
      (Ir.Store (out_tensor, prefix @ List.map (fun (_, v, _) -> Ir.Var v) axes, body'))
  in
  Hashtbl.replace temps o.op_name { ti_tensor = out_tensor; ti_index = out_index };
  Ir.seq (!(ectx.nests) @ [ store ])

(* Copy an op's value into a node-indexed global tensor (state
   publication, or extra publication under refactoring). *)
let publish_nest c ~temps ~node ~pos (o : op) (target : Ir.tensor) : Ir.stmt =
  let info =
    match Hashtbl.find_opt temps o.op_name with
    | Some i -> i
    | None -> fail "publish: op %s has no lowered temp" o.op_name
  in
  let axes =
    List.map
      (fun (a, extent) -> (Ir.Var.fresh (Printf.sprintf "%s_%s_pub" o.op_name a), extent))
      o.op_axes
  in
  let vars = List.map (fun (v, _) -> Ir.Var v) axes in
  let value =
    match info.ti_index with
    | By_pos -> Ir.Load (info.ti_tensor, pos :: vars)
    | By_node -> Ir.Load (info.ti_tensor, node :: vars)
    | Hoisted -> Ir.Load (info.ti_tensor, vars)
  in
  List.fold_right
    (fun (v, extent) body ->
      Ir.For { v; extent = Ir.Int extent; kind = Ir.Vectorized; dim = Some c.d_feat; body })
    axes
    (Ir.Store (target, node :: vars, value))

(* ---------- op-set utilities ---------- *)

let rec temp_refs acc (e : rexpr) =
  match e with
  | Temp (name, _) -> name :: acc
  | Const _ | Param _ | ChildState _ -> acc
  | Binop (_, a, b) -> temp_refs (temp_refs acc a) b
  | Math (_, a) | Sum (_, _, a) | ChildSum a -> temp_refs acc a

(* Keep only operators transitively needed by [roots], preserving
   order. *)
let prune_ops ops roots =
  let by_name = Hashtbl.create 16 in
  List.iter (fun (o : op) -> Hashtbl.replace by_name o.op_name o) ops;
  let needed = Hashtbl.create 16 in
  let rec need name =
    if not (Hashtbl.mem needed name) then begin
      Hashtbl.add needed name ();
      match Hashtbl.find_opt by_name name with
      | Some (o : op) -> List.iter need (temp_refs [] o.op_body)
      | None -> ()
    end
  in
  List.iter need roots;
  List.filter (fun (o : op) -> Hashtbl.mem needed o.op_name) ops

let state_op_names (ra : Ra.t) = List.map (fun s -> s.st_op) ra.states

(* States read through ChildState/ChildSum in the recursive case: these
   need child caches. *)
let cached_states (ra : Ra.t) =
  let acc = ref [] in
  let rec go e =
    match e with
    | ChildState (st, _, _) -> if not (List.mem st !acc) then acc := st :: !acc
    | Const _ | Param _ | Temp _ -> ()
    | Binop (_, a, b) ->
      go a;
      go b
    | Math (_, a) | Sum (_, _, a) -> go a
    | ChildSum a -> go a
  in
  List.iter (fun (o : op) -> go o.op_body) ra.rec_ops;
  List.rev !acc

let state_feat_dims (ra : Ra.t) st_name =
  let st = state_by_name ra st_name in
  op_dims (find_op ra.rec_ops st.st_op)

(* ---------- cache fill ---------- *)

let feat_loops c ~base vars_dims f =
  let axes = List.map (fun d -> (Ir.Var.fresh base, d)) vars_dims in
  let vars = List.map (fun (v, _) -> Ir.Var v) axes in
  List.fold_right
    (fun (v, extent) body ->
      Ir.For { v; extent = Ir.Int extent; kind = Ir.Vectorized; dim = Some c.d_feat; body })
    axes (f vars)

let cache_fill_stmt c ~node ~pos ~src st_name =
  let cache = Hashtbl.find c.caches st_name in
  let dims = state_feat_dims c.ra st_name in
  let kvar = Ir.Var.fresh "k_fill" in
  let k = Ir.Var kvar in
  let child_id = Ir.UfCall (c.ufs.u_child, [ k; node ]) in
  let from_child =
    feat_loops c ~base:"j_fill" dims (fun vars ->
        Ir.Store (cache, k :: pos :: vars, Ir.Load (src, child_id :: vars)))
  in
  let from_init =
    feat_loops c ~base:"j_init" dims (fun vars ->
        Ir.Store (cache, k :: pos :: vars, init_expr c st_name vars))
  in
  Ir.For
    {
      v = kvar;
      extent = Ir.Int c.ra.max_children;
      kind = Ir.Serial;
      dim = Some c.d_child;
      body =
        Ir.If
          ( Ir.Cmp (Ir.Lt, k, Ir.UfCall (c.ufs.u_num_children, [ node ])),
            from_child,
            Some from_init );
    }

let cache_fill_all c ~node ~pos ~from_mirror =
  let src st =
    if from_mirror then Hashtbl.find c.state_mirrors st else Hashtbl.find c.states st
  in
  Ir.seq (List.map (fun st -> cache_fill_stmt c ~node ~pos ~src:(src st) st) (cached_states c.ra))

(* ---------- per-case statement generation ---------- *)

(* Lower an op list (already filtered to one phase, or a whole serial
   case) for one node; registers temps as it goes so later phases can
   reference earlier phases' outputs through the shared table.
   [publish] maps op names to extra global targets. *)
let lower_ops c ~temps ~node ~pos ~index ~publish ops =
  let stmts =
    List.concat_map
      (fun (o : op) ->
        let stmt = lower_op c ~temps ~node ~pos ~index o in
        let pubs =
          List.filter_map
            (fun (name, target) ->
              if name = o.op_name then Some (publish_nest c ~temps ~node ~pos o target)
              else None)
            publish
        in
        stmt :: pubs)
      ops
  in
  Ir.seq stmts

let phase_ops p ops = List.filter (fun (o : op) -> o.op_phase = p) ops

let sort_by_phase ops =
  List.stable_sort (fun (a : op) (b : op) -> compare a.op_phase b.op_phase) ops

(* Leaf-case operators after specialization: substituted, folded,
   pruned; split into hoisted and per-leaf parts. *)
let leaf_case_ops c =
  let ra = c.ra in
  let base =
    match ra.leaf_ops with
    | Some ops -> ops
    | None ->
      List.filter_map
        (fun (o : op) ->
          if o.op_precompute then None
          else
            Some { o with op_body = Ra_simplify.leaf_substitute ra o.op_body; op_phase = 0 })
        ra.rec_ops
  in
  let folded = if c.opts.specialize then Ra_simplify.const_propagate base else base in
  let pruned = prune_ops folded (state_op_names ra) in
  if c.opts.specialize then
    List.partition
      (fun (o : op) -> not (Ra_simplify.node_dependent ~ops:pruned o.op_body))
      pruned
  else ([], pruned)

let rec_case_ops c =
  let ra = c.ra in
  let non_pre = List.filter (fun (o : op) -> not o.op_precompute) ra.rec_ops in
  prune_ops non_pre
    (state_op_names ra @ (if c.opts.refactor then ra.facts.refactor_publish else []))

(* ---------- kernel assembly ---------- *)

let isleaf c node = Ir.Cmp (Ir.Ge, node, nullary c.ufs.u_leaf_begin)

let par_node_loop name extent f =
  let v = Ir.Var.fresh name in
  Ir.For { v; extent; kind = Ir.Parallel; dim = None; body = f (Ir.Var v) }

let with_node ~node_expr f =
  let nv = Ir.Var.fresh "node" in
  Ir.Let (nv, node_expr, f (Ir.Var nv))

(* Statements for the publication targets of the recursive case. *)
let rec_publish c pub_tensors =
  List.map (fun s -> (s.st_op, Hashtbl.find c.states s.st_name)) c.ra.states
  @ pub_tensors

let leaf_publish c =
  List.map (fun s -> (s.st_op, Hashtbl.find c.states s.st_name)) c.ra.states

(* The leaf phase: a parallel loop over the leaf batch (plus hoisted
   computations, which the caller places in the setup kernel). *)
let leaf_phase_stmt c ~leaf_temps leaf_ops =
  if num_phases leaf_ops > 1 then fail "leaf cases must be single-phase";
  par_node_loop "n_leaf" (nullary c.ufs.u_num_leaves) (fun n_idx ->
      with_node ~node_expr:(Ir.Binop (Ir.Add, nullary c.ufs.u_leaf_begin, n_idx))
        (fun node ->
          lower_ops c ~temps:leaf_temps ~node ~pos:n_idx ~index:By_pos
            ~publish:(leaf_publish c) leaf_ops))

let hoisted_stmts c ~leaf_temps hoisted =
  List.map
    (fun (o : op) ->
      lower_op c ~temps:leaf_temps ~node:(Ir.Int 0) ~pos:(Ir.Int 0) ~index:Hoisted o)
    hoisted

let precompute_stmt c ~temps o =
  par_node_loop "n_pre" (nullary c.ufs.u_num_nodes) (fun n ->
      with_node ~node_expr:n (fun node ->
          lower_op c ~temps ~node ~pos:node ~index:By_node o))

let node_of_batch c ~b ~n_idx =
  let linear = Ir.Binop (Ir.Add, Ir.UfCall (c.ufs.u_batch_begin, [ b ]), n_idx) in
  if c.opts.unroll then Ir.UfCall (c.ufs.u_sched_node, [ linear ]) else linear

(* The fused internal-batch loop. *)
let batch_loop_stmt c ~rec_temps ~leaf_temps ~rec_ops ~leaf_ops ~pub_tensors =
  let ufs = c.ufs in
  let bvar = Ir.Var.fresh "b" in
  let b = Ir.Var bvar in
  let blen = Ir.UfCall (ufs.u_batch_len, [ b ]) in
  let cache_nest =
    if cached_states c.ra = [] then Ir.Nop
    else
      par_node_loop "n_cache" blen (fun n_idx ->
          with_node ~node_expr:(node_of_batch c ~b ~n_idx) (fun node ->
              if c.opts.unroll then
                Ir.If
                  ( Ir.Cmp (Ir.Eq, Ir.UfCall (ufs.u_role, [ b ]), Ir.Int 1),
                    cache_fill_all c ~node ~pos:n_idx ~from_mirror:true,
                    Some (cache_fill_all c ~node ~pos:n_idx ~from_mirror:false) )
              else cache_fill_all c ~node ~pos:n_idx ~from_mirror:false))
  in
  (* Build per-phase node loops.  With specialization the batch only
     holds internal nodes; without it the leaf batch is included and
     programs with an explicit leaf case branch per node (§5.2's
     conditional operator). *)
  let phases = num_phases rec_ops in
  (* Build the per-phase node loops strictly in phase order: each phase
     lowers only its own operators, registering their temporaries in the
     shared table so later phases load the values the earlier loops
     stored. *)
  let phase_loops = ref [] in
  for p = 0 to phases - 1 do
    let loop =
      par_node_loop (Printf.sprintf "n_p%d" p) blen (fun n_idx ->
          with_node ~node_expr:(node_of_batch c ~b ~n_idx) (fun node ->
              let rec_stmt =
                lower_ops c ~temps:rec_temps ~node ~pos:n_idx ~index:By_pos
                  ~publish:(rec_publish c pub_tensors) (phase_ops p rec_ops)
              in
              if (not c.opts.specialize) && c.ra.leaf_ops <> None then begin
                let leaf_stmt =
                  if p = 0 then
                    lower_ops c ~temps:leaf_temps ~node ~pos:n_idx ~index:By_pos
                      ~publish:(leaf_publish c) leaf_ops
                  else Ir.Nop
                in
                Ir.If (isleaf c node, leaf_stmt, Some rec_stmt)
              end
              else rec_stmt))
    in
    phase_loops := loop :: !phase_loops
  done;
  let phase_loops = List.rev !phase_loops in
  let interphase p =
    let removed = c.opts.refactor && c.ra.facts.refactor_removes_barrier in
    if p > 0 && not removed then [ Ir.Barrier ] else []
  in
  let body_parts =
    List.concat (List.mapi (fun p loop -> interphase p @ [ loop ]) phase_loops)
  in
  let sync =
    if c.opts.unroll then
      [ Ir.If (Ir.Cmp (Ir.Ge, Ir.UfCall (ufs.u_needs_sync, [ b ]), Ir.Int 1), Ir.Barrier, None) ]
    else []
  in
  Ir.For
    {
      v = bvar;
      extent = nullary ufs.u_num_batches;
      kind = Ir.Serial;
      dim = None;
      body = Ir.seq (sync @ [ cache_nest ] @ body_parts);
    }

(* Serialized execution when dynamic batching is off: one node at a
   time in a dependence-respecting order. *)
let order_loop_stmt c ~rec_temps ~leaf_temps ~rec_ops ~leaf_ops ~pub_tensors =
  let ufs = c.ufs in
  let extent =
    if c.opts.specialize then nullary ufs.u_num_internal else nullary ufs.u_num_nodes
  in
  let ivar = Ir.Var.fresh "i_ord" in
  let i = Ir.Var ivar in
  Ir.For
    {
      v = ivar;
      extent;
      kind = Ir.Serial;
      dim = None;
      body =
        with_node ~node_expr:(Ir.UfCall (ufs.u_order, [ i ])) (fun node ->
            let cache =
              if cached_states c.ra = [] then Ir.Nop
              else cache_fill_all c ~node ~pos:(Ir.Int 0) ~from_mirror:false
            in
            let rec_stmt =
              lower_ops c ~temps:rec_temps ~node ~pos:(Ir.Int 0) ~index:By_pos
                ~publish:(rec_publish c pub_tensors) (sort_by_phase rec_ops)
            in
            if (not c.opts.specialize) && c.ra.leaf_ops <> None then
              let leaf_stmt =
                lower_ops c ~temps:leaf_temps ~node ~pos:(Ir.Int 0) ~index:By_pos
                  ~publish:(leaf_publish c) leaf_ops
              in
              Ir.If (isleaf c node, leaf_stmt, Some (Ir.seq [ cache; rec_stmt ]))
            else Ir.seq [ cache; rec_stmt ])
    }

(* ---------- whole-program assembly ---------- *)

let assemble c =
  let ra = c.ra in
  let opts = c.opts in
  let rec_temps : (string, temp_info) Hashtbl.t = Hashtbl.create 16 in
  let leaf_temps : (string, temp_info) Hashtbl.t = Hashtbl.create 16 in
  let hoisted, leaf_ops = leaf_case_ops c in
  let rec_ops = sort_by_phase (rec_case_ops c) in
  let pre_ops = List.filter (fun (o : op) -> o.op_precompute) ra.rec_ops in
  let pub_tensors =
    if opts.refactor then
      List.map
        (fun name ->
          let o = find_op ra.rec_ops name in
          let dims = c.d_node :: List.map (fun _ -> c.d_feat) o.op_axes in
          let extents =
            nullary c.ufs.u_num_nodes :: List.map (fun d -> Ir.Int d) (op_dims o)
          in
          (name, record_temp c (Ir.tensor ~space:Ir.Global ("pub_" ^ name) dims extents)))
        ra.facts.refactor_publish
    else []
  in
  (* Setup: precompute operators over all nodes, then hoisted leaf
     computations (computed once, §4.3). *)
  let setup_pre =
    List.map
      (fun (o : op) ->
        let s = precompute_stmt c ~temps:rec_temps o in
        Hashtbl.replace leaf_temps o.op_name (Hashtbl.find rec_temps o.op_name);
        s)
      pre_ops
  in
  let setup_hoist = hoisted_stmts c ~leaf_temps hoisted in
  let hoisted_state_ops =
    List.filter
      (fun (o : op) -> List.exists (fun s -> s.st_op = o.op_name) ra.states)
      hoisted
  in
  if opts.fuse then begin
    (* One kernel for the whole model. *)
    let leaf_part =
      if opts.specialize then
        [ (let base = leaf_phase_stmt c ~leaf_temps leaf_ops in
           (* Hoisted state operators still publish per leaf. *)
           if hoisted_state_ops = [] then base
           else
             par_node_loop "n_leafp" (nullary c.ufs.u_num_leaves) (fun n_idx ->
                 with_node
                   ~node_expr:(Ir.Binop (Ir.Add, nullary c.ufs.u_leaf_begin, n_idx))
                   (fun node ->
                     Ir.seq
                       (List.map
                          (fun (o : op) ->
                            let target =
                              Hashtbl.find c.states
                                (List.find (fun s -> s.st_op = o.op_name) ra.states).st_name
                            in
                            publish_nest c ~temps:leaf_temps ~node ~pos:n_idx o target)
                          hoisted_state_ops)))
             |> fun pub -> Ir.seq [ base; pub ]) ]
      else []
    in
    let body_main =
      if opts.dynamic_batch then
        batch_loop_stmt c ~rec_temps ~leaf_temps ~rec_ops ~leaf_ops ~pub_tensors
      else order_loop_stmt c ~rec_temps ~leaf_temps ~rec_ops ~leaf_ops ~pub_tensors
    in
    let body = Ir.seq (leaf_part @ [ body_main ]) in
    let body =
      (* Unrolled schedules emit their (conditional) barriers themselves. *)
      if opts.unroll then body else Barrier.insert opts.barrier_mode body
    in
    let setup_body = setup_pre @ setup_hoist in
    (if setup_body = [] then []
     else [ { Ir.kname = "setup"; launch = Ir.Once; body = Ir.seq setup_body } ])
    @ [ { Ir.kname = "main"; launch = Ir.Once; body } ]
  end
  else begin
    (* One kernel per operator: setup kernels, leaf kernels, then the
       per-batch gather + operator kernels. *)
    let setup_kernels =
      List.map2
        (fun (o : op) s -> { Ir.kname = "pre_" ^ o.op_name; launch = Ir.Once; body = s })
        pre_ops setup_pre
      @ List.map2
          (fun (o : op) s ->
            { Ir.kname = "hoist_" ^ o.op_name; launch = Ir.Once; body = s })
          hoisted setup_hoist
    in
    let publish_for temps (o : op) node pos =
      let state_targets =
        List.filter_map
          (fun s ->
            if s.st_op = o.op_name then Some (Hashtbl.find c.states s.st_name) else None)
          ra.states
      in
      let extra =
        List.filter_map
          (fun (name, t) -> if name = o.op_name then Some t else None)
          pub_tensors
      in
      List.map (fun t -> publish_nest c ~temps ~node ~pos o t) (state_targets @ extra)
    in
    let leaf_kernels =
      List.map
        (fun (o : op) ->
          let body =
            par_node_loop "n_leaf" (nullary c.ufs.u_num_leaves) (fun n_idx ->
                with_node
                  ~node_expr:(Ir.Binop (Ir.Add, nullary c.ufs.u_leaf_begin, n_idx))
                  (fun node ->
                    let main = lower_op c ~temps:leaf_temps ~node ~pos:node ~index:By_node o in
                    Ir.seq (main :: publish_for leaf_temps o node node)))
          in
          { Ir.kname = "leaf_" ^ o.op_name; launch = Ir.Once; body })
        leaf_ops
      @ List.map
          (fun (o : op) ->
            let body =
              par_node_loop "n_leafp" (nullary c.ufs.u_num_leaves) (fun n_idx ->
                  with_node
                    ~node_expr:(Ir.Binop (Ir.Add, nullary c.ufs.u_leaf_begin, n_idx))
                    (fun node -> Ir.seq (publish_for leaf_temps o node node)))
            in
            { Ir.kname = "leafpub_" ^ o.op_name; launch = Ir.Once; body })
          hoisted_state_ops
    in
    let bvar = Ir.Var.fresh "b" in
    let b = Ir.Var bvar in
    let blen = Ir.UfCall (c.ufs.u_batch_len, [ b ]) in
    let gather_kernels =
      List.map
        (fun st ->
          let body =
            par_node_loop "n_g" blen (fun n_idx ->
                with_node ~node_expr:(node_of_batch c ~b ~n_idx) (fun node ->
                    cache_fill_stmt c ~node ~pos:node ~src:(Hashtbl.find c.states st) st))
          in
          { Ir.kname = "gather_" ^ st; launch = Ir.PerInternalBatch bvar; body })
        (cached_states ra)
    in
    let op_kernels =
      List.map
        (fun (o : op) ->
          let body =
            par_node_loop "n_op" blen (fun n_idx ->
                with_node ~node_expr:(node_of_batch c ~b ~n_idx) (fun node ->
                    let main = lower_op c ~temps:rec_temps ~node ~pos:node ~index:By_node o in
                    Ir.seq (main :: publish_for rec_temps o node node)))
          in
          { Ir.kname = "op_" ^ o.op_name; launch = Ir.PerInternalBatch bvar; body })
        rec_ops
    in
    setup_kernels @ leaf_kernels @ gather_kernels @ op_kernels
  end

(* ---------- entry point ---------- *)

let lower ?obs ?(options = default) (ra : Ra.t) =
  let pass name f = Obs.wall_span obs ~track:"compile" name f in
  pass "lower" @@ fun () ->
  Ir.reset_ids ();
  pass "validate" (fun () ->
      Ra.validate ra;
      let tree_like =
        match ra.kind with
        | Cortex_ds.Structure.Tree | Cortex_ds.Structure.Sequence -> true
        | Cortex_ds.Structure.Dag -> false
      in
      if options.unroll then begin
        if not tree_like then
          fail "unrolling is restricted to trees and sequences (%s)" ra.name;
        if not (options.specialize && options.dynamic_batch && options.fuse) then
          fail "unrolling requires specialization, dynamic batching and fusion"
      end;
      if options.refactor then begin
        if not tree_like then
          fail "recursive refactoring is restricted to trees and sequences";
        if num_phases ra.rec_ops < 2 then
          fail "recursive refactoring needs a multi-phase recursive case"
      end);
  let ufs = make_ufs () in
  let c =
    {
      ra;
      opts = options;
      ufs;
      d_node = Ir.Dim.fresh "d_node";
      d_pos = Ir.Dim.fresh "d_pos";
      d_child = Ir.Dim.fresh "d_child";
      d_feat = Ir.Dim.fresh "d_feat";
      params = Hashtbl.create 8;
      states = Hashtbl.create 4;
      state_mirrors = Hashtbl.create 4;
      caches = Hashtbl.create 4;
      temporaries = [];
      fresh = 0;
    }
  in
  pass "declare" (fun () ->
  List.iter
    (fun (p, dims) ->
      let t =
        Ir.tensor ~space:Ir.Param p
          (List.map (fun _ -> c.d_feat) dims)
          (List.map (fun d -> Ir.Int d) dims)
      in
      Hashtbl.replace c.params p t)
    ra.params;
  List.iter
    (fun st ->
      let feats = state_feat_dims ra st.st_name in
      let dims = c.d_node :: List.map (fun _ -> c.d_feat) feats in
      let extents = nullary ufs.u_num_nodes :: List.map (fun d -> Ir.Int d) feats in
      let glob = Ir.tensor ~space:Ir.Global ("st_" ^ st.st_name) dims extents in
      Hashtbl.replace c.states st.st_name glob;
      if options.unroll then begin
        let mirror = Ir.tensor ~space:Ir.Shared ("stloc_" ^ st.st_name) dims extents in
        Hashtbl.replace c.state_mirrors st.st_name mirror
      end)
    ra.states;
  List.iter
    (fun st ->
      let feats = state_feat_dims ra st in
      let dims = c.d_child :: c.d_pos :: List.map (fun _ -> c.d_feat) feats in
      let pos_ext =
        if options.fuse then
          (if options.dynamic_batch then nullary ufs.u_max_batch_len else Ir.Int 1)
        else nullary ufs.u_num_nodes
      in
      let extents =
        Ir.Int ra.max_children :: pos_ext :: List.map (fun d -> Ir.Int d) feats
      in
      let space = if options.fuse then Ir.Shared else Ir.Global in
      let t = record_temp c (Ir.tensor ~space ("cache_" ^ st) dims extents) in
      Hashtbl.replace c.caches st t)
    (cached_states ra));
  let kernels = pass "assemble" (fun () -> assemble c) in
  let state_tensors =
    List.map (fun st -> (st.st_name, Hashtbl.find c.states st.st_name)) ra.states
  in
  let aliases =
    List.filter_map
      (fun st ->
        match Hashtbl.find_opt c.state_mirrors st.st_name with
        | Some mirror -> Some (Hashtbl.find c.states st.st_name, mirror)
        | None -> None)
      ra.states
  in
  let param_tensors =
    List.map (fun (p, _) -> (p, Hashtbl.find c.params p)) ra.params
  in
  let prog =
    {
      Ir.pname = ra.name;
      params = List.map snd param_tensors;
      inputs = [];
      temporaries = c.temporaries;
      outputs = List.map snd state_tensors;
      kernels;
    }
  in
  (* Canonical loop names: unique across the whole program, so
     serialized schedule plans address loops unambiguously. *)
  let prog = Schedule.canonicalize prog in
  {
    ra;
    options;
    prog;
    ufs;
    state_tensors;
    param_tensors;
    aliases;
    phases = num_phases ra.rec_ops;
  }

(* ---------- post-lowering schedule plans ---------- *)

let apply_plan (plan : Schedule.plan) compiled =
  match plan with
  | [] -> compiled
  | _ ->
    let prog = compiled.prog in
    (* The directives mint fresh ids into a program lowered earlier. *)
    Ir.claim_ids prog;
    let kernels = Array.of_list prog.Ir.kernels in
    let modified = Array.make (Array.length kernels) false in
    let staged = ref [] in
    List.iter
      (fun d ->
        let target =
          match Schedule.directive_loops d with
          | [] -> raise (Schedule.Schedule_error "apply_plan: directive names no loop")
          | n :: _ -> n
        in
        let holders = ref [] in
        Array.iteri
          (fun i k ->
            if List.mem target (Schedule.loop_names k.Ir.body) then holders := i :: !holders)
          kernels;
        match !holders with
        | [ i ] ->
          let body', ts = Schedule.apply_directive d kernels.(i).Ir.body in
          staged := !staged @ ts;
          modified.(i) <- true;
          kernels.(i) <- { (kernels.(i)) with Ir.body = body' }
        | [] ->
          raise
            (Schedule.Schedule_error
               (Printf.sprintf "apply_plan: no kernel contains loop %s" target))
        | hs ->
          raise
            (Schedule.Schedule_error
               (Printf.sprintf "apply_plan: loop %s appears in %d kernels" target
                  (List.length hs))))
      plan;
    (* Re-simplify only the kernels a directive touched, so rebased
       indices fold back into the form the cost model counts
       multiplicatively. *)
    Array.iteri
      (fun i k ->
        if modified.(i) then kernels.(i) <- { k with Ir.body = Simplify.stmt k.Ir.body })
      kernels;
    {
      compiled with
      prog =
        {
          prog with
          Ir.kernels = Array.to_list kernels;
          Ir.temporaries = prog.Ir.temporaries @ !staged;
        };
    }

(* ---------- runtime binding ---------- *)

type uf_table = {
  uf_resolver : Ir.Uf.t -> int array -> int;
  num_batch_launches : int;
}

(* The batch-table length, and the program's uninterpreted functions
   over the linearizer's arrays. *)
let uf_bindings compiled (lin : Linearizer.t) =
  let opts = compiled.options in
  let internal_postorder =
    lazy
      (Array.of_list
         (List.filter
            (fun id -> not (Linearizer.is_leaf lin id))
            (Array.to_list lin.postorder)))
  in
  (* The batch table the compiled batch loop iterates over. *)
  let batch_table, sched_nodes, roles =
    if opts.unroll then begin
      let u = Unrolling.compute lin in
      let sched = Array.concat (Array.to_list u.Unrolling.batches) in
      let table = Array.make (Array.length u.Unrolling.batches) (0, 0) in
      let off = ref 0 in
      Array.iteri
        (fun i nodes ->
          table.(i) <- (!off, Array.length nodes);
          off := !off + Array.length nodes)
        u.Unrolling.batches;
      (table, Some sched, Some u.Unrolling.roles)
    end
    else if not opts.fuse then
      if opts.dynamic_batch then (Linearizer.internal_batches lin, None, None)
      else
        ( Array.map (fun id -> (id, 1)) (Lazy.force internal_postorder),
          None,
          None )
    else if not opts.dynamic_batch then ([||], None, None)
    else if opts.specialize then (Linearizer.internal_batches lin, None, None)
    else (lin.batches, None, None)
  in
  let nb = Array.length batch_table in
  let max_batch_len =
    Array.fold_left (fun m (_, len) -> max m len) lin.num_leaves batch_table
  in
  let u = compiled.ufs in
  ( nb,
    [
      (u.u_num_nodes, fun _ -> lin.num_nodes);
      (u.u_num_leaves, fun _ -> lin.num_leaves);
      (u.u_leaf_begin, fun _ -> lin.leaf_begin);
      (u.u_num_internal, fun _ -> lin.num_nodes - lin.num_leaves);
      (u.u_num_batches, fun _ -> nb);
      (u.u_batch_begin, fun a -> fst batch_table.(a.(0)));
      (u.u_batch_len, fun a -> snd batch_table.(a.(0)));
      (u.u_max_batch_len, fun _ -> max_batch_len);
      (u.u_child, fun a -> lin.child.(a.(0)).(a.(1)));
      (u.u_num_children, fun a -> lin.num_children.(a.(0)));
      ( u.u_payload,
        fun a ->
          let p = lin.payload.(a.(0)) in
          if p < 0 then
            raise (Interp.Runtime_error (Printf.sprintf "node %d has no payload" a.(0)))
          else p );
      ( u.u_order,
        fun a ->
          if opts.specialize then (Lazy.force internal_postorder).(a.(0))
          else lin.postorder.(a.(0)) );
      ( u.u_sched_node,
        fun a ->
          match sched_nodes with
          | Some s -> s.(a.(0))
          | None -> raise (Interp.Runtime_error "sched_node unbound (no unrolling)") );
      ( u.u_role,
        fun a ->
          match roles with
          | Some r ->
            (match r.(a.(0)) with Unrolling.Parent_phase -> 1 | Unrolling.Child_phase -> 0)
          | None -> 0 );
      ( u.u_needs_sync,
        fun a ->
          match roles with
          | Some r ->
            (match r.(a.(0)) with
             | Unrolling.Child_phase -> 1
             | Unrolling.Parent_phase ->
               if compiled.ra.facts.block_local_unroll then 0 else 1)
          | None -> 1 );
    ] )

(* Looks the UF up on partial application, so a caller that resolves a
   UF once calls its function directly. *)
let resolver bindings (uf : Ir.Uf.t) =
  match List.find_opt (fun ((v : Ir.Uf.t), _) -> v.Ir.Uf.uid = uf.Ir.Uf.uid) bindings with
  | Some (_, f) -> f
  | None ->
    fun _ -> raise (Interp.Runtime_error ("unbound uninterpreted function " ^ uf.Ir.Uf.uname))

let bind_ufs compiled lin =
  let nb, bindings = uf_bindings compiled lin in
  { uf_resolver = resolver bindings; num_batch_launches = nb }

type bound = {
  ctx : Interp.context;
  lin : Linearizer.t;
  uf_resolver : Ir.Uf.t -> int array -> int;
  num_batch_launches : int;
}

let bind ?(count = false) compiled (lin : Linearizer.t) =
  let nb, bindings = uf_bindings compiled lin in
  let ctx = Interp.create ~count ~num_internal_batches:nb () in
  List.iter (fun (uf, f) -> Interp.bind_uf ctx uf f) bindings;
  (* Allocate states and wire on-chip mirrors to the same storage. *)
  List.iter
    (fun (_, t) -> ignore (Interp.get_tensor ctx t))
    compiled.state_tensors;
  List.iter
    (fun (glob, mirror) -> Interp.bind_tensor ctx mirror (Interp.get_tensor ctx glob))
    compiled.aliases;
  { ctx; lin; uf_resolver = resolver bindings; num_batch_launches = nb }

let state_dims (compiled : compiled) =
  List.map
    (fun (st_name, _) -> (st_name, Array.of_list (state_feat_dims compiled.ra st_name)))
    compiled.state_tensors

let state_rows bound compiled st_name =
  match List.assoc_opt st_name compiled.state_tensors with
  | Some t -> (Interp.get_tensor bound.ctx t).Tensor.data
  | None -> fail "no state named %s" st_name

let state_value_lin bound compiled st_name lin_id =
  let rows = state_rows bound compiled st_name in
  let dims = Array.of_list (state_feat_dims compiled.ra st_name) in
  let elems = Array.fold_left Stdlib.( * ) 1 dims in
  Tensor.of_array dims (Array.sub rows (lin_id * elems) elems)

let state_value bound compiled st_name (node : Cortex_ds.Node.t) =
  state_value_lin bound compiled st_name
    bound.lin.Linearizer.new_of_old.(node.Cortex_ds.Node.id)

(* Delta-view serving (sessions) re-runs only the grown tail of a
   structure against a freshly bound context, pre-seeding the old rows
   of the state tensors.  That is only sound when the compiled program's
   only cross-node dataflow is through those state tensors and the
   batch loop comes from the bound batch table: the specialized
   dynamic-batching pipeline.  Unrolling schedules from the full
   linearization, and refactoring publishes temporaries that are read
   across nodes without being states — both would read garbage for the
   pre-seeded prefix. *)
let delta_compatible (opts : options) =
  opts.dynamic_batch && opts.specialize && opts.fuse && not opts.unroll
  && not opts.refactor
