open Ir
module Nonlinear = Cortex_tensor.Nonlinear

let bytes_per_elem = 4

type segment = {
  flops : float;
  dep_flops : float;
      (* subset of [flops] issued on a loop-carried dependency chain: a
         reduction accumulating into a Register temporary under a Serial
         loop.  Backends price these at their serial issue rate unless a
         schedule binds the loop onto lanes. *)
  reads : float array;
  writes : float array;
  lanes : float;
  param_raw : (int * float) list;
      (* per Param-tensor raw read bytes in this segment, by tensor id *)
}

type kernel_cost = { kname : string; launches : int; segments : segment list }

type t = {
  kernels : kernel_cost list;
  param_total_bytes : float;
  param_sizes : (int * float) list;  (* bytes per Param tensor id *)
  barrier_count : int;
  onchip_peak_bytes : float;  (* Shared/Register temporary footprint *)
  onchip_planned_bytes : float;  (* same buffers, liveness-packed (Mem_plan) *)
}

(* Mutable accumulator for the segment being built. *)
type acc = {
  mutable a_flops : float;
  mutable a_dep : float;
  a_reads : float array;
  a_writes : float array;
  mutable a_lanes : float;
  a_param_raw : (int, float) Hashtbl.t;
}

let fresh_acc () =
  {
    a_flops = 0.0;
    a_dep = 0.0;
    a_reads = Array.make 4 0.0;
    a_writes = Array.make 4 0.0;
    a_lanes = 1.0;
    a_param_raw = Hashtbl.create 4;
  }

let is_empty_acc a =
  a.a_flops = 0.0
  && Array.for_all (( = ) 0.0) a.a_reads
  && Array.for_all (( = ) 0.0) a.a_writes

type state = {
  uf : Uf.t -> int array -> int;
  mutable current : acc;
  mutable segs_rev : segment list;
  mutable barriers : int;
}

let close_segment st =
  if not (is_empty_acc st.current) then begin
    let a = st.current in
    let param_raw = Hashtbl.fold (fun tid b acc -> (tid, b) :: acc) a.a_param_raw [] in
    st.segs_rev <-
      {
        flops = a.a_flops;
        dep_flops = a.a_dep;
        reads = Array.copy a.a_reads;
        writes = Array.copy a.a_writes;
        lanes = a.a_lanes;
        param_raw;
      }
      :: st.segs_rev
  end;
  st.current <- fresh_acc ()

(* ---------- integer evaluation of extents and conditions ----------
   Control flow in lowered recursive models never depends on tensor
   data (property P.1), so extents and conditions evaluate with UFs and
   loop variables alone. *)

let rec eval_int st env e =
  match e with
  | Int n -> n
  | Var v ->
    (try List.assoc v.Var.vid env
     with Not_found -> failwith ("Cost.eval_int: unbound " ^ v.Var.vname))
  | Binop (op, a, b) ->
    let x = eval_int st env a and y = eval_int st env b in
    (match op with
     | Add -> x + y
     | Sub -> x - y
     | Mul -> x * y
     | Div -> x / y
     | Mod -> x mod y
     | Min -> min x y
     | Max -> max x y)
  | Cmp (op, a, b) ->
    let x = eval_int st env a and y = eval_int st env b in
    let r =
      match op with Lt -> x < y | Le -> x <= y | Gt -> x > y | Ge -> x >= y | Eq -> x = y | Ne -> x <> y
    in
    if r then 1 else 0
  | And (a, b) -> if eval_int st env a <> 0 && eval_int st env b <> 0 then 1 else 0
  | Or (a, b) -> if eval_int st env a <> 0 || eval_int st env b <> 0 then 1 else 0
  | Not a -> if eval_int st env a = 0 then 1 else 0
  | Select (c, a, b) -> if eval_int st env c <> 0 then eval_int st env a else eval_int st env b
  | UfCall (u, args) -> st.uf u (Array.of_list (List.map (eval_int st env) args))
  | Flt _ | Load _ | Math _ -> failwith "Cost.eval_int: data-dependent control flow"

(* ---------- float-valuedness (to charge FLOPs only for tensor math) *)

let rec is_float = function
  | Flt _ | Load _ | Math _ -> true
  | Int _ | Var _ | UfCall _ | Cmp _ | And _ | Or _ | Not _ -> false
  | Binop (_, a, b) -> is_float a || is_float b
  | Select (_, a, b) -> is_float a || is_float b

(* ---------- expression cost ---------- *)

let rec count_expr st mult lanes e =
  match e with
  | Int _ | Flt _ | Var _ -> ()
  | Binop (_, a, b) ->
    if is_float e then st.current.a_flops <- st.current.a_flops +. mult;
    count_expr st mult lanes a;
    count_expr st mult lanes b
  | Cmp (_, a, b) ->
    if is_float a || is_float b then st.current.a_flops <- st.current.a_flops +. mult;
    count_expr st mult lanes a;
    count_expr st mult lanes b
  | And (a, b) | Or (a, b) ->
    count_expr st mult lanes a;
    count_expr st mult lanes b
  | Not a -> count_expr st mult lanes a
  | Select (c, a, b) ->
    if is_float e then st.current.a_flops <- st.current.a_flops +. mult;
    count_expr st mult lanes c;
    count_expr st mult lanes a;
    count_expr st mult lanes b
  | Load (t, idx) ->
    let s = Interp.space_index t.space in
    st.current.a_reads.(s) <-
      st.current.a_reads.(s) +. (mult *. float_of_int bytes_per_elem);
    if t.space = Param then begin
      let prev = try Hashtbl.find st.current.a_param_raw t.tid with Not_found -> 0.0 in
      Hashtbl.replace st.current.a_param_raw t.tid
        (prev +. (mult *. float_of_int bytes_per_elem))
    end;
    List.iter (count_expr st mult lanes) idx
  | UfCall (_, args) -> List.iter (count_expr st mult lanes) args
  | Math (k, a) ->
    st.current.a_flops <- st.current.a_flops +. (mult *. float_of_int (Nonlinear.flops k));
    count_expr st mult lanes a

(* A statement can be counted multiplicatively when executing it the
   same number of times with different loop-variable values cannot
   change the counts: no branches, no barriers, and only
   constant-extent inner loops. *)
let rec multipliable = function
  | Store _ | Nop -> true
  | Let (_, _, body) -> multipliable body
  | Seq ss -> List.for_all multipliable ss
  | For { extent = Int _; body; _ } -> multipliable body
  | For _ | If _ | Barrier -> false

(* Vectorized (feature) lanes of one operator instance cap at a thread
   block's worth of threads; parallel (node) lanes do not. *)
let vec_lane_cap = 512.0

(* [ser] tracks whether the *innermost* enclosing loop is Serial: a
   reduction accumulating into a Register temporary inside such a loop
   runs on a loop-carried dependency chain (each FMA waits on the
   previous one), so its FLOPs are additionally recorded as
   [dep_flops].  The innermost loop is the chain carrier — outer loops
   re-initialize the accumulator per iteration — so binding just the
   reduction loop onto lanes (or unrolling it into distinct
   accumulators) lifts the classification. *)
let rec count_stmt st env mult (par, vec) ser s =
  st.current.a_lanes <- Float.max st.current.a_lanes (par *. vec);
  let lanes = (par, vec) in
  match s with
  | Nop -> ()
  | Barrier ->
    close_segment st;
    st.barriers <- st.barriers + 1
  | Seq ss -> List.iter (count_stmt st env mult lanes ser) ss
  | Let (v, e, body) ->
    (* Bound values are integer node ids; evaluate them when control
       flow below may need them, otherwise a dummy binding suffices for
       multiplicative counting. *)
    let value = try eval_int st env e with Failure _ -> 0 in
    count_expr st mult lanes e;
    count_stmt st ((v.Var.vid, value) :: env) mult lanes ser body
  | Store (t, idx, value) ->
    let sp = Interp.space_index t.space in
    st.current.a_writes.(sp) <-
      st.current.a_writes.(sp) +. (mult *. float_of_int bytes_per_elem);
    List.iter (count_expr st mult lanes) idx;
    let before = st.current.a_flops in
    count_expr st mult lanes value;
    if ser && t.space = Register then
      st.current.a_dep <- st.current.a_dep +. (st.current.a_flops -. before)
  | If (c, a, b) ->
    count_expr st mult lanes c;
    if eval_int st env c <> 0 then count_stmt st env mult lanes ser a
    else (match b with Some b -> count_stmt st env mult lanes ser b | None -> ())
  | For { v; extent; kind; body; _ } ->
    let n = eval_int st env extent in
    if n <= 0 then ()
    else begin
      let lanes' =
        match kind with
        | Parallel -> (par *. float_of_int n, vec)
        | Vectorized -> (par, Float.min vec_lane_cap (vec *. float_of_int n))
        | Serial | Unrolled -> lanes
      in
      let ser' = kind = Serial in
      if multipliable body then
        count_stmt st ((v.Var.vid, 0) :: env) (mult *. float_of_int n) lanes' ser' body
      else
        for i = 0 to n - 1 do
          count_stmt st ((v.Var.vid, i) :: env) mult lanes' ser' body
        done
    end

let analyze ~uf ~num_internal_batches (p : program) =
  let param_sizes = Hashtbl.create 8 in
  let dummy_state = { uf; current = fresh_acc (); segs_rev = []; barriers = 0 } in
  let total_params = ref 0.0 in
  List.iter
    (fun t ->
      let elems =
        List.fold_left (fun acc e -> acc * eval_int dummy_state [] e) 1 t.extents
      in
      let bytes = float_of_int (elems * bytes_per_elem) in
      Hashtbl.replace param_sizes t.tid bytes;
      total_params := !total_params +. bytes)
    p.params;
  let kernels =
    List.map
      (fun k ->
        let st = { uf; current = fresh_acc (); segs_rev = []; barriers = 0 } in
        let launches =
          match k.launch with
          | Once ->
            count_stmt st [] 1.0 (1.0, 1.0) false k.body;
            close_segment st;
            1
          | PerInternalBatch bvar ->
            for b = 0 to num_internal_batches - 1 do
              count_stmt st [ (bvar.Var.vid, b) ] 1.0 (1.0, 1.0) false k.body;
              close_segment st
            done;
            num_internal_batches
        in
        dummy_state.barriers <- dummy_state.barriers + st.barriers;
        { kname = k.kname; launches; segments = List.rev st.segs_rev })
      p.kernels
  in
  let param_sizes = Hashtbl.fold (fun tid b acc -> (tid, b) :: acc) param_sizes [] in
  (* Resident on-chip footprint: constant-extent Shared/Register
     temporaries (staging buffers, caches of fixed shape, accumulators,
     unroll-local state) are live for a whole launch and must fit
     capacity together.  Scratch sized by the linearized input
     (UF-valued extents) is processed in flight — it is priced through
     on-chip bandwidth, not held resident — so it does not count. *)
  let onchip_peak_bytes =
    List.fold_left
      (fun acc t ->
        match t.space with
        | Shared | Register ->
          let elems =
            List.fold_left
              (fun n e -> match (n, e) with Some n, Int k -> Some (n * k) | _ -> None)
              (Some 1) t.extents
          in
          (match elems with
           | Some elems -> acc +. float_of_int (elems * bytes_per_elem)
           | None -> acc)
        | Param | Global -> acc)
      0.0 p.temporaries
  in
  (* The same buffers, liveness-packed: temporaries whose live ranges
     never intersect share arena space, so the planned footprint is
     what must actually be resident together.  Always <= the worst
     case above, so switching the capacity check to it only admits
     schedules. *)
  let onchip_planned_bytes =
    float_of_int
      (Mem_plan.plan ~bytes_per_elem ~spaces:[ Shared; Register ] p).Mem_plan.arena_bytes
  in
  {
    kernels;
    param_total_bytes = !total_params;
    param_sizes;
    barrier_count = dummy_state.barriers;
    onchip_peak_bytes;
    onchip_planned_bytes;
  }

let total_flops t =
  List.fold_left
    (fun acc k -> List.fold_left (fun acc s -> acc +. s.flops) acc k.segments)
    0.0 t.kernels

let traffic_of_space t si =
  List.fold_left
    (fun acc k ->
      List.fold_left (fun acc s -> acc +. s.reads.(si) +. s.writes.(si)) acc k.segments)
    0.0 t.kernels

let global_traffic t = traffic_of_space t (Interp.space_index Global)

let onchip_traffic t =
  traffic_of_space t (Interp.space_index Shared) +. traffic_of_space t (Interp.space_index Register)

let total_launches t = List.fold_left (fun acc k -> acc + k.launches) 0 t.kernels
