open Ir
module Nonlinear = Cortex_tensor.Nonlinear

let bytes_per_elem = 4
let elem_bytes = float_of_int bytes_per_elem

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

(* Every count below is a sum of integer-valued floats far below 2^53
   (multipliers are products of loop extents, bytes are multipliers
   times 4, [Nonlinear.flops] is an int), so every sum is exact and its
   order cannot change a bit: a subtree's counts may be summed once and
   added scaled by its multiplier. *)

(* ---------- the state of one walk ----------
   [fs] holds the multiplier and lane factors of the statement being
   walked, the open segment's lane count, then the open segment's
   counts, laid out as a summary's [counts]. *)

let f_mult = 0
let f_par = 1
let f_vec = 2
let f_lanes = 3
let f_counts = 4

(* offsets within the counts *)
let c_flops = 0
let c_dep = 1
let c_reads = 2  (* + [Interp.space_index] *)
let c_writes = 6
let n_counts = 10

type run = {
  ufs : (int array -> int) array;  (* the program's UFs, resolved once per walk *)
  ints : int array;  (* one slot per [For] and [Let] *)
  fs : float array;
  raw : float array;  (* the open segment's raw bytes per Param tensor, by dense index *)
  tids : int array;  (* dense index -> tensor id *)
  mutable segs : segment list;  (* the kernel's closed segments, newest first *)
  mutable barriers : int;
}

type code = run -> unit

(* Vectorized (feature) lanes of one operator instance cap at a thread
   block's worth of threads; parallel (node) lanes do not. *)
let vec_lane_cap = 512.0

let cap_vec w = if w < vec_lane_cap then w else vec_lane_cap

let record_lanes r =
  let x = r.fs.(f_par) *. r.fs.(f_vec) in
  if x > r.fs.(f_lanes) then r.fs.(f_lanes) <- x

let close_segment r =
  let fs = r.fs in
  let flops = fs.(f_counts + c_flops) in
  let reads = Array.sub fs (f_counts + c_reads) 4 in
  let writes = Array.sub fs (f_counts + c_writes) 4 in
  let counted x = x <> 0.0 in
  if counted flops || Array.exists counted reads || Array.exists counted writes then begin
    let param_raw = ref [] in
    Array.iteri (fun j b -> if counted b then param_raw := (r.tids.(j), b) :: !param_raw) r.raw;
    r.segs <-
      {
        flops;
        dep_flops = fs.(f_counts + c_dep);
        reads;
        writes;
        lanes = fs.(f_lanes);
        param_raw = !param_raw;
      }
      :: r.segs
  end;
  Array.fill fs f_counts n_counts 0.0;
  Array.fill r.raw 0 (Array.length r.raw) 0.0;
  fs.(f_lanes) <- 1.0

(* ---------- compile time ---------- *)

module Scope = Map.Make (Int)

(* Dense indices, in order of first use, for the UFs and Param tensors
   the program names. *)
type 'a interned = { index : (int, int) Hashtbl.t; mutable items : 'a list }

let intern t key item =
  match Hashtbl.find_opt t.index key with
  | Some k -> k
  | None ->
    let k = Hashtbl.length t.index in
    Hashtbl.replace t.index key k;
    t.items <- item :: t.items;
    k

let interned () = { index = Hashtbl.create 16; items = [] }
let items t = Array.of_list (List.rev t.items)

type cc = { mutable slots : int; uf_slots : Uf.t interned; params : int interned }

let fresh_slot cc =
  cc.slots <- cc.slots + 1;
  cc.slots - 1

(* ---------- integer evaluation of extents and conditions ----------
   Control flow in lowered recursive models never depends on tensor
   data (property P.1), so extents and conditions evaluate with UFs and
   loop variables alone.  Operands evaluate left to right. *)

let rec compile_int cc scope e : run -> int =
  let int = compile_int cc scope in
  match e with
  | Int n -> fun _ -> n
  | Var v -> (
    match Scope.find_opt v.Var.vid scope with
    | Some slot -> fun r -> r.ints.(slot)
    | None ->
      let msg = "Cost.eval_int: unbound " ^ v.Var.vname in
      fun _ -> failwith msg)
  | Binop (op, a, b) ->
    let a = int a and b = int b in
    let f =
      match op with
      | Add -> ( + )
      | Sub -> ( - )
      | Mul -> ( * )
      | Div -> ( / )
      | Mod -> ( mod )
      | Min -> Int.min
      | Max -> Int.max
    in
    fun r ->
      let x = a r in
      f x (b r)
  | Cmp (op, a, b) ->
    let a = int a and b = int b in
    let holds c =
      match op with Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0 | Eq -> c = 0 | Ne -> c <> 0
    in
    fun r ->
      let x = a r in
      if holds (Int.compare x (b r)) then 1 else 0
  | And (a, b) ->
    let a = int a and b = int b in
    fun r -> if a r <> 0 && b r <> 0 then 1 else 0
  | Or (a, b) ->
    let a = int a and b = int b in
    fun r -> if a r <> 0 || b r <> 0 then 1 else 0
  | Not a ->
    let a = int a in
    fun r -> if a r = 0 then 1 else 0
  | Select (c, a, b) ->
    let c = int c and a = int a and b = int b in
    fun r -> if c r <> 0 then a r else b r
  | UfCall (u, args) -> (
    let k = intern cc.uf_slots u.Uf.uid u in
    match List.map int args with
    | [] -> fun r -> r.ufs.(k) [||]
    | [ a0 ] -> fun r -> r.ufs.(k) [| a0 r |]
    | [ a0; a1 ] ->
      fun r ->
        let x = a0 r in
        r.ufs.(k) [| x; a1 r |]
    | args ->
      let args = Array.of_list args in
      fun r -> r.ufs.(k) (Array.map (fun a -> a r) args))
  | Flt _ | Load _ | Math _ -> fun _ -> failwith "Cost.eval_int: data-dependent control flow"

(* ---------- summaries of multipliable subtrees ----------
   A statement is multipliable when executing it the same number of
   times with different loop-variable values cannot change the counts:
   no branches, no barriers, and only constant-extent inner loops.  Its
   summary is what one execution adds at multiplier 1: the counts, the
   raw bytes per Param tensor, and the lane factors it reaches — one
   (parallel, vectorized) product of its constant loop extents per
   statement.  Walked at multiplier [m] and lanes [(par, vec)], a
   statement under factors [(p, v)] runs on [par * p * min 512 (vec * v)]
   lanes (every extent is >= 1, so the chain of caps is one cap), and
   the segment keeps the max; that is monotone in [p] and in [v], so
   dominated factors are dropped. *)

type summary = {
  counts : float array;  (* n_counts, laid out as the run's *)
  raw : (int * float) list;  (* dense Param index, bytes *)
  factors : (float * float) list;
}

let leaf () = { counts = Array.make n_counts 0.0; raw = []; factors = [ (1.0, 1.0) ] }

let add_raw raw (i, b) =
  (i, b +. Option.value (List.assoc_opt i raw) ~default:0.0) :: List.remove_assoc i raw

let prune factors =
  let dominated (p, v) =
    List.exists (fun (p', v') -> p' >= p && v' >= v && (p' > p || v' > v)) factors
  in
  List.sort_uniq compare (List.filter (fun f -> not (dominated f)) factors)

let plus a b =
  {
    counts = Array.map2 ( +. ) a.counts b.counts;
    raw = List.fold_left add_raw a.raw b.raw;
    factors = prune (a.factors @ b.factors);
  }

(* [n] iterations of a loop of [kind] over a body summarized as [s]. *)
let scale kind n s =
  let k = float_of_int n in
  let factor (p, v) =
    match kind with
    | Parallel -> (p *. k, v)
    | Vectorized -> (p, v *. k)
    | Serial | Unrolled -> (p, v)
  in
  {
    counts = Array.map (fun c -> c *. k) s.counts;
    raw = List.map (fun (i, b) -> (i, b *. k)) s.raw;
    factors = prune ((1.0, 1.0) :: List.map factor s.factors);
  }

(* Adds one execution of [e] to [counts] and [raw]; returns whether [e]
   is float-valued (only tensor math is charged FLOPs). *)
let rec tally_expr cc counts raw e =
  let tally e = tally_expr cc counts raw e in
  let flop_if f =
    if f then counts.(c_flops) <- counts.(c_flops) +. 1.0;
    f
  in
  match e with
  | Int _ | Var _ -> false
  | Flt _ -> true
  | Binop (_, a, b) ->
    let fa = tally a in
    flop_if (tally b || fa)
  | Cmp (_, a, b) ->
    let fa = tally a in
    ignore (flop_if (tally b || fa));
    false
  | And (a, b) | Or (a, b) ->
    ignore (tally a);
    ignore (tally b);
    false
  | Not a ->
    ignore (tally a);
    false
  | Select (c, a, b) ->
    ignore (tally c);
    let fa = tally a in
    flop_if (tally b || fa)
  | Load (t, idx) ->
    let s = c_reads + Interp.space_index t.space in
    counts.(s) <- counts.(s) +. elem_bytes;
    if t.space = Param then raw := add_raw !raw (intern cc.params t.tid t.tid, elem_bytes);
    List.iter (fun e -> ignore (tally e)) idx;
    true
  | UfCall (_, args) ->
    List.iter (fun e -> ignore (tally e)) args;
    false
  | Math (k, a) ->
    counts.(c_flops) <- counts.(c_flops) +. float_of_int (Nonlinear.flops k);
    ignore (tally a);
    true

(* One execution of the expressions [es], as a statement's own counts. *)
let expr_summary cc es =
  let counts = Array.make n_counts 0.0 and raw = ref [] in
  List.iter (fun e -> ignore (tally_expr cc counts raw e)) es;
  { counts; raw = !raw; factors = [ (1.0, 1.0) ] }

(* [ser] is whether the innermost enclosing loop is Serial: a reduction
   accumulating into a Register temporary inside such a loop runs on a
   loop-carried dependency chain (each FMA waits on the previous one),
   so its FLOPs are also recorded as [dep_flops].  The innermost loop is
   the chain carrier — outer loops re-initialize the accumulator per
   iteration — so binding just the reduction loop onto lanes (or
   unrolling it into distinct accumulators) lifts the classification. *)
let store_summary cc ~ser (t : tensor) idx value =
  let s = expr_summary cc idx in
  let w = c_writes + Interp.space_index t.space in
  s.counts.(w) <- s.counts.(w) +. elem_bytes;
  let v = expr_summary cc [ value ] in
  if ser && t.space = Register then v.counts.(c_dep) <- v.counts.(c_flops);
  plus s v

(* The code that adds a summary at the walk's multiplier and lanes. *)
let apply s : code =
  let nz = List.filter (fun i -> s.counts.(i) <> 0.0) (List.init n_counts Fun.id) in
  let slots = Array.of_list (List.map (fun i -> f_counts + i) nz) in
  let amounts = Array.of_list (List.map (fun i -> s.counts.(i)) nz) in
  let raw_slots = Array.of_list (List.map fst s.raw) in
  let raw_bytes = Array.of_list (List.map snd s.raw) in
  let fp = Array.of_list (List.map fst s.factors) in
  let fv = Array.of_list (List.map snd s.factors) in
  fun r ->
    let fs = r.fs and raw = r.raw in
    let m = fs.(f_mult) in
    for j = 0 to Array.length slots - 1 do
      fs.(slots.(j)) <- fs.(slots.(j)) +. (m *. amounts.(j))
    done;
    for j = 0 to Array.length raw_slots - 1 do
      raw.(raw_slots.(j)) <- raw.(raw_slots.(j)) +. (m *. raw_bytes.(j))
    done;
    for j = 0 to Array.length fp - 1 do
      let x = fs.(f_par) *. fp.(j) *. cap_vec (fs.(f_vec) *. fv.(j)) in
      if x > fs.(f_lanes) then fs.(f_lanes) <- x
    done

(* ---------- statements ----------
   A multipliable statement compiles to its summary; any other to code
   that walks it.  Each statement records the lanes it runs on into the
   open segment, as its summary's [(1, 1)] factor or first thing in its
   code. *)

type step = Counts of summary | Walk of code

let code_of = function Counts s -> apply s | Walk c -> c

let rec compile cc scope ~ser s =
  match s with
  | Nop -> Counts (leaf ())
  | Store (t, idx, value) -> Counts (store_summary cc ~ser t idx value)
  | Let (v, e, body) -> (
    let slot = fresh_slot cc in
    let own = expr_summary cc [ e ] in
    match compile cc (Scope.add v.Var.vid slot scope) ~ser body with
    | Counts b -> Counts (plus own b)
    | Walk body ->
      (* A bound value that does not evaluate (it reads tensor data or
         an unbound variable) binds 0. *)
      let own = apply own and value = compile_int cc scope e in
      Walk
        (fun r ->
          own r;
          r.ints.(slot) <- (try value r with Failure _ -> 0);
          body r))
  | Seq ss -> (
    (* Adjacent summaries share a segment: merge them. *)
    let rec group = function
      | Counts a :: Counts b :: rest -> group (Counts (plus a b) :: rest)
      | step :: rest -> step :: group rest
      | [] -> []
    in
    match group (Counts (leaf ()) :: List.map (compile cc scope ~ser) ss) with
    | [ step ] -> step
    | steps ->
      let codes = Array.of_list (List.map code_of steps) in
      Walk
        (fun r ->
          for i = 0 to Array.length codes - 1 do
            codes.(i) r
          done))
  | For { v; extent; kind; body; _ } -> (
    let slot = fresh_slot cc in
    let body = compile cc (Scope.add v.Var.vid slot scope) ~ser:(kind = Serial) body in
    match (extent, body) with
    | Int n, Counts b -> Counts (if n <= 0 then leaf () else scale kind n b)
    | _ ->
      let extent = compile_int cc scope extent in
      let run_body : run -> int -> unit =
        match body with
        | Counts b ->
          let b = apply b in
          fun r n ->
            let m = r.fs.(f_mult) in
            r.fs.(f_mult) <- m *. float_of_int n;
            b r;
            r.fs.(f_mult) <- m
        | Walk b ->
          fun r n ->
            for i = 0 to n - 1 do
              r.ints.(slot) <- i;
              b r
            done
      in
      Walk
        (fun r ->
          record_lanes r;
          let n = extent r in
          if n > 0 then begin
            let fs = r.fs in
            let par = fs.(f_par) and vec = fs.(f_vec) in
            (match kind with
             | Parallel -> fs.(f_par) <- par *. float_of_int n
             | Vectorized -> fs.(f_vec) <- cap_vec (vec *. float_of_int n)
             | Serial | Unrolled -> ());
            run_body r n;
            fs.(f_par) <- par;
            fs.(f_vec) <- vec
          end))
  | If (c, a, b) ->
    let own = apply (expr_summary cc [ c ]) and cond = compile_int cc scope c in
    let a = code_of (compile cc scope ~ser a) in
    let b = match b with Some b -> code_of (compile cc scope ~ser b) | None -> ignore in
    Walk
      (fun r ->
        own r;
        if cond r <> 0 then a r else b r)
  | Barrier ->
    Walk
      (fun r ->
        record_lanes r;
        close_segment r;
        r.barriers <- r.barriers + 1)

(* ---------- per program, once ---------- *)

type walk = {
  codes : (string * int option * code) list;  (* per kernel; the batch variable's slot *)
  uf_list : Uf.t array;
  n_slots : int;
  param_tids : int array;
  static : t;  (* the window-independent fields; no kernels yet *)
}

let static_bytes t = Mem_plan.static_bytes ~bytes_per_elem t

let compile_program (p : program) =
  let cc = { slots = 0; uf_slots = interned (); params = interned () } in
  let codes =
    List.map
      (fun (k : kernel) ->
        let batch, scope =
          match k.launch with
          | Once -> (None, Scope.empty)
          | PerInternalBatch bvar ->
            let slot = fresh_slot cc in
            (Some slot, Scope.singleton bvar.Var.vid slot)
        in
        (k.kname, batch, code_of (compile cc scope ~ser:false k.body)))
      p.kernels
  in
  let param_bytes (t : tensor) =
    match static_bytes t with
    | Some b -> (t.tid, float_of_int b)
    | None -> failwith ("Cost.analyze: parameter " ^ t.tname ^ " has no static extent")
  in
  let params = List.map param_bytes p.params in
  (* Resident on-chip footprint: constant-extent Shared/Register
     temporaries (staging buffers, caches of fixed shape, accumulators,
     unroll-local state) are live for a whole launch and must fit
     capacity together.  Scratch sized by the linearized input
     (UF-valued extents) is processed in flight — it is priced through
     on-chip bandwidth, not held resident — so it does not count. *)
  let onchip_peak_bytes =
    List.fold_left
      (fun acc (t : tensor) ->
        match (t.space, static_bytes t) with
        | (Shared | Register), Some b -> acc +. float_of_int b
        | _ -> acc)
      0.0 p.temporaries
  in
  {
    codes;
    uf_list = items cc.uf_slots;
    n_slots = cc.slots;
    param_tids = items cc.params;
    static =
      {
        kernels = [];
        param_total_bytes = List.fold_left (fun acc (_, b) -> acc +. b) 0.0 params;
        param_sizes = List.sort_uniq (fun (a, _) (b, _) -> compare a b) params;
        barrier_count = 0;
        onchip_peak_bytes;
        (* The same buffers, liveness-packed: temporaries whose live
           ranges never intersect share arena space, so the planned
           footprint is what must actually be resident together.
           Always <= the worst case above, so switching the capacity
           check to it only admits schedules. *)
        onchip_planned_bytes =
          float_of_int
            (Mem_plan.plan ~bytes_per_elem ~spaces:[ Shared; Register ] p).Mem_plan.arena_bytes;
      };
  }

(* Compiled walks by the program's physical identity, never its
   structure, so a program that dies frees its entry.  Unsynchronized:
   one domain prices at a time. *)
module Walks = Ephemeron.K1.Make (struct
  type t = program

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let walks = Walks.create 16

let walk_of p =
  match Walks.find_opt walks p with
  | Some w -> w
  | None ->
    let w = compile_program p in
    Walks.replace walks p w;
    w

let analyze ~uf ~num_internal_batches (p : program) =
  let w = walk_of p in
  let r =
    {
      ufs = Array.map uf w.uf_list;
      ints = Array.make w.n_slots 0;
      fs = Array.make (f_counts + n_counts) 0.0;
      raw = Array.make (Array.length w.param_tids) 0.0;
      tids = w.param_tids;
      segs = [];
      barriers = 0;
    }
  in
  Array.fill r.fs 0 f_counts 1.0;
  let kernel (kname, batch, body) =
    r.segs <- [];
    let launches =
      match batch with
      | None ->
        body r;
        close_segment r;
        1
      | Some slot ->
        for b = 0 to num_internal_batches - 1 do
          r.ints.(slot) <- b;
          body r;
          close_segment r
        done;
        num_internal_batches
    in
    { kname; launches; segments = List.rev r.segs }
  in
  let kernels = List.map kernel w.codes in
  { w.static with kernels; barrier_count = r.barriers }

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
