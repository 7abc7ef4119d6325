open Ir

(* Static memory planning over a lowered program.

   The worst case charges every constant-extent temporary its own
   buffer for the whole run.  But a lowered program touches its
   temporaries in phases — setup kernels stage activations, the leaf
   loop uses its scratch, the batch loop its accumulators — and buffers
   whose live ranges never intersect can share arena space.  This
   module computes per-tensor live ranges over a program-order walk and
   packs the buffers into one reusable arena, first-fit on offset; the
   arena high-water mark is the *planned* peak footprint, the number
   capacity checks and the bundle manifest report instead of the
   sum-of-buffers worst case.

   Liveness is static and conservative: each Load/Store advances an
   event clock, a tensor's range is the hull of its access events, and
   every range is widened to cover the full interval of any loop (or
   per-batch kernel launch) containing one of its accesses — iteration
   2 of a loop may read what iteration 1 wrote, so two tensors used in
   the same loop always conflict.  No plan produced here can alias two
   simultaneously-live buffers; the QCheck property tests pin that. *)

type placement = {
  pl_tensor : tensor;
  pl_bytes : int;
  pl_offset : int;
  pl_first : int;  (* first event of the live range, inclusive *)
  pl_last : int;  (* last event, inclusive *)
}

type t = {
  arena_bytes : int;  (* planned peak: max over placements of offset+bytes *)
  worst_bytes : int;  (* every planned buffer charged separately *)
  placements : placement list;
  unplanned : tensor list;
      (* temporaries of the requested spaces whose extent depends on the
         linearized input: streamed scratch, not statically packable *)
}

let ranges_overlap a b = a.pl_first <= b.pl_last && b.pl_first <= a.pl_last

let offsets_overlap a b =
  a.pl_offset < b.pl_offset + b.pl_bytes && b.pl_offset < a.pl_offset + a.pl_bytes

(* Extent evaluation: compile-time constants always, UF calls when a
   resolver (a bound linearization's [Lower.uf_resolver]) is supplied.
   Anything else — a loop variable in an extent — is not a static
   buffer size. *)
let rec eval_extent ?uf e =
  match e with
  | Int n -> Some n
  | UfCall (u, args) -> (
    match uf with
    | None -> None
    | Some f ->
      let args = List.map (eval_extent ?uf) args in
      if List.for_all Option.is_some args then
        match f u (Array.of_list (List.map Option.get args)) with
        | n -> Some n
        | exception _ -> None
      else None)
  | Binop (op, a, b) -> (
    match (eval_extent ?uf a, eval_extent ?uf b) with
    | Some _, Some 0 when op = Div || op = Mod ->
      (* a zero denominator makes the extent non-static, not a crash *)
      None
    | Some x, Some y ->
      Some
        (match op with
         | Add -> x + y
         | Sub -> x - y
         | Mul -> x * y
         | Div -> x / y
         | Mod -> x mod y
         | Min -> Stdlib.min x y
         | Max -> Stdlib.max x y)
    | _ -> None)
  | _ -> None

let static_bytes ?uf ~bytes_per_elem (t : tensor) =
  let elems =
    List.fold_left
      (fun acc e ->
        match (acc, eval_extent ?uf e) with
        | Some n, Some k -> Some (n * k)
        | _ -> None)
      (Some 1) t.extents
  in
  Option.map (fun n -> n * bytes_per_elem) elems

(* ---------- live ranges ---------- *)

(* One entry per tensor: insertion-ordered by first touch so the
   packing below is deterministic. *)
type range_acc = {
  mutable order : int list;  (* tids, reversed first-touch order *)
  table : (int, tensor * int ref * int ref) Hashtbl.t;
}

(* Per-tensor [(first, last)] access-event ranges over a program-order
   walk of all kernels, in first-touch order, restricted to tensors of
   the given memory spaces. *)
let live_ranges ~spaces (p : program) =
  let clock = ref 0 in
  let acc = { order = []; table = Hashtbl.create 16 } in
  let touch (t : tensor) =
    if List.mem t.space spaces then begin
      incr clock;
      match Hashtbl.find_opt acc.table t.tid with
      | None ->
        acc.order <- t.tid :: acc.order;
        Hashtbl.replace acc.table t.tid (t, ref !clock, ref !clock)
      | Some (_, _, hi) -> hi := !clock
    end
  in
  let rec walk_expr e =
    match e with
    | Load (t, idx) ->
      touch t;
      List.iter walk_expr idx
    | Int _ | Flt _ | Var _ -> ()
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      walk_expr a;
      walk_expr b
    | Not a | Math (_, a) -> walk_expr a
    | Select (c, a, b) ->
      walk_expr c;
      walk_expr a;
      walk_expr b
    | UfCall (_, args) -> List.iter walk_expr args
  in
  (* Widen every tensor touched inside [lo_evt, !clock] to cover that
     whole interval: the enclosing loop re-executes its body, so a
     buffer's last static use is not its last dynamic one. *)
  let widen_since lo_evt =
    Hashtbl.iter
      (fun _ (_, lo, hi) ->
        if !hi > lo_evt then begin
          if !lo > lo_evt then lo := lo_evt;
          hi := !clock
        end)
      acc.table
  in
  let rec walk_stmt s =
    match s with
    | For { extent; body; _ } ->
      walk_expr extent;
      let lo_evt = !clock in
      walk_stmt body;
      widen_since lo_evt
    | Let (_, e, body) ->
      walk_expr e;
      walk_stmt body
    | Store (t, idx, value) ->
      touch t;
      List.iter walk_expr idx;
      walk_expr value
    | If (c, a, b) ->
      walk_expr c;
      walk_stmt a;
      Option.iter walk_stmt b
    | Seq ss -> List.iter walk_stmt ss
    | Barrier | Nop -> ()
  in
  (* A batch-major run of per-batch kernels is one enclosing loop
     (see [Ir.launch_groups]).  Tensors touched by different kernels of
     the same run are simultaneously live across batch iterations;
     widening per kernel instead of per run would let the packer alias
     them. *)
  List.iter
    (function
      | Single (k : kernel) -> walk_stmt k.body
      | Batch_run run ->
        let lo_evt = !clock in
        List.iter (fun (_, (k : kernel)) -> walk_stmt k.body) run;
        widen_since lo_evt)
    (launch_groups p);
  List.rev_map
    (fun tid ->
      let t, lo, hi = Hashtbl.find acc.table tid in
      (t, (!lo, !hi)))
    acc.order

(* ---------- first-fit packing ---------- *)

let align_up ~align n = (n + align - 1) / align * align

let plan ?(bytes_per_elem = 4) ?(align = 64) ?uf ~spaces (p : program) =
  let ranges = live_ranges ~spaces p in
  let sized, unplanned =
    List.partition_map
      (fun (t, range) ->
        match static_bytes ?uf ~bytes_per_elem t with
        | Some bytes -> Left (t, range, bytes)
        | None -> Right t)
      ranges
  in
  (* First-fit on offset, candidates in (first event, larger first, tid)
     order: earlier phases claim the arena bottom, and within a phase
     the big buffers go first so small ones fill the gaps. *)
  let sized =
    List.sort
      (fun (ta, (la, _), ba) (tb, (lb, _), bb) ->
        match compare la lb with
        | 0 -> ( match compare bb ba with 0 -> compare ta.tid tb.tid | c -> c)
        | c -> c)
      sized
  in
  let placements =
    List.fold_left
      (fun placed (t, (first, last), bytes) ->
        let probe = { pl_tensor = t; pl_bytes = bytes; pl_offset = 0; pl_first = first; pl_last = last } in
        let conflicts =
          List.filter (fun q -> ranges_overlap probe q) placed
          |> List.sort (fun a b -> compare a.pl_offset b.pl_offset)
        in
        let offset =
          List.fold_left
            (fun off q ->
              if off + bytes <= q.pl_offset then off
              else Stdlib.max off (align_up ~align (q.pl_offset + q.pl_bytes)))
            0 conflicts
        in
        { probe with pl_offset = offset } :: placed)
      [] sized
  in
  let placements = List.rev placements in
  let arena_bytes =
    List.fold_left (fun m q -> Stdlib.max m (q.pl_offset + q.pl_bytes)) 0 placements
  in
  (* The worst case allocates every buffer separately at the same
     alignment the arena uses — otherwise alignment padding alone could
     make the packed arena "exceed" an unaligned sum. *)
  let worst_bytes =
    List.fold_left (fun s q -> s + align_up ~align q.pl_bytes) 0 placements
  in
  { arena_bytes; worst_bytes; placements; unplanned }

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "arena %d bytes (worst case %d), %d buffers planned, %d unplanned\n"
       t.arena_bytes t.worst_bytes (List.length t.placements) (List.length t.unplanned));
  List.iter
    (fun q ->
      Buffer.add_string buf
        (Printf.sprintf "  [%7d, %7d) %-20s %8d bytes  live [%d, %d]\n" q.pl_offset
           (q.pl_offset + q.pl_bytes) q.pl_tensor.tname q.pl_bytes q.pl_first q.pl_last))
    t.placements;
  Buffer.contents buf
