open Ir
module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

exception Schedule_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Schedule_error s)) fmt

(* Every occurrence of a loop named [name], each described by its chain
   of enclosing loop names (outermost first, the loop itself last) — the
   duplicate sites an ambiguity error reports. *)
let loop_sites ~name s =
  let rec go path acc s =
    match s with
    | For { v; body; _ } ->
      let here = Var.name v in
      let acc = if here = name then List.rev (here :: path) :: acc else acc in
      go (here :: path) acc body
    | Seq ss -> List.fold_left (go path) acc ss
    | Let (_, _, body) -> go path acc body
    | If (_, a, b) -> (
      let acc = go path acc a in
      match b with Some b -> go path acc b | None -> acc)
    | Store _ | Barrier | Nop -> acc
  in
  List.rev (go [] [] s)

(* Apply [f] to the unique loop named [name]; error when absent, and
   when ambiguous list every duplicate site so plan failures against
   lowered programs are actionable. *)
let on_loop ~name f s =
  (match loop_sites ~name s with
   | [] -> fail "schedule: no loop named %s" name
   | [ _ ] -> ()
   | sites ->
     fail "schedule: loop %s is ambiguous (%d sites: %s)" name
       (List.length sites)
       (String.concat ", " (List.map (String.concat " > ") sites)));
  let rec go s =
    match s with
    | For { v; extent; kind; dim; body } when Var.name v = name ->
      f ~v ~extent ~kind ~dim ~body
    | For r -> For { r with body = go r.body }
    | Seq ss -> Seq (List.map go ss)
    | Let (v, e, body) -> Let (v, e, go body)
    | If (c, a, b) -> If (c, go a, Option.map go b)
    | Store _ | Barrier | Nop -> s
  in
  go s

let split ~name ~factor s =
  if factor < 1 then fail "split: factor %d" factor;
  on_loop ~name
    (fun ~v ~extent ~kind ~dim ~body ->
      let vo = Var.fresh (name ^ "_o") in
      let vi = Var.fresh (name ^ "_i") in
      let outer_extent =
        (* ceil(extent / factor) *)
        Binop (Div, Binop (Add, extent, Int (factor - 1)), Int factor)
      in
      let idx = Binop (Add, Binop (Mul, Var vo, Int factor), Var vi) in
      let guarded = Let (v, idx, If (Cmp (Lt, Var v, extent), body, None)) in
      For
        {
          v = vo;
          extent = outer_extent;
          kind;
          dim;
          body = For { v = vi; extent = Int factor; kind = Serial; dim; body = guarded };
        })
    s

let split_peeled ~name ~factor s =
  if factor < 1 then fail "split_peeled: factor %d" factor;
  on_loop ~name
    (fun ~v ~extent ~kind ~dim ~body ->
      let vo = Var.fresh (name ^ "_o") in
      let vi = Var.fresh (name ^ "_i") in
      let vt = Var.fresh (name ^ "_t") in
      let full_chunks = Binop (Div, extent, Int factor) in
      let main =
        For
          {
            v = vo;
            extent = full_chunks;
            kind;
            dim;
            body =
              For
                {
                  v = vi;
                  extent = Int factor;
                  kind = Serial;
                  dim;
                  body = Let (v, Binop (Add, Binop (Mul, Var vo, Int factor), Var vi), body);
                };
          }
      in
      let tail_base = Binop (Mul, full_chunks, Int factor) in
      (* The tail keeps the original loop kind: a peeled parallel loop's
         remainder is still parallel work. *)
      let tail =
        For
          {
            v = vt;
            extent = Binop (Sub, extent, tail_base);
            kind;
            dim;
            body = Let (v, Binop (Add, tail_base, Var vt), body);
          }
      in
      Seq [ main; tail ])
    s

let unroll ~name s =
  on_loop ~name
    (fun ~v ~extent ~kind:_ ~dim:_ ~body ->
      match Simplify.expr extent with
      | Int n when n >= 0 && n <= 1024 ->
        Seq (List.init n (fun i -> subst_var_stmt v (Int i) body))
      | Int n -> fail "unroll: extent %d too large" n
      | _ -> fail "unroll: loop %s has a non-constant extent" name)
    s

(* Mark a loop parallel / vectorized / serial / unrolled. *)
let set_kind ~name kind s =
  on_loop ~name (fun ~v ~extent ~kind:_ ~dim ~body -> For { v; extent; kind; dim; body }) s

let reorder ~outer ~inner s =
  on_loop ~name:outer
    (fun ~v ~extent ~kind ~dim ~body ->
      match body with
      | For ri when Var.name ri.v = inner ->
        For { ri with body = For { v; extent; kind; dim; body = ri.body } }
      | _ -> fail "reorder: %s is not perfectly nested inside %s" inner outer)
    s

let bind ~name kind s =
  match kind with
  | Serial | Unrolled ->
    fail "bind: loop %s must map onto Parallel or Vectorized lanes" name
  | Parallel | Vectorized -> set_kind ~name kind s

let const_extent what name e =
  match Simplify.expr e with
  | Int n -> n
  | _ -> fail "%s: %s has a non-constant extent" what name

let tile ~outer ~inner ~factor_outer ~factor_inner s =
  if factor_outer < 1 || factor_inner < 1 then
    fail "tile: factors %dx%d" factor_outer factor_inner;
  on_loop ~name:outer
    (fun ~v ~extent ~kind ~dim ~body ->
      match body with
      | For ri when Var.name ri.v = inner ->
        let no = const_extent "tile" outer extent in
        let ni = const_extent "tile" inner ri.extent in
        if no mod factor_outer <> 0 then
          fail "tile: factor %d does not divide %s's extent %d" factor_outer outer no;
        if ni mod factor_inner <> 0 then
          fail "tile: factor %d does not divide %s's extent %d" factor_inner inner ni;
        let voo = Var.fresh (outer ^ "_o") in
        let voi = Var.fresh (outer ^ "_i") in
        let vio = Var.fresh (inner ^ "_o") in
        let vii = Var.fresh (inner ^ "_i") in
        let rebased =
          Let
            ( v,
              Binop (Add, Binop (Mul, Var voo, Int factor_outer), Var voi),
              Let
                ( ri.v,
                  Binop (Add, Binop (Mul, Var vio, Int factor_inner), Var vii),
                  ri.body ) )
        in
        For
          {
            v = voo;
            extent = Int (no / factor_outer);
            kind;
            dim;
            body =
              For
                {
                  v = vio;
                  extent = Int (ni / factor_inner);
                  kind = ri.kind;
                  dim = ri.dim;
                  body =
                    For
                      {
                        v = voi;
                        extent = Int factor_outer;
                        kind = Serial;
                        dim;
                        body =
                          For
                            {
                              v = vii;
                              extent = Int factor_inner;
                              kind = Serial;
                              dim = ri.dim;
                              body = rebased;
                            };
                      };
                };
          }
      | _ -> fail "tile: %s is not perfectly nested inside %s" inner outer)
    s

let stage ~loop ~tensor s =
  let staged = ref None in
  let s' =
    on_loop ~name:loop
      (fun ~v ~extent ~kind ~dim ~body ->
        let target = ref None in
        ignore
          (fold_stmt
             ~expr:(fun () e ->
               match e with
               | Load (t, _) when t.tname = tensor -> (
                 match !target with
                 | Some t0 when t0.tid <> t.tid ->
                   fail "stage: two distinct tensors named %s under loop %s" tensor loop
                 | _ -> target := Some t)
               | _ -> ())
             ~stmt:(fun () st ->
               match st with
               | Store (t, _, _) when t.tname = tensor ->
                 fail "stage: %s is written inside loop %s" tensor loop
               | _ -> ())
             () body);
        let t =
          match !target with
          | None -> fail "stage: no load of %s under loop %s" tensor loop
          | Some t -> t
        in
        (match t.space with
         | Shared | Register -> fail "stage: %s is already on-chip" tensor
         | Param | Global -> ());
        let ns =
          List.map
            (fun e ->
              match Simplify.expr e with
              | Int n when n > 0 -> n
              | _ -> fail "stage: %s has a non-constant extent" tensor)
            t.extents
        in
        let st_t = Ir.tensor ~space:Shared (t.tname ^ "_stage") t.dims t.extents in
        staged := Some st_t;
        let rec rw e =
          map_expr
            (function
              | Load (t', idx) when t'.tid = t.tid -> Some (Load (st_t, List.map rw idx))
              | _ -> None)
            e
        in
        let body' = map_stmt ~expr:(fun e -> Some (rw e)) body in
        let cp_vars =
          List.mapi (fun i _ -> Var.fresh (Printf.sprintf "%s_cp%d" tensor i)) ns
        in
        let idx = List.map (fun cv -> Var cv) cp_vars in
        let copy_in =
          List.fold_right2
            (fun cv n acc ->
              For { v = cv; extent = Int n; kind = Vectorized; dim = None; body = acc })
            cp_vars ns
            (Store (st_t, idx, Load (t, idx)))
        in
        Seq [ copy_in; For { v; extent; kind; dim; body = body' } ])
      s
  in
  (s', Option.get !staged)

(* Tensor ids read / written inside a statement, plus whether it
   synchronizes — the footprint [fuse_loops] checks for independence. *)
let footprint s =
  let reads = ref IntSet.empty in
  let writes = ref IntSet.empty in
  let barriers = ref false in
  ignore
    (fold_stmt
       ~expr:(fun () e ->
         match e with Load (t, _) -> reads := IntSet.add t.tid !reads | _ -> ())
       ~stmt:(fun () st ->
         match st with
         | Store (t, _, _) -> writes := IntSet.add t.tid !writes
         | Barrier -> barriers := true
         | _ -> ())
       () s);
  (!reads, !writes, !barriers)

let fuse_loops ~first ~second s =
  let found = ref false in
  let rec go s =
    match s with
    | Seq ss ->
      let rec scan = function
        | For ra :: For rb :: rest
          when Var.name ra.v = first && Var.name rb.v = second && not !found ->
          found := true;
          if Simplify.expr ra.extent <> Simplify.expr rb.extent then
            fail "fuse_loops: %s and %s have different extents" first second;
          let reads_a, writes_a, bar_a = footprint ra.body in
          let reads_b, writes_b, bar_b = footprint rb.body in
          if bar_a || bar_b then
            fail "fuse_loops: %s / %s bodies synchronize" first second;
          let clash =
            (not
               (IntSet.is_empty (IntSet.inter writes_a (IntSet.union reads_b writes_b))))
            || not (IntSet.is_empty (IntSet.inter writes_b reads_a))
          in
          if clash then
            fail
              "fuse_loops: %s and %s touch the same tensors (fusion would reorder them)"
              first second;
          let kind = if ra.kind = rb.kind then ra.kind else Serial in
          For
            {
              ra with
              kind;
              body = seq [ ra.body; subst_var_stmt rb.v (Var ra.v) rb.body ];
            }
          :: scan rest
        | st :: rest -> go st :: scan rest
        | [] -> []
      in
      Seq (scan ss)
    | For r -> For { r with body = go r.body }
    | Let (v, e, body) -> Let (v, e, go body)
    | If (c, a, b) -> If (c, go a, Option.map go b)
    | Store _ | Barrier | Nop -> s
  in
  let s' = go s in
  if not !found then fail "fuse_loops: no adjacent loops %s / %s" first second;
  s'

let loop_names s =
  let seen = Hashtbl.create 16 in
  List.rev
    (fold_stmt
       ~expr:(fun acc _ -> acc)
       ~stmt:(fun acc s ->
         match s with
         | For r ->
           let n = Var.name r.v in
           if Hashtbl.mem seen n then acc
           else begin
             Hashtbl.add seen n ();
             n :: acc
           end
         | _ -> acc)
       [] s)

(* ---------- canonical loop names ---------- *)

let canonicalize (p : Ir.program) =
  let counts = Hashtbl.create 32 in
  let subst env e =
    map_expr
      (function
        | Var x -> (
          match IntMap.find_opt x.Var.vid env with
          | Some v' when v'.Var.vname <> x.Var.vname -> Some (Var v')
          | _ -> None)
        | _ -> None)
      e
  in
  let rec go env s =
    match s with
    | For r ->
      let base = Var.name r.v in
      let n = Option.value (Hashtbl.find_opt counts base) ~default:0 in
      Hashtbl.replace counts base (n + 1);
      let name = if n = 0 then base else Printf.sprintf "%s~%d" base (n + 1) in
      let v' = { r.v with Var.vname = name } in
      let env' = IntMap.add r.v.Var.vid v' env in
      For { v = v'; extent = subst env r.extent; kind = r.kind; dim = r.dim; body = go env' r.body }
    | Let (v, e, body) -> Let (v, subst env e, go env body)
    | Store (t, idx, value) -> Store (t, List.map (subst env) idx, subst env value)
    | If (c, a, b) -> If (subst env c, go env a, Option.map (go env) b)
    | Seq ss -> Seq (List.map (go env) ss)
    | Barrier | Nop -> s
  in
  {
    p with
    Ir.kernels =
      List.map (fun k -> { k with Ir.body = go IntMap.empty k.Ir.body }) p.Ir.kernels;
  }

(* ---------- serializable plans ---------- *)

type directive =
  | Split of { loop : string; factor : int }
  | Split_peeled of { loop : string; factor : int }
  | Unroll of { loop : string }
  | Reorder of { outer : string; inner : string }
  | Tile of { outer : string; inner : string; factor_outer : int; factor_inner : int }
  | Bind of { loop : string; kind : loop_kind }
  | Stage of { loop : string; tensor : string }
  | Fuse of { first : string; second : string }

type plan = directive list

let directive_loops = function
  | Split { loop; _ } | Split_peeled { loop; _ } | Unroll { loop } | Bind { loop; _ }
  | Stage { loop; _ } ->
    [ loop ]
  | Reorder { outer; inner } | Tile { outer; inner; _ } -> [ outer; inner ]
  | Fuse { first; second } -> [ first; second ]

let apply_directive d s =
  match d with
  | Split { loop; factor } -> (split ~name:loop ~factor s, [])
  | Split_peeled { loop; factor } -> (split_peeled ~name:loop ~factor s, [])
  | Unroll { loop } -> (unroll ~name:loop s, [])
  | Reorder { outer; inner } -> (reorder ~outer ~inner s, [])
  | Tile { outer; inner; factor_outer; factor_inner } ->
    (tile ~outer ~inner ~factor_outer ~factor_inner s, [])
  | Bind { loop; kind } -> (bind ~name:loop kind s, [])
  | Stage { loop; tensor } ->
    let s', t = stage ~loop ~tensor s in
    (s', [ t ])
  | Fuse { first; second } -> (fuse_loops ~first ~second s, [])

let bind_kind_name = function
  | Parallel -> "par"
  | Vectorized -> "vec"
  | Serial -> "serial"
  | Unrolled -> "unrolled"

let directive_to_string = function
  | Split { loop; factor } -> Printf.sprintf "split(%s,%d)" loop factor
  | Split_peeled { loop; factor } -> Printf.sprintf "peel(%s,%d)" loop factor
  | Unroll { loop } -> Printf.sprintf "unroll(%s)" loop
  | Reorder { outer; inner } -> Printf.sprintf "reorder(%s,%s)" outer inner
  | Tile { outer; inner; factor_outer; factor_inner } ->
    Printf.sprintf "tile(%s,%s,%d,%d)" outer inner factor_outer factor_inner
  | Bind { loop; kind } -> Printf.sprintf "bind(%s,%s)" loop (bind_kind_name kind)
  | Stage { loop; tensor } -> Printf.sprintf "stage(%s,%s)" loop tensor
  | Fuse { first; second } -> Printf.sprintf "fuse(%s,%s)" first second

let plan_to_string = function
  | [] -> "default"
  | ds -> String.concat ";" (List.map directive_to_string ds)

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some n -> n
  | None -> fail "plan: %s expects an integer, got %S" what s

let parse_directive str =
  let str = String.trim str in
  match String.index_opt str '(' with
  | None -> fail "plan: malformed directive %S" str
  | Some i ->
    if String.length str = 0 || str.[String.length str - 1] <> ')' then
      fail "plan: malformed directive %S" str;
    let name = String.sub str 0 i in
    let args = String.sub str (i + 1) (String.length str - i - 2) in
    let args = List.map String.trim (String.split_on_char ',' args) in
    (match (name, args) with
     | "split", [ loop; f ] -> Split { loop; factor = parse_int "split" f }
     | "peel", [ loop; f ] -> Split_peeled { loop; factor = parse_int "peel" f }
     | "unroll", [ loop ] -> Unroll { loop }
     | "reorder", [ outer; inner ] -> Reorder { outer; inner }
     | "tile", [ outer; inner; fo; fi ] ->
       Tile
         {
           outer;
           inner;
           factor_outer = parse_int "tile" fo;
           factor_inner = parse_int "tile" fi;
         }
     | "bind", [ loop; k ] ->
       let kind =
         match k with
         | "par" -> Parallel
         | "vec" -> Vectorized
         | _ -> fail "plan: bind kind must be par or vec, got %S" k
       in
       Bind { loop; kind }
     | "stage", [ loop; tensor ] -> Stage { loop; tensor }
     | "fuse", [ first; second ] -> Fuse { first; second }
     | _ -> fail "plan: unknown directive %S" str)

let plan_of_string str =
  let str = String.trim str in
  if str = "" || str = "default" then []
  else List.map parse_directive (String.split_on_char ';' str)
