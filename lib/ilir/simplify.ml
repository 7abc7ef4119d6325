open Ir

module VarMap = Map.Make (Int)

type env = (expr * expr) VarMap.t
(* vid -> inclusive (lo, hi) bound expressions *)

let empty_env = VarMap.empty
let bind_range env (v : Var.t) ~lo ~hi = VarMap.add v.Var.vid (lo, hi) env

(* ---------- linear normal form over integer expressions ----------

   lin = const + sum of coeff * atom, where an atom is any
   non-decomposable integer expression (a variable, a UF call, a
   division, ...).  Atoms are compared structurally, which is sound
   because all id-carrying records compare by their ids. *)

type lin = { const : int; terms : (expr * int) list }

let lin_const c = { const = c; terms = [] }
let lin_atom a = { const = 0; terms = [ (a, 1) ] }

let lin_add a b =
  let merged =
    List.fold_left
      (fun acc (atom, c) ->
        let existing = try List.assoc atom acc with Not_found -> 0 in
        (atom, existing + c) :: List.remove_assoc atom acc)
      a.terms b.terms
  in
  { const = a.const + b.const; terms = List.filter (fun (_, c) -> c <> 0) merged }

let lin_scale k l =
  if k = 0 then lin_const 0
  else { const = k * l.const; terms = List.map (fun (a, c) -> (a, k * c)) l.terms }

let lin_neg = lin_scale (-1)

(* Linearize an integer expression; [None] when it is float-valued or
   not linear-decomposable in a useful way (the whole expr then becomes
   an atom at the caller's discretion). *)
let rec linearize e =
  match e with
  | Int n -> Some (lin_const n)
  | Var _ | UfCall _ -> Some (lin_atom e)
  | Binop (Add, a, b) -> map2_lin lin_add a b
  | Binop (Sub, a, b) -> map2_lin (fun la lb -> lin_add la (lin_neg lb)) a b
  | Binop (Mul, Int k, b) | Binop (Mul, b, Int k) ->
    Option.map (lin_scale k) (linearize b)
  | Binop ((Mul | Div | Mod | Min | Max), _, _) -> Some (lin_atom e)
  | Select _ | Cmp _ | And _ | Or _ | Not _ -> Some (lin_atom e)
  | Flt _ | Load _ | Math _ -> None

and map2_lin f a b =
  match (linearize a, linearize b) with
  | Some la, Some lb -> Some (f la lb)
  | _ -> None

(* Rebuild a canonical expression from a lin: atoms in a deterministic
   order, constants folded. *)
let delinearize l =
  let sorted = List.sort compare l.terms in
  let term (atom, c) =
    if c = 1 then atom else Binop (Mul, Int c, atom)
  in
  match sorted with
  | [] -> Int l.const
  | first :: rest ->
    let body =
      List.fold_left
        (fun acc t ->
          let atom, c = t in
          if c < 0 then Binop (Sub, acc, term (atom, -c)) else Binop (Add, acc, term t))
        (term first) rest
    in
    if l.const = 0 then body
    else if l.const < 0 then Binop (Sub, body, Int (-l.const))
    else Binop (Add, body, Int l.const)

(* ---------- interval arithmetic ---------- *)

(* Inclusive interval of an integer expression, when derivable.  UF
   calls fall back to their declared ranges. *)
let rec interval env e =
  match e with
  | Int n -> Some (n, n)
  | Var v ->
    (match VarMap.find_opt v.Var.vid env with
     | None -> None
     | Some (lo, hi) ->
       (match (interval env lo, interval env hi) with
        | Some (l, _), Some (_, h) -> Some (l, h)
        | _ -> None))
  | UfCall (u, _) -> u.Uf.range
  | Binop (op, a, b) ->
    (match (interval env a, interval env b) with
     | Some (al, ah), Some (bl, bh) ->
       (match op with
        | Add -> Some (al + bl, ah + bh)
        | Sub -> Some (al - bh, ah - bl)
        | Mul ->
          let products = [ al * bl; al * bh; ah * bl; ah * bh ] in
          Some (List.fold_left min max_int products, List.fold_left max min_int products)
        | Min -> Some (min al bl, min ah bh)
        | Max -> Some (max al bl, max ah bh)
        | Div when bl > 0 -> Some (min (al / bl) (al / bh), max (ah / bl) (ah / bh))
        | Div -> None
        | Mod when bl > 0 -> Some (0, bh - 1)
        | Mod -> None)
     | _ -> None)
  | Select (_, a, b) ->
    (match (interval env a, interval env b) with
     | Some (al, ah), Some (bl, bh) -> Some (min al bl, max ah bh)
     | _ -> None)
  | Cmp _ | And _ | Or _ | Not _ -> Some (0, 1)
  | Flt _ | Load _ | Math _ -> None

(* ---------- the prover ---------- *)

(* Bound a lin from above ([upper = true]) or below by substituting
   variable atoms with their env bounds and UF atoms with their declared
   ranges, re-linearizing after every substitution so that symbolic
   terms (e.g. batch_len(b)) cancel.  Depth-limited; sound. *)
let rec bound_lin ~upper env depth l =
  if depth = 0 then None
  else begin
    let substitutable =
      List.find_opt
        (fun (atom, _) ->
          match atom with
          | Var v -> VarMap.mem v.Var.vid env
          | UfCall (u, _) -> u.Uf.range <> None
          | Int _ | Flt _ | Binop _ | Cmp _ | And _ | Or _ | Not _ | Select _ | Load _
          | Math _ -> false)
        l.terms
    in
    match substitutable with
    | None -> if l.terms = [] then Some l.const else None
    | Some ((atom, c) as term) ->
      let rest = { l with terms = List.filter (fun t -> t != term) l.terms } in
      let replacement =
        (* Raising the expression: positive coefficient wants the upper
           bound of the atom, negative wants the lower (and vice versa
           when bounding below). *)
        let want_upper = if c > 0 then upper else not upper in
        match atom with
        | Var v ->
          let lo, hi = VarMap.find v.Var.vid env in
          let b = if want_upper then hi else lo in
          linearize b
        | UfCall (u, _) ->
          (match u.Uf.range with
           | Some (lo, hi) -> Some (lin_const (if want_upper then hi else lo))
           | None -> None)
        | Int _ | Flt _ | Binop _ | Cmp _ | And _ | Or _ | Not _ | Select _ | Load _
        | Math _ -> None
      in
      (match replacement with
       | None -> None
       | Some repl -> bound_lin ~upper env (depth - 1) (lin_add rest (lin_scale c repl)))
  end

let upper_bound env e =
  match linearize e with None -> None | Some l -> bound_lin ~upper:true env 8 l

let lower_bound env e =
  match linearize e with None -> None | Some l -> bound_lin ~upper:false env 8 l

let rec prove env (cond : expr) =
  match cond with
  | Int 0 -> Some false
  | Int _ -> Some true
  | Cmp (op, a, b) ->
    let d = Binop (Sub, a, b) in
    let hi = upper_bound env d in
    let lo = lower_bound env d in
    let decide ~true_when_hi_le ~false_when_lo_ge =
      match (hi, lo) with
      | Some h, _ when h <= true_when_hi_le -> Some true
      | _, Some l when l >= false_when_lo_ge -> Some false
      | _ -> None
    in
    (match op with
     | Lt -> decide ~true_when_hi_le:(-1) ~false_when_lo_ge:0
     | Le -> decide ~true_when_hi_le:0 ~false_when_lo_ge:1
     | Gt ->
       (match prove env (Cmp (Le, a, b)) with Some v -> Some (not v) | None -> None)
     | Ge ->
       (match prove env (Cmp (Lt, a, b)) with Some v -> Some (not v) | None -> None)
     | Eq ->
       (match (hi, lo) with
        | Some 0, Some 0 -> Some true
        | Some h, _ when h < 0 -> Some false
        | _, Some l when l > 0 -> Some false
        | _ -> None)
     | Ne ->
       (match prove env (Cmp (Eq, a, b)) with Some v -> Some (not v) | None -> None))
  | And (a, b) ->
    (match (prove env a, prove env b) with
     | Some false, _ | _, Some false -> Some false
     | Some true, Some true -> Some true
     | _ -> None)
  | Or (a, b) ->
    (match (prove env a, prove env b) with
     | Some true, _ | _, Some true -> Some true
     | Some false, Some false -> Some false
     | _ -> None)
  | Not a -> (match prove env a with Some v -> Some (not v) | None -> None)
  | Var _ | Binop _ | Select _ | UfCall _ | Flt _ | Load _ | Math _ ->
    (match interval env cond with
     | Some (lo, _) when lo >= 1 -> Some true
     | Some (_, hi) when hi <= 0 -> Some false
     | _ -> None)

(* ---------- algebraic simplification ---------- *)

let is_zero_const = function Int 0 -> true | Flt 0.0 -> true | _ -> false
let is_one_const = function Int 1 -> true | Flt 1.0 -> true | _ -> false

let rec simp env e =
  let e =
    match e with
    | Int _ | Flt _ | Var _ -> e
    | Binop (op, a, b) -> simp_binop op (simp env a) (simp env b)
    | Cmp (op, a, b) ->
      let a = simp env a and b = simp env b in
      let folded =
        match (a, b) with
        | Int x, Int y ->
          let v =
            match op with
            | Lt -> x < y
            | Le -> x <= y
            | Gt -> x > y
            | Ge -> x >= y
            | Eq -> x = y
            | Ne -> x <> y
          in
          Some (Int (if v then 1 else 0))
        | _ ->
          (match prove env (Cmp (op, a, b)) with
           | Some v -> Some (Int (if v then 1 else 0))
           | None -> None)
      in
      (match folded with Some f -> f | None -> Cmp (op, a, b))
    | And (a, b) ->
      (match (simp env a, simp env b) with
       | Int 0, _ | _, Int 0 -> Int 0
       | Int _, x | x, Int _ -> x
       | a, b -> And (a, b))
    | Or (a, b) ->
      (match (simp env a, simp env b) with
       | Int 0, x | x, Int 0 -> x
       | (Int _ as t), _ | _, (Int _ as t) -> t
       | a, b -> Or (a, b))
    | Not a ->
      (match simp env a with
       | Int n -> Int (if n = 0 then 1 else 0)
       | Not inner -> inner
       | a -> Not a)
    | Select (c, a, b) ->
      (match simp env c with
       | Int 0 -> simp env b
       | Int _ -> simp env a
       | c ->
         let a = simp env a and b = simp env b in
         if a = b then a else Select (c, a, b))
    | Load (t, idx) -> Load (t, List.map (simp env) idx)
    | UfCall (u, args) -> UfCall (u, List.map (simp env) args)
    | Math (k, a) ->
      (match simp env a with
       | Flt v -> Flt (Cortex_tensor.Nonlinear.apply k v)
       | a -> Math (k, a))
  in
  (* Canonicalize integer arithmetic through the linear normal form so
     nested additions fold. *)
  match e with
  | Binop ((Add | Sub), _, _) ->
    (match linearize e with Some l -> delinearize l | None -> e)
  | Int _ | Flt _ | Var _ | Binop _ | Cmp _ | And _ | Or _ | Not _ | Select _ | Load _
  | UfCall _ | Math _ -> e

and simp_binop op a b =
  match (op, a, b) with
  | Add, Int x, Int y -> Int (x + y)
  | Sub, Int x, Int y -> Int (x - y)
  | Mul, Int x, Int y -> Int (x * y)
  | Div, Int x, Int y when y <> 0 -> Int (x / y)
  | Mod, Int x, Int y when y <> 0 -> Int (x mod y)
  | Min, Int x, Int y -> Int (min x y)
  | Max, Int x, Int y -> Int (max x y)
  | Add, Flt x, Flt y -> Flt (x +. y)
  | Sub, Flt x, Flt y -> Flt (x -. y)
  | Mul, Flt x, Flt y -> Flt (x *. y)
  | Div, Flt x, Flt y when y <> 0.0 -> Flt (x /. y)
  | Min, Flt x, Flt y -> Flt (Float.min x y)
  | Max, Flt x, Flt y -> Flt (Float.max x y)
  | Add, z, x when is_zero_const z -> x
  | Add, x, z when is_zero_const z -> x
  | Sub, x, z when is_zero_const z -> x
  | Mul, z, _ when is_zero_const z -> z
  | Mul, _, z when is_zero_const z -> z
  | Mul, o, x when is_one_const o -> x
  | Mul, x, o when is_one_const o -> x
  | Div, x, o when is_one_const o -> x
  | (Min | Max), x, y when x = y -> x
  | _ -> Binop (op, a, b)

let expr e = simp empty_env e

let rec simp_stmt env s =
  match s with
  | For ({ v; extent; body; _ } as r) ->
    let extent = simp env extent in
    (match extent with
     | Int n when n <= 0 -> Nop
     | _ ->
       let env' = bind_range env v ~lo:(Int 0) ~hi:(Binop (Sub, extent, Int 1)) in
       let body = simp_stmt env' body in
       (match body with Nop -> Nop | _ -> For { r with extent; body }))
  | Let (v, e, body) ->
    let e = simp env e in
    (* Propagate the bound value's interval to uses of [v]. *)
    let env' =
      match interval env e with
      | Some (lo, hi) -> bind_range env v ~lo:(Int lo) ~hi:(Int hi)
      | None -> bind_range env v ~lo:e ~hi:e
    in
    let body = simp_stmt env' body in
    (match body with Nop -> Nop | _ -> Let (v, e, body))
  | Store (t, idx, value) -> Store (t, List.map (simp env) idx, simp env value)
  | If (c, a, b) ->
    let c = simp env c in
    (match prove env c with
     | Some true -> simp_stmt env a
     | Some false -> (match b with Some b -> simp_stmt env b | None -> Nop)
     | None ->
       let a = simp_stmt env a in
       let b = Option.map (simp_stmt env) b in
       (match (a, b) with
        | Nop, None | Nop, Some Nop -> Nop
        | _, Some Nop -> If (c, a, None)
        | _ -> If (c, a, b)))
  | Seq ss ->
    let ss =
      List.concat_map
        (fun s ->
          match simp_stmt env s with Nop -> [] | Seq inner -> inner | s -> [ s ])
        ss
    in
    (match ss with [] -> Nop | [ s ] -> s | ss -> Seq ss)
  | Barrier | Nop -> s

let stmt s = simp_stmt empty_env s
