open Ir
module Nonlinear = Cortex_tensor.Nonlinear

let buf_add = Buffer.add_string

(* ---------- expression emission ---------- *)

let rec emit_expr e =
  match e with
  | Int n -> string_of_int n
  | Flt v ->
    if Float.is_integer v && Float.abs v < 1e9 then Printf.sprintf "%.1ff" v
    else Printf.sprintf "%gf" v
  | Var v -> Var.name v
  | Binop (Add, a, b) -> Printf.sprintf "(%s + %s)" (emit_expr a) (emit_expr b)
  | Binop (Sub, a, b) -> Printf.sprintf "(%s - %s)" (emit_expr a) (emit_expr b)
  | Binop (Mul, a, b) -> Printf.sprintf "(%s * %s)" (emit_expr a) (emit_expr b)
  | Binop (Div, a, b) -> Printf.sprintf "(%s / %s)" (emit_expr a) (emit_expr b)
  | Binop (Mod, a, b) -> Printf.sprintf "(%s %% %s)" (emit_expr a) (emit_expr b)
  | Binop (Min, a, b) -> Printf.sprintf "MIN(%s, %s)" (emit_expr a) (emit_expr b)
  | Binop (Max, a, b) -> Printf.sprintf "MAX(%s, %s)" (emit_expr a) (emit_expr b)
  | Cmp (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (emit_expr a) (cmpop_name op) (emit_expr b)
  | And (a, b) -> Printf.sprintf "(%s && %s)" (emit_expr a) (emit_expr b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (emit_expr a) (emit_expr b)
  | Not a -> Printf.sprintf "!(%s)" (emit_expr a)
  | Select (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (emit_expr c) (emit_expr a) (emit_expr b)
  | Load (t, idx) -> Printf.sprintf "%s[%s]" t.tname (emit_offset t idx)
  | UfCall (u, []) -> u.Uf.uname
  | UfCall (u, args) ->
    Printf.sprintf "ds_%s(%s)" u.Uf.uname (String.concat ", " (List.map emit_expr args))
  | Math (k, a) ->
    let f =
      match k with
      | Nonlinear.Tanh -> "tanhf"
      | Nonlinear.Sigmoid -> "sigmoidf"
      | Nonlinear.Relu -> "reluf"
      | Nonlinear.Identity -> ""
    in
    if f = "" then emit_expr a else Printf.sprintf "%s(%s)" f (emit_expr a)

(* Row-major flattening: ((i0 * e1 + i1) * e2 + i2) ... — the leading
   extent never participates in the offset. *)
and emit_offset t idx =
  match (idx, t.extents) with
  | [ i ], _ -> emit_expr i
  | i0 :: rest_idx, _ :: rest_extents ->
    let rec go acc idx extents =
      match (idx, extents) with
      | [], _ -> acc
      | i :: idx', e :: extents' ->
        go (Printf.sprintf "(%s) * %s + %s" acc (emit_expr e) (emit_expr i)) idx' extents'
      | _ :: _, [] -> invalid_arg ("Emit_c: index arity mismatch for " ^ t.tname)
    in
    go (emit_expr i0) rest_idx rest_extents
  | [], _ | _ :: _, [] -> invalid_arg ("Emit_c: bad access to " ^ t.tname)

(* ---------- statement emission ---------- *)

let loop_comment = function
  | Serial -> ""
  | Parallel -> "  /* parallel: one block group per iteration */"
  | Vectorized -> "  /* thread lanes */"
  | Unrolled -> ""

let rec emit_stmt buf indent s =
  let pad = String.make indent ' ' in
  match s with
  | Nop -> ()
  | Barrier -> buf_add buf (pad ^ "grid.sync();\n")
  | Seq ss -> List.iter (emit_stmt buf indent) ss
  | Let (v, e, body) ->
    buf_add buf (Printf.sprintf "%sconst int %s = %s;\n" pad (Var.name v) (emit_expr e));
    emit_stmt buf indent body
  | Store (t, idx, value) ->
    buf_add buf
      (Printf.sprintf "%s%s[%s] = %s;\n" pad t.tname (emit_offset t idx) (emit_expr value))
  | If (c, a, b) ->
    buf_add buf (Printf.sprintf "%sif (%s) {\n" pad (emit_expr c));
    emit_stmt buf (indent + 2) a;
    (match b with
     | Some b ->
       buf_add buf (pad ^ "} else {\n");
       emit_stmt buf (indent + 2) b
     | None -> ());
    buf_add buf (pad ^ "}\n")
  | For { v; extent; kind; body; _ } ->
    if kind = Unrolled then buf_add buf (pad ^ "#pragma unroll\n");
    buf_add buf
      (Printf.sprintf "%sfor (int %s = 0; %s < %s; ++%s) {%s\n" pad (Var.name v) (Var.name v)
         (emit_expr extent) (Var.name v) (loop_comment kind));
    emit_stmt buf (indent + 2) body;
    buf_add buf (pad ^ "}\n")

(* ---------- signatures ---------- *)

let collect_ufs (p : program) =
  let module M = Map.Make (Int) in
  let add acc e = match e with UfCall (u, _) -> M.add u.Uf.uid u acc | _ -> acc in
  let m =
    List.fold_left
      (fun acc k -> fold_stmt ~expr:add ~stmt:(fun acc _ -> acc) acc k.body)
      M.empty p.kernels
  in
  M.bindings m |> List.map snd

let tensor_decl (t : tensor) =
  let qualifier =
    match t.space with
    | Param -> "const float* __restrict__"
    | Global -> "float*"
    | Shared -> "__shared__ float*"
    | Register -> "/* registers */ float*"
  in
  Printf.sprintf "  %s %s;  /* %s */" qualifier t.tname
    ("[" ^ String.concat "][" (List.map expr_to_string t.extents) ^ "]")

(* Emit a single kernel body. *)
let kernel k =
  let buf = Buffer.create 1024 in
  let args =
    match k.launch with
    | Once -> ""
    | PerInternalBatch v -> Printf.sprintf "int %s" (Var.name v)
  in
  buf_add buf (Printf.sprintf "__global__ void %s(%s) {\n" k.kname args);
  emit_stmt buf 2 k.body;
  buf_add buf "}\n";
  Buffer.contents buf

let program (p : program) =
  let buf = Buffer.create 4096 in
  buf_add buf (Printf.sprintf "/* %s: generated from the ILIR */\n" p.pname);
  buf_add buf "#define MIN(a, b) ((a) < (b) ? (a) : (b))\n";
  buf_add buf "#define MAX(a, b) ((a) > (b) ? (a) : (b))\n";
  buf_add buf "__device__ float sigmoidf(float x) { return 0.5f * (1.0f + tanhf(0.5f * x)); }\n";
  buf_add buf "__device__ float reluf(float x) { return MAX(x, 0.0f); }\n\n";
  buf_add buf "/* device buffers */\nstruct buffers {\n";
  List.iter (fun t -> buf_add buf (tensor_decl t ^ "\n")) p.params;
  List.iter (fun t -> buf_add buf (tensor_decl t ^ "\n")) p.temporaries;
  List.iter (fun t -> buf_add buf (tensor_decl t ^ "\n")) p.outputs;
  buf_add buf "};\n\n/* linearizer lookup tables (inspector output) */\n";
  List.iter
    (fun (u : Uf.t) ->
      if u.Uf.arity = 0 then buf_add buf (Printf.sprintf "extern const int %s;\n" u.Uf.uname)
      else begin
        let args = String.concat ", " (List.init u.Uf.arity (fun _ -> "int")) in
        buf_add buf (Printf.sprintf "extern int ds_%s(%s);\n" u.Uf.uname args)
      end)
    (collect_ufs p);
  buf_add buf "\n";
  List.iter
    (fun k ->
      buf_add buf (kernel k);
      buf_add buf "\n")
    p.kernels;
  Buffer.contents buf
