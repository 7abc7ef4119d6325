type t = { shape : Shape.t; data : float array }

let create shape v =
  Shape.validate shape;
  { shape; data = Array.make (Shape.numel shape) v }

let zeros shape = create shape 0.0

let init shape f =
  Shape.validate shape;
  let n = Shape.numel shape in
  let data = Array.make n 0.0 in
  for off = 0 to n - 1 do
    data.(off) <- f (Shape.unflatten_index shape off)
  done;
  { shape; data }

let of_array shape data =
  Shape.validate shape;
  if Array.length data <> Shape.numel shape then
    invalid_arg
      (Printf.sprintf "Tensor.of_array: %d elements for shape %s" (Array.length data)
         (Shape.to_string shape));
  { shape; data }

let scalar v = { shape = [||]; data = [| v |] }

let get t idx = t.data.(Shape.flatten_index t.shape idx)
let set t idx v = t.data.(Shape.flatten_index t.shape idx) <- v
let get_flat t off = t.data.(off)
let set_flat t off v = t.data.(off) <- v

let numel t = Array.length t.data
let rank t = Array.length t.shape

let dim t i =
  if i < 0 || i >= rank t then invalid_arg "Tensor.dim";
  t.shape.(i)

let copy t = { shape = t.shape; data = Array.copy t.data }

let reshape t shape =
  Shape.validate shape;
  if Shape.numel shape <> numel t then
    invalid_arg
      (Printf.sprintf "Tensor.reshape: %s -> %s" (Shape.to_string t.shape)
         (Shape.to_string shape));
  { shape; data = t.data }

let map f t = { shape = t.shape; data = Array.map f t.data }

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg
      (Printf.sprintf "Tensor.map2: %s vs %s" (Shape.to_string a.shape)
         (Shape.to_string b.shape));
  { shape = a.shape; data = Array.map2 f a.data b.data }

let add = map2 ( +. )
let sub = map2 ( -. )
let mul = map2 ( *. )
let scale k = map (fun x -> k *. x)

let add_ dst src =
  if not (Shape.equal dst.shape src.shape) then invalid_arg "Tensor.add_";
  for i = 0 to Array.length dst.data - 1 do
    dst.data.(i) <- dst.data.(i) +. src.data.(i)
  done

let matmul a b =
  if rank a <> 2 || rank b <> 2 || a.shape.(1) <> b.shape.(0) then
    invalid_arg
      (Printf.sprintf "Tensor.matmul: %s x %s" (Shape.to_string a.shape)
         (Shape.to_string b.shape));
  let m = a.shape.(0) and k = a.shape.(1) and n = b.shape.(1) in
  let out = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    for p = 0 to k - 1 do
      let aip = a.data.((i * k) + p) in
      if aip <> 0.0 then
        for j = 0 to n - 1 do
          out.((i * n) + j) <- out.((i * n) + j) +. (aip *. b.data.((p * n) + j))
        done
    done
  done;
  { shape = [| m; n |]; data = out }

let matvec a x =
  if rank a <> 2 || rank x <> 1 || a.shape.(1) <> x.shape.(0) then
    invalid_arg
      (Printf.sprintf "Tensor.matvec: %s x %s" (Shape.to_string a.shape)
         (Shape.to_string x.shape));
  let m = a.shape.(0) and k = a.shape.(1) in
  let out = Array.make m 0.0 in
  for i = 0 to m - 1 do
    let acc = ref 0.0 in
    for p = 0 to k - 1 do
      acc := !acc +. (a.data.((i * k) + p) *. x.data.(p))
    done;
    out.(i) <- !acc
  done;
  { shape = [| m |]; data = out }

let transpose t =
  if rank t <> 2 then invalid_arg "Tensor.transpose: rank-2 only";
  let m = t.shape.(0) and n = t.shape.(1) in
  init [| n; m |] (fun idx -> t.data.((idx.(1) * n) + idx.(0)))

let concat ~axis a b =
  if rank a <> rank b then invalid_arg "Tensor.concat: rank mismatch";
  if axis < 0 || axis >= rank a then invalid_arg "Tensor.concat: bad axis";
  Array.iteri
    (fun i d -> if i <> axis && d <> b.shape.(i) then invalid_arg "Tensor.concat: extent mismatch")
    a.shape;
  let shape = Array.copy a.shape in
  shape.(axis) <- a.shape.(axis) + b.shape.(axis);
  init shape (fun idx ->
      if idx.(axis) < a.shape.(axis) then get a idx
      else begin
        let idx' = Array.copy idx in
        idx'.(axis) <- idx.(axis) - a.shape.(axis);
        get b idx'
      end)

let row m i =
  if rank m <> 2 then invalid_arg "Tensor.row: rank-2 only";
  let n = m.shape.(1) in
  { shape = [| n |]; data = Array.sub m.data (i * n) n }

let sum t = Array.fold_left ( +. ) 0.0 t.data

let dot a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Tensor.dot";
  let acc = ref 0.0 in
  for i = 0 to Array.length a.data - 1 do
    acc := !acc +. (a.data.(i) *. b.data.(i))
  done;
  !acc

let rand_uniform rng shape ~lo ~hi =
  init shape (fun _ -> lo +. Cortex_util.Rng.float rng (hi -. lo))

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Tensor.max_abs_diff";
  let worst = ref 0.0 in
  for i = 0 to Array.length a.data - 1 do
    let d = Float.abs (a.data.(i) -. b.data.(i)) in
    if d > !worst then worst := d
  done;
  !worst

let approx_equal ?(tol = 1e-6) a b =
  Shape.equal a.shape b.shape
  &&
  let ok = ref true in
  for i = 0 to Array.length a.data - 1 do
    let x = a.data.(i) and y = b.data.(i) in
    let bound = tol *. (1.0 +. Float.max (Float.abs x) (Float.abs y)) in
    if Float.abs (x -. y) > bound then ok := false
  done;
  !ok

let to_string ?(max_elems = 16) t =
  let n = min max_elems (numel t) in
  let cells = List.init n (fun i -> Printf.sprintf "%.4g" t.data.(i)) in
  let suffix = if numel t > n then "; ..." else "" in
  Printf.sprintf "%s[%s%s]" (Shape.to_string t.shape) (String.concat "; " cells) suffix
