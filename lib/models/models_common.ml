open Cortex_ra
open Ra

(* [open Ra] shadows arithmetic with rexpr builders; restore the integer
   operators for shape bookkeeping. *)
let ( +! ) = Stdlib.( + )
let ( *! ) = Stdlib.( * )
let _ = ( +! )
let _ = ( *! )
module Tensor = Cortex_tensor.Tensor
module Rng = Cortex_util.Rng

type variant = Full | Recursive_only

type t = {
  name : string;
  program : Ra.t;
  init_params : Rng.t -> string -> Tensor.t;
  dataset : Rng.t -> batch:int -> Cortex_ds.Structure.t;
}

let make_params ~specs ~zero_rows rng =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (name, dims) ->
      let t = Tensor.rand_uniform rng (Array.of_list dims) ~lo:(-0.35) ~hi:0.35 in
      (match List.assoc_opt name zero_rows with
       | Some row ->
         let cols = Stdlib.( / ) (Tensor.numel t) (Tensor.dim t 0) in
         for j = 0 to Stdlib.( - ) cols 1 do
           Tensor.set_flat t (Stdlib.( + ) (row *! cols) j) 0.0
         done
       | None -> ());
      Hashtbl.replace table name t)
    specs;
  fun name ->
    match Hashtbl.find_opt table name with
    | Some t -> t
    | None -> invalid_arg ("Models_common.make_params: unknown parameter " ^ name)

let matvec ~w ~x ~hidden =
  Sum ("j", hidden, Param (w, [ IAxis "i"; IAxis "j" ]) * x [ IAxis "j" ])

let emb_x ~emb idx = Param (emb, IPayload :: idx)

let gate ?x ~u ~over ~bias ~hidden nl =
  let linear = matvec ~w:u ~x:over ~hidden + Param (bias, [ IAxis "i" ]) in
  let linear = match x with Some x -> x + linear | None -> linear in
  Math (nl, linear)
