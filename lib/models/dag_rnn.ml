open Cortex_ra
open Ra

(* [open Ra] shadows arithmetic with rexpr builders; restore the integer
   operators for shape bookkeeping. *)
let ( +! ) = Stdlib.( + )
let ( *! ) = Stdlib.( * )
let _ = ( +! )
let _ = ( *! )
module C = Models_common
module Gen = Cortex_ds.Gen

let program ~hidden ~cells ~(variant : C.variant) =
  let x_term, x_ops, x_params =
    match variant with
    | C.Full ->
      ( Temp ("xw", [ IAxis "i" ]),
        [
          op "xw" ~precompute:true
            ~axes:[ ("i", hidden) ]
            (C.matvec ~w:"Wx" ~x:(C.emb_x ~emb:"X") ~hidden);
        ],
        [ ("X", [ cells; hidden ]); ("Wx", [ hidden; hidden ]) ] )
    | C.Recursive_only ->
      (C.emb_x ~emb:"X" [ IAxis "i" ], [], [ ("X", [ cells; hidden ]) ])
  in
  {
    name = "dagrnn";
    kind = Cortex_ds.Structure.Dag;
    max_children = 2;
    params = x_params @ [ ("U", [ hidden; hidden ]); ("b", [ hidden ]) ];
    rec_ops =
      x_ops
      @ [
          op "cs" ~axes:[ ("i", hidden) ]
            (ChildSum (ChildState ("h", Current, [ IAxis "i" ])));
          op "h" ~axes:[ ("i", hidden) ]
            (tanh_
               (x_term
               + C.matvec ~w:"U" ~x:(fun idx -> Temp ("cs", idx)) ~hidden
               + Param ("b", [ IAxis "i" ])));
        ];
    leaf_ops = None;
    states = [ { st_name = "h"; st_op = "h"; st_init = Zero } ];
    outputs = [ "h" ];
    facts = no_facts;
  }

let spec ?(rows = 10) ?(cols = 10) ?(variant = C.Full) ~hidden () =
  let program = program ~hidden ~cells:(rows *! cols) ~variant in
  {
    C.name = "DAG-RNN";
    program;
    init_params = (fun rng -> C.make_params ~specs:program.params ~zero_rows:[] rng);
    dataset = (fun rng ~batch -> ignore rng; Gen.grid_batch ~batch ~rows ~cols);
  }
