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

let program ~hidden ~vocab =
  {
    name = "treernn";
    kind = Cortex_ds.Structure.Tree;
    max_children = 2;
    params =
      [ ("Emb", [ vocab +! 1; hidden ]); ("U", [ hidden; hidden ]); ("b", [ hidden ]) ];
    rec_ops =
      [
        op "cs" ~axes:[ ("i", hidden) ]
          (ChildSum (ChildState ("h", Current, [ IAxis "i" ])));
        op "h" ~axes:[ ("i", hidden) ]
          (tanh_
             (C.emb_x ~emb:"Emb" [ IAxis "i" ]
             + C.matvec ~w:"U" ~x:(fun idx -> Temp ("cs", idx)) ~hidden
             + Param ("b", [ IAxis "i" ])));
      ];
    leaf_ops = None;
    states = [ { st_name = "h"; st_op = "h"; st_init = Zero } ];
    outputs = [ "h" ];
    (* §7.4: an unroll group (a parent and its children) fits one
       thread block, so the parent phase needs no global barrier. *)
    facts = { no_facts with block_local_unroll = true };
  }

let spec ?(vocab = Gen.vocab_size) ~hidden () =
  let program = program ~hidden ~vocab in
  {
    C.name = "TreeRNN";
    program;
    init_params =
      (fun rng -> C.make_params ~specs:program.params ~zero_rows:[ ("Emb", vocab) ] rng);
    dataset = (fun rng ~batch -> Gen.sst_batch rng ~vocab ~batch ());
  }
