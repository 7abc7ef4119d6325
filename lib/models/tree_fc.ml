open Cortex_ra
open Ra

(* [open Ra] shadows arithmetic with rexpr builders; restore the integer
   operators for shape bookkeeping. *)
let ( +! ) = Stdlib.( + )
let ( *! ) = Stdlib.( * )
let _ = ( +! )
let _ = ( *! )
module C = Models_common

let program ~hidden ~vocab =
  let mv w child =
    Sum ("j", hidden, Param (w, [ IAxis "i"; IAxis "j" ]) * ChildState ("h", Child child, [ IAxis "j" ]))
  in
  {
    name = "treefc";
    kind = Cortex_ds.Structure.Tree;
    max_children = 2;
    params =
      [
        ("Emb", [ vocab +! 1; hidden ]);
        ("Wl", [ hidden; hidden ]);
        ("Wr", [ hidden; hidden ]);
        ("b", [ hidden ]);
      ];
    rec_ops =
      [ op "h" ~axes:[ ("i", hidden) ] (relu_ (mv "Wl" 0 + mv "Wr" 1 + Param ("b", [ IAxis "i" ]))) ];
    leaf_ops = Some [ op "h" ~axes:[ ("i", hidden) ] (Param ("Emb", [ IPayload; IAxis "i" ])) ];
    states = [ { st_name = "h"; st_op = "h"; st_init = Zero } ];
    outputs = [ "h" ];
    facts = no_facts;
  }

let spec ?(height = 7) ?(vocab = Cortex_ds.Gen.vocab_size) ~hidden () =
  let program = program ~hidden ~vocab in
  {
    C.name = "TreeFC";
    program;
    init_params =
      (fun rng -> C.make_params ~specs:program.params ~zero_rows:[] rng);
    dataset = (fun rng ~batch -> Cortex_ds.Gen.perfect_batch rng ~vocab ~batch ~height ());
  }
