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
  let h = hidden in
  let child_mv name ~mat_child ~vec_child =
    (* A_{mat_child} . p_{vec_child} *)
    op name ~axes:[ ("i", h) ]
      (Sum
         ( "s",
           h,
           ChildState ("A", Child mat_child, [ IAxis "i"; IAxis "s" ])
           * ChildState ("p", Child vec_child, [ IAxis "s" ]) ))
  in
  {
    name = "mvrnn";
    kind = Cortex_ds.Structure.Tree;
    max_children = 2;
    params =
      [
        ("EmbV", [ vocab +! 1; h ]);
        ("EmbM", [ vocab +! 1; h; h ]);
        ("W0", [ h; h ]);
        ("W1", [ h; h ]);
        ("bp", [ h ]);
        ("WM0", [ h; h ]);
        ("WM1", [ h; h ]);
      ];
    rec_ops =
      [
        child_mv "u0" ~mat_child:1 ~vec_child:0;
        child_mv "u1" ~mat_child:0 ~vec_child:1;
        op "p" ~phase:1
          ~axes:[ ("i", h) ]
          (tanh_
             (C.matvec ~w:"W0" ~x:(fun idx -> Temp ("u0", idx)) ~hidden:h
             + C.matvec ~w:"W1" ~x:(fun idx -> Temp ("u1", idx)) ~hidden:h
             + Param ("bp", [ IAxis "i" ])));
        op "A"
          ~axes:[ ("i", h); ("m", h) ]
          (Sum
             ( "s",
               h,
               Param ("WM0", [ IAxis "i"; IAxis "s" ])
               * ChildState ("A", Child 0, [ IAxis "s"; IAxis "m" ]) )
          + Sum
              ( "t",
                h,
                Param ("WM1", [ IAxis "i"; IAxis "t" ])
                * ChildState ("A", Child 1, [ IAxis "t"; IAxis "m" ]) ));
      ];
    leaf_ops =
      Some
        [
          op "p" ~axes:[ ("i", h) ] (Param ("EmbV", [ IPayload; IAxis "i" ]));
          op "A" ~axes:[ ("i", h); ("m", h) ] (Param ("EmbM", [ IPayload; IAxis "i"; IAxis "m" ]));
        ];
    states =
      [
        { st_name = "p"; st_op = "p"; st_init = Zero };
        { st_name = "A"; st_op = "A"; st_init = Zero };
      ];
    outputs = [ "p" ];
    facts = no_facts;
  }

let spec ?(vocab = 256) ~hidden () =
  let program = program ~hidden ~vocab in
  {
    C.name = "MV-RNN";
    program;
    init_params =
      (fun rng ->
        C.make_params ~specs:program.params
          ~zero_rows:[ ("EmbV", vocab); ("EmbM", vocab) ]
          rng);
    dataset = (fun rng ~batch -> Gen.sst_batch rng ~vocab ~batch ());
  }
