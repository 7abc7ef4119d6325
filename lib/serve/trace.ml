module Rng = Cortex_util.Rng
module Structure = Cortex_ds.Structure

type event = { at_us : float; deadline_us : float option; structure : Structure.t }
type t = event list

(* [not (d > 0.0)] so that nan is rejected too. *)
let check_deadline = function
  | Some d when not (d > 0.0) -> invalid_arg "Trace: deadline must be positive"
  | _ -> ()

let finite_positive x = Float.is_finite x && x > 0.0

let poisson ?deadline_us rng ~rate_rps ~duration_ms ~gen =
  if not (finite_positive rate_rps) then
    invalid_arg "Trace.poisson: rate must be finite and positive";
  if not (finite_positive duration_ms) then
    invalid_arg "Trace.poisson: duration must be finite and positive";
  check_deadline deadline_us;
  let rate_per_us = rate_rps /. 1.0e6 in
  let horizon_us = duration_ms *. 1000.0 in
  let rec go acc t =
    let dt = -.Float.log (1.0 -. Rng.uniform rng) /. rate_per_us in
    let t = t +. dt in
    if t >= horizon_us then List.rev acc
    else
      let deadline_us = Option.map (fun d -> t +. d) deadline_us in
      go ({ at_us = t; deadline_us; structure = gen rng } :: acc) t
  in
  go [] 0.0

let of_structures ?(spacing_us = 0.0) ?deadline_us structures =
  if not (Float.is_finite spacing_us && spacing_us >= 0.0) then
    invalid_arg "Trace.of_structures: spacing must be finite and >= 0";
  check_deadline deadline_us;
  List.mapi
    (fun i s ->
      let at_us = spacing_us *. float_of_int i in
      { at_us; deadline_us = Option.map (fun d -> at_us +. d) deadline_us; structure = s })
    structures

let length = List.length

let num_nodes t =
  List.fold_left (fun acc e -> acc + Structure.num_nodes e.structure) 0 t
