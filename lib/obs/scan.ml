module CT = Chrome_trace

(* A sim-clock occurrence: a span opening or a point event.  End events
   are skipped (their Begin already marked the earliest instant) and so
   is metadata. *)
let sim_occurrence (e : CT.event) =
  e.CT.ev_cat = "sim"
  && match e.CT.ev_ph with CT.Begin | CT.Instant -> true | CT.End | CT.Metadata -> false

(* The earliest simulated timestamp of an event named [name]; [None]
   when the name never appears on the sim clock. *)
let first_sim ~name events =
  List.fold_left
    (fun acc (e : CT.event) ->
      if sim_occurrence e && e.CT.ev_name = name then
        match acc with
        | Some t when t <= e.CT.ev_ts_us -> acc
        | _ -> Some e.CT.ev_ts_us
      else acc)
    None events

type detection = No_damage | Undetected | Lead of float | Lagged of float

let detect ~signals ~damage events =
  match damage with
  | None -> No_damage
  | Some damage_us ->
    let first =
      List.fold_left
        (fun acc name ->
          match (acc, first_sim ~name events) with
          | acc, None -> acc
          | None, some -> some
          | Some a, Some b -> Some (Float.min a b))
        None signals
    in
    (match first with
     | None -> Undetected
     | Some t when t <= damage_us -> Lead (damage_us -. t)
     | Some t -> Lagged (t -. damage_us))

let detection_to_string = function
  | No_damage -> "none"
  | Undetected -> "undetected"
  | Lead us -> Printf.sprintf "lead %.1fus" us
  | Lagged us -> Printf.sprintf "lag %.1fus" us
