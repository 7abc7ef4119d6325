module Backend = Cortex_backend.Backend

type policy = Round_robin | Least_loaded | Size_affinity

let policy_to_string = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Size_affinity -> "size-affinity"

let policy_of_string = function
  | "round-robin" | "rr" -> Some Round_robin
  | "least-loaded" | "ll" -> Some Least_loaded
  | "size-affinity" | "sa" -> Some Size_affinity
  | _ -> None

type device = {
  dev_index : int;
  dev_backend : Backend.t;
  mutable dev_free_us : float;
  mutable dev_busy_us : float;
  mutable dev_windows : int;
  mutable dev_requests : int;
  mutable dev_nodes : int;
  mutable dev_occ_weight : float;
  mutable dev_failed : bool;
}

type t = { policy : policy; devices : device array; mutable cursor : int }

let create ~policy backends =
  if backends = [] then invalid_arg "Dispatch.create: no devices";
  let devices =
    Array.of_list
      (List.mapi
         (fun i b ->
           {
             dev_index = i;
             dev_backend = b;
             (* Idle since forever: the first window dispatches at its
                own ready time even when that time is negative. *)
             dev_free_us = Float.neg_infinity;
             dev_busy_us = 0.0;
             dev_windows = 0;
             dev_requests = 0;
             dev_nodes = 0;
             dev_occ_weight = 0.0;
             dev_failed = false;
           })
         backends)
  in
  { policy; devices; cursor = 0 }

let devices t = t.devices
let policy t = t.policy

let fail d = d.dev_failed <- true

let alive t =
  Array.fold_left (fun acc d -> if d.dev_failed then acc else acc + 1) 0 t.devices

(* Power-of-two size bucket: forests of 2^b..2^(b+1)-1 nodes share a
   bucket.  Used both by the engine's By_size windowing and by the
   size-affinity dispatch policy. *)
let size_bucket nodes =
  let rec go b n = if n <= 1 then b else go (b + 1) (n lsr 1) in
  go 0 (max 1 nodes)

let select t ~nodes =
  let n = Array.length t.devices in
  if alive t = 0 then invalid_arg "Dispatch.select: all devices failed";
  match t.policy with
  | Round_robin ->
    (* Skip fail-stopped devices; the cursor advances past them so the
       survivors keep alternating. *)
    let rec find k =
      let d = t.devices.((t.cursor + k) mod n) in
      if d.dev_failed then find (k + 1)
      else begin
        t.cursor <- (t.cursor + k + 1) mod n;
        d
      end
    in
    find 0
  | Least_loaded ->
    (* Earliest-free surviving device; ties go to the lowest index. *)
    let best = ref None in
    Array.iter
      (fun d ->
        if not d.dev_failed then
          match !best with
          | Some b when b.dev_free_us <= d.dev_free_us -> ()
          | _ -> best := Some d)
      t.devices;
    Option.get !best
  | Size_affinity ->
    (* Bucket-to-device assignment over the survivors, in index order:
       when a device dies its buckets redistribute over the rest. *)
    let survivors = Array.of_seq (Seq.filter (fun d -> not d.dev_failed) (Array.to_seq t.devices)) in
    survivors.(size_bucket nodes mod Array.length survivors)

let commit d ~dispatch_us ~completion_us ~requests ~nodes ~occupancy =
  let busy = completion_us -. dispatch_us in
  d.dev_free_us <- completion_us;
  d.dev_busy_us <- d.dev_busy_us +. busy;
  d.dev_windows <- d.dev_windows + 1;
  d.dev_requests <- d.dev_requests + requests;
  d.dev_nodes <- d.dev_nodes + nodes;
  d.dev_occ_weight <- d.dev_occ_weight +. (occupancy *. busy)

let mean_occupancy d =
  if d.dev_busy_us > 0.0 then d.dev_occ_weight /. d.dev_busy_us else 0.0
