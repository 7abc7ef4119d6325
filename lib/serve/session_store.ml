type config = {
  budget_bytes : int option;
  ttl_us : float option;
  spill_dir : string option;
  pack_window : int;
  pack_wait_us : float;
}

let default_config =
  {
    budget_bytes = None;
    ttl_us = None;
    spill_dir = None;
    pack_window = 1;
    pack_wait_us = 0.0;
  }

type stats = {
  st_live : int;
  st_bytes : int;
  st_budget_bytes : int option;
  st_spilled : int;
  st_evictions : int;
  st_expired : int;
  st_spills : int;
  st_restores : int;
  st_spilled_bytes : int;
  st_spill_us : float;
  st_restore_us : float;
}

type entry = { mutable e_bytes : int; mutable e_last_us : float }

(* A held spill: bytes live in memory, or on disk when the store is
   file-backed (the record then only carries the size). *)
type spill_rec = { sp_data : string option; sp_bytes : int }

(* Per-name lifetime counters, surviving evict/restore cycles (the
   session record itself is destroyed on eviction). *)
type counters = { mutable c_evictions : int; mutable c_restores : int }

type t = {
  mutable cfg : config;
  live : (string, entry) Hashtbl.t;
  spilled : (string, spill_rec) Hashtbl.t;
  counts : (string, counters) Hashtbl.t;
  mutable total_bytes : int;
  mutable evictions : int;
  mutable expired : int;
  mutable spills : int;
  mutable restores : int;
  mutable spilled_bytes : int;
  mutable spill_us : float;
  mutable restore_us : float;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    live = Hashtbl.create 64;
    spilled = Hashtbl.create 64;
    counts = Hashtbl.create 64;
    total_bytes = 0;
    evictions = 0;
    expired = 0;
    spills = 0;
    restores = 0;
    spilled_bytes = 0;
    spill_us = 0.0;
    restore_us = 0.0;
  }

let config t = t.cfg
let set_budget t b = t.cfg <- { t.cfg with budget_bytes = b }

let counters_of t name =
  match Hashtbl.find_opt t.counts name with
  | Some c -> c
  | None ->
    let c = { c_evictions = 0; c_restores = 0 } in
    Hashtbl.replace t.counts name c;
    c

let touch t name ~bytes ~now_us =
  match Hashtbl.find_opt t.live name with
  | Some e ->
    t.total_bytes <- t.total_bytes - e.e_bytes + bytes;
    e.e_bytes <- bytes;
    e.e_last_us <- Float.max e.e_last_us now_us
  | None ->
    Hashtbl.replace t.live name { e_bytes = bytes; e_last_us = now_us };
    t.total_bytes <- t.total_bytes + bytes

(* ---------- priced spill/restore costs ---------- *)

(* Deterministic cost models, in the spirit of the backend latency
   tables: a fixed submission overhead plus a bytes-over-bandwidth
   term (~2 GB/s out, ~4 GB/s back — restores read sequentially from
   a warm page cache).  Priced, never measured, so drains that evict
   stay byte-reproducible. *)
let spill_cost_us ~bytes = 20.0 +. (float_of_int bytes /. 2048.0)
let restore_cost_us ~bytes = 15.0 +. (float_of_int bytes /. 4096.0)

(* ---------- victim selection ---------- *)

let victims t ~now_us =
  let fits =
    match t.cfg.budget_bytes with None -> true | Some budget -> t.total_bytes <= budget
  in
  (* No TTL and a table within its budget (or unbounded): nothing is
     due, so skip the fold and sort over every live session. *)
  if t.cfg.ttl_us = None && fits then []
  else
    let all =
      Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.live []
      |> List.sort (fun (na, ea) (nb, eb) ->
             let c = compare ea.e_last_us eb.e_last_us in
             if c <> 0 then c else compare na nb)
    in
    let expired, alive =
      match t.cfg.ttl_us with
      | Some ttl -> List.partition (fun (_, e) -> now_us -. e.e_last_us > ttl) all
      | None -> ([], all)
    in
    let over_budget =
      match t.cfg.budget_bytes with
      | None -> []
      | Some budget ->
        (* [alive] is least-recent-first, which under the one uniform
           TTL is also nearest-expiry-first. *)
        let remaining =
          List.fold_left (fun acc (_, e) -> acc + e.e_bytes) 0 alive
        in
        let rec take acc remaining = function
          | [] -> List.rev acc
          | _ when remaining <= budget -> List.rev acc
          | (name, e) :: rest -> take ((name, `Budget) :: acc) (remaining - e.e_bytes) rest
        in
        take [] remaining alive
    in
    List.map (fun (name, _) -> (name, `Ttl)) expired @ over_budget

(* ---------- spilling ---------- *)

let spill_path t name =
  match t.cfg.spill_dir with
  | None -> None
  | Some dir ->
    (* Session names are client strings: sanitize for the filesystem
       and disambiguate sanitization collisions with a digest of the
       raw name. *)
    let safe =
      String.map
        (fun c ->
          match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
        name
    in
    let tag = String.sub (Digest.to_hex (Digest.string name)) 0 8 in
    Some (Filename.concat dir (Printf.sprintf "%s-%s.csx" safe tag))

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let drop_live t name =
  match Hashtbl.find_opt t.live name with
  | None -> ()
  | Some e ->
    t.total_bytes <- t.total_bytes - e.e_bytes;
    Hashtbl.remove t.live name

let count_eviction t name ~expired =
  t.evictions <- t.evictions + 1;
  if expired then t.expired <- t.expired + 1;
  (counters_of t name).c_evictions <- (counters_of t name).c_evictions + 1

let spill t name ~data ~expired =
  drop_live t name;
  count_eviction t name ~expired;
  let size = String.length data in
  (match spill_path t name with
  | None -> Hashtbl.replace t.spilled name { sp_data = Some data; sp_bytes = size }
  | Some path ->
    Option.iter ensure_dir t.cfg.spill_dir;
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc data);
    Hashtbl.replace t.spilled name { sp_data = None; sp_bytes = size });
  t.spills <- t.spills + 1;
  t.spilled_bytes <- t.spilled_bytes + size;
  let cost = spill_cost_us ~bytes:size in
  t.spill_us <- t.spill_us +. cost;
  cost

let drop t name =
  drop_live t name;
  count_eviction t name ~expired:false

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let has_spill t name =
  Hashtbl.mem t.spilled name
  || match spill_path t name with Some p -> Sys.file_exists p | None -> false

let restore t name =
  let finish data =
    Hashtbl.remove t.spilled name;
    (match spill_path t name with
    | Some p when Sys.file_exists p -> Sys.remove p
    | _ -> ());
    t.restores <- t.restores + 1;
    (counters_of t name).c_restores <- (counters_of t name).c_restores + 1;
    let cost = restore_cost_us ~bytes:(String.length data) in
    t.restore_us <- t.restore_us +. cost;
    Some (data, cost)
  in
  match Hashtbl.find_opt t.spilled name with
  | Some { sp_data = Some data; _ } -> finish data
  | Some { sp_data = None; _ } | None -> (
    (* File-backed, or a fresh store finding its predecessor's files
       after an engine restart. *)
    match spill_path t name with
    | Some p when Sys.file_exists p -> (
      match read_file p with data -> finish data | exception Sys_error _ -> None)
    | _ -> None)

let forget t name =
  drop_live t name;
  Hashtbl.remove t.spilled name;
  (match spill_path t name with
  | Some p when Sys.file_exists p -> ( try Sys.remove p with Sys_error _ -> ())
  | _ -> ());
  Hashtbl.remove t.counts name

let evictions_of t name =
  match Hashtbl.find_opt t.counts name with Some c -> c.c_evictions | None -> 0

let restores_of t name =
  match Hashtbl.find_opt t.counts name with Some c -> c.c_restores | None -> 0

let stats t =
  {
    st_live = Hashtbl.length t.live;
    st_bytes = t.total_bytes;
    st_budget_bytes = t.cfg.budget_bytes;
    st_spilled = Hashtbl.length t.spilled;
    st_evictions = t.evictions;
    st_expired = t.expired;
    st_spills = t.spills;
    st_restores = t.restores;
    st_spilled_bytes = t.spilled_bytes;
    st_spill_us = t.spill_us;
    st_restore_us = t.restore_us;
  }
