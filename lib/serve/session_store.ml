module Structure = Cortex_ds.Structure
module Node = Cortex_ds.Node
module Linearizer = Cortex_linearizer.Linearizer
module Checkpoint = Cortex_runtime.Checkpoint
module Tensor = Cortex_tensor.Tensor

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

(* Per-name lifetime counters: the live session points at its name's
   record, so they survive evict/restore cycles (the session record
   itself leaves the table on eviction). *)
type counters = {
  mutable c_extends : int;
  mutable c_cold : int;
  mutable c_rebinds : int;
  mutable c_delta_nodes : int;
  mutable c_packed : int;
  mutable c_deadline_misses : int;
  mutable c_evictions : int;
  mutable c_restores : int;
}

type session = {
  sx_name : string;
  sx_counters : counters;
  mutable sx_structure : Structure.t option;
  mutable sx_device : int option;
  mutable sx_restored_base : int option;
  sx_layout : Linearizer.growing;
  mutable sx_rows : float array array;
  mutable sx_num_rows : int;
  mutable sx_bytes : int;
  mutable sx_last_us : float;
}

(* A held spill: its bytes, or [None] when they are on disk, and the
   node count it covers. *)
type held = { h_data : string option; h_nodes : int }

type t = {
  mutable cfg : config;
  model : string;
  max_children : int;
  states : (string * int array) list;  (* the row format: name, per-node dims *)
  widths : int array;  (* floats per row, per state *)
  row_bytes : int;  (* one node's rows across every state *)
  live : (string, session) Hashtbl.t;
  spilled : (string, held) Hashtbl.t;
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

let create ?(config = default_config) ~model ~max_children ~states () =
  let widths =
    Array.of_list (List.map (fun (_, dims) -> Array.fold_left ( * ) 1 dims) states)
  in
  {
    cfg = config;
    model;
    max_children;
    states;
    widths;
    row_bytes = 8 * Array.fold_left ( + ) 0 widths;
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

let set_budget t b = t.cfg <- { t.cfg with budget_bytes = b }

let counters_of t name =
  match Hashtbl.find_opt t.counts name with
  | Some c -> c
  | None ->
    let c =
      {
        c_extends = 0;
        c_cold = 0;
        c_rebinds = 0;
        c_delta_nodes = 0;
        c_packed = 0;
        c_deadline_misses = 0;
        c_evictions = 0;
        c_restores = 0;
      }
    in
    Hashtbl.replace t.counts name c;
    c

(* ---------- the table ---------- *)

let find t name = Hashtbl.find_opt t.live name

let session t name =
  match find t name with
  | Some sx -> sx
  | None ->
    let sx =
      {
        sx_name = name;
        sx_counters = counters_of t name;
        sx_structure = None;
        sx_device = None;
        sx_restored_base = None;
        sx_layout = Linearizer.empty_layout ~max_children:(max 1 t.max_children);
        sx_rows = Array.map (fun _ -> [||]) t.widths;
        sx_num_rows = 0;
        sx_bytes = 0;
        sx_last_us = Float.neg_infinity;
      }
    in
    Hashtbl.add t.live name sx;
    sx

let sessions t = Hashtbl.fold (fun _ sx acc -> sx :: acc) t.live []

(* A name can be live and still hold a spill: from [session] creating
   it until [restore] takes the spill. *)
let held_spills t =
  Hashtbl.fold
    (fun name h acc ->
      if Hashtbl.mem t.live name then acc else (name, h.h_nodes, counters_of t name) :: acc)
    t.spilled []

let is_live t sx = match find t sx.sx_name with Some x -> x == sx | None -> false

(* What a live session costs its device, in closed form: the four
   resolved layout tables of the current conversation (a structure of
   height h lays out as h + 1 level batches; every token served leaves
   the layout's height current, so no re-traversal) plus the per-node
   state rows it pins.  The QCheck accounting property holds this equal
   to the linearizer's price of a cold linearization of the
   conversation. *)
let accounted_bytes t sx =
  let n = match sx.sx_structure with Some s -> Structure.num_nodes s | None -> 0 in
  Linearizer.layout_bytes ~num_nodes:n
    ~num_batches:(Linearizer.layout_height sx.sx_layout + 1)
    ~max_children:t.max_children
  + Linearizer.state_rows_bytes ~num_nodes:n ~bytes_per_node:t.row_bytes

let touch t sx ~now_us =
  if is_live t sx then begin
    let bytes = accounted_bytes t sx in
    t.total_bytes <- t.total_bytes - sx.sx_bytes + bytes;
    sx.sx_bytes <- bytes;
    sx.sx_last_us <- Float.max sx.sx_last_us now_us
  end

(* A different conversation took over the name, or a lost window left
   its rows behind: node identities mean something else now, so the
   rows are dropped (the counters stay — they are cumulative).  With no
   structure and no restored prefix the next token seeds the layout
   afresh. *)
let reset sx =
  sx.sx_structure <- None;
  sx.sx_restored_base <- None;
  sx.sx_num_rows <- 0

(* ---------- rows: one growable matrix per state ---------- *)

(* Room for rows [0, n) in every matrix, doubling like the layout.  The
   row loops below are plain [for] loops: they run once per node of
   every session window and allocate nothing. *)
let reserve t sx n =
  for k = 0 to Array.length t.widths - 1 do
    let w = t.widths.(k) and m = sx.sx_rows.(k) in
    if Array.length m < n * w then begin
      let grown = Array.make (w * max n (max 16 (2 * (Array.length m / w)))) 0.0 in
      Array.blit m 0 grown 0 (Array.length m);
      sx.sx_rows.(k) <- grown
    end
  done

let load_row t sx node ~into ~at =
  if node >= sx.sx_num_rows then
    failwith "Engine: missing persisted state at a session's delta boundary";
  for k = 0 to Array.length t.widths - 1 do
    let w = t.widths.(k) in
    Array.blit sx.sx_rows.(k) (node * w) into.(k) (at * w) w
  done

let save_row t sx node ~from ~at =
  reserve t sx (node + 1);
  for k = 0 to Array.length t.widths - 1 do
    let w = t.widths.(k) in
    Array.blit from.(k) (at * w) sx.sx_rows.(k) (node * w) w
  done;
  if node >= sx.sx_num_rows then sx.sx_num_rows <- node + 1

let row t sx st node =
  match List.find_index (fun (name, _) -> name = st) t.states with
  | Some k when node >= 0 && node < sx.sx_num_rows ->
    let w = t.widths.(k) in
    let dims = snd (List.nth t.states k) in
    Some (Tensor.of_array (Array.copy dims) (Array.sub sx.sx_rows.(k) (node * w) w))
  | _ -> None

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
      List.sort
        (fun a b ->
          let c = compare a.sx_last_us b.sx_last_us in
          if c <> 0 then c else compare a.sx_name b.sx_name)
        (sessions t)
    in
    let expired, alive =
      match t.cfg.ttl_us with
      | Some ttl -> List.partition (fun sx -> now_us -. sx.sx_last_us > ttl) all
      | None -> ([], all)
    in
    let over_budget =
      match t.cfg.budget_bytes with
      | None -> []
      | Some budget ->
        (* [alive] is least-recent-first, which under the one uniform
           TTL is also nearest-expiry-first. *)
        let remaining = List.fold_left (fun acc sx -> acc + sx.sx_bytes) 0 alive in
        let rec take acc remaining = function
          | [] -> List.rev acc
          | _ when remaining <= budget -> List.rev acc
          | sx :: rest -> take ((sx, `Budget) :: acc) (remaining - sx.sx_bytes) rest
        in
        take [] remaining alive
    in
    List.map (fun sx -> (sx, `Ttl)) expired @ over_budget

(* ---------- the spill format ---------- *)

(* Content digest of a spill: payloads and child ids of nodes [0, n),
   then the bits of their rows.  This is what lets spilled state survive
   eviction and engine restarts — physical node identity (the
   live-session prefix check) cannot.  Payloads are included
   deliberately: the shape key excludes them, but grafting states onto
   a same-shaped conversation with different tokens, or restoring a
   damaged row, would be silent corruption. *)
let spill_digest t (s : Structure.t) n rows =
  let buf = Buffer.create (n * (12 + t.row_bytes)) in
  for i = 0 to n - 1 do
    let nd = s.Structure.nodes.(i) in
    Buffer.add_string buf (string_of_int nd.Node.payload);
    Buffer.add_char buf ':';
    Array.iter
      (fun (c : Node.t) ->
        Buffer.add_string buf (string_of_int c.Node.id);
        Buffer.add_char buf ',')
      nd.Node.children;
    Buffer.add_char buf ';'
  done;
  Array.iteri
    (fun k m ->
      for j = 0 to (n * t.widths.(k)) - 1 do
        Buffer.add_int64_le buf (Int64.bits_of_float m.(j))
      done)
    rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A session's restorable half as a Checkpoint session section:
   conversation size, content digest, and one tensor per state, named by
   the state and shaped [n; dims] — rows [0, n) of its matrix.  Float64
   payloads round-trip bitwise, which is what makes evict -> restore ≡
   never-evicted an exact statement.  [None]: nothing worth keeping. *)
let spill_payload t sx =
  match sx.sx_structure with
  | Some s when t.states = [] || sx.sx_num_rows >= Structure.num_nodes s ->
    let n = Structure.num_nodes s in
    let states =
      List.mapi
        (fun k (st, dims) ->
          ( st,
            Tensor.of_array (Array.append [| n |] dims)
              (Array.sub sx.sx_rows.(k) 0 (n * t.widths.(k))) ))
        t.states
    in
    Some
      (Checkpoint.session_to_string
         {
           Checkpoint.ss_model = t.model;
           ss_nodes = n;
           ss_digest = spill_digest t s n sx.sx_rows;
           ss_states = states;
         })
  | _ -> None

(* Adopt a spill for [s]: it must be this model's, cover a strict
   prefix of [s], hold exactly one tensor per state, shaped [b; dims],
   and match its content digest over that prefix and those rows.  Then
   the layout is reseeded over the prefix and the tensors' arrays
   become the rows. *)
let adopt t sx (s : Structure.t) data =
  match Checkpoint.session_of_string ~expect_model:t.model data with
  | exception Checkpoint.Corrupt _ -> false
  | ss ->
    let b = ss.Checkpoint.ss_nodes in
    let rows =
      List.filter_map
        (fun (st, dims) ->
          match List.assoc_opt st ss.Checkpoint.ss_states with
          | Some (v : Tensor.t) when v.Tensor.shape = Array.append [| b |] dims ->
            Some v.Tensor.data
          | _ -> None)
        t.states
      |> Array.of_list
    in
    b > 0
    && Structure.num_nodes s > b
    && Array.length rows = List.length t.states
    && List.length ss.Checkpoint.ss_states = List.length t.states
    && spill_digest t s b rows = ss.Checkpoint.ss_digest
    && begin
      Linearizer.reseed sx.sx_layout s ~prefix:b;
      sx.sx_rows <- rows;
      sx.sx_num_rows <- b;
      sx.sx_restored_base <- Some b;
      sx.sx_structure <- None;
      true
    end

(* ---------- evict, restore, forget ---------- *)

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

let drop_live t name =
  match find t name with
  | None -> ()
  | Some sx ->
    t.total_bytes <- t.total_bytes - sx.sx_bytes;
    Hashtbl.remove t.live name

let evict t sx ~expired =
  if not (is_live t sx) then 0.0
  else begin
    let name = sx.sx_name in
    let nodes =
      match sx.sx_structure with Some s -> Structure.num_nodes s | None -> 0
    in
    let data = spill_payload t sx in
    drop_live t name;
    t.evictions <- t.evictions + 1;
    if expired then t.expired <- t.expired + 1;
    sx.sx_counters.c_evictions <- sx.sx_counters.c_evictions + 1;
    match data with
    | None -> 0.0
    | Some data ->
      let size = String.length data in
      let h_data =
        match spill_path t name with
        | None -> Some data
        | Some path ->
          Option.iter
            (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
            t.cfg.spill_dir;
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
          None
      in
      Hashtbl.replace t.spilled name { h_data; h_nodes = nodes };
      t.spills <- t.spills + 1;
      t.spilled_bytes <- t.spilled_bytes + size;
      let cost = spill_cost_us ~bytes:size in
      t.spill_us <- t.spill_us +. cost;
      cost
  end

(* Consume the spill held for [name]: its bytes, with the record and
   the file removed.  File-backed, or a fresh store finding its
   predecessor's files after an engine restart. *)
let take_spill t name =
  let path = spill_path t name in
  let held =
    match (Hashtbl.find_opt t.spilled name, path) with
    | Some { h_data = Some data; _ }, _ -> Some data
    | _, Some p when Sys.file_exists p -> (
      try Some (In_channel.with_open_bin p In_channel.input_all) with Sys_error _ -> None)
    | _ -> None
  in
  if held <> None then begin
    Hashtbl.remove t.spilled name;
    Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) path
  end;
  held

let restore t sx s =
  match (sx.sx_structure, sx.sx_restored_base) with
  | Some _, _ | _, Some _ -> None
  | None, None -> (
    match take_spill t sx.sx_name with
    | None -> None
    | Some data when adopt t sx s data ->
      t.restores <- t.restores + 1;
      sx.sx_counters.c_restores <- sx.sx_counters.c_restores + 1;
      let cost = restore_cost_us ~bytes:(String.length data) in
      t.restore_us <- t.restore_us +. cost;
      Some cost
    | Some _ ->
      (* The spill belongs to a different conversation (or is damaged):
         it was consumed above, so the name starts over fresh, and
         nothing counts as restored. *)
      reset sx;
      None)

let forget t name =
  drop_live t name;
  Hashtbl.remove t.spilled name;
  (match spill_path t name with
   | Some p when Sys.file_exists p -> ( try Sys.remove p with Sys_error _ -> ())
   | _ -> ());
  Hashtbl.remove t.counts name

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
