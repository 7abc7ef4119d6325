module Tensor = Cortex_tensor.Tensor
module M = Cortex_models.Models_common

type t = (string * Tensor.t) list
type manifest = (string * int array) list

exception Corrupt of string

let magic = "CORTEXP1"

(* ---------- writing ---------- *)

(* Every writer fills one buffer sized up front: the byte length of a
   table is a function of its names and shapes, so nothing is grown,
   copied or boxed per value. *)

let byte_size (table : t) =
  List.fold_left
    (fun acc (name, (tensor : Tensor.t)) ->
      acc + 16 + String.length name
      + (8 * Array.length tensor.Tensor.shape)
      + (8 * Tensor.numel tensor))
    (String.length magic + 8) table

let put_i64 b pos v =
  Bytes.set_int64_le b pos (Int64.of_int v);
  pos + 8

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let blit (table : t) b pos =
  let pos = put_string b pos magic in
  let pos = put_i64 b pos (List.length table) in
  ignore
    (List.fold_left
       (fun pos (name, (tensor : Tensor.t)) ->
         let pos = put_i64 b pos (String.length name) in
         let pos = put_string b pos name in
         let shape = tensor.Tensor.shape in
         let pos = Array.fold_left (put_i64 b) (put_i64 b pos (Array.length shape)) shape in
         let data = tensor.Tensor.data in
         for i = 0 to Array.length data - 1 do
           Bytes.set_int64_le b (pos + (8 * i)) (Int64.bits_of_float data.(i))
         done;
         pos + (8 * Array.length data))
       pos table)

let to_string table =
  let b = Bytes.create (byte_size table) in
  blit table b 0;
  Bytes.unsafe_to_string b

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let save path table = write_file path (to_string table)

(* ---------- reading ---------- *)

(* One bounded cursor over an immutable string: [data.[pos, stop)] is
   what is left to parse, so a file, a whole string and a bundle's
   weights section are parsed in place, with no copy of the payloads.
   Every count read from a header is bounded against [stop - pos]
   before any allocation, so a bit-flipped count or extent fails fast
   with {!Corrupt} instead of driving a gigabyte allocation or a
   10^6-iteration loop over a 100-byte file. *)
type cursor = { data : string; mutable pos : int; stop : int }

let cursor ?(pos = 0) ?len data =
  let len = Option.value len ~default:(String.length data - pos) in
  if pos < 0 || len < 0 || pos > String.length data - len then
    invalid_arg "Checkpoint: range outside the string";
  { data; pos; stop = pos + len }

let left c = c.stop - c.pos

(* Claim the next [n] bytes; returns where they start. *)
let take c n =
  if n < 0 || n > left c then raise (Corrupt "truncated checkpoint");
  let p = c.pos in
  c.pos <- p + n;
  p

let read_i64 c = Int64.to_int (String.get_int64_le c.data (take c 8))
let read_string c n = String.sub c.data (take c n) n

let check_remaining c ~need what =
  if need > left c then
    raise
      (Corrupt (Printf.sprintf "%s: %d bytes claimed, %d left in the file" what need (left c)))

(* The last tensor ends the range: appended bytes are corruption too. *)
let at_end c entries =
  if left c > 0 then raise (Corrupt (Printf.sprintf "%d trailing bytes" (left c)));
  entries

(* The shared walk.  [payload] decides whether the float data is
   materialized (one loop straight into tensor storage) or skipped in
   place (manifests: names and shapes only). *)
let parse ~payload c =
  let m = read_string c (String.length magic) in
  if m <> magic then raise (Corrupt ("bad magic " ^ m));
  let count = read_i64 c in
  if count < 0 || count > 1_000_000 then raise (Corrupt "implausible tensor count");
  (* Each tensor needs at least name_len + rank + one payload word. *)
  check_remaining c ~need:(count * 24) "tensor count";
  List.init count (fun _ ->
      let name_len = read_i64 c in
      if name_len < 0 || name_len > 4096 then raise (Corrupt "implausible name length");
      check_remaining c ~need:name_len "name length";
      let name = read_string c name_len in
      let rank = read_i64 c in
      if rank < 0 || rank > 8 then raise (Corrupt "implausible rank");
      let shape = Array.init rank (fun _ -> read_i64 c) in
      Array.iter
        (fun d -> if d <= 0 || d > 100_000_000 then raise (Corrupt "bad extent"))
        shape;
      (* The payload's byte count, overflow-checked as it is formed. *)
      let bytes =
        Array.fold_left
          (fun acc d ->
            if acc > max_int / d then raise (Corrupt "extent product overflows");
            acc * d)
          8 shape
      in
      check_remaining c ~need:bytes "tensor payload";
      let p = take c bytes in
      if payload then begin
        let numel = bytes / 8 in
        let data = Array.create_float numel in
        for i = 0 to numel - 1 do
          data.(i) <- Int64.float_of_bits (String.get_int64_le c.data (p + (8 * i)))
        done;
        (name, shape, Some (Tensor.of_array shape data))
      end
      else (name, shape, None))
  |> at_end c

let table_of_parse entries =
  List.map
    (fun (name, _, tensor) ->
      match tensor with
      | Some t -> (name, t)
      | None -> raise (Corrupt "missing payload"))
    entries

let manifest_of_parse entries = List.map (fun (name, shape, _) -> (name, shape)) entries
let of_string ?pos ?len s = table_of_parse (parse ~payload:true (cursor ?pos ?len s))

let manifest_of_string ?pos ?len s =
  manifest_of_parse (parse ~payload:false (cursor ?pos ?len s))

let read_manifest ic = manifest_of_string (In_channel.input_all ic)
let load path = of_string (read_file path)

(* ---------- session-state sections ---------- *)

(* A spilled serving session: which model and conversation prefix the
   state rows belong to, then a plain tensor table (one [n; dims] tensor
   of rows per state, named by the state).  Same byte discipline as the
   parameter format — counts and lengths little-endian i64, payloads
   float64 bits — so restore is bitwise exact, and the same hardened
   cursor walk, so a truncated or bit-flipped spill file fails with
   {!Corrupt}, never a [Marshal] or allocation failure. *)

let session_magic = "CORTEXS1"

type session_state = {
  ss_model : string;
  ss_nodes : int;
  ss_digest : string;
  ss_states : t;
}

let session_to_string ss =
  (* The magic, three i64 fields (model length, node count, digest
     length), the two strings, then the table. *)
  let b =
    Bytes.create
      (String.length session_magic + 24 + String.length ss.ss_model
     + String.length ss.ss_digest + byte_size ss.ss_states)
  in
  let pos = put_string b 0 session_magic in
  let pos = put_i64 b pos (String.length ss.ss_model) in
  let pos = put_string b pos ss.ss_model in
  let pos = put_i64 b pos ss.ss_nodes in
  let pos = put_i64 b pos (String.length ss.ss_digest) in
  let pos = put_string b pos ss.ss_digest in
  blit ss.ss_states b pos;
  Bytes.unsafe_to_string b

let read_string_field c ~what =
  let len = read_i64 c in
  if len < 0 || len > 4096 then
    raise (Corrupt (Printf.sprintf "implausible %s length" what));
  check_remaining c ~need:len (what ^ " length");
  read_string c len

let session_of_string ?expect_model s =
  let c = cursor s in
  let m = read_string c (String.length session_magic) in
  if m <> session_magic then raise (Corrupt ("bad session magic " ^ m));
  let model = read_string_field c ~what:"model name" in
  (match expect_model with
  | Some want when want <> model ->
    raise
      (Corrupt
         (Printf.sprintf "session checkpoint is for model %S, engine serves %S" model
            want))
  | _ -> ());
  let nodes = read_i64 c in
  if nodes < 0 || nodes > 1_000_000_000 then
    raise (Corrupt "implausible session node count");
  let digest = read_string_field c ~what:"digest" in
  let states = table_of_parse (parse ~payload:true c) in
  { ss_model = model; ss_nodes = nodes; ss_digest = digest; ss_states = states }

let save_session path ss = write_file path (session_to_string ss)

let load_session ?expect_model path =
  session_of_string ?expect_model (read_file path)

let resolver table name =
  match List.assoc_opt name table with
  | Some t -> t
  | None -> invalid_arg ("Checkpoint.resolver: unknown parameter " ^ name)

let of_spec (spec : M.t) ~seed =
  let f = spec.M.init_params (Cortex_util.Rng.create seed) in
  List.map (fun (name, _) -> (name, f name)) spec.M.program.Cortex_ra.Ra.params
