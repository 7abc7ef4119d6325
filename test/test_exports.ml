(* No export without a user: every [val] in lib/**/*.mli, nested
   [module X : sig] blocks included, must be referenced from some .ml
   file other than its own module's, in lib, bin, bench, benchmark,
   test or examples.

   A plain word grep cannot tell [Plan_cache.clear] from a local
   [clear], so the sources are lexed (comments, strings and character
   literals dropped) and a reference is resolved the way the compiler
   would see it, slightly over-approximated:
   - [Q.v], where [Q] names the val's module: its own name, or an alias
     of it ([module L = Cortex_lower.Lower] in the same file, or one
     declared in an .mli or the [Cortex] facade, like [Obs_validate]);
   - a bare [v] (or operator) in a file that opens such a [Q], with
     [open Q], [let open Q in], [include Q] or a local [Q.( ... )]. *)

(* Relative to the project root; the test runs in its test/ directory. *)
let roots = [ "lib"; "bin"; "bench"; "benchmark"; "test"; "examples" ]

(* ---------- sources ---------- *)

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if entry.[0] = '.' || entry = "_build" then []
         else if Sys.is_directory path then files path
         else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
         then [ path ]
         else [])

let read path = In_channel.with_open_bin path In_channel.input_all

(* ---------- lexing ---------- *)

type token =
  | Uid of string  (** a capitalized identifier: a module or constructor *)
  | Lid of string  (** a lowercase identifier or keyword *)
  | Dot
  | Sym of string  (** a run of operator characters *)
  | Punct of char

let is_ident c =
  match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

let is_sym c = String.contains "!$%&*+-/:<=>?@^|~#" c

let tokens s =
  let n = String.length s in
  let out = ref [] in
  let emit t = out := t :: !out in
  (* [i] is just past an opening quote; returns the index past the
     closing one. *)
  let rec skip_string i =
    if i >= n then n
    else if s.[i] = '\\' then skip_string (i + 2)
    else if s.[i] = '"' then i + 1
    else skip_string (i + 1)
  in
  (* [{id|...|id}]: [i] is at the '{'; returns the index past the end
     when it is one. *)
  let quoted_string i =
    let j = ref (i + 1) in
    while !j < n && (match s.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do incr j done;
    if !j < n && s.[!j] = '|' then begin
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let rec find k =
        if k + String.length close > n then n
        else if String.sub s k (String.length close) = close then k + String.length close
        else find (k + 1)
      in
      Some (find (!j + 1))
    end
    else None
  in
  let rec skip_comment i depth =
    if i >= n then n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then skip_comment (i + 2) (depth + 1)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else if s.[i] = '"' then skip_comment (skip_string (i + 1)) depth
    else if s.[i] = '\'' && i + 2 < n && s.[i + 2] = '\'' then skip_comment (i + 3) depth
    else skip_comment (i + 1) depth
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '(' when i + 1 < n && s.[i + 1] = '*' -> go (skip_comment (i + 2) 1)
      | '"' -> go (skip_string (i + 1))
      | '{' -> (
        match quoted_string i with
        | Some j -> go j
        | None -> emit (Punct '{'); go (i + 1))
      | '\'' when i + 1 < n && s.[i + 1] = '\\' ->
        (* an escaped character literal: '\n', '\'', '\123' *)
        let rec close j = if j >= n || s.[j] = '\'' then j + 1 else close (j + 1) in
        go (close (i + 3))
      | '\'' when i + 2 < n && s.[i + 2] = '\'' -> go (i + 3)
      | '0' .. '9' ->
        let rec stop j =
          if j < n && (is_ident s.[j] || s.[j] = '.') then stop (j + 1) else j
        in
        go (stop i)
      | 'A' .. 'Z' | 'a' .. 'z' | '_' ->
        let rec stop j = if j < n && is_ident s.[j] then stop (j + 1) else j in
        let j = stop i in
        let id = String.sub s i (j - i) in
        emit (match id.[0] with 'A' .. 'Z' -> Uid id | _ -> Lid id);
        go j
      | '.' -> emit Dot; go (i + 1)
      | c when is_sym c ->
        let rec stop j = if j < n && is_sym s.[j] then stop (j + 1) else j in
        let j = stop i in
        emit (Sym (String.sub s i (j - i)));
        go j
      | c -> emit (Punct c); go (i + 1)
  in
  go 0;
  Array.of_list (List.rev !out)

(* ---------- the vals an interface exports ---------- *)

(* [(module path, name)] for each [val] of an .mli: [(["Ir"; "Dim"], "make")].
   Vals inside a [module type] or a functor argument's [sig] are not
   values of the module and are skipped. *)
let vals ~modname toks =
  let n = Array.length toks in
  let found = ref [] in
  (* The open [sig]s, innermost first: [Some x] for [module X : sig]. *)
  let stack = ref [] in
  for i = 0 to n - 1 do
    match toks.(i) with
    | Lid ("sig" | "object") ->
      let named =
        match toks.(i - 1), toks.(i - 2), toks.(i - 3) with
        | Sym ":", Uid x, Lid "module" -> Some x
        | _ | (exception Invalid_argument _) -> None
      in
      stack := named :: !stack
    | Lid "end" -> stack := (match !stack with [] -> [] | _ :: rest -> rest)
    | Lid "val" when List.for_all Option.is_some !stack -> (
      let path = modname :: List.rev_map Option.get !stack in
      match toks.(i + 1), toks.(i + 2) with
      | Lid v, _ -> found := (path, v) :: !found
      | Punct '(', Sym op -> found := (path, op) :: !found
      | _ -> ())
    | _ -> ()
  done;
  List.rev !found

(* ---------- what a source file references ---------- *)

type refs = {
  qualified : (string * string, unit) Hashtbl.t;  (** [Q.v] as [(Q, v)] *)
  bare : (string, unit) Hashtbl.t;  (** unqualified identifiers and operators *)
  mutable opened : string list;  (** modules whose names are in scope bare *)
  mutable aliases : (string * string) list;  (** [module A = ...B] as [(A, B)] *)
}

(* The last component of the module path starting at [i]. *)
let rec path_end toks i =
  match toks.(i) with
  | Uid q -> (
    match toks.(i + 1), toks.(i + 2) with
    | Dot, Uid _ -> path_end toks (i + 2)
    | _ | (exception Invalid_argument _) -> Some q)
  | _ | (exception Invalid_argument _) -> None

let refs toks =
  let n = Array.length toks in
  let at i = if i >= 0 && i < n then Some toks.(i) else None in
  let r =
    { qualified = Hashtbl.create 256; bare = Hashtbl.create 1024; opened = []; aliases = [] }
  in
  for i = 0 to n - 1 do
    match toks.(i), at (i + 1), at (i + 2) with
    | Uid q, Some Dot, Some (Lid v) -> Hashtbl.replace r.qualified (q, v) ()
    | Uid q, Some Dot, Some (Punct ('(' | '[' | '{')) -> r.opened <- q :: r.opened
    | Lid ("open" | "include"), _, _ ->
      let start = match at (i + 1) with Some (Sym "!") -> i + 2 | _ -> i + 1 in
      Option.iter (fun q -> r.opened <- q :: r.opened) (path_end toks start)
    | Lid "module", Some (Uid a), Some (Sym "=") ->
      Option.iter (fun b -> r.aliases <- (a, b) :: r.aliases) (path_end toks (i + 3))
    | (Lid v | Sym v), _, _ when at (i - 1) <> Some Dot -> Hashtbl.replace r.bare v ()
    | _ -> ()
  done;
  r

(* Whether [r] uses [v] of the module called [qs] (its names). *)
let uses r qs v =
  List.exists (fun q -> Hashtbl.mem r.qualified (q, v)) qs
  || (List.exists (fun o -> List.mem o qs) r.opened && Hashtbl.mem r.bare v)

(* Every name [m] goes by under [aliases], [m] included. *)
let names aliases m =
  let rec grow set =
    let set' =
      List.fold_left
        (fun acc (a, b) -> if List.mem b acc && not (List.mem a acc) then a :: acc else acc)
        set aliases
    in
    if List.length set' = List.length set then set else grow set'
  in
  grow [ m ]

(* ---------- the check ---------- *)

let unused_exports () =
  Sys.chdir Filename.parent_dir_name;
  let sources =
    List.concat_map files roots |> List.map (fun path -> (path, refs (tokens (read path))))
  in
  (* Aliases an interface or the facade exports are visible everywhere;
     one an implementation declares only in that file. *)
  let global =
    List.concat_map
      (fun (path, r) ->
        if Filename.check_suffix path ".mli" || path = "lib/core/cortex.ml" then r.aliases
        else [])
      sources
  in
  let users =
    List.filter_map
      (fun (path, r) ->
        if Filename.check_suffix path ".ml" then Some (path, r, r.aliases @ global) else None)
      sources
  in
  let interfaces =
    List.filter
      (fun (path, _) ->
        String.starts_with ~prefix:"lib/" path && Filename.check_suffix path ".mli")
      sources
  in
  if List.length interfaces < 50 then
    Alcotest.failf "only %d interfaces under lib/: not the project root" (List.length interfaces);
  List.concat_map
    (fun (mli, _) ->
      let own = Filename.chop_suffix mli ".mli" ^ ".ml" in
      let modname = String.capitalize_ascii (Filename.basename (Filename.chop_suffix mli ".mli")) in
      vals ~modname (tokens (read mli))
      |> List.filter (fun (path, v) ->
             let q = List.nth path (List.length path - 1) in
             not
               (List.exists
                  (fun (file, r, aliases) -> file <> own && uses r (names aliases q) v)
                  users))
      |> List.map (fun (path, v) -> Printf.sprintf "%s: %s.%s" mli (String.concat "." path) v))
    interfaces

let test_every_val_has_a_user () =
  match unused_exports () with
  | [] -> ()
  | dead ->
    Alcotest.failf "%d exports have no user outside their own module:\n  %s"
      (List.length dead) (String.concat "\n  " dead)

(* The resolver itself: a qualified use, an alias, an open and a local
   open count; a comment, a string and a same-named local do not. *)
let test_resolution () =
  let check ?(aliases = []) label want src =
    let r = refs (tokens src) in
    Alcotest.(check bool) label want (uses r (names (r.aliases @ aliases) "Plan_cache") "clear")
  in
  check "qualified" true "let () = Cortex.Plan_cache.clear c";
  check "file alias" true "module P = Cortex_serve.Plan_cache\nlet () = P.clear c";
  check "global alias" true ~aliases:[ ("Pc", "Plan_cache") ] "let () = Pc.clear c";
  check "open" true "open Plan_cache\nlet () = clear c";
  check "let open" true "let () = let open! Plan_cache in clear c";
  check "local open" true "let () = Plan_cache.(clear c)";
  check "same-named local" false "let clear = 1 let () = Plan_cache.size c; r.clear";
  check "comment" false "(* Plan_cache.clear *) let clear = 1";
  check "string" false {|let s = "Plan_cache.clear" and t = {x|Plan_cache.clear|x}|};
  check "after a nested comment" true "(* a (* b *) '\"' *) Plan_cache.clear c";
  check "after a char literal" true "let q = '\"' let () = Plan_cache.clear c";
  check "after an escaped char" true "let q = '\\'' let () = Plan_cache.clear c";
  Alcotest.(check (list (pair (list string) string))) "nested sig"
    [ ([ "Ir"; "Dim" ], "make"); ([ "Ir" ], "+:") ]
    (vals ~modname:"Ir"
       (tokens
          "module Dim : sig val make : int -> t end\n\
           module type S = sig val hidden : t end\n\
           val ( +: ) : t -> t -> t"))

let () =
  Alcotest.run "exports"
    [
      ( "exports",
        [
          Alcotest.test_case "resolution" `Quick test_resolution;
          Alcotest.test_case "every-val-has-a-user" `Quick test_every_val_has_a_user;
        ] );
    ]
