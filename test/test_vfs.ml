open Minios

let test_write_read () =
  let v = Vfs.create () in
  Vfs.write_string v ~path:"/a/b.txt" "hello";
  Alcotest.(check string) "read back" "hello" (Vfs.read v "/a/b.txt");
  Alcotest.(check bool) "exists" true (Vfs.exists v "/a/b.txt");
  Alcotest.(check bool) "missing" false (Vfs.exists v "/a/c.txt");
  Alcotest.(check int) "size" 5 (Vfs.size v "/a/b.txt")

let test_normalize () =
  let v = Vfs.create () in
  Vfs.write_string v ~path:"//a///b/" "x";
  Alcotest.(check bool) "normalized paths equal" true (Vfs.exists v "/a/b");
  Alcotest.(check bool) "relative rejected" true
    (try
       Vfs.write_string v ~path:"rel" "x";
       false
     with Invalid_argument _ -> true)

let test_append () =
  let v = Vfs.create () in
  Vfs.append v ~path:"/log" "a";
  Vfs.append v ~path:"/log" "b";
  Alcotest.(check string) "appended" "ab" (Vfs.read v "/log")

let test_opaque () =
  let v = Vfs.create () in
  Vfs.write_opaque v ~path:"/bin/server" 1234;
  Alcotest.(check int) "opaque size" 1234 (Vfs.size v "/bin/server");
  Alcotest.(check bool) "opaque unreadable" true
    (try
       ignore (Vfs.read v "/bin/server");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "opaque unappendable" true
    (try
       Vfs.append v ~path:"/bin/server" "x";
       false
     with Invalid_argument _ -> true)

let test_paths_under () =
  let v = Vfs.create () in
  Vfs.write_string v ~path:"/data/a" "1";
  Vfs.write_string v ~path:"/data/sub/b" "2";
  Vfs.write_string v ~path:"/database" "3";
  Alcotest.(check (list string)) "prefix respects separators"
    [ "/data/a"; "/data/sub/b" ]
    (Vfs.paths_under v "/data");
  Vfs.remove_under v "/data";
  Alcotest.(check (list string)) "removed" [] (Vfs.paths_under v "/data");
  Alcotest.(check bool) "sibling untouched" true (Vfs.exists v "/database")

let test_total_bytes_and_copy () =
  let src = Vfs.create () in
  Vfs.write_string src ~path:"/x/a" "abc";
  Vfs.write_opaque src ~path:"/x/big" 100;
  Alcotest.(check int) "total" 103 (Vfs.total_bytes src);
  let dst = Vfs.create () in
  Vfs.copy_tree ~src ~dst "/x";
  Alcotest.(check int) "copied total" 103 (Vfs.total_bytes dst);
  Alcotest.(check string) "content copied" "abc" (Vfs.read dst "/x/a")

let test_overwrite () =
  let v = Vfs.create () in
  Vfs.write_string v ~path:"/f" "one";
  Vfs.write_string v ~path:"/f" "two";
  Alcotest.(check string) "overwritten" "two" (Vfs.read v "/f")

(* Deferred content: the size and the bytes are each computed on first
   use and kept; once the bytes exist the size comes from them, and an
   append to the file produces them. *)
let test_deferred () =
  let sized = ref 0 and produced = ref 0 in
  let deferred () =
    Vfs.Deferred
      { size = lazy (incr sized; 5);
        bytes = lazy (incr produced; "hello") }
  in
  let v = Vfs.create () in
  Vfs.write v ~path:"/d" (deferred ());
  Alcotest.(check int) "size" 5 (Vfs.size v "/d");
  Alcotest.(check int) "size again" 5 (Vfs.size v "/d");
  Alcotest.(check (pair int int)) "sized once, no bytes" (1, 0) (!sized, !produced);
  Alcotest.(check string) "read" "hello" (Vfs.read v "/d");
  Alcotest.(check string) "read again" "hello" (Vfs.read v "/d");
  Alcotest.(check int) "produced once" 1 !produced;
  Vfs.write v ~path:"/e" (deferred ());
  Alcotest.(check string) "read first" "hello" (Vfs.read v "/e");
  Alcotest.(check int) "size from the bytes" 5 (Vfs.size v "/e");
  Alcotest.(check int) "no sizing pass" 1 !sized;
  Vfs.write v ~path:"/f" (deferred ());
  Vfs.append v ~path:"/f" " world";
  Alcotest.(check string) "append produces the bytes" "hello world"
    (Vfs.read v "/f")

(* ---------------- appends cost their own bytes ------------------- *)

(* A log that grows by small records must not be copied on every
   append: 2,000 records of 100 bytes allocate well under 20 times the
   200,000 bytes appended (copying the file each time would allocate
   about 200 MB). *)
let test_append_allocation () =
  let v = Vfs.create () in
  let record = String.make 100 'r' in
  let n = 2_000 in
  let allocated =
    Fixtures.allocated_words (fun () ->
        for _ = 1 to n do
          Vfs.append_buffered v ~path:"/log" record
        done)
    *. float_of_int (Sys.word_size / 8)
  in
  let appended = n * String.length record in
  if allocated >= 20.0 *. float_of_int appended then
    Alcotest.failf "%d appended bytes allocated %.0f bytes" appended allocated;
  Alcotest.(check int) "size" appended (Vfs.size v "/log");
  Alcotest.(check int) "unsynced" appended (Vfs.unsynced_bytes v "/log");
  Alcotest.(check string) "bytes"
    (String.concat "" (List.init n (fun _ -> record)))
    (Vfs.read v "/log")

(* ---------------- the durability model, against a reference ------ *)

(* A reference model written with plain strings: a file is its visible
   value and its synced value ([None] = a crash deletes it); a value is
   bytes or a deferred content, named by the order of its creation. *)
type mval = Bytes of string | Def of int

type mfile = { cur : mval; synced : mval option }

type op =
  | Write of int * string
  | Write_deferred of int * string
  | Append of int * string
  | Append_buffered of int * string
  | Append_deferred of int * string
  | Truncate of int
  | Fsync of int
  | Rename of int * int
  | Crash of (int * int) list
  | Crash_under of (int * int) list
  | Read of int

(* [crash_under] takes the files under /d, not /e/c *)
let model_paths = [| "/d/a"; "/d/b"; "/e/c" |]
let under_prefix = "/d"

let show_op =
  let p i = model_paths.(i) in
  let keep k =
    String.concat "; "
      (List.map (fun (i, n) -> Printf.sprintf "%s:%d" (p i) n) k)
  in
  function
  | Write (i, s) -> Printf.sprintf "write %s %S" (p i) s
  | Write_deferred (i, s) -> Printf.sprintf "write %s deferred %S" (p i) s
  | Append (i, s) -> Printf.sprintf "append %s %S" (p i) s
  | Append_buffered (i, s) -> Printf.sprintf "append_buffered %s %S" (p i) s
  | Append_deferred (i, s) ->
    Printf.sprintf "append_content_buffered %s deferred %S" (p i) s
  | Truncate i -> Printf.sprintf "truncate_buffered %s" (p i)
  | Fsync i -> Printf.sprintf "fsync %s" (p i)
  | Rename (i, j) -> Printf.sprintf "rename %s %s" (p i) (p j)
  | Crash k -> Printf.sprintf "crash [%s]" (keep k)
  | Crash_under k -> Printf.sprintf "crash_under %s [%s]" under_prefix (keep k)
  | Read i -> Printf.sprintf "read %s" (p i)

let gen_op =
  let open QCheck.Gen in
  let path = int_bound (Array.length model_paths - 1) in
  let text = string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_bound 5) in
  let keep = list_size (int_bound 2) (pair path (int_range (-1) 4)) in
  frequency
    [ (2, map2 (fun i s -> Write (i, s)) path text);
      (2, map2 (fun i s -> Write_deferred (i, s)) path text);
      (2, map2 (fun i s -> Append (i, s)) path text);
      (5, map2 (fun i s -> Append_buffered (i, s)) path text);
      (3, map2 (fun i s -> Append_deferred (i, s)) path text);
      (2, map (fun i -> Truncate i) path);
      (3, map (fun i -> Fsync i) path);
      (1, map2 (fun i j -> Rename (i, j)) path path);
      (1, map (fun k -> Crash k) keep);
      (1, map (fun k -> Crash_under k) keep);
      (2, map (fun i -> Read i) path) ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 40) gen_op)

(* Run [ops] against both the VFS and the model. After every step each
   path must agree on [exists], [size], [unsynced_bytes] and, unless its
   visible value is a deferred content (only a [Read] step reads one),
   [read]; and every deferred content must have produced its bytes
   exactly when the model says it has (a [Read], or an append onto it or
   of it into a non-empty file). *)
let run_model ops =
  let v = Vfs.create () in
  let files : (string, mfile) Hashtbl.t = Hashtbl.create 8 in
  (* deferred contents by creation order: bytes, forced in the VFS,
     forced in the model *)
  let defs = ref [||] in
  let fresh s =
    let forced = ref false in
    let k = Array.length !defs in
    defs := Array.append !defs [| (s, forced, ref false) |];
    ( Def k,
      Vfs.Deferred
        { size = lazy (String.length s);
          bytes =
            lazy
              (forced := true;
               s) } )
  in
  let len = function
    | Bytes s -> String.length s
    | Def k ->
      let s, _, _ = !defs.(k) in
      String.length s
  in
  let bytes = function
    | Bytes s -> s
    | Def k ->
      let s, _, model_forced = !defs.(k) in
      model_forced := true;
      s
  in
  let concat old c =
    match old with Bytes "" -> c | _ -> Bytes (bytes old ^ bytes c)
  in
  let append ~durable path c =
    match Hashtbl.find_opt files path with
    | Some f ->
      let cur = concat f.cur c in
      Hashtbl.replace files path
        { cur; synced = (if durable then Some cur else f.synced) }
    | None ->
      Hashtbl.replace files path
        { cur = c; synced = (if durable then Some c else None) }
  in
  let crash_file keep path f =
    let kept =
      match List.assoc_opt path keep with Some n -> max 0 n | None -> 0
    in
    match (f.synced, f.cur) with
    | Some (Bytes b), Bytes d
      when String.length d > String.length b && kept > 0 ->
      let bl = String.length b in
      let cur =
        Bytes (String.sub d 0 (bl + min kept (String.length d - bl)))
      in
      Hashtbl.replace files path { cur; synced = Some cur }
    | Some c, _ -> Hashtbl.replace files path { cur = c; synced = Some c }
    | None, Bytes d when kept > 0 ->
      let cur = Bytes (String.sub d 0 (min kept (String.length d))) in
      Hashtbl.replace files path { cur; synced = Some cur }
    | None, _ -> Hashtbl.remove files path
  in
  let crash ~only keep =
    let keep = List.map (fun (i, n) -> (model_paths.(i), n)) keep in
    Hashtbl.fold (fun p f acc -> (p, f) :: acc) files []
    |> List.iter (fun (p, f) -> if only p then crash_file keep p f)
  in
  let under p =
    let n = String.length under_prefix in
    String.length p > n && String.sub p 0 n = under_prefix && p.[n] = '/'
  in
  let step op =
    match op with
    | Write (i, s) ->
      let p = model_paths.(i) in
      Vfs.write_string v ~path:p s;
      Hashtbl.replace files p { cur = Bytes s; synced = Some (Bytes s) }
    | Write_deferred (i, s) ->
      let p = model_paths.(i) in
      let m, c = fresh s in
      Vfs.write v ~path:p c;
      Hashtbl.replace files p { cur = m; synced = Some m }
    | Append (i, s) ->
      Vfs.append v ~path:model_paths.(i) s;
      append ~durable:true model_paths.(i) (Bytes s)
    | Append_buffered (i, s) ->
      Vfs.append_buffered v ~path:model_paths.(i) s;
      append ~durable:false model_paths.(i) (Bytes s)
    | Append_deferred (i, s) ->
      let m, c = fresh s in
      Vfs.append_content_buffered v ~path:model_paths.(i) c;
      append ~durable:false model_paths.(i) m
    | Truncate i ->
      let p = model_paths.(i) in
      Vfs.truncate_buffered v ~path:p ();
      let synced =
        match Hashtbl.find_opt files p with Some f -> f.synced | None -> None
      in
      Hashtbl.replace files p { cur = Bytes ""; synced }
    | Fsync i -> (
      let p = model_paths.(i) in
      Vfs.fsync v p;
      match Hashtbl.find_opt files p with
      | Some f -> Hashtbl.replace files p { f with synced = Some f.cur }
      | None -> ())
    | Rename (i, j) -> (
      let src = model_paths.(i) and dst = model_paths.(j) in
      let raised =
        match Vfs.rename v ~src ~dst with
        | () -> false
        | exception Not_found -> true
      in
      match Hashtbl.find_opt files src with
      | Some f ->
        if raised then Alcotest.failf "rename %s raised Not_found" src;
        Hashtbl.remove files src;
        Hashtbl.replace files dst f
      | None ->
        if not raised then Alcotest.failf "rename of missing %s succeeded" src)
    | Crash keep ->
      Vfs.crash v
        ~keep:(List.map (fun (i, n) -> (model_paths.(i), n)) keep)
        ();
      crash ~only:(fun _ -> true) keep
    | Crash_under keep ->
      Vfs.crash_under v
        ~keep:(List.map (fun (i, n) -> (model_paths.(i), n)) keep)
        under_prefix;
      crash ~only:under keep
    | Read i -> (
      let p = model_paths.(i) in
      match Hashtbl.find_opt files p with
      | Some f ->
        Alcotest.(check string) ("read " ^ p) (bytes f.cur) (Vfs.read v p)
      | None -> ())
  in
  let check op =
    let what = show_op op in
    Array.iteri
      (fun k (_, forced, model_forced) ->
        Alcotest.(check bool)
          (Printf.sprintf "after %s: deferred #%d produced" what k)
          !model_forced !forced)
      !defs;
    Array.iter
      (fun p ->
        let label s = Printf.sprintf "after %s: %s %s" what s p in
        match Hashtbl.find_opt files p with
        | None ->
          Alcotest.(check bool) (label "exists") false (Vfs.exists v p);
          Alcotest.(check int) (label "unsynced") 0 (Vfs.unsynced_bytes v p)
        | Some f ->
          Alcotest.(check bool) (label "exists") true (Vfs.exists v p);
          Alcotest.(check int) (label "size") (len f.cur) (Vfs.size v p);
          let unsynced =
            match (f.cur, f.synced) with
            | Def _, _ -> 0
            | Bytes d, Some (Bytes b) ->
              max 0 (String.length d - String.length b)
            | Bytes _, Some (Def _) -> 0
            | Bytes d, None -> String.length d
          in
          Alcotest.(check int) (label "unsynced") unsynced
            (Vfs.unsynced_bytes v p);
          (match f.cur with
          | Bytes d -> Alcotest.(check string) (label "read") d (Vfs.read v p)
          | Def _ -> ()))
      model_paths
  in
  List.iter
    (fun op ->
      step op;
      check op)
    ops;
  true

let prop_durability_model =
  QCheck.Test.make ~name:"durability model matches a string reference"
    ~count:300 arb_ops run_model

let suite =
  [ Alcotest.test_case "write/read" `Quick test_write_read;
    Alcotest.test_case "path normalization" `Quick test_normalize;
    Alcotest.test_case "append" `Quick test_append;
    Alcotest.test_case "opaque files" `Quick test_opaque;
    Alcotest.test_case "paths_under/remove_under" `Quick test_paths_under;
    Alcotest.test_case "total bytes and copy" `Quick test_total_bytes_and_copy;
    Alcotest.test_case "overwrite" `Quick test_overwrite;
    Alcotest.test_case "deferred content" `Quick test_deferred;
    Alcotest.test_case "appends allocate their own bytes" `Quick
      test_append_allocation;
    QCheck_alcotest.to_alcotest prop_durability_model ]
