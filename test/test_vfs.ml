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

let suite =
  [ Alcotest.test_case "write/read" `Quick test_write_read;
    Alcotest.test_case "path normalization" `Quick test_normalize;
    Alcotest.test_case "append" `Quick test_append;
    Alcotest.test_case "opaque files" `Quick test_opaque;
    Alcotest.test_case "paths_under/remove_under" `Quick test_paths_under;
    Alcotest.test_case "total bytes and copy" `Quick test_total_bytes_and_copy;
    Alcotest.test_case "overwrite" `Quick test_overwrite;
    Alcotest.test_case "deferred content" `Quick test_deferred ]
