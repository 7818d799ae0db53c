(** An in-memory virtual file system.

    Paths are absolute, [/]-separated strings; directories are implicit.
    File contents are either real bytes ([Data]), size-only placeholders
    ([Opaque]) used to model large binary artifacts — DBMS server binaries,
    shared libraries, VM base images — whose bytes never matter but whose
    sizes drive the package-size experiments (Figure 9, §IX-F), bytes
    produced on demand ([Deferred]): the DB server's data files and
    checkpoint images, whose size and bytes are each computed by the
    first reader that asks for them ({!read}, {!size}, {!content_size},
    {!content_bytes}, the appends) and then kept, or appended bytes
    ([Chunks]).

    {b Appends cost the bytes appended.} Appending to a non-empty file
    conses the new record onto the file's chunk list and adds its
    length; nothing already in the file is copied. The chunks are
    concatenated only when something reads the bytes ({!read},
    {!content_bytes}), once per value, and a later append continues from
    those flat bytes. Content values are immutable, so whoever holds an
    older value — the synced state, a tracer's first-read snapshot, a
    package entry — keeps exactly the bytes it saw.

    {b Durability model.} Every file carries two states: [content] (what
    readers see — the page cache) and [synced] (what survives a simulated
    power failure — the platter). The plain write API ([write],
    [write_string], [write_opaque], [append]) models provisioning I/O and
    is implicitly durable: it updates both states at once, so the rest of
    the system behaves exactly as before durability existed. The buffered
    API ([append_buffered], [append_content_buffered], [truncate_buffered])
    updates only [content]; the unsynced delta reaches the platter only at
    an explicit {!fsync} barrier, and {!crash} throws it away — except for
    an optional torn prefix of an append-only tail, modeling a partially
    flushed page. *)

type content =
  | Data of string
  | Opaque of int
  | Deferred of { size : int Lazy.t; bytes : string Lazy.t }
  | Chunks of { rev : string list; len : int; flat : string Lazy.t }

type file = {
  mutable content : content;
  mutable mtime : int;
  mutable synced : content option;
      (** what a crash rolls back to; [None] = the file vanishes *)
}

type t = { files : (string, file) Hashtbl.t }

let create () = { files = Hashtbl.create 64 }

let normalize path =
  if String.length path = 0 || path.[0] <> '/' then
    invalid_arg (Printf.sprintf "Vfs: path %S must be absolute" path);
  (* collapse duplicate slashes, drop trailing slash *)
  let parts = String.split_on_char '/' path |> List.filter (fun s -> s <> "") in
  "/" ^ String.concat "/" parts

let exists t path = Hashtbl.mem t.files (normalize path)

let find_opt t path = Hashtbl.find_opt t.files (normalize path)

let write t ~path ?(mtime = 0) content =
  let path = normalize path in
  match Hashtbl.find_opt t.files path with
  | Some f ->
    f.content <- content;
    f.synced <- Some content;
    f.mtime <- mtime
  | None -> Hashtbl.replace t.files path { content; mtime; synced = Some content }

let write_string t ~path ?mtime s = write t ~path ?mtime (Data s)
let write_opaque t ~path ?mtime size = write t ~path ?mtime (Opaque size)

let content_bytes = function
  | Data s -> Some s
  | Opaque _ -> None
  | Deferred d -> Some (Lazy.force d.bytes)
  | Chunks c -> Some (Lazy.force c.flat)

(* Once the bytes exist, their length is the size: no second pass. *)
let content_size = function
  | Data s -> String.length s
  | Opaque n -> n
  | Deferred d when Lazy.is_val d.bytes -> String.length (Lazy.force d.bytes)
  | Deferred d -> Lazy.force d.size
  | Chunks c -> c.len

let materialize = function
  | (Data _ | Opaque _) as c -> c
  | Deferred d -> Data (Lazy.force d.bytes)
  | Chunks c -> Data (Lazy.force c.flat)

(* Chunks newest first, [len] bytes in all: copied into one string the
   first time anything reads them. No bytes at all are [Data ""], the
   empty file an append replaces rather than extends. *)
let chunks rev len =
  let flatten () =
    let b = Bytes.create len in
    ignore
      (List.fold_left
         (fun stop s ->
           let n = String.length s in
           Bytes.blit_string s 0 b (stop - n) n;
           stop - n)
         len rev);
    Bytes.unsafe_to_string b
  in
  if len = 0 then Data "" else Chunks { rev; len; flat = Lazy.from_fun flatten }

let appendable_bytes ~op path c =
  match content_bytes c with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Vfs.%s: %s is opaque" op path)

(* [old] followed by [c]. An empty file takes [c] as it is, so deferred
   content written after a truncating open stays deferred; any other
   append produces both sides' bytes and conses [c]'s onto [old]'s
   chunks, continuing from [old]'s flat bytes if something read them. *)
let concat ~op path old c =
  match old with
  | Data "" -> c
  | Chunks { rev; len; flat } ->
    let b = appendable_bytes ~op path c in
    let rev = if Lazy.is_val flat then [ Lazy.force flat ] else rev in
    chunks (b :: rev) (len + String.length b)
  | Data _ | Opaque _ | Deferred _ ->
    let a = appendable_bytes ~op path old in
    let b = appendable_bytes ~op path c in
    chunks [ b; a ] (String.length a + String.length b)

let append t ~path ?(mtime = 0) s =
  let path = normalize path in
  match Hashtbl.find_opt t.files path with
  | Some f ->
    f.content <- concat ~op:"append" path f.content (Data s);
    f.synced <- Some f.content;
    f.mtime <- mtime
  | None ->
    Hashtbl.replace t.files path
      { content = Data s; mtime; synced = Some (Data s) }

(* ------------------------------------------------------------------ *)
(* Buffered (crash-unsafe until fsync) writes.                         *)

let append_content_buffered t ~path ?(mtime = 0) c =
  let path = normalize path in
  match Hashtbl.find_opt t.files path with
  | Some f ->
    f.content <- concat ~op:"append_buffered" path f.content c;
    f.mtime <- mtime
  | None -> Hashtbl.replace t.files path { content = c; mtime; synced = None }

let append_buffered t ~path ?mtime s =
  append_content_buffered t ~path ?mtime (Data s)

let truncate_buffered t ~path ?(mtime = 0) () =
  let path = normalize path in
  match Hashtbl.find_opt t.files path with
  | Some f ->
    f.content <- Data "";
    f.mtime <- mtime
  | None ->
    Hashtbl.replace t.files path { content = Data ""; mtime; synced = None }

let fsync t path =
  match find_opt t path with
  | Some f -> f.synced <- Some f.content
  | None -> ()

(** Atomically rename [src] to [dst], replacing [dst]. The name change
    itself is modeled as durable (rename + directory fsync); the file's
    *contents* keep their own synced state, so renaming an un-fsynced file
    into place still loses its bytes at the next crash. *)
let rename t ~src ~dst =
  let src = normalize src and dst = normalize dst in
  match Hashtbl.find_opt t.files src with
  | None -> raise Not_found
  | Some f ->
    Hashtbl.remove t.files src;
    Hashtbl.replace t.files dst f

(* The length of append-only content ([Data] or [Chunks]); [None] for
   [Opaque] and [Deferred] content. *)
let appended_len = function
  | Data s -> Some (String.length s)
  | Chunks c -> Some c.len
  | Opaque _ | Deferred _ -> None

(** Bytes of [path]'s append-only [Data] or [Chunks] content not yet
    covered by an fsync barrier; other content counts 0. *)
let unsynced_bytes t path =
  match find_opt t path with
  | None -> 0
  | Some f -> (
    match (appended_len f.content, f.synced) with
    | None, _ -> 0
    | Some d, None -> d
    | Some d, Some s -> (
      match appended_len s with Some b -> max 0 (d - b) | None -> 0))

(** Simulated power failure: every file reverts to its last-synced state;
    files never synced vanish. [keep] maps a path to a number of bytes of
    its unsynced append-only tail that did reach the platter (a torn
    write); it only applies to [Data] or [Chunks] files whose content
    grew past the synced prefix. Whatever survives is durable
    afterwards. *)
let crash_file ~keep ~doomed path f =
  let kept =
    match List.assoc_opt path keep with Some n -> max 0 n | None -> 0
  in
  (* the first [durable] bytes plus [kept] more of the visible [d] *)
  let tear ~durable d =
    let visible = Option.get (content_bytes f.content) in
    f.content <- Data (String.sub visible 0 (durable + min kept (d - durable)));
    f.synced <- Some f.content
  in
  match (Option.map appended_len f.synced, appended_len f.content) with
  | Some (Some b), Some d when d > b && kept > 0 -> tear ~durable:b d
  | None, Some d when kept > 0 -> tear ~durable:0 d
  | _ -> (
    match f.synced with
    | Some c ->
      f.content <- c;
      f.synced <- Some c
    | None -> doomed := path :: !doomed)

let crash t ?(keep = []) () =
  let doomed = ref [] in
  Hashtbl.iter (crash_file ~keep ~doomed) t.files;
  List.iter (Hashtbl.remove t.files) !doomed

let content t path =
  match find_opt t path with
  | Some f -> f.content
  | None -> raise Not_found

let read t path =
  match content_bytes (content t path) with
  | Some s -> s
  | None ->
    invalid_arg (Printf.sprintf "Vfs.read: %s is opaque" (normalize path))

let size t path = content_size (content t path)

let remove t path = Hashtbl.remove t.files (normalize path)

(** All paths, sorted. *)
let paths t =
  Hashtbl.fold (fun p _ acc -> p :: acc) t.files [] |> List.sort String.compare

(** Paths under a directory prefix (e.g. "/var/minidb"). *)
let paths_under t prefix =
  let prefix = normalize prefix in
  let pl = String.length prefix in
  List.filter
    (fun p ->
      String.length p > pl
      && String.sub p 0 pl = prefix
      && (prefix = "/" || p.[pl] = '/'))
    (paths t)

let remove_under t prefix =
  List.iter (remove t) (paths_under t prefix)

(** Node-local power failure: like {!crash} but restricted to the files
    under [prefix] (one replica's data directory); every other file is
    untouched. [keep] has the same torn-tail meaning as in {!crash}. *)
let crash_under t ?(keep = []) prefix =
  let doomed = ref [] in
  List.iter
    (fun path ->
      match Hashtbl.find_opt t.files path with
      | Some f -> crash_file ~keep ~doomed path f
      | None -> ())
    (paths_under t prefix);
  List.iter (Hashtbl.remove t.files) !doomed

let total_bytes t =
  Hashtbl.fold (fun _ f acc -> acc + content_size f.content) t.files 0

(** Copy a single file between file systems (packaging primitive). *)
let copy_file ~src ~dst path =
  match find_opt src path with
  | Some f -> write dst ~path ~mtime:f.mtime f.content
  | None -> raise Not_found

(** Copy an entire subtree. *)
let copy_tree ~src ~dst prefix =
  List.iter (copy_file ~src ~dst) (paths_under src prefix)
