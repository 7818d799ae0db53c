(** The binary table-image format: the server's native data files, its
    checkpoints ([checkpoint.img]) and replica base backups.

    {v
    file        = magic:4 version:1 body crc:4
    data file   magic "LDVT", body = table
    checkpoint  magic "LDVC", body = last_seq clock ntables table*
    table       = name ncolumns (name type:1)* nindexes (name column ordered:1)*
                  next_rid nrows row*
    row         = rid version nvalues value*
    value       = 0 NULL | 1 int | 2 float:8 | 3 slot:1 string | 4 slot:1
                | 5 FALSE | 6 TRUE
    string      = length bytes
    v}

    Counts, lengths, rids, versions and sequence numbers are unsigned
    LEB128 varints, an INT is a zigzag varint, a FLOAT is its IEEE-754
    bits and the CRC-32 of every byte before it closes the file, both
    little-endian.

    Tag 3 writes a string in full and parks it in [slot] of its column's
    256 recent strings; tag 4 refers back to the string parked there.
    The encoder picks the slot from a cheap hash of the string and refers
    back only when the slot holds the very same (physically equal)
    string. So a column drawn from a small pool of shared strings, like
    dbgen's flags and modes, decodes with the same sharing, and each row
    still gets its own [Value.Str].

    Decoding checks the magic, the version and the CRC before anything
    else, then bounds-checks every read. Any failure raises
    [Errors.Db_error (Corrupt_image _)]. *)

open Minidb

(** A table's rows: its live versions as captured from the table, which
    is what the encoder reads, or the rows a decode produced, which is
    what a restore takes over. *)
type rows =
  | Live of Table.tuple_version array
  | Decoded of (int * int * Value.t array) array  (** rid, version, values *)

type t = {
  name : string;
  columns : (string * Value.ty) list;
  indexes : (string * string * bool) list;  (** name, column, ordered? *)
  next_rid : int;
  rows : rows;
}

let format_version = 1
let table_magic = "LDVT"
let checkpoint_magic = "LDVC"

(** A snapshot of the table's live state. It holds the live versions
    themselves, not copies: the encoder reads only a version's tid and
    values, and a stored row is never changed in place, so later writes
    to the table leave the image as it was. *)
let of_table (table : Table.t) : t =
  { name = Table.name table;
    columns =
      Array.to_list
        (Array.map
           (fun (c : Schema.column) -> (c.Schema.name, c.Schema.ty))
           (Table.schema table));
    indexes = Table.index_specs table;
    next_rid = table.Table.next_rid;
    rows = Live (Table.scan_array table) }

let row_count img =
  match img.rows with Live a -> Array.length a | Decoded a -> Array.length a

(* [f rid version values] on every row, in order *)
let iter_rows img f =
  match img.rows with
  | Live a ->
    Array.iter
      (fun (tv : Table.tuple_version) ->
        f tv.Table.tid.Tid.rid tv.Table.tid.Tid.version tv.Table.values)
      a
  | Decoded a -> Array.iter (fun (rid, version, values) -> f rid version values) a

(** The rows as (rid, version, values), in order. *)
let row_list img =
  match img.rows with
  | Live a ->
    Array.fold_right
      (fun (tv : Table.tuple_version) acc ->
        (tv.Table.tid.Tid.rid, tv.Table.tid.Tid.version, tv.Table.values) :: acc)
      a []
  | Decoded a -> Array.to_list a

(* A slot no string has taken: never physically equal to a row's. *)
let unset = String.make 1 '\000'

(* Each column parks its recent strings in its own 256-slot array. *)
let recent_slots ncols = Array.init ncols (fun _ -> Array.make 256 unset)

let[@inline] slot_of s =
  let n = String.length s in
  if n = 0 then 0
  else
    ((n * 31)
    + (Char.code (String.unsafe_get s 0) * 7)
    + (Char.code (String.unsafe_get s (n - 1)) * 3)
    + Char.code (String.unsafe_get s (n / 2)))
    land 0xff

(* Whether [s], hashed to [slot], refers back to it; a string that does
   not takes the slot. Both encoding passes make the same decisions in
   the same order. *)
let[@inline] refers_back (slots : string array) slot s =
  Array.unsafe_get slots slot == s
  || begin
    Array.unsafe_set slots slot s;
    false
  end

let ty_code = function
  | Value.Tint -> 0
  | Value.Tfloat -> 1
  | Value.Tstr -> 2
  | Value.Tbool -> 3

let[@inline] zigzag i = (i lsl 1) lxor (i asr 62)

(* ------------------------------------------------------------------ *)
(* Encoding: a sizing pass computes the exact length, then one buffer of
   that length is filled.                                              *)

(* [v] read as an unsigned 63-bit number *)
let rec uvarint_size v =
  if v land lnot 0x7f = 0 then 1 else 1 + uvarint_size (v lsr 7)

let string_size s = uvarint_size (String.length s) + String.length s

let rows_size (img : t) =
  let slots = recent_slots (List.length img.columns) in
  let size = ref 0 in
  iter_rows img (fun rid version values ->
      size :=
        !size + uvarint_size rid + uvarint_size version
        + uvarint_size (Array.length values);
      for col = 0 to Array.length values - 1 do
        size :=
          !size
          +
          match values.(col) with
          | Value.Null | Value.Bool _ -> 1
          | Value.Int i -> 1 + uvarint_size (zigzag i)
          | Value.Float _ -> 9
          | Value.Str s ->
            if refers_back slots.(col) (slot_of s) s then 2
            else 2 + string_size s
      done);
  !size

let table_size (img : t) =
  string_size img.name
  + uvarint_size (List.length img.columns)
  + List.fold_left (fun acc (name, _) -> acc + string_size name + 1) 0 img.columns
  + uvarint_size (List.length img.indexes)
  + List.fold_left
      (fun acc (name, column, _) -> acc + string_size name + string_size column + 1)
      0 img.indexes
  + uvarint_size img.next_rid
  + uvarint_size (row_count img)
  + rows_size img

type writer = { buf : Bytes.t; mutable pos : int }

let[@inline] put_byte w b =
  Bytes.set w.buf w.pos (Char.unsafe_chr b);
  w.pos <- w.pos + 1

let rec put_uvarint w v =
  if v land lnot 0x7f = 0 then put_byte w v
  else begin
    put_byte w (v land 0x7f lor 0x80);
    put_uvarint w (v lsr 7)
  end

let put_string w s =
  let n = String.length s in
  put_uvarint w n;
  Bytes.blit_string s 0 w.buf w.pos n;
  w.pos <- w.pos + n

let put_value w slots = function
  | Value.Null -> put_byte w 0
  | Value.Int i ->
    put_byte w 1;
    put_uvarint w (zigzag i)
  | Value.Float f ->
    put_byte w 2;
    Bytes.set_int64_le w.buf w.pos (Int64.bits_of_float f);
    w.pos <- w.pos + 8
  | Value.Str s ->
    let slot = slot_of s in
    if refers_back slots slot s then begin
      put_byte w 4;
      put_byte w slot
    end
    else begin
      put_byte w 3;
      put_byte w slot;
      put_string w s
    end
  | Value.Bool false -> put_byte w 5
  | Value.Bool true -> put_byte w 6

let put_table w (img : t) =
  put_string w img.name;
  put_uvarint w (List.length img.columns);
  List.iter
    (fun (name, ty) ->
      put_string w name;
      put_byte w (ty_code ty))
    img.columns;
  put_uvarint w (List.length img.indexes);
  List.iter
    (fun (name, column, ordered) ->
      put_string w name;
      put_string w column;
      put_byte w (Bool.to_int ordered))
    img.indexes;
  put_uvarint w img.next_rid;
  put_uvarint w (row_count img);
  let slots = recent_slots (List.length img.columns) in
  iter_rows img (fun rid version values ->
      put_uvarint w rid;
      put_uvarint w version;
      put_uvarint w (Array.length values);
      for col = 0 to Array.length values - 1 do
        put_value w slots.(col) values.(col)
      done)

(* [body_size] is the exact length [put_body] writes. *)
let framed ~magic ~body_size (put_body : writer -> unit) : string =
  let n = String.length magic + 1 + body_size in
  let w = { buf = Bytes.create (n + 4); pos = 0 } in
  Bytes.blit_string magic 0 w.buf 0 (String.length magic);
  w.pos <- String.length magic;
  put_byte w format_version;
  put_body w;
  assert (w.pos = n);
  Bytes.set_int32_le w.buf n (Ldv_faults.Crc32.digest_bytes w.buf ~pos:0 ~len:n);
  Bytes.unsafe_to_string w.buf

let encode (img : t) : string =
  framed ~magic:table_magic ~body_size:(table_size img) (fun w -> put_table w img)

(* A body's length plus its frame's: magic, version byte, CRC. *)
let framed_size ~magic body_size = String.length magic + 1 + body_size + 4

(** The length of [encode img], computed without encoding. *)
let encoded_size (img : t) = framed_size ~magic:table_magic (table_size img)

let checkpoint_body_size ~last_seq ~clock (tables : t list) =
  uvarint_size last_seq + uvarint_size clock
  + uvarint_size (List.length tables)
  + List.fold_left (fun acc img -> acc + table_size img) 0 tables

let encode_checkpoint ~last_seq ~clock (tables : t list) : string =
  let body_size = checkpoint_body_size ~last_seq ~clock tables in
  framed ~magic:checkpoint_magic ~body_size (fun w ->
      put_uvarint w last_seq;
      put_uvarint w clock;
      put_uvarint w (List.length tables);
      List.iter (put_table w) tables)

(** The length of [encode_checkpoint ~last_seq ~clock tables], computed
    without encoding. *)
let checkpoint_encoded_size ~last_seq ~clock (tables : t list) =
  framed_size ~magic:checkpoint_magic
    (checkpoint_body_size ~last_seq ~clock tables)

(* ------------------------------------------------------------------ *)
(* Decoding.                                                           *)

type reader = {
  s : string;
  mutable at : int;
  limit : int;  (** the CRC's offset *)
}

let corrupt fmt =
  Printf.ksprintf (fun m -> Errors.fail (Errors.Corrupt_image m)) fmt

let truncated r n =
  corrupt "truncated: %d byte(s) needed at byte %d, %d left" n r.at
    (r.limit - r.at)

let[@inline] need r n = if n > r.limit - r.at then truncated r n

let[@inline] get_byte r =
  if r.at >= r.limit then truncated r 1;
  let b = Char.code (String.unsafe_get r.s r.at) in
  r.at <- r.at + 1;
  b

let rec uvarint_from r acc shift =
  let b = get_byte r in
  if shift = 56 && b > 0x7f then corrupt "varint overflow at byte %d" (r.at - 1);
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else uvarint_from r acc (shift + 7)

let[@inline] get_uvarint r =
  let b = get_byte r in
  if b < 0x80 then b else uvarint_from r (b land 0x7f) 7

(* A count of items that each take at least [min_bytes]: one that cannot
   fit in the bytes left is corrupt, so no allocation trusts it. *)
let get_count r ~min_bytes =
  let at = r.at in
  let n = get_uvarint r in
  if n < 0 || n > (r.limit - r.at) / min_bytes then
    corrupt "count %d at byte %d exceeds the %d byte(s) left" n at
      (r.limit - r.at);
  n

let get_string r =
  let n = get_count r ~min_bytes:1 in
  let s = String.sub r.s r.at n in
  r.at <- r.at + n;
  s

(* [n] items read in order *)
let get_list r n (f : reader -> 'a) : 'a list =
  let rec go acc k = if k = 0 then List.rev acc else go (f r :: acc) (k - 1) in
  go [] n

let get_ty r =
  match get_byte r with
  | 0 -> Value.Tint
  | 1 -> Value.Tfloat
  | 2 -> Value.Tstr
  | 3 -> Value.Tbool
  | code -> corrupt "unknown column type %d at byte %d" code (r.at - 1)

let get_value r (slots : string array) =
  match get_byte r with
  | 0 -> Value.Null
  | 1 ->
    let z = get_uvarint r in
    Value.Int ((z lsr 1) lxor -(z land 1))
  | 2 ->
    need r 8;
    let f = Int64.float_of_bits (String.get_int64_le r.s r.at) in
    r.at <- r.at + 8;
    Value.Float f
  | 3 ->
    let slot = get_byte r in
    let s = get_string r in
    Array.unsafe_set slots slot s;
    Value.Str s
  | 4 ->
    let s = Array.unsafe_get slots (get_byte r) in
    if s == unset then
      corrupt "back-reference to an empty slot at byte %d" (r.at - 1);
    Value.Str s
  | 5 -> Value.Bool false
  | 6 -> Value.Bool true
  | tag -> corrupt "unknown value tag %d at byte %d" tag (r.at - 1)

let get_table r : t =
  let name = get_string r in
  let columns =
    get_list r (get_count r ~min_bytes:2) (fun r ->
        let column = get_string r in
        (column, get_ty r))
  in
  let indexes =
    get_list r (get_count r ~min_bytes:3) (fun r ->
        let index = get_string r in
        let column = get_string r in
        (index, column, get_byte r <> 0))
  in
  let next_rid = get_uvarint r in
  let ncols = List.length columns in
  let nrows = get_count r ~min_bytes:(3 + ncols) in
  let slots = recent_slots ncols in
  let rows = Array.make nrows (0, 0, [||]) in
  for i = 0 to nrows - 1 do
    let rid = get_uvarint r in
    let version = get_uvarint r in
    let at = r.at in
    let n = get_uvarint r in
    if n <> ncols then
      corrupt "row at byte %d has %d value(s), table %s has %d column(s)" at n
        name ncols;
    let values = Array.make ncols Value.Null in
    for col = 0 to ncols - 1 do
      values.(col) <- get_value r slots.(col)
    done;
    rows.(i) <- (rid, version, values)
  done;
  { name; columns; indexes; next_rid; rows = Decoded rows }

(* Check the frame and return a reader over the body. *)
let open_frame ~magic (s : string) : reader =
  let n = String.length s in
  if n < String.length magic + 5 then
    corrupt "%d byte(s) is shorter than the frame" n;
  if not (String.equal (String.sub s 0 (String.length magic)) magic) then
    corrupt "bad magic %S, expected %S"
      (String.sub s 0 (String.length magic))
      magic;
  let v = Char.code s.[String.length magic] in
  if v <> format_version then
    corrupt "unsupported version %d, expected %d" v format_version;
  let expected = String.get_int32_le s (n - 4) in
  let actual =
    Ldv_faults.Crc32.digest_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(n - 4)
  in
  if actual <> expected then
    corrupt "checksum mismatch: crc %08lx, expected %08lx" actual expected;
  { s; at = String.length magic + 1; limit = n - 4 }

let close_frame r =
  if r.at <> r.limit then
    corrupt "%d unread byte(s) at byte %d" (r.limit - r.at) r.at

let decode (s : string) : t =
  let r = open_frame ~magic:table_magic s in
  let img = get_table r in
  close_frame r;
  img

(** The checkpoint's covered WAL sequence number, its clock and its
    tables. *)
let decode_checkpoint (s : string) : int * int * t list =
  let r = open_frame ~magic:checkpoint_magic s in
  let last_seq = get_uvarint r in
  let clock = get_uvarint r in
  let tables = get_list r (get_count r ~min_bytes:4) get_table in
  close_frame r;
  (last_seq, clock, tables)

(** The WAL sequence number a checkpoint covers, after checking its magic,
    version and CRC, without decoding its tables. *)
let checkpoint_seq (s : string) : int =
  get_uvarint (open_frame ~magic:checkpoint_magic s)
