(** An in-memory virtual file system.

    Paths are absolute, [/]-separated strings; directories are implicit.
    File contents are real bytes ([Data]), size-only placeholders
    ([Opaque]) modeling large binary artifacts whose bytes never matter
    but whose sizes drive the package-size experiments, bytes produced
    on demand ([Deferred]), or appended bytes ([Chunks]).

    An append costs the bytes appended: it never copies what the file
    already holds, so a log that is never truncated costs linear, not
    quadratic, copying.

    Durability: each file tracks both its visible [content] (page cache)
    and its last-synced state (platter). The plain write API is
    implicitly durable; the [_buffered] API plus {!fsync} and {!crash}
    model buffered I/O, explicit sync barriers, and power failures. *)

(** [Deferred]: a file whose size and bytes are each produced on first
    use ({!read}, {!size}, {!content_size}, {!content_bytes}, an append)
    and then kept.
    [size] must equal the length of [bytes]; once the bytes exist, the
    size is taken from them. Both must be pure — no syscalls, no effects
    — so a scheduler can never suspend one half-forced.

    [Chunks]: what appends to a non-empty file build — the appended
    strings newest first ([rev]), their total length ([len]) and their
    concatenation ([flat]), produced the first time anything reads the
    bytes. Only the appends build it; other code reads any content
    through {!content_bytes}, {!content_size} or {!materialize}. *)
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

type t

val create : unit -> t

(** Collapses duplicate slashes and trailing slashes.
    @raise Invalid_argument on relative paths. *)
val normalize : string -> string

val exists : t -> string -> bool
val find_opt : t -> string -> file option

val write : t -> path:string -> ?mtime:int -> content -> unit
val write_string : t -> path:string -> ?mtime:int -> string -> unit
val write_opaque : t -> path:string -> ?mtime:int -> int -> unit

(** Appends to a file, creating it if missing; implicitly durable.
    Costs the appended bytes; deferred content is produced first.
    @raise Invalid_argument on opaque files. *)
val append : t -> path:string -> ?mtime:int -> string -> unit

(** {2 Buffered I/O and crash simulation} *)

(** Append without a durability guarantee: the new bytes are visible to
    readers but are lost by {!crash} until {!fsync} runs.
    @raise Invalid_argument on opaque files. *)
val append_buffered : t -> path:string -> ?mtime:int -> string -> unit

(** {!append_buffered} of any content. An empty file takes the content as
    it is, so deferred content written after a truncating open stays
    deferred; appending to a non-empty file produces both sides' bytes.
    @raise Invalid_argument when either side is opaque. *)
val append_content_buffered :
  t -> path:string -> ?mtime:int -> content -> unit

(** Truncate the visible content to empty without touching the synced
    state: a crash before {!fsync} resurrects the previous durable
    content. Creates the file (un-synced) if missing. *)
val truncate_buffered : t -> path:string -> ?mtime:int -> unit -> unit

(** Make [path]'s current content durable. No-op on missing files. *)
val fsync : t -> string -> unit

(** Atomically rename [src] over [dst]. The name change is durable; the
    contents keep their own synced state.
    @raise Not_found when [src] is missing. *)
val rename : t -> src:string -> dst:string -> unit

(** Bytes of append-only content ([Data] or [Chunks]) not yet covered
    by an fsync barrier; [Opaque] and [Deferred] content count 0. *)
val unsynced_bytes : t -> string -> int

(** Simulated power failure: revert every file to its last-synced state;
    never-synced files vanish. [keep] grants a path a torn prefix of its
    unsynced append-only tail (bytes that reached the platter before the
    failure). Surviving state is durable afterwards. *)
val crash : t -> ?keep:(string * int) list -> unit -> unit

(** Node-local power failure: {!crash} semantics restricted to the files
    under [prefix] (one replica's data directory); everything else keeps
    its buffered state. *)
val crash_under : t -> ?keep:(string * int) list -> string -> unit

(** @raise Not_found on missing files.
    @raise Invalid_argument on opaque files. *)
val read : t -> string -> string

(** @raise Not_found on missing files. *)
val content : t -> string -> content

(** @raise Not_found on missing files. *)
val size : t -> string -> int

val content_size : content -> int

(** The bytes of [Data], [Deferred] or [Chunks] content (produced if
    need be); [None] for [Opaque]. *)
val content_bytes : content -> string option

(** The same content as plain [Data] bytes, produced if need be;
    [Opaque] content as it is. Materialized values compare
    structurally. *)
val materialize : content -> content

val remove : t -> string -> unit

(** All paths, sorted. *)
val paths : t -> string list

(** Paths strictly under a directory prefix. *)
val paths_under : t -> string -> string list

val remove_under : t -> string -> unit
val total_bytes : t -> int

(** @raise Not_found when [path] is missing in [src]. *)
val copy_file : src:t -> dst:t -> string -> unit

val copy_tree : src:t -> dst:t -> string -> unit
