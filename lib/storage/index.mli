(** Ordered multimap from composite value keys to row ids — the backing
    structure for secondary indexes and uniqueness enforcement. *)

type t

val create : unique:bool -> t

val unique : t -> bool

val add : t -> Value.t list -> int -> [ `Ok | `Dup of int ]
(** Insert a (key, rowid) pair. On a unique index, a key that is already
    present (and contains no NULL component) yields [`Dup existing_rowid]
    and the index is unchanged. NULL components never collide, matching
    SQL unique-constraint semantics. *)

val remove : t -> Value.t list -> int -> unit

val find : t -> Value.t list -> int list
(** Row ids with exactly this key. *)

val find_range :
  t -> lo:Value.t list option -> hi:Value.t list option -> int list
(** Row ids whose key is within [lo..hi] (inclusive, lexicographic). *)

val length : t -> int
(** Number of distinct keys. *)

val defer : t -> ((Value.t list -> int -> unit) -> unit) -> unit
(** [defer t fill] replaces the contents of [t] by a rebuild that runs
    on the next {!add}, {!remove}, {!find}, {!find_range} or {!length}:
    the index is cleared, then [fill add] must call [add key rowid] for
    every entry, as {!add} would receive them (a unique-key duplicate is
    dropped). [fill] must read frozen data, since it runs later, once
    per copy. Readers see exactly what an eager rebuild would have
    built. O(1). *)

val copy : t -> t
(** Independent copy: mutations of either side never affect the other.
    O(1) — the underlying map is persistent, and a pending {!defer}
    rebuild is shared rather than run. *)
