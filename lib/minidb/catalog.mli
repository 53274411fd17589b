(** Session-wide database state: schema objects, variables, transaction
    snapshots, inter-statement queues.

    One {!t} is the whole "database server" a test case runs against; the
    fuzzing harness creates a fresh one per execution (the analogue of
    AFL++'s forkserver resetting the target). *)

open Sqlcore

type index_spec = {
  x_name : string;
  x_table : string;
  x_cols : string list;
  x_unique : bool;
  x_data : Storage.Index.t;
}

type trigger = {
  tr_name : string;
  tr_table : string;
  tr_timing : Ast.trig_timing;
  tr_event : Ast.trig_event;
  tr_body : Ast.stmt list;
}

type rule = {
  r_name : string;
  r_table : string;
  r_event : Ast.trig_event;
  r_instead : bool;
  r_action : Ast.rule_action;
}

type view = {
  v_name : string;
  v_materialized : bool;
  v_query : Ast.query;
  mutable v_cache : Storage.Value.t array list option;
      (** materialised rows; [None] until refreshed *)
}

type sequence = {
  mutable sq_value : int;
  mutable sq_step : int;
  sq_start : int;
}

type user = {
  mutable us_password : string;
  mutable us_privs : (string * Ast.priv list) list;  (** per table *)
}

type t = {
  tables : (string, Storage.Table.t) Hashtbl.t;
  views : (string, view) Hashtbl.t;
  indexes : (string, index_spec) Hashtbl.t;
  triggers : (string, trigger) Hashtbl.t;
  rules : (string, rule) Hashtbl.t;
  sequences : (string, sequence) Hashtbl.t;
  schemas : (string, unit) Hashtbl.t;
  databases : (string, unit) Hashtbl.t;
  users : (string, user) Hashtbl.t;
  session_vars : (string, Storage.Value.t) Hashtbl.t;
  global_vars : (string, Storage.Value.t) Hashtbl.t;
  prepared : (string, Ast.stmt) Hashtbl.t;
  comments : (string, string) Hashtbl.t;
  locks : (string, Ast.lock_mode) Hashtbl.t;
  handlers : (string, int) Hashtbl.t;  (** open HANDLER cursors: position *)
  mutable listening : string list;
  mutable notify_queue : (string * string option) list;
  mutable current_user : string;
  mutable current_db : string;
  mutable in_txn : bool;
  mutable iso : Ast.iso_level;
  mutable txn_snapshot : snapshot option;
  mutable savepoints : (string * snapshot) list;
  mutable parked : (int * session_view) list;
      (** connection state of sessions not currently attached, keyed by
          session id and sorted by it (see {!park_session}) *)
}

and snapshot

and session_view
(** Connection-scoped state (transaction status, snapshots, savepoints,
    session variables, prepared statements, open handlers, LISTEN/NOTIFY
    queues, current user/database) lifted out of the catalog while
    another session is attached to the shared store. The server layer's
    session pool context-switches these in and out; the shared store —
    tables, schema objects, global variables — never moves. *)

val create : unit -> t
(** Fresh catalog with the default database and root user. *)

val find_table : t -> string -> Storage.Table.t
(** @raise Errors.Sql_error with [No_such_table] when absent. *)

val table_exists : t -> string -> bool

val view_exists : t -> string -> bool

val name_in_use : t -> string -> bool
(** Tables and views share a namespace. *)

val indexes_on : t -> string -> index_spec list

val triggers_on : t -> string -> Ast.trig_event -> trigger list

val rules_on : t -> string -> Ast.trig_event -> rule list

val take_snapshot : t -> snapshot
(** Snapshot of table contents and sequence positions. O(#tables): each
    table copy shares its persistent row map with the live table. *)

val restore_snapshot : t -> snapshot -> unit
(** Restore data to the snapshot; schema objects created since the
    snapshot that hold data are cleared, and index data is rebuilt. *)

val sync_indexes : ?table:string -> t -> unit
(** Re-derive every index on [table] (every index when omitted) from its
    table's current rows, deferred to each index's next use
    ({!Storage.Index.defer}). O(#indexes). *)

val deep_copy : t -> t
(** Independent copy of the whole catalog — every table, index, view
    cache, sequence, variable table, transaction snapshot and
    savepoint. Mutating either side never affects the other, and hash
    table bucket layouts are preserved so iteration orders match the
    source. O(#objects), not O(#rows): tables and indexes are backed by
    persistent structures, so the copy shares all row data with the
    source and later mutations only rebind per-copy roots. Backs the
    prefix-snapshot execution cache. *)

val object_count : t -> int
(** Total number of schema objects, for coverage state keys. *)

val fresh_session_view : unit -> session_view
(** The connection state a just-connected session starts with. *)

val detach_session : t -> session_view
(** Capture the currently attached session's connection state and reset
    the catalog's session-scoped fields to fresh-connection defaults.
    The shared store is untouched. *)

val attach_session : t -> session_view -> unit
(** Install a session's connection state into the catalog. Hash-table
    bucket layouts after an attach are a pure function of the view's
    contents, so repeated park/unpark cycles with identical statement
    histories stay deterministic. *)

val park_session : t -> int -> unit
(** [park_session t id] detaches the current session and stores its view
    under [id] in {!t.parked} (replacing any previous view for [id]).
    The parked list stays sorted by id, so catalog copies and byte
    accounting are order-independent of the switch history. *)

val unpark_session : t -> int -> unit
(** Attach the view parked under [id], removing it from the parked list;
    a never-parked id attaches a {!fresh_session_view} (a new client
    connecting). *)

val parked_sessions : t -> int list
(** Ids with parked state, ascending. *)

val session_view_words : session_view -> int
(** Heap cost of one parked session's connection state, in words —
    counted per parked session by {!approx_bytes} so the prefix cache's
    [cache.bytes] stays honest with N sessions live. *)

val approx_bytes : t -> int
(** Incremental heap cost of a {!deep_copy}: per-object record copies
    plus hash-table buckets, with all row data shared via the
    persistent storage layer (so row counts do not appear). O(#objects)
    and roughly monotone in real incremental size. Backs the
    prefix-snapshot cache's memory accounting, whose byte budget now
    stretches ~100x further than under pre-refactor deep copies. *)
