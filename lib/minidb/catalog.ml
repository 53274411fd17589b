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
}

type sequence = {
  mutable sq_value : int;
  mutable sq_step : int;
  sq_start : int;
}

type user = {
  mutable us_password : string;
  mutable us_privs : (string * Ast.priv list) list;
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
  handlers : (string, int) Hashtbl.t;
  mutable listening : string list;
  mutable notify_queue : (string * string option) list;
  mutable current_user : string;
  mutable current_db : string;
  mutable in_txn : bool;
  mutable iso : Ast.iso_level;
  mutable txn_snapshot : snapshot option;
  mutable savepoints : (string * snapshot) list;
  mutable parked : (int * session_view) list;
}

and snapshot = {
  sn_tables : (string * Storage.Table.t) list;
  sn_sequences : (string * int) list;
}

(* Connection-scoped state lifted out of the catalog while another
   session is attached. Everything here is what a real server keeps in
   its per-connection control block; the shared store (tables, schema
   objects, global variables) stays in [t] and is never swapped. *)
and session_view = {
  mutable sv_in_txn : bool;
  mutable sv_iso : Ast.iso_level;
  mutable sv_txn_snapshot : snapshot option;
  mutable sv_savepoints : (string * snapshot) list;
  sv_session_vars : (string, Storage.Value.t) Hashtbl.t;
  sv_prepared : (string, Ast.stmt) Hashtbl.t;
  sv_handlers : (string, int) Hashtbl.t;
  mutable sv_listening : string list;
  mutable sv_notify_queue : (string * string option) list;
  mutable sv_current_user : string;
  mutable sv_current_db : string;
}

let create () =
  let databases = Hashtbl.create 4 in
  Hashtbl.replace databases "main" ();
  let users = Hashtbl.create 4 in
  Hashtbl.replace users "root" { us_password = ""; us_privs = [] };
  { tables = Hashtbl.create 16;
    views = Hashtbl.create 8;
    indexes = Hashtbl.create 8;
    triggers = Hashtbl.create 8;
    rules = Hashtbl.create 8;
    sequences = Hashtbl.create 8;
    schemas = Hashtbl.create 4;
    databases;
    users;
    session_vars = Hashtbl.create 8;
    global_vars = Hashtbl.create 8;
    prepared = Hashtbl.create 8;
    comments = Hashtbl.create 8;
    locks = Hashtbl.create 4;
    handlers = Hashtbl.create 4;
    listening = [];
    notify_queue = [];
    current_user = "root";
    current_db = "main";
    in_txn = false;
    iso = Ast.Read_committed;
    txn_snapshot = None;
    savepoints = [];
    parked = [] }

let find_table t name =
  match Hashtbl.find_opt t.tables name with
  | Some table -> table
  | None -> Errors.fail (Errors.No_such_table name)

let table_exists t name = Hashtbl.mem t.tables name

let view_exists t name = Hashtbl.mem t.views name

let name_in_use t name = table_exists t name || view_exists t name

let indexes_on t table =
  Hashtbl.fold
    (fun _ spec acc -> if spec.x_table = table then spec :: acc else acc)
    t.indexes []

let triggers_on t table event =
  Hashtbl.fold
    (fun _ tr acc ->
       if tr.tr_table = table && tr.tr_event = event then tr :: acc else acc)
    t.triggers []

let rules_on t table event =
  Hashtbl.fold
    (fun _ r acc ->
       if r.r_table = table && r.r_event = event then r :: acc else acc)
    t.rules []

(* Snapshots are copy-on-write: table copies share their persistent
   row maps, making every snapshot O(#objects). *)
let take_snapshot t =
  { sn_tables =
      Hashtbl.fold
        (fun name table acc -> (name, Storage.Table.copy table) :: acc)
        t.tables [];
    sn_sequences =
      Hashtbl.fold
        (fun name sq acc -> (name, sq.sq_value) :: acc)
        t.sequences [] }

(* Re-derive every index on [table] (on every table when omitted) from
   its table's current rows. The rebuild is deferred to the index's next
   use: the table copy it reads is O(1) and frozen, so a statement that
   changes a large indexed table costs nothing here, and a reader still
   sees exactly what an eager rebuild would have built. *)
let sync_indexes ?table t =
  Hashtbl.iter
    (fun _ spec ->
       if Option.fold ~none:true ~some:(String.equal spec.x_table) table
       then
         Storage.Index.defer spec.x_data
           (match Hashtbl.find_opt t.tables spec.x_table with
            | None -> ignore
            | Some tbl ->
              let positions =
                List.filter_map (Storage.Table.col_index tbl) spec.x_cols
              in
              if List.length positions <> List.length spec.x_cols then ignore
              else
                let rows = Storage.Table.copy tbl in
                fun add ->
                  Storage.Table.iter
                    (fun rowid row ->
                       add (List.map (fun p -> row.(p)) positions) rowid)
                    rows))
    t.indexes

let restore_snapshot t snapshot =
  (* Tables present at snapshot time get their contents back; tables
     created afterwards are emptied (DDL itself survives, like MySQL's
     non-transactional DDL). *)
  Hashtbl.iter
    (fun name table ->
       match List.assoc_opt name snapshot.sn_tables with
       | Some saved -> Hashtbl.replace t.tables name (Storage.Table.copy saved)
       | None -> ignore (Storage.Table.truncate table))
    (Hashtbl.copy t.tables);
  List.iter
    (fun (name, v) ->
       match Hashtbl.find_opt t.sequences name with
       | Some sq -> sq.sq_value <- v
       | None -> ())
    snapshot.sn_sequences;
  sync_indexes t

let copy_snapshot sn =
  { sn_tables =
      List.map (fun (n, tbl) -> (n, Storage.Table.copy tbl)) sn.sn_tables;
    sn_sequences = sn.sn_sequences }

(* ---- per-session connection state (multi-session server layer) ---- *)

let fresh_session_view () =
  { sv_in_txn = false;
    sv_iso = Ast.Read_committed;
    sv_txn_snapshot = None;
    sv_savepoints = [];
    sv_session_vars = Hashtbl.create 8;
    sv_prepared = Hashtbl.create 8;
    sv_handlers = Hashtbl.create 4;
    sv_listening = [];
    sv_notify_queue = [];
    sv_current_user = "root";
    sv_current_db = "main" }

(* [transfer dst src] rebinds [dst]'s contents to [src]'s. Layout after
   a reset+replace sequence is a pure function of insertion order, which
   is itself the (deterministic) iteration order of [src] — so repeated
   park/unpark cycles with identical statement histories keep identical
   bucket layouts, preserving the engine-wide determinism contract. *)
let transfer dst src =
  Hashtbl.reset dst;
  Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src

let detach_session t =
  let view =
    { sv_in_txn = t.in_txn;
      sv_iso = t.iso;
      sv_txn_snapshot = t.txn_snapshot;
      sv_savepoints = t.savepoints;
      sv_session_vars = Hashtbl.copy t.session_vars;
      sv_prepared = Hashtbl.copy t.prepared;
      sv_handlers = Hashtbl.copy t.handlers;
      sv_listening = t.listening;
      sv_notify_queue = t.notify_queue;
      sv_current_user = t.current_user;
      sv_current_db = t.current_db }
  in
  (* Reset the catalog to fresh-connection defaults so an attach always
     starts from the same base state regardless of who ran last. *)
  t.in_txn <- false;
  t.iso <- Ast.Read_committed;
  t.txn_snapshot <- None;
  t.savepoints <- [];
  Hashtbl.reset t.session_vars;
  Hashtbl.reset t.prepared;
  Hashtbl.reset t.handlers;
  t.listening <- [];
  t.notify_queue <- [];
  t.current_user <- "root";
  t.current_db <- "main";
  view

let attach_session t view =
  t.in_txn <- view.sv_in_txn;
  t.iso <- view.sv_iso;
  t.txn_snapshot <- view.sv_txn_snapshot;
  t.savepoints <- view.sv_savepoints;
  transfer t.session_vars view.sv_session_vars;
  transfer t.prepared view.sv_prepared;
  transfer t.handlers view.sv_handlers;
  t.listening <- view.sv_listening;
  t.notify_queue <- view.sv_notify_queue;
  t.current_user <- view.sv_current_user;
  t.current_db <- view.sv_current_db

let park_session t id =
  let view = detach_session t in
  t.parked <-
    List.merge
      (fun (a, _) (b, _) -> compare a b)
      [ (id, view) ]
      (List.remove_assoc id t.parked)

let unpark_session t id =
  let view =
    match List.assoc_opt id t.parked with
    | Some v -> v
    | None -> fresh_session_view ()
  in
  t.parked <- List.remove_assoc id t.parked;
  attach_session t view

let parked_sessions t = List.map fst t.parked

let copy_session_view sv =
  { sv_in_txn = sv.sv_in_txn;
    sv_iso = sv.sv_iso;
    sv_txn_snapshot = Option.map copy_snapshot sv.sv_txn_snapshot;
    sv_savepoints =
      List.map (fun (n, sn) -> (n, copy_snapshot sn)) sv.sv_savepoints;
    sv_session_vars = Hashtbl.copy sv.sv_session_vars;
    sv_prepared = Hashtbl.copy sv.sv_prepared;
    sv_handlers = Hashtbl.copy sv.sv_handlers;
    sv_listening = sv.sv_listening;
    sv_notify_queue = sv.sv_notify_queue;
    sv_current_user = sv.sv_current_user;
    sv_current_db = sv.sv_current_db }

(* [Hashtbl.copy] then rewriting every binding in place keeps the
   bucket layout — and therefore the fold/iter order every consumer of
   [indexes_on]/[triggers_on]/... observes — identical to the source
   table's. That is load-bearing for the prefix-snapshot cache: replays
   from a restored catalog must follow the same trigger/index order a
   cold replay would. *)
let copy_bindings copy_v h =
  let h' = Hashtbl.copy h in
  Hashtbl.filter_map_inplace (fun _ v -> Some (copy_v v)) h';
  h'

let deep_copy t =
  { tables = copy_bindings Storage.Table.copy t.tables;
    views =
      (* Cached rows are never mutated in place — a REFRESH rebinds the
         copy's own [v_cache] field — so the row lists can be shared. *)
      copy_bindings (fun v -> { v with v_cache = v.v_cache }) t.views;
    indexes =
      copy_bindings
        (fun s -> { s with x_data = Storage.Index.copy s.x_data })
        t.indexes;
    (* Immutable payloads: a plain table copy is enough. *)
    triggers = Hashtbl.copy t.triggers;
    rules = Hashtbl.copy t.rules;
    sequences =
      copy_bindings
        (fun sq ->
           { sq_value = sq.sq_value; sq_step = sq.sq_step;
             sq_start = sq.sq_start })
        t.sequences;
    schemas = Hashtbl.copy t.schemas;
    databases = Hashtbl.copy t.databases;
    users =
      copy_bindings
        (fun u -> { us_password = u.us_password; us_privs = u.us_privs })
        t.users;
    session_vars = Hashtbl.copy t.session_vars;
    global_vars = Hashtbl.copy t.global_vars;
    prepared = Hashtbl.copy t.prepared;
    comments = Hashtbl.copy t.comments;
    locks = Hashtbl.copy t.locks;
    handlers = Hashtbl.copy t.handlers;
    listening = t.listening;
    notify_queue = t.notify_queue;
    current_user = t.current_user;
    current_db = t.current_db;
    in_txn = t.in_txn;
    iso = t.iso;
    txn_snapshot = Option.map copy_snapshot t.txn_snapshot;
    savepoints = List.map (fun (n, sn) -> (n, copy_snapshot sn)) t.savepoints;
    parked = List.map (fun (id, sv) -> (id, copy_session_view sv)) t.parked }

let snap_words sn = 16 * List.length sn.sn_tables

(* Heap cost of one parked session's connection state: its txn snapshot,
   savepoints and variable tables. With N sessions live each parked view
   carries its own copies, so [approx_words] prices them all — keeping
   [cache.bytes] honest under multi-session fuzzing, not just for the
   attached session's share. *)
let session_view_words sv =
  64
  + (match sv.sv_txn_snapshot with Some sn -> snap_words sn | None -> 0)
  + List.fold_left (fun acc (_, sn) -> acc + snap_words sn) 0 sv.sv_savepoints
  + 4
    * (Hashtbl.length sv.sv_session_vars + Hashtbl.length sv.sv_prepared
       + Hashtbl.length sv.sv_handlers)

let object_count t =
  Hashtbl.length t.tables + Hashtbl.length t.views + Hashtbl.length t.indexes
  + Hashtbl.length t.triggers + Hashtbl.length t.rules
  + Hashtbl.length t.sequences

(* Incremental heap cost of a [deep_copy], in words. Since tables,
   indexes and view caches went persistent, a copy shares all row data
   with its source: what it actually allocates is one record per
   table/view/index/sequence/user, the copied hash-table bucket arrays,
   and the snapshot/savepoint spines. Row counts deliberately do NOT
   appear — that is the whole point of the copy-on-write refactor, and
   the prefix-snapshot cache's eviction pressure must reflect the real
   (shared) footprint, not the pre-refactor deep-copy one. Must stay
   cheap (O(#objects)) and roughly monotone in real incremental size. *)
let approx_words t =
  (* Fresh record per object (header + fields + binding cell). *)
  let record_copies =
    16
    * (Hashtbl.length t.tables + Hashtbl.length t.views
       + Hashtbl.length t.indexes + Hashtbl.length t.sequences
       + Hashtbl.length t.users)
  in
  (* [Hashtbl.copy] duplicates bucket arrays: ~4 words per binding on
     top of a fixed per-table floor (15 hash tables in a catalog). *)
  let bucket_copies =
    4
    * (object_count t + Hashtbl.length t.prepared
       + Hashtbl.length t.session_vars + Hashtbl.length t.global_vars
       + Hashtbl.length t.users + Hashtbl.length t.comments
       + Hashtbl.length t.locks + Hashtbl.length t.handlers)
  in
  let snapshots =
    (match t.txn_snapshot with Some sn -> snap_words sn | None -> 0)
    + List.fold_left
        (fun acc (_, sn) -> acc + snap_words sn)
        0 t.savepoints
    + List.fold_left
        (fun acc (_, sv) -> acc + session_view_words sv)
        0 t.parked
  in
  512 + record_copies + bucket_copies + snapshots

let approx_bytes t = approx_words t * (Sys.word_size / 8)
