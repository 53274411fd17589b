(* Equivalence suite for the copy-on-write storage refactor.

   The persistent Table/Index/Catalog must be observationally identical
   to the pre-refactor mutable versions: [Table.deep_copy] keeps the
   old physical-copy semantics as the in-tree reference, so every law
   below drives the O(1) [copy] and the reference through the same
   random op program and compares the observable state. Snapshot
   aliasing laws check the other half of the contract: a snapshot is
   frozen — no later mutation of the live side (or of a restored
   engine) may leak into it, and one snapshot restores any number of
   times. *)

open Sqlcore
module T = Storage.Table
module I = Storage.Index
module V = Storage.Value
module E = Minidb.Engine
module Prop = Reprutil.Prop

let parse = Sqlparser.Parser.parse_testcase_exn

(* -- observable state dumps --------------------------------------- *)

let dump_row row =
  String.concat "," (List.map V.to_display (Array.to_list row))

let dump_table t =
  Printf.sprintf "%s[%s]{%s}" (T.name t)
    (String.concat ";"
       (List.map (fun c -> c.T.c_name) (Array.to_list (T.cols t))))
    (String.concat "|"
       (List.map
          (fun (id, row) -> Printf.sprintf "%d:%s" id (dump_row row))
          (T.to_rows t)))

let dump_engine eng =
  let cat = E.catalog eng in
  let tables =
    Hashtbl.fold (fun name t acc -> (name, t) :: acc)
      cat.Minidb.Catalog.tables []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  String.concat "\n" (List.map (fun (_, t) -> dump_table t) tables)
  ^ Printf.sprintf "\n#win=%s"
      (String.concat ">" (List.map Stmt_type.name (E.window eng)))

(* -- random table op programs ------------------------------------- *)

let base_cols =
  [ { T.c_name = "a"; c_type = Ast.T_int; c_not_null = false;
      c_primary = false; c_unique = false; c_default = None;
      c_zerofill = false };
    { T.c_name = "b"; c_type = Ast.T_text; c_not_null = false;
      c_primary = false; c_unique = false; c_default = None;
      c_zerofill = false } ]

let fresh_table () = T.create ~name:"t" ~temp:false base_cols

(* Interpret one (tag, x, y) op. Total: every op applies to any table
   state, and the same op program drives any two tables identically
   (rowids are assigned by the same monotone counter on both sides). *)
let apply_op t (tag, x, y) =
  match tag mod 8 with
  | 0 | 1 | 2 ->
    let row =
      Array.map
        (fun c ->
           match c.T.c_type with
           | Ast.T_int -> V.Int x
           | _ -> V.Text (string_of_int y))
        (T.cols t)
    in
    ignore (T.insert t row)
  | 3 ->
    let row = Array.make (T.arity t) (V.Int (x + y)) in
    T.update_row t (x mod 40) row
  | 4 -> ignore (T.delete_rows t (fun id -> id mod (2 + (y mod 5)) = 0))
  | 5 ->
    if y mod 11 = 0 then ignore (T.truncate t)
    else ignore (T.insert t (Array.make (T.arity t) V.Null))
  | 6 ->
    if y mod 3 = 0 && T.arity t > 1 then T.drop_column t (x mod T.arity t)
    else
      T.add_column t
        { T.c_name = Printf.sprintf "c%d" x; c_type = Ast.T_int;
          c_not_null = false; c_primary = false; c_unique = false;
          c_default = Some (V.Int y); c_zerofill = false }
  | _ ->
    if T.arity t > 0 then T.rename_column t (x mod T.arity t) ("r" ^ string_of_int y)

let ops_arb =
  Prop.list ~max_len:40
    (Prop.triple (Prop.int_range 0 99) (Prop.int_range 0 99)
       (Prop.int_range 0 99))

let split_at n l =
  let rec go i acc = function
    | rest when i = n -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (i + 1) (x :: acc) rest
  in
  go 0 [] l

(* Law: at any point in a random program, [copy] and [deep_copy] freeze
   the same state, that state equals a fresh replay of the prefix, and
   none of the three is disturbed by the suffix running on the live
   table. *)
let prop_table_copy_equiv =
  let arb = Prop.pair ops_arb (Prop.int_range 0 40) in
  fun () ->
    Prop.check ~count:1000 ~name:"Table.copy ≡ deep_copy ≡ replay" arb
      (fun (ops, cut) ->
         let prefix, suffix = split_at (cut mod (List.length ops + 1)) ops in
         let live = fresh_table () in
         List.iter (apply_op live) prefix;
         let cow = T.copy live in
         let deep = T.deep_copy live in
         let frozen = dump_table cow in
         List.iter (apply_op live) suffix;
         let replay = fresh_table () in
         List.iter (apply_op replay) prefix;
         frozen = dump_table deep
         && frozen = dump_table replay
         && frozen = dump_table cow  (* suffix did not leak into cow *)
         && frozen = dump_table deep)

(* Law: mutating the copy never touches the source (the reverse
   direction of the isolation contract). *)
let prop_table_copy_isolated =
  let arb = Prop.pair ops_arb ops_arb in
  fun () ->
    Prop.check ~count:1000 ~name:"mutating Table.copy leaves source alone"
      arb
      (fun (prefix, suffix) ->
         let live = fresh_table () in
         List.iter (apply_op live) prefix;
         let before = dump_table live in
         let cow = T.copy live in
         List.iter (apply_op cow) suffix;
         dump_table live = before)

(* -- index copy law ----------------------------------------------- *)

let key_of x = [ V.Int (x mod 7) ]

let apply_ix_op ix (tag, x, y) =
  match tag mod 3 with
  | 0 | 1 -> ignore (I.add ix (key_of x) y)
  | _ -> I.remove ix (key_of x) y

let dump_index ix =
  let keys = List.init 7 (fun k -> [ V.Int k ]) in
  Printf.sprintf "%d/%s" (I.length ix)
    (String.concat "|"
       (List.map
          (fun k ->
             String.concat "," (List.map string_of_int (I.find ix k)))
          keys))

let prop_index_copy_equiv =
  let arb = Prop.pair ops_arb ops_arb in
  fun () ->
    Prop.check ~count:1000 ~name:"Index.copy ≡ replay of prefix" arb
      (fun (prefix, suffix) ->
         let live = I.create ~unique:false in
         List.iter (apply_ix_op live) prefix;
         let cow = I.copy live in
         let frozen = dump_index cow in
         List.iter (apply_ix_op live) suffix;
         let replay = I.create ~unique:false in
         List.iter (apply_ix_op replay) prefix;
         frozen = dump_index replay && frozen = dump_index cow)

(* -- engine snapshot aliasing ------------------------------------- *)

let stmt_of (tag, x, y) =
  let t = Printf.sprintf "t%d" (y mod 3) in
  match tag mod 6 with
  | 0 -> Printf.sprintf "CREATE TABLE %s (a INT, b TEXT);" t
  | 1 | 2 -> Printf.sprintf "INSERT INTO %s VALUES (%d, 'v%d');" t x y
  | 3 -> Printf.sprintf "UPDATE %s SET a = %d;" t (x + y)
  | 4 -> Printf.sprintf "DELETE FROM %s WHERE a > %d;" t x
  | _ -> Printf.sprintf "DROP TABLE %s;" t

let profile = Minidb.Profile.make ~name:"test" ~flavor:Minidb.Profile.Pg
    ~types:Stmt_type.all ~bugs:[]

let engine () = E.create ~profile ~cov:(Coverage.Bitmap.create ()) ()

let run_sql eng stmts =
  List.iter (fun s -> ignore (E.run_testcase eng (parse s))) stmts

(* Law: an engine snapshot is frozen and restores repeatedly — running a
   suffix on the live engine, then on a restored engine, never changes
   what a (second, third, ...) restore of the same snapshot observes. *)
let prop_snapshot_aliasing =
  let arb = Prop.pair ops_arb ops_arb in
  fun () ->
    Prop.check ~count:200 ~name:"Engine.snapshot never aliases live state"
      arb
      (fun (prefix, suffix) ->
         let prefix = List.map stmt_of prefix in
         let suffix = List.map stmt_of suffix in
         let live = engine () in
         run_sql live prefix;
         let snap = E.snapshot live in
         let frozen = dump_engine live in
         (* 1: mutate the live engine *)
         run_sql live suffix;
         let r1 = E.restore snap ~cov:(Coverage.Bitmap.create ()) () in
         let ok1 = dump_engine r1 = frozen in
         (* 2: mutate the restored engine *)
         run_sql r1 suffix;
         let r2 = E.restore snap ~cov:(Coverage.Bitmap.create ()) () in
         let ok2 = dump_engine r2 = frozen in
         (* 3: a restored engine continues like the captured one *)
         let replay = engine () in
         run_sql replay prefix;
         run_sql replay suffix;
         run_sql r2 suffix;
         let ok3 = dump_engine r2 = dump_engine replay in
         ok1 && ok2 && ok3)

(* deterministic aliasing corner: snapshot while inside a transaction
   with savepoints — restore must reproduce the txn machinery too *)
let test_snapshot_inside_txn () =
  let live = engine () in
  run_sql live
    [ "CREATE TABLE t (a INT);"; "INSERT INTO t VALUES (1);";
      "BEGIN;"; "INSERT INTO t VALUES (2);"; "SAVEPOINT sp;";
      "INSERT INTO t VALUES (3);" ];
  let snap = E.snapshot live in
  let frozen = dump_engine live in
  run_sql live [ "ROLLBACK TO SAVEPOINT sp;"; "COMMIT;" ];
  let r = E.restore snap ~cov:(Coverage.Bitmap.create ()) () in
  Alcotest.(check string) "restored state" frozen (dump_engine r);
  run_sql r [ "ROLLBACK;" ];
  let live2 = dump_engine r in
  let r2 = E.restore snap ~cov:(Coverage.Bitmap.create ()) () in
  Alcotest.(check string) "second restore still frozen" frozen
    (dump_engine r2);
  Alcotest.(check bool) "rollback changed the restored engine" true
    (live2 <> frozen)

let test_copy_shares_root () =
  let t = fresh_table () in
  ignore (T.insert t [| V.Int 1; V.Text "x" |]);
  let c = T.copy t in
  Alcotest.(check bool) "copy shares row root" true (T.rows_root_eq t c);
  ignore (T.insert t [| V.Int 2; V.Text "y" |]);
  Alcotest.(check bool) "insert unshares" false (T.rows_root_eq t c);
  let d = T.deep_copy t in
  Alcotest.(check bool) "deep_copy never shares" false (T.rows_root_eq t d)

let suite =
  [ ("table copy ≡ deep_copy ≡ replay (1000 cases)", `Quick,
     prop_table_copy_equiv);
    ("table copy isolation (1000 cases)", `Quick, prop_table_copy_isolated);
    ("index copy ≡ replay (1000 cases)", `Quick, prop_index_copy_equiv);
    ("engine snapshot aliasing", `Quick, prop_snapshot_aliasing);
    ("snapshot inside transaction", `Quick, test_snapshot_inside_txn);
    ("copy shares persistent root", `Quick, test_copy_shares_root) ]
