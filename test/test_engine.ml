(* Engine-level tests: run_testcase accounting, fault-window behaviour,
   crash semantics, coverage determinism. *)

open Sqlcore
module E = Minidb.Engine
module F = Minidb.Fault

let parse = Sqlparser.Parser.parse_testcase_exn

let profile_with_bugs bugs =
  Minidb.Profile.make ~name:"test" ~flavor:Minidb.Profile.Pg
    ~types:Stmt_type.all ~bugs

let engine ?(bugs = []) () =
  E.create ~profile:(profile_with_bugs bugs) ~cov:(Coverage.Bitmap.create ())
    ()

let test_run_testcase_counts () =
  let eng = engine () in
  let stats =
    E.run_testcase eng
      (parse
         "CREATE TABLE t (a INT);\n\
          INSERT INTO t VALUES (1);\n\
          SELECT * FROM missing;\n\
          SELECT * FROM t;")
  in
  Alcotest.(check int) "executed" 4 stats.E.rs_executed;
  Alcotest.(check int) "one error" 1 stats.E.rs_errors;
  Alcotest.(check bool) "no crash" true (stats.E.rs_crash = None);
  Alcotest.(check bool) "cost accumulated" true (stats.E.rs_cost > 0)

let test_window_updates_on_errors () =
  (* a statement that fails with a SQL error still advances the type
     window: the server parsed and partially executed it *)
  let eng = engine () in
  ignore (E.run_testcase eng (parse "INSERT INTO missing VALUES (1); COMMIT;"));
  Alcotest.(check (list string)) "window includes failed stmt"
    [ "INSERT"; "COMMIT" ]
    (List.map Stmt_type.name (E.window eng))

let test_crash_stops_testcase () =
  let bug =
    { F.bug_id = "T1"; identifier = "TEST-1"; component = "DML";
      kind = F.Segv; cond = F.Subseq [ Stmt_type.Insert ] }
  in
  let eng = engine ~bugs:[ bug ] () in
  let stats =
    E.run_testcase eng
      (parse
         "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT 1; \
          SELECT 2;")
  in
  (match stats.E.rs_crash with
   | Some c -> Alcotest.(check string) "bug id" "T1" c.F.c_bug.F.bug_id
   | None -> Alcotest.fail "expected crash");
  Alcotest.(check int) "stopped at the crash" 2 stats.E.rs_executed

let test_crash_even_when_stmt_errors () =
  (* the type window drives triggers even for semantically-failing
     statements, like memory corruption detected regardless of the SQL
     error *)
  let bug =
    { F.bug_id = "T2"; identifier = "TEST-2"; component = "DML";
      kind = F.Uaf; cond = F.Subseq [ Stmt_type.Vacuum; Stmt_type.Insert ] }
  in
  let eng = engine ~bugs:[ bug ] () in
  let stats =
    E.run_testcase eng (parse "VACUUM; INSERT INTO missing VALUES (1);")
  in
  Alcotest.(check bool) "crashed despite SQL error" true
    (stats.E.rs_crash <> None)

let test_window_capped () =
  let eng = engine () in
  let many =
    parse (String.concat ";" (List.init 20 (fun _ -> "SELECT 1")))
  in
  ignore (E.run_testcase eng many);
  Alcotest.(check bool) "window capped at 8" true
    (List.length (E.window eng) <= 8)

let test_query_rows_helper () =
  let eng = engine () in
  ignore (E.run_testcase eng (parse "CREATE TABLE t (a INT);"));
  (match
     E.query_rows eng
       (Ast.Q_values [ [ Ast.Lit (Ast.L_int 1) ]; [ Ast.Lit (Ast.L_int 2) ] ])
   with
   | Ok rows -> Alcotest.(check int) "two rows" 2 (List.length rows)
   | Error e -> Alcotest.fail (Minidb.Errors.message e));
  match
    E.query_rows eng
      (Ast.Q_select
         { distinct = false; projs = [ Ast.Star ];
           from = Some (Ast.From_table { name = "nope"; alias = None });
           where = None; group_by = []; having = None; order_by = [];
           limit = None; offset = None })
  with
  | Error (Minidb.Errors.No_such_table _) -> ()
  | _ -> Alcotest.fail "expected no-such-table"

let test_coverage_deterministic () =
  let run () =
    let cov = Coverage.Bitmap.create () in
    let eng = E.create ~profile:(profile_with_bugs []) ~cov () in
    ignore
      (E.run_testcase eng
         (parse
            "CREATE TABLE t (a INT, b TEXT);\n\
             INSERT INTO t VALUES (1, 'x'), (2, 'y');\n\
             SELECT COUNT(*), MAX(a) FROM t;\n\
             UPDATE t SET b = 'z' WHERE a = 1;"));
    Coverage.Bitmap.hash cov
  in
  Alcotest.(check int64) "identical coverage" (run ()) (run ())

let test_year_and_zerofill_dialect_surface () =
  let eng = engine () in
  let stats =
    E.run_testcase eng
      (parse
         "CREATE TABLE v0 (v1 YEAR ZEROFILL);\n\
          INSERT IGNORE INTO v0 VALUES (NULL), (22471185.000000), ('x' \
          LIKE NULL);\n\
          SELECT * FROM v0;")
  in
  (* the paper's Fig. 3 synthesized values: out-of-range years are
     skipped under IGNORE, NULL and NULL-typed values survive *)
  Alcotest.(check int) "no statement-level errors" 0 stats.E.rs_errors

let test_notify_queue_payload () =
  let eng = engine () in
  ignore
    (E.run_testcase eng (parse "LISTEN a; NOTIFY a, 'p1'; NOTIFY b;"));
  let cat = E.catalog eng in
  Alcotest.(check int) "both notifications queued" 2
    (List.length cat.Minidb.Catalog.notify_queue);
  Alcotest.(check bool) "payload preserved" true
    (List.mem ("a", Some "p1") cat.Minidb.Catalog.notify_queue)

let test_fault_window_spans_statements () =
  (* a 3-type contiguous pattern split by an unrelated statement must NOT
     fire *)
  let bug =
    { F.bug_id = "T3"; identifier = "TEST-3"; component = "Storage";
      kind = F.Bof;
      cond = F.Subseq [ Stmt_type.Vacuum; Stmt_type.Checkpoint ] }
  in
  let eng = engine ~bugs:[ bug ] () in
  let stats = E.run_testcase eng (parse "VACUUM; SELECT 1; CHECKPOINT;") in
  Alcotest.(check bool) "interrupted pattern does not fire" true
    (stats.E.rs_crash = None);
  let eng2 = engine ~bugs:[ bug ] () in
  let stats2 = E.run_testcase eng2 (parse "VACUUM; CHECKPOINT;") in
  Alcotest.(check bool) "contiguous pattern fires" true
    (stats2.E.rs_crash <> None)

(* The two shapes behind the late-campaign stall. Each is timed against
   a bound at least 20x its cost now and below its cost under per-row
   window evaluation and eager index rebuilds (2.2 s and 0.18 s on a
   2-vCPU container, against 6 ms and 3 ms now). *)

let exec_timed eng sql =
  let stmts = parse sql in
  let t0 = Sys.time () in
  let out = List.map (E.exec_stmt eng) stmts in
  (out, Sys.time () -. t0)

let int_rows = function
  | [ E.Ok_result (Minidb.Executor.Rows (_, rows)) ] ->
    List.map
      (Array.map (function
           | Storage.Value.Int n -> n
           | v -> Alcotest.fail ("not an int: " ^ Storage.Value.to_display v)))
      rows
  | [ E.Sql_failed e ] -> Alcotest.fail (Minidb.Errors.message e)
  | _ -> Alcotest.fail "expected one row set"

(* 8 rows doubled [n] times, c1 cycling 0..7 and c2 cycling 0..1. *)
let doubled_table name n =
  Printf.sprintf
    "CREATE TABLE %s (c1 INT, c2 INT);\n\
     INSERT INTO %s VALUES (0, 0), (1, 1), (2, 0), (3, 1), (4, 0), (5, 1), \
     (6, 0), (7, 1);\n%s"
    name name
    (String.concat "\n"
       (List.init n (fun _ ->
            Printf.sprintf "INSERT INTO %s SELECT * FROM %s;" name name)))

let test_stall_window_partition () =
  let eng = engine () in
  ignore (E.run_testcase eng (parse (doubled_table "t9" 8)));
  let out, secs =
    exec_timed eng
      "SELECT c2, ROW_NUMBER() OVER (PARTITION BY c2 ORDER BY c2) FROM t9;"
  in
  Alcotest.(check (list (array int))) "rows"
    (List.init 2048 (fun i -> [| i mod 2; (i / 2) + 1 |]))
    (int_rows out);
  Alcotest.(check bool) (Printf.sprintf "%.3f s < 1 s" secs) true (secs < 1.0)

let test_stall_indexed_cascade () =
  (* 256 rows, three indexes, and an AFTER INSERT trigger whose six-row
     insert fires it again, four levels deep: 259 trigger statements *)
  let eng = engine () in
  ignore
    (E.run_testcase eng
       (parse
          (doubled_table "t8" 5
           ^ "\nCREATE INDEX i8 ON t8 (c1);\n\
              CREATE INDEX j8 ON t8 (c2, c1);\n\
              CREATE INDEX k8 ON t8 (c2);\n\
              ANALYZE;\n\
              CREATE TRIGGER tr8 AFTER INSERT ON t8 FOR EACH ROW INSERT INTO \
              t8 VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6);")));
  let out, secs = exec_timed eng "INSERT INTO t8 VALUES (0, 0);" in
  (match out with
   | [ E.Ok_result (Minidb.Executor.Affected 1) ] -> ()
   | _ -> Alcotest.fail "expected one row inserted");
  Alcotest.(check (list (array int))) "table"
    [ [| 1811; 6335 |] ]
    (int_rows (fst (exec_timed eng "SELECT COUNT(*), SUM(c1) FROM t8;")));
  Alcotest.(check (list (array int))) "index scan"
    [ [| 291 |] ]
    (int_rows (fst (exec_timed eng "SELECT COUNT(*) FROM t8 WHERE c1 = 6;")));
  Alcotest.(check bool) (Printf.sprintf "%.3f s < 0.1 s" secs) true (secs < 0.1)

let test_stall_self_select_cascade () =
  (* A BEFORE INSERT trigger that re-inserts the nine lowest rows of its
     own table, nesting four levels deep until the table hits its
     2048-row cap; each firing selects from up to 2048 rows. Counts,
     checksum and coverage are the pre-single-pass engine's. The cascade
     costs ~0.05 s on a 2-vCPU container (0.1–0.16 s with a full sort
     per firing); the time bound only catches a return to quadratic
     work. *)
  let cov = Coverage.Bitmap.create () in
  let metrics = Telemetry.Registry.create () in
  let eng = E.create ~profile:(profile_with_bugs []) ~metrics ~cov () in
  let t0 = Sys.time () in
  let stats =
    E.run_testcase eng
      (parse
         "CREATE TABLE t9 (c1 INT, c2 INT);\n\
          CREATE TRIGGER tr9 BEFORE INSERT ON t9 FOR EACH ROW INSERT INTO \
          t9 SELECT * FROM t9 ORDER BY c2 ASC LIMIT 9;\n\
          INSERT INTO t9 VALUES (2, -273), (301, 292), (-172, -61);\n\
          SELECT COUNT(*) FROM t9;\n\
          SELECT SUM(c1), SUM(c2), SUM(c1 * c2) FROM t9;")
  in
  let secs = Sys.time () -. t0 in
  Alcotest.(check int) "statements" 5 stats.E.rs_executed;
  Alcotest.(check int) "the insert hits the row cap" 1 stats.E.rs_errors;
  Alcotest.(check int) "rows scanned" 236_552 stats.E.rs_rows_scanned;
  Alcotest.(check int) "trigger firings" 235 stats.E.rs_trigger_firings;
  Alcotest.(check int) "trigger firings counter" 235
    (Telemetry.Registry.counter_value metrics "engine.trigger_firings");
  let report =
    Telemetry.Report.render
      [ Telemetry.Event.Registry_dump
          { series = "engine"; registry = metrics } ]
  in
  Alcotest.(check bool) "report shows trigger firings" true
    (List.exists
       (fun line ->
          String.split_on_char ' ' line
          |> List.filter (( <> ) "")
          = [ "engine.trigger_firings"; "235" ])
       (String.split_on_char '\n' report));
  Alcotest.(check int64) "coverage" (-5802730405255438500L)
    (Coverage.Bitmap.hash cov);
  Alcotest.(check (list (array int))) "count and checksum"
    [ [| 2048; 5292; -556844; -764456 |] ]
    (int_rows
       (fst
          (exec_timed eng
             "SELECT COUNT(*), SUM(c1), SUM(c2), SUM(c1 * c2) FROM t9;")));
  Alcotest.(check bool) (Printf.sprintf "%.3f s < 2 s" secs) true (secs < 2.0)

let suite =
  [ ("run_testcase counts", `Quick, test_run_testcase_counts);
    ("window updates on errors", `Quick, test_window_updates_on_errors);
    ("crash stops testcase", `Quick, test_crash_stops_testcase);
    ("crash even when stmt errors", `Quick, test_crash_even_when_stmt_errors);
    ("window capped", `Quick, test_window_capped);
    ("query_rows helper", `Quick, test_query_rows_helper);
    ("coverage deterministic", `Quick, test_coverage_deterministic);
    ("year/zerofill surface", `Quick, test_year_and_zerofill_dialect_surface);
    ("notify queue payload", `Quick, test_notify_queue_payload);
    ("fault window contiguity", `Quick, test_fault_window_spans_statements);
    ("stall: window over a partition", `Quick, test_stall_window_partition);
    ("stall: indexed trigger cascade", `Quick, test_stall_indexed_cascade);
    ("stall: self-selecting trigger cascade", `Quick,
     test_stall_self_select_cascade) ]
