(* Hot paths against the algorithms they replaced: window functions
   memoised per query ({!Minidb.Window}) against the per-row evaluation
   kept here as the reference, deferred index rebuilds
   ({!Storage.Index.defer}) against an eager rebuild, grammar maps
   assembled by the per-statement memo ({!Fuzz.Grammar_memo}) against a
   whole-testcase parse, the single-pass SELECT against the
   sort-everything pipeline it replaced, and [Value.compare_total]
   against the float comparison it replaced. Each must agree on
   results, raised errors and every coverage byte. *)

open Sqlcore
open Sqlcore.Ast
module V = Storage.Value
module B = Coverage.Bitmap
module Prop = Reprutil.Prop
module Rng = Reprutil.Rng
module E = Minidb.Engine
module Expr_eval = Minidb.Expr_eval

(* -- window functions ---------------------------------------------- *)

(* The per-row algorithm, as the executor ran it before the memo: every
   call re-evaluates every row's partition key and re-sorts its
   partition, evaluating ORDER BY keys inside the comparator. *)
let reference ~env ~scalar ~n cur_idx fn args over =
  let eval_at i e = Expr_eval.eval (env i) e in
  let part_key i = List.map (eval_at i) over.partition_by in
  let keys_equal a b =
    List.length a = List.length b
    && List.for_all2 (fun x y -> V.compare_total x y = 0) a b
  in
  let mine = part_key cur_idx in
  let part =
    List.filter
      (fun i -> keys_equal (part_key i) mine)
      (List.init n (fun i -> i))
  in
  let order_key i = List.map (fun (e, _) -> eval_at i e) over.w_order_by in
  let dirs = List.map snd over.w_order_by in
  let cmp_order a b =
    let rec loop ka kb ds =
      match (ka, kb, ds) with
      | [], [], _ -> 0
      | x :: xs, y :: ys, d :: dt ->
        let c = V.compare_total x y in
        let c = match d with Asc -> c | Desc -> -c in
        if c <> 0 then c else loop xs ys dt
      | _ -> 0
    in
    loop (order_key a) (order_key b) dirs
  in
  let sorted = List.stable_sort cmp_order part in
  let pos =
    let rec find i = function
      | [] -> 0
      | x :: _ when x = cur_idx -> i
      | _ :: t -> find (i + 1) t
    in
    find 0 sorted
  in
  match fn with
  | Row_number -> V.Int (pos + 1)
  | Rank ->
    let before =
      List.filteri (fun i x -> i < pos && cmp_order x cur_idx < 0) sorted
    in
    V.Int (List.length before + 1)
  | Dense_rank ->
    let distinct_before =
      List.sort_uniq compare
        (List.filteri (fun i _ -> i < pos) sorted
         |> List.filter_map (fun x ->
             if cmp_order x cur_idx < 0 then
               Some (List.map V.to_display (order_key x))
             else None))
    in
    V.Int (List.length distinct_before + 1)
  | Lead | Lag ->
    let offset =
      match args with
      | _ :: o :: _ -> (
          match Expr_eval.eval scalar o with V.Int n -> n | _ -> 1)
      | _ -> 1
    in
    let target = if fn = Lead then pos + offset else pos - offset in
    if target < 0 || target >= List.length sorted then
      (match args with
       | _ :: _ :: d :: _ -> Expr_eval.eval scalar d
       | _ -> V.Null)
    else
      let idx = List.nth sorted target in
      (match args with e :: _ -> eval_at idx e | [] -> V.Null)
  | Ntile ->
    let buckets =
      match args with
      | b :: _ -> (
          match Expr_eval.eval scalar b with
          | V.Int n when n > 0 -> n
          | _ -> 1)
      | [] -> 1
    in
    let total = List.length sorted in
    V.Int ((pos * buckets / max 1 total) + 1)

let cols = [| "c0"; "c1"; "c2" |]

let gen_value rng =
  match Rng.int rng 6 with
  | 0 -> V.Null
  | 1 | 2 -> V.Int (Rng.int rng 5 - 2)
  | 3 -> V.Float (Rng.choose rng [ 0.5; 1.0; -1.5 ])
  | 4 -> V.Text (Rng.choose rng [ "a"; "b"; "1"; "" ])
  | _ -> V.Bool (Rng.bool rng)

let gen_col rng = Col (None, Rng.choose_arr rng cols)

let gen_lit rng =
  Lit (Rng.choose rng [ L_null; L_int 0; L_int 1; L_string "a"; L_float 0.5 ])

(* Keys that probe (CASE, CAST, comparisons, arithmetic, AND), keys that
   fail, and keys whose scalar subquery runs at every use. *)
let gen_key rng =
  match Rng.int rng 24 with
  | 0 | 1 | 2 | 3 | 4 -> gen_col rng
  | 5 | 6 | 7 ->
    Case ([ (Binop (Gt, gen_col rng, gen_lit rng), gen_col rng) ],
          Some (gen_lit rng))
  | 8 | 9 | 10 -> Cast (gen_col rng, Rng.choose rng [ T_int; T_text; T_bool ])
  | 11 | 12 | 13 ->
    Binop (Rng.choose rng [ Eq; Lt; Ge ], gen_col rng, gen_col rng)
  | 14 | 15 -> Binop (Add, gen_col rng, Lit (L_int 1))
  | 16 | 17 -> Binop (And, gen_col rng, gen_col rng)
  | 18 -> Col (None, "missing")
  | 19 -> Fn ("NO_SUCH_FN", [ gen_col rng ])
  | 20 -> Binop (Mul, gen_col rng, Subquery (Q_values [ [ Lit (L_int 2) ] ]))
  | _ -> Is_null (gen_col rng, false)

let gen_over rng =
  { partition_by = List.init (Rng.int rng 3) (fun _ -> gen_key rng);
    w_order_by =
      List.init (Rng.int rng 3) (fun _ ->
          (gen_key rng, Rng.choose rng [ Asc; Desc ]));
    frame = None }

let gen_call rng over =
  let fn = Rng.choose rng [ Row_number; Rank; Dense_rank; Lead; Lag; Ntile ] in
  let args =
    match fn with
    | Row_number | Rank | Dense_rank -> []
    | Lead | Lag ->
      let off = Lit (L_int (Rng.int rng 4 - 1)) in
      (match Rng.int rng 3 with
       | 0 -> [ gen_col rng ]
       | 1 -> [ gen_col rng; off ]
       | _ -> [ gen_col rng; off; gen_lit rng ])
    | Ntile -> [ Lit (L_int (Rng.int rng 5)) ]
  in
  Win { fn; args; over }

(* A table of 0-12 rows and a projection of 1-4 window calls. Calls
   draw their OVER clause from a pool of one or two, so one SELECT
   repeats the same clause; a repeat is sometimes a structural copy. *)
let gen_window_case rng =
  let rows =
    List.init (Rng.int rng 13) (fun _ ->
        Array.init (Array.length cols) (fun _ -> gen_value rng))
  in
  let pool = Array.init (1 + Rng.int rng 2) (fun _ -> gen_over rng) in
  let projs =
    List.init (1 + Rng.int rng 4) (fun _ ->
        let over = Rng.choose_arr rng pool in
        let over = if Rng.bool rng then over else { over with frame = None } in
        let call = gen_call rng over in
        if Rng.int rng 4 = 0 then Binop (Add, call, Lit (L_int 1)) else call)
  in
  (rows, projs)

let print_window_case (rows, projs) =
  Printf.sprintf "%d rows [%s]; SELECT %s" (List.length rows)
    (String.concat "; "
       (List.map
          (fun r ->
             String.concat "," (Array.to_list (Array.map V.to_display r)))
          rows))
    (String.concat ", " (List.map Sql_printer.expr projs))

let describe = function
  | Minidb.Errors.Sql_error e -> Minidb.Errors.message e
  | e -> Printexc.to_string e

(* Evaluate the projection over every row, as the executor does, with
   window calls answered by the memo or by the reference. Returns the
   rows or the error, the exec map's compact form and how many
   subqueries ran. *)
let run_window ~memo (rows, projs) =
  let cov = B.create () in
  let subqueries = ref 0 in
  let rows = Array.of_list rows in
  let n = Array.length rows in
  let probe ~site ~key = B.probe cov ~site ~key in
  let scalar =
    { Expr_eval.cols = (fun _ _ -> None);
      run_query =
        (fun _ ->
           incr subqueries;
           B.probe cov ~site:7 ~key:0;
           [ [| V.Int 2 |] ]);
      agg = Expr_eval.no_agg; win = Expr_eval.no_win; probe }
  in
  let env i =
    let find name =
      let rec go j =
        if j >= Array.length cols then None
        else if cols.(j) = name then Some rows.(i).(j)
        else go (j + 1)
      in
      go 0
    in
    { scalar with
      cols = (fun _ name -> find name);
      run_query =
        (fun _ ->
           incr subqueries;
           B.probe cov ~site:7 ~key:(1 + (i mod 3));
           [ [| V.Int (i mod 3) |] ]) }
  in
  let memos = ref [] in
  let win i fn args over =
    if memo then begin
      let w =
        match List.assq_opt over !memos with
        | Some w -> w
        | None ->
          let w = Minidb.Window.create ~cov ~env ~rows:n over in
          memos := (over, w) :: !memos;
          w
      in
      Minidb.Window.value w (Minidb.Window.place w i fn) ~scalar fn args
    end
    else reference ~env ~scalar ~n i fn args over
  in
  let result =
    match
      List.init n (fun i ->
          let env = { (env i) with win = win i } in
          List.map (Expr_eval.eval env) projs)
    with
    | out -> Ok out
    | exception e -> Error (describe e)
  in
  (result, B.compact cov, !subqueries)

let prop_window_memo () =
  Prop.check ~count:1000 ~name:"memoised window ≡ per-row reference"
    (Prop.make ~print:print_window_case gen_window_case)
    (fun case -> run_window ~memo:true case = run_window ~memo:false case)

(* -- deferred index rebuilds --------------------------------------- *)

let profile =
  Minidb.Profile.make ~name:"clean" ~flavor:Minidb.Profile.Pg
    ~types:Stmt_type.all ~bugs:[]

let setup =
  "CREATE TABLE t (a INT, b INT, c TEXT);\n\
   CREATE INDEX ia ON t (a);\n\
   CREATE UNIQUE INDEX ib ON t (b);\n\
   CREATE INDEX ica ON t (c, a);\n\
   CREATE TABLE log (x INT);\n\
   CREATE INDEX ix ON log (x);\n\
   ANALYZE;"

let key_sql k = if k = 4 then "NULL" else string_of_int k

(* No statement here fails after changing its table: one that does
   raises before its index sync and leaves the indexes stale, in the
   eager engine as in the deferred one, so an UPDATE of the unique
   column touches at most one row. *)
let gen_stmt rng =
  let k () = key_sql (Rng.int rng 5) in
  match Rng.int rng 9 with
  | 0 | 1 | 2 ->
    Printf.sprintf "INSERT INTO t VALUES (%s, %s, 'v%d');" (k ()) (k ())
      (Rng.int rng 2)
  | 3 ->
    Printf.sprintf "UPDATE t SET b = %s WHERE b = %d;" (k ()) (Rng.int rng 4)
  | 4 -> Printf.sprintf "UPDATE t SET a = %s;" (k ())
  | 5 -> Printf.sprintf "DELETE FROM t WHERE b = %s;" (k ())
  | 6 ->
    Printf.sprintf
      "CREATE TRIGGER tr%d AFTER INSERT ON t FOR EACH ROW INSERT INTO log \
       VALUES (%s);"
      (Rng.int rng 2) (k ())
  | 7 -> Rng.choose rng [ "BEGIN;"; "ROLLBACK;"; "COMMIT;" ]
  | _ -> Printf.sprintf "DELETE FROM log WHERE x = %s;" (k ())

(* Between statements: snapshot the engine or restore the last
   snapshot while index syncs are pending, or scan through an index,
   which runs its pending sync. *)
type step = Stmt of string | Snapshot | Restore | Scan

let gen_steps rng =
  List.init (Rng.int rng 24) (fun _ ->
      match Rng.int rng 9 with
      | 0 -> Snapshot
      | 1 -> Restore
      | 2 -> Scan
      | _ -> Stmt (gen_stmt rng))

let print_steps steps =
  String.concat " "
    (List.map
       (function
         | Stmt s -> s
         | Snapshot -> "<snapshot>"
         | Restore -> "<restore>"
         | Scan -> "<scan>")
       steps)

let key_domain =
  List.map (fun k -> if k = 4 then V.Null else V.Int k) [ 0; 1; 2; 3; 4 ]

(* Every index of a deep copy against an eager rebuild from its table's
   current rows, on every key of the domain. *)
let indexes_match eng =
  let cat = Minidb.Catalog.deep_copy (E.catalog eng) in
  Hashtbl.fold
    (fun _ (spec : Minidb.Catalog.index_spec) ok ->
       ok
       &&
       match Hashtbl.find_opt cat.Minidb.Catalog.tables spec.x_table with
       | None -> true
       | Some tbl ->
         let positions =
           List.filter_map (Storage.Table.col_index tbl) spec.x_cols
         in
         let eager = Storage.Index.create ~unique:spec.x_unique in
         Storage.Table.iter
           (fun rowid row ->
              ignore
                (Storage.Index.add eager
                   (List.map (fun p -> row.(p)) positions)
                   rowid))
           tbl;
         let keys =
           match spec.x_cols with
           | [ _ ] -> List.map (fun v -> [ v ]) key_domain
           | _ ->
             List.concat_map
               (fun v -> [ [ V.Text "v0"; v ]; [ V.Text "v1"; v ] ])
               key_domain
         in
         List.for_all
           (fun key ->
              Storage.Index.find spec.x_data key
              = Storage.Index.find eager key)
           keys)
    cat.Minidb.Catalog.indexes true

(* An index-eq scan returns the rows a forced sequential scan does. *)
let scans_match eng =
  List.for_all
    (fun k ->
       let select =
         Sqlparser.Parser.parse_testcase_exn
           (Printf.sprintf "SELECT a, b, c FROM t WHERE a = %s;" (key_sql k))
       in
       let run mode =
         E.set_plan_mode eng mode;
         let r =
           List.map
             (fun s ->
                match E.exec_stmt eng s with
                | E.Ok_result (Minidb.Executor.Rows (_, rows)) ->
                  Ok (List.sort compare rows)
                | E.Ok_result _ -> Error "no rows"
                | E.Sql_failed e -> Error (Minidb.Errors.message e))
             select
         in
         E.set_plan_mode eng Minidb.Executor.Plan_auto;
         r
       in
       run Minidb.Executor.Plan_auto = run Minidb.Executor.Plan_force_seq)
    [ 0; 1; 2; 3 ]

let prop_deferred_index () =
  Prop.check ~count:300 ~name:"deferred index sync ≡ eager rebuild"
    (Prop.make ~print:print_steps gen_steps)
    (fun steps ->
       let eng =
         ref (E.create ~profile ~cov:(B.create ()) ())
       in
       ignore
         (E.run_testcase !eng (Sqlparser.Parser.parse_testcase_exn setup));
       let snap = ref (E.snapshot !eng) in
       List.for_all
         (fun step ->
            (match step with
             | Stmt s ->
               ignore
                 (E.run_testcase !eng (Sqlparser.Parser.parse_testcase_exn s))
             | Snapshot -> snap := E.snapshot !eng
             | Restore -> eng := E.restore !snap ~cov:(B.create ()) ()
             | Scan -> ignore (scans_match !eng));
            (* check copies, so the engine's own syncs stay pending *)
            indexes_match !eng
            && scans_match (E.restore (E.snapshot !eng) ~cov:(B.create ()) ()))
         steps)

(* -- per-statement grammar memo --------------------------------------- *)

let stmt_types = Array.of_list Stmt_type.all

let gen_generated rng =
  let schema = Lego.Sym_schema.empty () in
  List.init (1 + Rng.int rng 8) (fun _ ->
      let s = Lego.Generator.stmt rng schema (Rng.choose_arr rng stmt_types) in
      Lego.Sym_schema.apply schema s;
      s)

let gen_triggers rng =
  let schema = Lego.Sym_schema.empty () in
  let gen ty =
    let s = Lego.Generator.stmt rng schema ty in
    Lego.Sym_schema.apply schema s;
    s
  in
  let table = gen Stmt_type.Create_table in
  let triggers =
    List.init (1 + Rng.int rng 3) (fun _ -> gen Stmt_type.Create_trigger)
  in
  (table :: triggers) @ [ gen Stmt_type.Insert ]

let insert_string str =
  S_insert
    { i_table = "t"; i_cols = [];
      i_source = Src_values [ [ Lit (L_string str) ] ]; i_ignore = false }

(* Statements whose printed text holds a [;] or a comment marker. The
   first three lex and parse on their own; the rest are not clean: a lex
   error, a parse error, two statements in one text (the testcase still
   parses), and comments that swallow the terminating [;] — the last
   one after a statement that stops short of its final token. *)
let awkward =
  [| insert_string "a;b"; insert_string "x'; -- y"; S_truncate "t; -- c";
     S_truncate "a$b"; S_truncate "select"; S_truncate "t; SELECT 1";
     S_truncate "t -- c"; S_truncate "t x -- c" |]

let insert_at rng s tc =
  let pos = Rng.int rng (List.length tc + 1) in
  List.filteri (fun i _ -> i < pos) tc
  @ (s :: List.filteri (fun i _ -> i >= pos) tc)

let skeletons = Lego.Skeleton_library.create ()

let gen_grammar_case rng =
  match Rng.int rng 10 with
  | 0 | 1 | 2 -> gen_generated rng
  | 3 ->
    let tc = gen_generated rng in
    let mutants =
      Lego.Seq_mutation.mutate_at rng ~skeletons ~types:Stmt_type.all tc
        ~pos:(Rng.int rng (List.length tc))
    in
    snd (Rng.choose rng mutants)
  | 4 -> Lego.Conventional.mutate_testcase rng (gen_generated rng)
  | 5 -> []
  | 6 ->
    (* more than 255 copies: every cell of the statement saturates *)
    let s = List.hd (gen_generated rng) in
    List.init (256 + Rng.int rng 64) (fun _ -> s)
  | 7 -> gen_triggers rng
  | _ -> insert_at rng (Rng.choose_arr rng awkward) (gen_generated rng)

let print_grammar_case (tc, other, vseed) =
  Printf.sprintf "%s\n-- virgin from (seed %d):\n%s" (Sql_printer.testcase tc)
    vseed (Sql_printer.testcase other)

let parse_map tc =
  let g = B.create () in
  let ok =
    Result.is_ok
      (Sqlparser.Parser.parse_testcase ~grammar:g (Sql_printer.testcase tc))
  in
  (g, ok)

(* A virgin map holding another testcase's grammar coverage plus random
   bucket bits on about half of [reference]'s own cells, so count_news
   sees both fresh and partly covered cells. *)
let random_virgin rng ~reference other =
  let v = B.create () in
  ignore (B.merge_into ~virgin:v other);
  let bits =
    List.filter_map
      (fun (i, _) ->
         if Rng.bool rng then Some (i, 1 lsl Rng.int rng 8) else None)
      (B.compact_cells (B.compact reference))
  in
  let src = B.create () in
  B.load_compact ~into:src (B.compact_of_cells bits);
  ignore (B.merge ~into:v src);
  v

let prop_grammar_memo () =
  let reg = Telemetry.Registry.create () in
  let hits = Telemetry.Registry.counter reg "grammar.memo_hits" in
  let misses = Telemetry.Registry.counter reg "grammar.memo_misses" in
  let memo = Fuzz.Grammar_memo.create ~hits ~misses in
  (* one map for every case, as the harness reuses its scratch maps *)
  let built = B.create () in
  let scratch = B.create () in
  let fallbacks = ref 0 and saturated = ref 0 in
  Prop.check ~count:1000 ~name:"grammar memo ≡ whole-testcase parse"
    (Prop.make ~print:print_grammar_case (fun rng ->
         let tc = gen_grammar_case rng in
         (tc, gen_generated rng, Rng.int rng 1_000_000)))
    (fun (tc, other, vseed) ->
       let full, verdict = parse_map tc in
       let ok = Fuzz.Grammar_memo.fill memo built tc in
       if
         tc = []
         || List.exists
              (fun s ->
                 Sqlparser.Parser.stmt_cells ~scratch (Sql_printer.stmt s)
                 = None)
              tc
       then incr fallbacks;
       if
         List.exists (fun (_, c) -> c = 255)
           (B.compact_cells (B.compact full))
       then incr saturated;
       let virgin =
         random_virgin (Rng.create vseed) ~reference:full
           (fst (parse_map other))
       in
       ok = verdict
       && B.compact built = B.compact full
       && B.count_news ~virgin built = B.count_news ~virgin full);
  let value = Telemetry.Registry.counter_value reg in
  Alcotest.(check bool) "memo hits" true (value "grammar.memo_hits" > 0);
  Alcotest.(check bool) "memo misses" true (value "grammar.memo_misses" > 0);
  Alcotest.(check bool) "fallback exercised" true (!fallbacks > 0);
  Alcotest.(check bool) "saturation exercised" true (!saturated > 0)

(* -- single-pass SELECT ------------------------------------------- *)

(* The SELECT pipeline as the executor ran it before the single pass,
   for base tables and joins without grouping or windows: every stage
   builds a list, ORDER BY stable-sorts all rows on key lists, then
   OFFSET drops and LIMIT takes. [sort] and [window] stand in for the
   stable sort and for OFFSET/LIMIT over the sorted rows; the probes
   still count the rows of the pipeline above. *)

type rbinding = { r_alias : string; r_cols : string array; r_vals : V.t array }

let site = Coverage.Sites.register
let s_scan = site "exec.scan"
let s_access = site "exec.access_path"
let s_join = site "exec.join"
let s_where = site "exec.where"
let s_sort = site "exec.sort"
let s_distinct = site "exec.distinct"
let s_limit = site "exec.limit"
let s_proj = site "exec.projection"
let s_err = site "exec.error_path"

let bucket n =
  if n = 0 then 0
  else if n = 1 then 1
  else if n <= 4 then 2
  else if n <= 16 then 3
  else if n <= 64 then 4
  else 5

let vkind_of = function
  | V.Null -> 0
  | V.Int _ -> 1
  | V.Float _ -> 2
  | V.Text _ -> 3
  | V.Bool _ -> 4

let row_sig row =
  let n = Array.length row in
  let k i = if i < n then vkind_of row.(i) else 5 in
  (k 0 * 36) + (k 1 * 6) + k 2

let ref_resolve row q name =
  let find b =
    let rec loop i =
      if i >= Array.length b.r_cols then None
      else if String.equal b.r_cols.(i) name then Some b.r_vals.(i)
      else loop (i + 1)
    in
    loop 0
  in
  match q with
  | Some alias -> (
      match List.find_opt (fun b -> String.equal b.r_alias alias) row with
      | None -> None
      | Some b -> find b)
  | None -> (
      match List.filter_map find row with
      | [ v ] -> Some v
      | [] -> None
      | v :: _ -> Some v)

let stable_window ~offset ~limit rows =
  let rec drop n l =
    if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t
  in
  let rec take n l =
    if n <= 0 then [] else match l with [] -> [] | h :: t -> h :: take (n - 1) t
  in
  let rows = match offset with None -> rows | Some off -> drop off rows in
  match limit with None -> rows | Some lim -> take (max 0 lim) rows

let reference_select ?(sort = List.stable_sort) ?(window = stable_window)
    ~cat ~limits ~cov (s : select) =
  let probe site key = B.probe cov ~site ~key in
  let scanned = ref 0 in
  let env row =
    { Expr_eval.cols = (fun q name -> ref_resolve row q name);
      run_query = (fun _ -> failwith "no subqueries here");
      agg = Expr_eval.no_agg; win = Expr_eval.no_win;
      probe = (fun ~site ~key -> probe site key) }
  in
  let shape name =
    Array.map (fun c -> c.Storage.Table.c_name)
      (Storage.Table.cols (Minidb.Catalog.find_table cat name))
  in
  let rec from ~where = function
    | From_table { name; alias } ->
      let alias = Option.value ~default:name alias in
      let table = Minidb.Catalog.find_table cat name in
      let access =
        Minidb.Planner.choose_access cat ~analyzed:false ~table:name ~where
      in
      (* no trigger, rule, view, index, transaction or lock: the state
         shape is 0 *)
      probe s_access (Minidb.Planner.access_tag access * 8);
      let rows =
        match access with
        | Minidb.Planner.Seq_scan ->
          List.map snd (Storage.Table.to_rows table)
        | _ -> []
      in
      scanned := !scanned + List.length rows;
      probe s_scan (bucket (List.length rows));
      List.map
        (fun vals ->
           [ { r_alias = alias; r_cols = shape name; r_vals = vals } ])
        rows
    | From_join { left; kind; right; on } ->
      let lrows = from ~where:None left in
      let rrows = from ~where:None right in
      let kind_tag =
        match kind with Inner -> 0 | Left -> 1 | Right -> 2 | Cross -> 3
      in
      probe s_join
        ((kind_tag * 16) lor (bucket (List.length lrows) * 2)
         lor if rrows = [] then 1 else 0);
      if List.length lrows * List.length rrows
         > limits.Minidb.Limits.max_result_rows * 4
      then Minidb.Errors.fail (Minidb.Errors.Limit_exceeded "join size");
      let on_ok row =
        match on with None -> true | Some e -> Expr_eval.eval_bool (env row) e
      in
      let nulls f =
        match f with
        | From_table { name; alias } ->
          let cols = shape name in
          [ { r_alias = Option.value ~default:name alias; r_cols = cols;
              r_vals = Array.map (fun _ -> V.Null) cols } ]
        | _ -> assert false
      in
      (match kind with
       | Inner | Cross ->
         List.concat_map
           (fun l ->
              List.filter_map
                (fun r ->
                   if kind = Cross || on_ok (l @ r) then Some (l @ r) else None)
                rrows)
           lrows
       | Left ->
         List.concat_map
           (fun l ->
              match List.filter (fun r -> on_ok (l @ r)) rrows with
              | [] -> [ l @ nulls right ]
              | ms -> List.map (fun r -> l @ r) ms)
           lrows
       | Right ->
         List.concat_map
           (fun r ->
              match List.filter (fun l -> on_ok (l @ r)) lrows with
              | [] -> [ nulls left @ r ]
              | ms -> List.map (fun l -> l @ r) ms)
           rrows)
    | From_subquery _ -> assert false
  in
  let project row =
    let out = ref [] in
    List.iter
      (function
        | Star ->
          List.iter
            (fun b -> Array.iter (fun v -> out := v :: !out) b.r_vals)
            row
        | Star_of t -> (
            match List.find_opt (fun b -> String.equal b.r_alias t) row with
            | Some b -> Array.iter (fun v -> out := v :: !out) b.r_vals
            | None ->
              probe s_err 7;
              Minidb.Errors.fail (Minidb.Errors.No_such_table t))
        | Proj (e, _) -> out := Expr_eval.eval (env row) e :: !out)
      s.projs;
    Array.of_list (List.rev !out)
  in
  let run () =
    probe s_scan (48 + 1);
    let base =
      match s.from with None -> [ [] ] | Some f -> from ~where:s.where f
    in
    let rows =
      match s.where with
      | None -> base
      | Some w ->
        let kept =
          List.filter (fun row -> Expr_eval.eval_bool (env row) w) base
        in
        probe s_where
          ((bucket (List.length kept) * 4)
           lor (if kept = [] && base <> [] then 1 else 0)
           lor if List.length kept = List.length base then 2 else 0);
        kept
    in
    let projected =
      List.map
        (fun row ->
           let out = project row in
           let keys =
             List.map (fun (e, _) -> Expr_eval.eval (env row) e) s.order_by
           in
           (keys, out))
        rows
    in
    probe s_proj (bucket (List.length projected));
    (match projected with
     | (_, first) :: _ -> probe s_proj (64 + row_sig first)
     | [] -> ());
    let projected =
      if s.distinct then begin
        probe s_distinct (bucket (List.length projected));
        let seen = Hashtbl.create 16 in
        List.filter
          (fun (_, out) ->
             let key =
               Array.fold_left (fun acc v -> (acc * 31) + V.hash_value v) 0 out
             in
             let dup =
               List.exists
                 (fun other ->
                    Array.length other = Array.length out
                    && Array.for_all2
                         (fun a b -> V.compare_total a b = 0)
                         other out)
                 (Hashtbl.find_all seen key)
             in
             if not dup then Hashtbl.add seen key out;
             not dup)
          projected
      end
      else projected
    in
    let sorted =
      if s.order_by = [] then projected
      else begin
        probe s_sort
          ((bucket (List.length projected) * 2)
           lor
           if List.exists (fun (_, d) -> d = Desc) s.order_by then 1 else 0);
        (match projected with
         | (k1 :: _, _) :: _ ->
           probe s_sort
             (64 + (vkind_of k1 * 8) + min 7 (List.length s.order_by))
         | _ -> ());
        let dirs = List.map snd s.order_by in
        sort
          (fun (ka, _) (kb, _) ->
             let rec cmp ks1 ks2 ds =
               match (ks1, ks2, ds) with
               | k1 :: t1, k2 :: t2, d :: td ->
                 let c = V.compare_total k1 k2 in
                 let c = match d with Asc -> c | Desc -> -c in
                 if c <> 0 then c else cmp t1 t2 td
               | _ -> 0
             in
             cmp ka kb dirs)
          projected
      end
    in
    let rows = List.map snd sorted in
    let after_offset =
      match s.offset with
      | None -> rows
      | Some off ->
        probe s_limit 8;
        stable_window ~offset:(Some off) ~limit:None rows
    in
    (match s.limit with
     | None -> ()
     | Some lim ->
       probe s_limit (if List.length after_offset > lim then 1 else 2));
    let rows = window ~offset:s.offset ~limit:s.limit rows in
    if List.length rows > limits.Minidb.Limits.max_result_rows then begin
      probe s_limit 31;
      Minidb.Errors.fail (Minidb.Errors.Limit_exceeded "result rows")
    end;
    rows
  in
  let result =
    match run () with rows -> Ok rows | exception e -> Error (describe e)
  in
  (result, !scanned, B.compact cov)

let select_cols = [| "a"; "b"; "c"; "d" |]

(* Few distinct values of every kind, so sort keys tie often. *)
let gen_cell rng =
  match Rng.int rng 9 with
  | 0 -> V.Null
  | 1 | 2 | 3 -> V.Int (Rng.int rng 4 - 1)
  | 4 -> V.Float (Rng.choose rng [ 1.0; 0.5; -0.0; 2.5 ])
  | 5 | 6 -> V.Text (Rng.choose rng [ "a"; "b"; "1"; "" ])
  | 7 -> V.Bool (Rng.bool rng)
  | _ -> V.Int (Rng.int rng 2)

(* Columns mostly from the relations in FROM ([scope]: alias and
   columns), qualified or not; now and then one that is not there. *)
let gen_sel_col scope rng =
  if Rng.int rng 12 = 0 then
    Col
      ( Rng.choose rng [ None; Some "t2"; Some "x" ],
        Rng.choose_arr rng select_cols )
  else
    let alias, cols = Rng.choose rng scope in
    Col ((if Rng.bool rng then Some alias else None), Rng.choose rng cols)

let gen_sel_expr scope rng =
  let col () = gen_sel_col scope rng in
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 | 4 -> col ()
  | 5 -> Binop (Add, col (), Lit (L_int 1))
  | 6 -> Binop (Mul, col (), col ())
  | 7 -> Cast (col (), Rng.choose rng [ T_int; T_text ])
  | 8 ->
    Case ([ (Binop (Gt, col (), Lit (L_int 0)), col ()) ],
          Some (Lit (L_string "z")))
  | _ -> Lit (Rng.choose rng [ L_null; L_int 7; L_float 0.5 ])

let sel_table name cols rng =
  let t =
    Storage.Table.create ~name ~temp:false
      (List.map
         (fun c_name ->
            { Storage.Table.c_name; c_type = T_int; c_not_null = false;
              c_primary = false; c_unique = false; c_default = None;
              c_zerofill = false })
         cols)
  in
  let rows = if Rng.int rng 8 = 0 then 0 else 1 + Rng.int rng 12 in
  for _ = 1 to rows do
    ignore
      (Storage.Table.insert t
         (Array.of_list (List.map (fun _ -> gen_cell rng) cols)))
  done;
  t

(* t1 (a, b, c) and t2 (a, d): [a] is ambiguous in a join, and [x]
   sometimes aliases t1. *)
let gen_select rng =
  let t1_cols = [ "a"; "b"; "c" ] and t2_cols = [ "a"; "d" ] in
  let t1 = sel_table "t1" t1_cols rng in
  let t2 = sel_table "t2" t2_cols rng in
  let t1_alias = if Rng.int rng 4 = 0 then "x" else "t1" in
  let t1_ref =
    From_table
      { name = "t1"; alias = (if t1_alias = "x" then Some "x" else None) }
  in
  let t2_ref = From_table { name = "t2"; alias = None } in
  let t1_scope = (t1_alias, t1_cols) and t2_scope = ("t2", t2_cols) in
  let from, scope =
    match Rng.int rng 6 with
    | 0 | 1 -> (t1_ref, [ t1_scope ])
    | 2 -> (t2_ref, [ t2_scope ])
    | _ ->
      let scope = [ t1_scope; t2_scope ] in
      let kind = Rng.choose rng [ Inner; Left; Right; Cross ] in
      let on =
        if kind = Cross then None
        else if Rng.int rng 3 = 0 then
          Some (Binop (Ge, gen_sel_col scope rng, gen_sel_col scope rng))
        else Some (Binop (Eq, Col (Some t1_alias, "a"), Col (Some "t2", "a")))
      in
      (From_join { left = t1_ref; kind; right = t2_ref; on }, scope)
  in
  let projs =
    match Rng.int rng 4 with
    | 0 -> [ Star ]
    | _ ->
      List.init (1 + Rng.int rng 3) (fun _ ->
          match Rng.int rng 8 with
          | 0 -> Star
          | 1 ->
            Star_of
              (if Rng.int rng 4 = 0 then "zz" else fst (Rng.choose rng scope))
          | _ -> Proj (gen_sel_expr scope rng, None))
  in
  let where =
    match Rng.int rng 4 with
    | 0 ->
      Some
        (Binop
           (Rng.choose rng [ Gt; Le; Neq ], gen_sel_col scope rng,
            Lit (L_int 0)))
    | 1 -> Some (Is_null (gen_sel_col scope rng, true))
    | _ -> None
  in
  let order_by =
    List.init (Rng.int rng 4) (fun _ ->
        ( (if Rng.int rng 3 = 0 then gen_sel_expr scope rng
           else gen_sel_col scope rng),
          Rng.choose rng [ Asc; Desc ] ))
  in
  let small () = Rng.int rng 5 in
  let limit =
    Rng.choose rng
      [ None; None; None; Some 0; Some (small ()); Some (small ());
        Some (small ()); Some (small ()); Some 100; Some (-1) ]
  in
  let offset =
    Rng.choose rng [ None; None; None; Some 0; Some (small ()); Some 100 ]
  in
  let limits =
    if Rng.int rng 8 = 0 then Minidb.Limits.tiny else Minidb.Limits.default
  in
  ( [ t1; t2 ], limits,
    { distinct = Rng.int rng 4 = 0; projs; from = Some from; where;
      group_by = []; having = None; order_by; limit; offset } )

let print_select (tables, limits, s) =
  String.concat "\n"
    (List.map
       (fun t ->
          Printf.sprintf "%s: %s" (Storage.Table.name t)
            (String.concat "; "
               (List.map
                  (fun (_, r) ->
                     String.concat ","
                       (Array.to_list (Array.map V.to_display r)))
                  (Storage.Table.to_rows t))))
       tables)
  ^ Printf.sprintf "\n%s%s"
    (if limits == Minidb.Limits.tiny then "(tiny limits) " else "")
    (Sql_printer.stmt (S_select (Q_select s)))

let run_select_case ?sort ?window (tables, limits, s) =
  let cat = Minidb.Catalog.create () in
  List.iter
    (fun t ->
       Hashtbl.replace cat.Minidb.Catalog.tables (Storage.Table.name t) t)
    tables;
  let engine =
    let cov = B.create () in
    let ctx = Minidb.Executor.create_ctx ~cat ~profile ~limits ~cov in
    let result =
      match Minidb.Executor.run_query ctx (Q_select s) with
      | rows -> Ok rows
      | exception e -> Error (describe e)
    in
    (result, Minidb.Executor.rows_scanned ctx, B.compact cov)
  in
  (engine, reference_select ?sort ?window ~cat ~limits ~cov:(B.create ()) s)

let select_gen = Prop.make ~print:print_select gen_select

let prop_single_pass_select () =
  let topk = ref 0 and several = ref 0 in
  Prop.check ~count:1000 ~name:"single-pass select ≡ reference" select_gen
    (fun ((_, _, s) as case) ->
       let engine, reference = run_select_case case in
       (match engine with
        | Ok rows, _, _ when s.order_by <> [] && s.limit <> None ->
          incr topk;
          if List.length rows > 1 then incr several
        | _ -> ());
       engine = reference);
  Alcotest.(check bool) "top-k exercised" true (!topk > 100 && !several > 20)

(* The property notices a top-k that breaks ties against arrival order,
   and one that keeps LIMIT rows before dropping OFFSET. *)
let prop_select_detects_broken_topk () =
  let unstable cmp rows = List.stable_sort cmp (List.rev rows) in
  let no_offset ~offset ~limit rows =
    stable_window ~offset ~limit:None (stable_window ~offset:None ~limit rows)
  in
  List.iter
    (fun (name, agrees) ->
       match Prop.run ~count:1000 ~name select_gen agrees with
       | Prop.Fail _ -> ()
       | Prop.Pass _ -> Alcotest.fail (name ^ " passed the property"))
    [ ( "unstable top-k",
        fun case ->
          let engine, reference = run_select_case ~sort:unstable case in
          engine = reference );
      ( "top-k without offset",
        fun case ->
          let engine, reference = run_select_case ~window:no_offset case in
          engine = reference ) ]

(* -- compare_total -------------------------------------------------- *)

(* [Value.compare_total] as it was: equal kinds by their own order,
   numbers through [Some float]. *)
let reference_compare a b =
  let rank = function
    | V.Null -> 0 | V.Bool _ -> 1 | V.Int _ | V.Float _ -> 2 | V.Text _ -> 3
  in
  let num_of = function
    | V.Int n -> Some (float_of_int n)
    | V.Float f -> Some f
    | V.Bool b -> Some (if b then 1.0 else 0.0)
    | V.Null | V.Text _ -> None
  in
  let ra = rank a and rb = rank b in
  if ra <> rb then Int.compare ra rb
  else
    match (a, b) with
    | V.Null, V.Null -> 0
    | V.Bool x, V.Bool y -> Bool.compare x y
    | V.Text x, V.Text y -> String.compare x y
    | _ -> (
        match (num_of a, num_of b) with
        | Some x, Some y -> Float.compare x y
        | _ -> 0)

let p53 = 1 lsl 53

let gen_compare_value rng =
  match Rng.int rng 8 with
  | 0 | 1 ->
    V.Int
      (Rng.choose rng
         [ 0; 1; -1; p53; p53 + 1; p53 - 1; -p53; -p53 - 1; -p53 + 1;
           p53 + 2; min_int; max_int; min_int + 1; max_int - 1 ])
  | 2 -> V.Int (Rng.int rng 7 - 3)
  | 3 -> V.Int ((if Rng.bool rng then p53 else -p53) + Rng.int rng 9 - 4)
  | 4 | 5 ->
    V.Float
      (Rng.choose rng
         [ 0.0; -0.0; 1.0; -1.0; 0.5; nan; -.nan; infinity; neg_infinity;
           float_of_int p53; float_of_int p53 +. 2.0; -.float_of_int p53;
           max_float; min_float; float_of_int max_int; float_of_int min_int ])
  | 6 -> V.Float (float_of_int (Rng.int rng 7 - 3))
  | _ ->
    Rng.choose rng [ V.Null; V.Bool true; V.Bool false; V.Text ""; V.Text "1" ]

let prop_compare_total () =
  Prop.check ~count:1000 ~name:"compare_total fast path ≡ float comparison"
    (Prop.make
       ~print:(fun (a, b) ->
           Printf.sprintf "%s %s / %s %s" (V.type_name a) (V.to_display a)
             (V.type_name b) (V.to_display b))
       (fun rng -> (gen_compare_value rng, gen_compare_value rng)))
    (fun (a, b) -> V.compare_total a b = reference_compare a b)

let test_compare_total_allocates_nothing () =
  let pairs =
    [| (V.Int 3, V.Int (-4)); (V.Float 0.5, V.Float nan);
       (V.Int p53, V.Int (-p53)); (V.Float (-0.0), V.Float 0.0) |]
  in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    let a, b = pairs.(i mod Array.length pairs) in
    ignore (Sys.opaque_identity (V.compare_total a b))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 10k compares" words)
    true (words < 100.)

let suite =
  [ ("window memo ≡ per-row reference", `Quick, prop_window_memo);
    ("deferred index ≡ eager rebuild", `Quick, prop_deferred_index);
    ("grammar memo ≡ whole-testcase parse", `Quick, prop_grammar_memo);
    ("single-pass select ≡ reference", `Quick, prop_single_pass_select);
    ("select property catches broken top-k", `Quick,
     prop_select_detects_broken_topk);
    ("compare_total fast path ≡ float comparison", `Quick,
     prop_compare_total);
    ("compare_total allocates nothing", `Quick,
     test_compare_total_allocates_nothing) ]
