(* Reproduction harness for every table and figure of "Sequence-Oriented
   DBMS Fuzzing" (LEGO, ICDE 2023), plus bechamel micro-benchmarks of the
   core operations. See DESIGN.md for the experiment index and
   EXPERIMENTS.md for paper-vs-measured numbers.

   One shared campaign set drives Figure 9 and Tables II/III/IV; Table I
   extends the LEGO campaigns to a larger "continuous fuzzing" budget. *)

open Exp_common

let fuzzers_for profile =
  let base =
    [ make_lego profile; make_lego ~seq:false profile;
      make_squirrel profile; make_sqlancer profile ]
  in
  (* the paper runs SQLsmith on PostgreSQL only (syntax support) *)
  if Minidb.Profile.name profile = "PostgreSQL" then
    base @ [ make_sqlsmith profile ]
  else base

let all_campaigns =
  lazy
    (List.concat_map
       (fun profile ->
          List.map
            (fun mk ->
               let c = run_campaign profile mk in
               Printf.printf
                 "  [campaign] %-9s on %-10s: %6d branches, %2d bugs\n%!"
                 c.c_fuzzer c.c_dialect c.c_final.Fuzz.Driver.st_branches
                 (List.length c.c_final.Fuzz.Driver.st_bugs);
               c)
            (fuzzers_for profile))
       dialects)

let find c fuzzer dialect =
  List.find_opt
    (fun x -> x.c_fuzzer = fuzzer && x.c_dialect = dialect)
    c

(* ------------------------------------------------------------------ *)
(* Figure 9: branch coverage per fuzzer per DBMS                       *)
(* ------------------------------------------------------------------ *)

let fig9 campaigns =
  section
    (Printf.sprintf
       "Figure 9 -- branches covered per fuzzer per DBMS (%d-exec budget \
        ~ the paper's 24 h)"
       budget);
  let widths = [ 12; 10; 10; 10; 10; 10 ] in
  print_row widths
    [ "DBMS"; "LEGO"; "LEGO-"; "SQUIRREL"; "SQLancer"; "SQLsmith" ];
  List.iter
    (fun profile ->
       let d = dialect_name profile in
       let cell fz =
         match find campaigns fz d with
         | Some c -> string_of_int c.c_final.Fuzz.Driver.st_branches
         | None -> "-"
       in
       print_row widths
         [ d; cell "LEGO"; cell "LEGO-"; cell "SQUIRREL"; cell "SQLancer";
           cell "SQLsmith" ])
    dialects;
  print_newline ();
  print_endline "Coverage growth series (execs:branches), LEGO per DBMS:";
  List.iter
    (fun c ->
       if c.c_fuzzer = "LEGO" then begin
         Printf.printf "  %-12s" c.c_dialect;
         List.iter (fun (e, b) -> Printf.printf " %d:%d" e b) c.c_series;
         print_newline ()
       end)
    campaigns;
  print_newline ();
  let ratio_vs fz =
    let ratios =
      List.filter_map
        (fun profile ->
           let d = dialect_name profile in
           match (find campaigns "LEGO" d, find campaigns fz d) with
           | Some l, Some o when o.c_final.Fuzz.Driver.st_branches > 0 ->
             Some
               (float_of_int l.c_final.Fuzz.Driver.st_branches
                /. float_of_int o.c_final.Fuzz.Driver.st_branches)
           | _ -> None)
        dialects
    in
    if ratios = [] then 0.0
    else
      (List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
       -. 1.0)
      *. 100.0
  in
  Printf.printf
    "LEGO covers more branches on average: +%.0f%% vs SQLancer (paper \
     +198%%), +%.0f%% vs SQLsmith (paper +44%%), +%.0f%% vs SQUIRREL \
     (paper +120%%)\n"
    (ratio_vs "SQLancer") (ratio_vs "SQLsmith") (ratio_vs "SQUIRREL")

(* ------------------------------------------------------------------ *)
(* Table II: type-affinities in each fuzzer's generated seeds          *)
(* ------------------------------------------------------------------ *)

let table2 campaigns =
  section
    "Table II -- type-affinities in the seeds generated by each fuzzer \
     (SQLsmith excluded: one statement per test case)";
  let widths = [ 12; 10; 10; 10 ] in
  print_row widths [ "DBMS"; "SQLancer"; "SQUIRREL"; "LEGO" ];
  let totals = Hashtbl.create 4 in
  List.iter
    (fun profile ->
       let d = dialect_name profile in
       let census fz =
         match find campaigns fz d with
         | Some c ->
           let n =
             Lego.Affinity.count (Lego.Affinity.of_corpus (c.c_corpus ()))
           in
           let prev = try Hashtbl.find totals fz with Not_found -> 0 in
           Hashtbl.replace totals fz (prev + n);
           string_of_int n
         | None -> "-"
       in
       print_row widths
         [ d; census "SQLancer"; census "SQUIRREL"; census "LEGO" ])
    dialects;
  let tot fz = try Hashtbl.find totals fz with Not_found -> 0 in
  print_row widths
    [ "Total"; string_of_int (tot "SQLancer");
      string_of_int (tot "SQUIRREL"); string_of_int (tot "LEGO") ];
  Printf.printf
    "LEGO's increment: +%d vs SQLancer (paper +2937), +%d vs SQUIRREL \
     (paper +3588); paper totals 770 / 119 / 3707\n"
    (tot "LEGO" - tot "SQLancer")
    (tot "LEGO" - tot "SQUIRREL")

(* ------------------------------------------------------------------ *)
(* Table III: bugs triggered within the budget                         *)
(* ------------------------------------------------------------------ *)

let table3 campaigns =
  section "Table III -- number of bugs triggered within the budget";
  let widths = [ 12; 10; 10; 10; 8 ] in
  print_row widths [ "DBMS"; "SQLancer"; "SQLsmith"; "SQUIRREL"; "LEGO" ];
  let totals = Hashtbl.create 4 in
  List.iter
    (fun profile ->
       let d = dialect_name profile in
       let bugs fz =
         match find campaigns fz d with
         | Some c ->
           let n = List.length c.c_final.Fuzz.Driver.st_bugs in
           let prev = try Hashtbl.find totals fz with Not_found -> 0 in
           Hashtbl.replace totals fz (prev + n);
           string_of_int n
         | None -> "-"
       in
       print_row widths
         [ d; bugs "SQLancer"; bugs "SQLsmith"; bugs "SQUIRREL";
           bugs "LEGO" ])
    dialects;
  let tot fz = try Hashtbl.find totals fz with Not_found -> 0 in
  print_row widths
    [ "Total"; string_of_int (tot "SQLancer");
      string_of_int (tot "SQLsmith"); string_of_int (tot "SQUIRREL");
      string_of_int (tot "LEGO") ];
  print_endline "(paper totals: SQLancer 0, SQLsmith 0, SQUIRREL 11, LEGO 52)"

(* ------------------------------------------------------------------ *)
(* Table IV: LEGO vs LEGO- ablation                                    *)
(* ------------------------------------------------------------------ *)

let table4 campaigns =
  section
    "Table IV -- ablation: type-affinities found and branches covered by \
     LEGO- and LEGO";
  let widths = [ 12; 6; 8; 8; 10; 9; 9; 12 ] in
  print_row widths
    [ "DBMS"; "Types"; "Aff(-)"; "Aff"; "Increment"; "Br(-)"; "Br";
      "Improvement" ];
  let improvements = ref [] in
  List.iter
    (fun profile ->
       let d = dialect_name profile in
       match (find campaigns "LEGO" d, find campaigns "LEGO-" d) with
       | Some lego, Some minus ->
         let aff c =
           Lego.Affinity.count (Lego.Affinity.of_corpus (c.c_corpus ()))
         in
         let a_minus = aff minus and a_lego = aff lego in
         let b_minus = minus.c_final.Fuzz.Driver.st_branches in
         let b_lego = lego.c_final.Fuzz.Driver.st_branches in
         let imp = pct_improvement b_lego b_minus in
         improvements :=
           (Minidb.Profile.type_count profile, imp) :: !improvements;
         print_row widths
           [ d;
             string_of_int (Minidb.Profile.type_count profile);
             string_of_int a_minus;
             string_of_int a_lego;
             Printf.sprintf "+%d" (a_lego - a_minus);
             string_of_int b_minus;
             string_of_int b_lego;
             Printf.sprintf "%.0f%%" imp ]
       | _ -> ())
    dialects;
  print_newline ();
  print_endline
    "Paper's Table IV: PG 188 types, +337 affinities, +20%; MySQL 158, \
     +48, +15%; MariaDB 160, +119, +25%; Comdb2 24, +29, +7%";
  match List.sort compare !improvements with
  | (few_types, few_imp) :: (_ :: _ as rest) ->
    let max_imp = List.fold_left (fun acc (_, i) -> max acc i) few_imp rest in
    Printf.printf
      "Correlation check: smallest type inventory (%d types) improves \
       %.0f%%; the largest improvement elsewhere is %.0f%% (paper: Comdb2 \
       7%% vs up to 25%%)\n"
      few_types few_imp max_imp
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Table I: continuous fuzzing -- the discovered bug inventory          *)
(* ------------------------------------------------------------------ *)

let table1 campaigns =
  section
    (Printf.sprintf
       "Table I -- vulnerabilities discovered by LEGO in continuous \
        fuzzing (%d-exec budget)"
       continuous_budget);
  let paper_counts =
    [ ("PostgreSQL", 6); ("MySQL", 21); ("MariaDB", 42); ("Comdb2", 33) ]
  in
  let total = ref 0 in
  List.iter
    (fun profile ->
       let d = dialect_name profile in
       match find campaigns "LEGO" d with
       | None -> ()
       | Some c ->
         (* extend the existing LEGO campaign: same fuzzer state, larger
            budget, like continuous fuzzing that is never stopped (with
            REPRO_JOBS > 1 this extends shard 0's campaign) *)
         ignore (Fuzz.Driver.run_until_execs c.c_fz ~execs:continuous_budget);
         let tri = Fuzz.Harness.triage c.c_fz.Fuzz.Driver.f_harness in
         let uniques = Fuzz.Triage.unique tri in
         total := !total + List.length uniques;
         Printf.printf "\n%s: %d bugs found (paper: %d over two weeks)\n" d
           (List.length uniques)
           (List.assoc d paper_counts);
         let comps =
           List.sort_uniq compare
             (List.map
                (fun (cr : Minidb.Fault.crash) ->
                   cr.Minidb.Fault.c_bug.Minidb.Fault.component)
                uniques)
         in
         List.iter
           (fun comp ->
              let bugs =
                List.filter_map
                  (fun (cr : Minidb.Fault.crash) ->
                     let b = cr.Minidb.Fault.c_bug in
                     if b.Minidb.Fault.component = comp then Some b else None)
                  uniques
              in
              let kinds =
                List.sort_uniq compare
                  (List.map
                     (fun (b : Minidb.Fault.bug) ->
                        Minidb.Fault.kind_name b.Minidb.Fault.kind)
                     bugs)
                |> List.map (fun k ->
                    let n =
                      List.length
                        (List.filter
                           (fun (b : Minidb.Fault.bug) ->
                              Minidb.Fault.kind_name b.Minidb.Fault.kind = k)
                           bugs)
                    in
                    Printf.sprintf "%s(%d)" k n)
              in
              let ids =
                List.map
                  (fun (b : Minidb.Fault.bug) -> b.Minidb.Fault.identifier)
                  bugs
              in
              Printf.printf "  %-10s %-24s %s\n" comp
                (String.concat ", " kinds)
                (String.concat ", " ids))
           comps)
    dialects;
  Printf.printf
    "\nTotal discovered: %d of the %d seeded bugs (paper: 102 confirmed, \
     22 CVEs)\n"
    !total Dialects.Bug_inventory.total

(* ------------------------------------------------------------------ *)
(* Section VI length study                                             *)
(* ------------------------------------------------------------------ *)

let length_ablation () =
  section
    (Printf.sprintf
       "Sequence-length study (paper SVI) -- LEGO bugs on MariaDB with \
        LEN = 3 / 5 / 8 (%d-exec budget)"
       budget);
  let widths = [ 8; 10; 12 ] in
  print_row widths [ "LEN"; "bugs"; "paper" ];
  let paper = [ (3, 30); (5, 35); (8, 27) ] in
  let results =
    List.map
      (fun len ->
         let mk =
           make_lego ~max_seq_len:len Dialects.Registry.mariadb_sim
         in
         let c = run_campaign Dialects.Registry.mariadb_sim mk in
         let bugs = List.length c.c_final.Fuzz.Driver.st_bugs in
         print_row widths
           [ string_of_int len; string_of_int bugs;
             string_of_int (List.assoc len paper) ];
         (len, bugs))
      [ 3; 5; 8 ]
  in
  match results with
  | [ (_, b3); (_, b5); (_, b8) ] ->
    Printf.printf
      "Paper finds an interior maximum at LEN=5 (30/35/27); measured \
       %d/%d/%d\n"
      b3 b5 b8
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* SVI feasibility: extending SQUIRREL with LEGO's affinities           *)
(* ------------------------------------------------------------------ *)

let squirrel_plus_ablation () =
  section
    (Printf.sprintf
       "SVI feasibility -- SQUIRREL extended with LEGO's exported         type-affinities (MariaDB, %d-exec budget)"
       budget);
  let profile = Dialects.Registry.mariadb_sim in
  (* learn affinities with a LEGO campaign, export, re-import *)
  let lego = Lego.Lego_fuzzer.create profile in
  let _ =
    Fuzz.Driver.run_until_execs (Lego.Lego_fuzzer.fuzzer lego)
      ~execs:(budget / 2)
  in
  let exported =
    Lego.Affinity.to_string (Lego.Lego_fuzzer.affinities lego)
  in
  let affinities =
    match Lego.Affinity.of_string exported with
    | Ok t -> t
    | Error msg -> failwith msg
  in
  Printf.printf "affinities exported by LEGO: %d\n"
    (Lego.Affinity.count affinities);
  let results =
    List.map
      (fun (name, fz) ->
         let snap = Fuzz.Driver.run_until_execs fz ~execs:budget in
         (name, snap))
      [ ("SQUIRREL",
         Baselines.Squirrel_sim.fuzzer (Baselines.Squirrel_sim.create profile));
        ("SQUIRREL+",
         Baselines.Squirrel_plus.fuzzer
           (Baselines.Squirrel_plus.create ~affinities profile)) ]
  in
  let widths = [ 12; 10; 8 ] in
  print_row widths [ "Fuzzer"; "branches"; "bugs" ];
  List.iter
    (fun (name, (snap : Fuzz.Driver.snapshot)) ->
       print_row widths
         [ name; string_of_int snap.Fuzz.Driver.st_branches;
           string_of_int (List.length snap.st_bugs) ])
    results;
  match results with
  | [ (_, plain); (_, plus) ] ->
    Printf.printf
      "Imported affinities buy +%d branches without re-implementing        LEGO's discovery loop -- the paper's SVI claim that the knowledge        transfers but discovery does not.\n"
      (plus.Fuzz.Driver.st_branches - plain.Fuzz.Driver.st_branches)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Exchange ablation: 4 shards with vs without bidirectional exchange  *)
(* ------------------------------------------------------------------ *)

(* Same fuzzer, same seed, same total budget, 4 shards either way; the
   only difference is whether sync rounds exchange seeds/affinities and
   pull the global virgin map back. Returns BENCH_campaigns.json metric
   rows so the perf trajectory records the exchange gain. *)
let exchange_ablation () =
  section
    (Printf.sprintf
       "Exchange ablation -- LEGO on PostgreSQL, 4 shards, bidirectional \
        seed/affinity exchange on vs off (%d-exec budget)"
       budget);
  let profile = Dialects.Registry.pg_sim in
  (* Clamp the interval so every shard gets ~4 exchange rounds even at
     smoke-test budgets where the default 4096 exceeds a shard's share. *)
  let ablation_sync = min sync_every (max 1 (budget / 16)) in
  let run_mode ~label exchange =
    run_campaign ~jobs:4 ~exchange ~sync_every:ablation_sync
      ~series_prefix:(Printf.sprintf "exchange-%s/" label) profile
      (make_lego profile)
  in
  let on = run_mode ~label:"on" Fuzz.Sync.exchange_all in
  let off = run_mode ~label:"off" Fuzz.Sync.exchange_off in
  let widths = [ 10; 10; 8; 10 ] in
  print_row widths [ "Exchange"; "branches"; "bugs"; "wall" ];
  List.iter
    (fun (label, c) ->
       print_row widths
         [ label;
           string_of_int c.c_final.Fuzz.Driver.st_branches;
           string_of_int (List.length c.c_final.Fuzz.Driver.st_bugs);
           Printf.sprintf "%.1fs" c.c_wall_s ])
    [ ("on", on); ("off", off) ];
  Printf.printf
    "Exchange buys %+d aggregate branches and %+d bugs at equal budget\n"
    (on.c_final.Fuzz.Driver.st_branches - off.c_final.Fuzz.Driver.st_branches)
    (List.length on.c_final.Fuzz.Driver.st_bugs
     - List.length off.c_final.Fuzz.Driver.st_bugs);
  List.concat_map
    (fun (label, c) ->
       [ (Printf.sprintf "exchange/jobs4/%s/branches" label,
          float_of_int c.c_final.Fuzz.Driver.st_branches, "branches");
         (Printf.sprintf "exchange/jobs4/%s/bugs" label,
          float_of_int (List.length c.c_final.Fuzz.Driver.st_bugs), "bugs");
         (Printf.sprintf "exchange/jobs4/%s/wall" label, c.c_wall_s, "s") ])
    [ ("on", on); ("off", off) ]

(* ------------------------------------------------------------------ *)
(* Exec-cache ablation: prefix-snapshot cache on vs off                 *)
(* ------------------------------------------------------------------ *)

(* Where the cache earns its keep: a mutation batch over a seed whose
   shared prefix is expensive — bulk INSERTs building a full 2048-row
   table — with a fresh query as the suffix. Cold execution replays the
   data load for every candidate; the cache restores a snapshot of it
   (a deep copy, much cheaper than re-evaluating 2048 row inserts).
   This is the harness-level regime — SQLsmith's preamble model, or a
   LEGO seed whose statements accumulate state. Campaign-level speedup
   depends on how much of a campaign's execution cost sits in shared
   prefixes; the cache/jobs1 rows report that honestly. *)
let cache_prefix_bench () =
  let metric_prefix = "cache/prefix_batch" in
  let profile = Dialects.Registry.pg_sim in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "CREATE TABLE big (c1 INT PRIMARY KEY, c2 INT, c3 VARCHAR(16));\n";
  for chunk = 0 to 7 do
    Buffer.add_string buf "INSERT INTO big VALUES ";
    for i = 0 to 255 do
      let k = (chunk * 256) + i in
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "(%d, %d, 'r%d')" k (k * 7 mod 97) (k mod 13))
    done;
    Buffer.add_string buf ";\n"
  done;
  let prefix = Sqlparser.Parser.parse_testcase_exn (Buffer.contents buf) in
  let plen = List.length prefix in
  let children =
    List.init 64 (fun i ->
        prefix
        @ Sqlparser.Parser.parse_testcase_exn
            (Printf.sprintf
               "SELECT c2, COUNT(*) FROM big WHERE c1 %% %d = %d GROUP BY \
                c2 ORDER BY c2;"
               (2 + (i mod 7)) (i mod 3)))
  in
  let run exec_cache =
    let h = Fuzz.Harness.create ~exec_cache ~profile () in
    let start = Telemetry.Span.now_s () in
    let outs =
      List.map (fun tc -> Fuzz.Harness.execute ~hint:plen h tc) children
    in
    (outs, Telemetry.Span.now_s () -. start)
  in
  let outs_off, wall_off = run 0 in
  let outs_on, wall_on = run 1024 in
  if outs_on <> outs_off then
    print_endline
      "WARNING: shared-prefix batch outcomes differ -- determinism bug!";
  let n = float_of_int (List.length children) in
  Printf.printf
    "Shared-prefix batch (%d-stmt data prefix, %d candidates): off %.0f \
     execs/s, on %.0f execs/s -- %.1fx\n"
    plen (List.length children) (n /. wall_off) (n /. wall_on)
    (wall_off /. wall_on);
  [ (metric_prefix ^ "/off/execs_per_sec", n /. wall_off, "execs/s");
    (metric_prefix ^ "/on/execs_per_sec", n /. wall_on, "execs/s");
    (metric_prefix ^ "/speedup", wall_off /. wall_on, "ratio") ]

(* Same fuzzer, same seed, same budget, jobs=1 for determinism; the only
   difference is whether the harness restores cached prefix snapshots
   instead of replaying shared prefixes (DESIGN.md §12). Outcomes are
   byte-identical by construction (asserted here); the interesting rows
   are wall clock, execs/s and the hit rate. *)
let cache_ablation () =
  section
    (Printf.sprintf
       "Exec-cache ablation -- LEGO on PostgreSQL, prefix-snapshot cache \
        on vs off (%d-exec budget)"
       budget);
  let profile = Dialects.Registry.pg_sim in
  let run_mode ~label exec_cache =
    run_campaign ~jobs:1
      ~series_prefix:(Printf.sprintf "cache-%s/" label) profile
      (make_lego ~exec_cache profile)
  in
  let on = run_mode ~label:"on" 1024 in
  let off = run_mode ~label:"off" 0 in
  if on.c_final <> off.c_final then
    print_endline
      "WARNING: cache on/off campaign outcomes differ -- determinism bug!"
  else
    print_endline "outcome check: cache on/off campaigns byte-identical";
  let widths = [ 8; 10; 10; 12; 10 ] in
  print_row widths [ "Cache"; "branches"; "wall"; "execs/s"; "hit rate" ];
  List.iter
    (fun (label, c) ->
       print_row widths
         [ label;
           string_of_int c.c_final.Fuzz.Driver.st_branches;
           Printf.sprintf "%.2fs" c.c_wall_s;
           Printf.sprintf "%.0f" (execs_per_sec c);
           (let r = cache_hit_rate c in
            if Float.is_nan r then "-" else Printf.sprintf "%.0f%%" (100. *. r))
         ])
    [ ("on", on); ("off", off) ];
  Printf.printf "Cache speedup: %.2fx execs/s at equal budget and outcomes\n"
    (if execs_per_sec off > 0. then execs_per_sec on /. execs_per_sec off
     else 0.);
  let campaign_rows =
    List.concat_map
      (fun (label, c) ->
         [ (Printf.sprintf "cache/jobs1/%s/branches" label,
            float_of_int c.c_final.Fuzz.Driver.st_branches, "branches");
           (Printf.sprintf "cache/jobs1/%s/wall" label, c.c_wall_s, "s");
           (Printf.sprintf "cache/jobs1/%s/execs_per_sec" label,
            execs_per_sec c, "execs/s") ]
         @
         (let r = cache_hit_rate c in
          if Float.is_nan r then []
          else [ (Printf.sprintf "cache/jobs1/%s/hit_rate" label, r, "ratio") ]))
      [ ("on", on); ("off", off) ]
  in
  campaign_rows @ cache_prefix_bench ()

(* REPRO_FEEDBACK ablation: identical LEGO campaign under edge-bitmap
   feedback (the paper's signal, the default) versus combined
   edge+grammar feedback (DESIGN.md §15). Grammar mode re-parses every
   executed case into a rule-pair bitmap, widens the keep/analyze
   signal to either kind of news, and biases generation toward unfired
   rule pairs; the comparison records how many total coverage keys
   (edge branches + grammar rules + rule pairs) each signal reaches at
   an equal execution budget. *)
let feedback_ablation () =
  section
    (Printf.sprintf
       "Feedback ablation -- LEGO on PostgreSQL, edges vs edges+grammar \
        coverage signal (%d-exec budget)"
       budget);
  let profile = Dialects.Registry.pg_sim in
  let run_mode ~label feedback =
    Gc.compact ();
    run_campaign ~jobs:1
      ~series_prefix:(Printf.sprintf "feedback-%s/" label) profile
      (make_lego ~feedback profile)
  in
  let edges = run_mode ~label:"edges" Fuzz.Harness.Edges in
  let both = run_mode ~label:"both" Fuzz.Harness.Both in
  let rules c = Telemetry.Registry.gauge_value c.c_metrics "grammar.rules" in
  let pairs c = Telemetry.Registry.gauge_value c.c_metrics "grammar.pairs" in
  let keys c = c.c_final.Fuzz.Driver.st_branches + rules c + pairs c in
  let widths = [ 8; 10; 8; 8; 10; 10 ] in
  print_row widths
    [ "Feedback"; "branches"; "rules"; "pairs"; "total keys"; "execs/s" ];
  List.iter
    (fun (label, c) ->
       print_row widths
         [ label;
           string_of_int c.c_final.Fuzz.Driver.st_branches;
           string_of_int (rules c);
           string_of_int (pairs c);
           string_of_int (keys c);
           Printf.sprintf "%.0f" (execs_per_sec c) ])
    [ ("edges", edges); ("both", both) ];
  Printf.printf
    "Coverage-key lift of edges+grammar over edges: %+d keys (%d vs %d) \
     at equal budget\n"
    (keys both - keys edges) (keys both) (keys edges);
  List.concat_map
    (fun (label, c) ->
       [ (Printf.sprintf "feedback/jobs1/%s/branches" label,
          float_of_int c.c_final.Fuzz.Driver.st_branches, "branches");
         (Printf.sprintf "feedback/jobs1/%s/grammar_rules" label,
          float_of_int (rules c), "rules");
         (Printf.sprintf "feedback/jobs1/%s/grammar_pairs" label,
          float_of_int (pairs c), "pairs");
         (Printf.sprintf "feedback/jobs1/%s/coverage_keys" label,
          float_of_int (keys c), "keys");
         (Printf.sprintf "feedback/jobs1/%s/wall" label, c.c_wall_s, "s");
         (Printf.sprintf "feedback/jobs1/%s/execs_per_sec" label,
          execs_per_sec c, "execs/s") ])
    [ ("edges", edges); ("both", both) ]

(* REPRO_FARM ablation: the farm scheduler's UCB1 bandit allocation
   versus a round-robin split over the same two campaigns at equal
   farm-wide budget (DESIGN.md §16). The arms have deliberately unequal
   yield — LEGO with edge+grammar feedback versus SQLsmith on a quirk
   dialect under plain edge feedback — so the bandit has signal to act
   on; the rows record new coverage keys farm-wide and the budget share
   the higher-yield arm received under each policy. *)
let farm_ablation () =
  let farm_budget =
    match Sys.getenv_opt "REPRO_FARM" with
    | Some s -> (try max 2000 (int_of_string s) with Failure _ -> 24_000)
    | None -> 24_000
  in
  section
    (Printf.sprintf
       "Farm scheduling ablation -- UCB1 bandit vs round-robin budget \
        split (%d-exec farm budget; set REPRO_FARM)"
       farm_budget);
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter
          (fun e -> rm_rf (Filename.concat path e))
          (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let mk_campaign id fuzzer dialect quirks feedback =
    { Farm.Store.sc_id = id;
      sc_fuzzer = fuzzer;
      sc_dialect = dialect;
      sc_quirks = quirks;
      sc_feedback = feedback;
      sc_oracles = false;
      sc_exec_cache = 0;
      sc_seed = 3;
      sc_budget = farm_budget }
  in
  let run_policy policy =
    Gc.compact ();
    let spec =
      { Farm.Spec.fs_campaigns =
          [ mk_campaign "hot" "lego" "postgresql" [] Fuzz.Harness.Both;
            mk_campaign "cold" "sqlsmith" "mysql"
              [ "index_eq_skips_first" ] Fuzz.Harness.Edges ];
        fs_total_execs = farm_budget;
        fs_round_execs = max 500 (farm_budget / 12);
        fs_workers = 2;
        fs_policy = policy;
        fs_ucb_c = 0.3 }
    in
    let runs_dir = Filename.temp_file "legofuzz-bench-farm-" "" in
    Sys.remove runs_dir;
    Farm.Store.ensure_dir runs_dir;
    Fun.protect
      ~finally:(fun () -> rm_rf runs_dir)
      (fun () ->
         let start = Telemetry.Span.now_s () in
         match Farm.Scheduler.run ~runs_dir spec with
         | Error m -> failwith ("farm ablation: " ^ m)
         | Ok r -> (r, Telemetry.Span.now_s () -. start))
  in
  let bandit, bandit_wall = run_policy Farm.Spec.Bandit in
  let rr, rr_wall = run_policy Farm.Spec.Round_robin in
  let arm r id =
    List.find
      (fun c -> c.Farm.Scheduler.fc_campaign.Farm.Store.sc_id = id)
      r.Farm.Scheduler.fr_campaigns
  in
  let new_keys r =
    List.fold_left
      (fun acc c -> acc + c.Farm.Scheduler.fc_new_keys)
      0 r.Farm.Scheduler.fr_campaigns
  in
  let hot_share r =
    let hot = (arm r "hot").Farm.Scheduler.fc_allocated in
    if r.Farm.Scheduler.fr_allocated = 0 then 0.0
    else float_of_int hot /. float_of_int r.Farm.Scheduler.fr_allocated
  in
  let widths = [ 12; 10; 10; 10; 10; 9 ] in
  print_row widths
    [ "Policy"; "hot execs"; "cold execs"; "hot share"; "new keys";
      "rounds" ];
  List.iter
    (fun (label, r) ->
       print_row widths
         [ label;
           string_of_int (arm r "hot").Farm.Scheduler.fc_allocated;
           string_of_int (arm r "cold").Farm.Scheduler.fc_allocated;
           Printf.sprintf "%.0f%%" (100.0 *. hot_share r);
           string_of_int (new_keys r);
           string_of_int r.Farm.Scheduler.fr_rounds ])
    [ ("bandit", bandit); ("round_robin", rr) ];
  Printf.printf
    "Coverage-key lift of bandit over round-robin: %+d keys (%d vs %d) at \
     equal farm budget\n"
    (new_keys bandit - new_keys rr)
    (new_keys bandit) (new_keys rr);
  List.concat_map
    (fun (label, r, wall) ->
       [ (Printf.sprintf "farm/%s/new_keys" label,
          float_of_int (new_keys r), "keys");
         (Printf.sprintf "farm/%s/allocated" label,
          float_of_int r.Farm.Scheduler.fr_allocated, "execs");
         (Printf.sprintf "farm/%s/hot_share" label, hot_share r, "ratio");
         (Printf.sprintf "farm/%s/rounds" label,
          float_of_int r.Farm.Scheduler.fr_rounds, "rounds");
         (Printf.sprintf "farm/%s/wall" label, wall, "s") ])
    [ ("bandit", bandit, bandit_wall); ("round_robin", rr, rr_wall) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (bechamel): core-operation cost";
  let open Bechamel in
  let profile = Dialects.Registry.pg_sim in
  let corpus_seed = List.hd (Fuzz.Corpus.initial profile) in
  let harness = Fuzz.Harness.create ~profile () in
  let tests =
    [ Test.make ~name:"engine.execute corpus seed"
        (Staged.stage (fun () ->
             ignore (Fuzz.Harness.execute harness corpus_seed)));
      (let sql = Sqlcore.Sql_printer.testcase corpus_seed in
       Test.make ~name:"parser.parse testcase"
         (Staged.stage (fun () ->
              ignore (Sqlparser.Parser.parse_testcase_exn sql))));
      Test.make ~name:"affinity.analyze (Alg 2)"
        (Staged.stage (fun () ->
             let t = Lego.Affinity.create () in
             ignore (Lego.Affinity.analyze t corpus_seed)));
      (let types = Minidb.Profile.types profile in
       Test.make ~name:"synthesis.on_new_affinity (Alg 3)"
         (Staged.stage (fun () ->
              let aff = Lego.Affinity.create () in
              let s = Lego.Synthesis.create ~max_len:5 ~types () in
              ignore
                (Lego.Affinity.add aff Sqlcore.Stmt_type.Create_table
                   Sqlcore.Stmt_type.Insert);
              ignore
                (Lego.Synthesis.on_new_affinity s aff
                   (Sqlcore.Stmt_type.Create_table, Sqlcore.Stmt_type.Insert)))));
      (let skeletons = Lego.Skeleton_library.create () in
       let rng = Reprutil.Rng.create 7 in
       Test.make ~name:"instantiate.sequence"
         (Staged.stage (fun () ->
              ignore
                (Lego.Instantiate.sequence rng ~skeletons
                   [ Sqlcore.Stmt_type.Create_table; Sqlcore.Stmt_type.Insert;
                     Sqlcore.Stmt_type.Select ])))) ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) () in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
       List.iter
         (fun elt ->
            let raw = Benchmark.run cfg [ instance ] elt in
            let analysis =
              Analyze.one
                (Analyze.ols ~r_square:false ~bootstrap:0
                   ~predictors:[| Measure.run |])
                instance raw
            in
            match Analyze.OLS.estimates analysis with
            | Some (est :: _) ->
              Printf.printf "  %-40s %12.0f ns/run\n%!" (Test.Elt.name elt)
                est
            | _ ->
              Printf.printf "  %-40s (no estimate)\n%!" (Test.Elt.name elt))
         (Test.elements test))
    tests

(* REPRO_SESSIONS ablation: the interleaving-schedule phase at
   increasing session-pool widths. Every schedule executes twice (live
   concurrent across domains, then serial replay for triage);
   throughput is scheduled steps per second over both runs combined.
   The found.* counters confirm which seeded concurrency bugs each
   width reaches — a single session reaches none by construction. *)
let sessions_ablation () =
  section
    (Printf.sprintf
       "Interleaving-schedule ablation -- LEGO corpus on PostgreSQL, %d \
        schedules per width (set REPRO_SCHEDULES / REPRO_SESSIONS)"
       Exp_common.schedules);
  let profile = Dialects.Registry.pg_sim in
  let corpus = Fuzz.Corpus.initial profile in
  let widths = List.sort_uniq compare [ 2; Exp_common.sessions ] in
  let run sessions =
    Gc.compact ();
    let metrics = Telemetry.Registry.create () in
    let t0 = Telemetry.Span.now_s () in
    let r =
      Fuzz.Schedule.campaign ~metrics ~profile ~sessions
        ~schedules:Exp_common.schedules ~seed:3 ~corpus ()
    in
    (r, metrics, Telemetry.Span.now_s () -. t0)
  in
  let results = List.map (fun w -> (w, run w)) widths in
  let widths_hdr = [ 10; 8; 10; 8; 10; 10 ] in
  print_row widths_hdr
    [ "Sessions"; "steps"; "steps/s"; "bugs"; "violations"; "mismatch" ];
  List.iter
    (fun (w, ((r : Fuzz.Schedule.result), _metrics, wall)) ->
       print_row widths_hdr
         [ string_of_int w;
           string_of_int r.Fuzz.Schedule.sr_steps;
           Printf.sprintf "%.0f"
             (if wall > 0. then float_of_int r.Fuzz.Schedule.sr_steps /. wall
              else 0.);
           string_of_int
             (Fuzz.Triage.unique_count r.Fuzz.Schedule.sr_triage);
           string_of_int (Fuzz.Triage.logic_count r.Fuzz.Schedule.sr_triage);
           string_of_int r.Fuzz.Schedule.sr_replay_mismatch ])
    results;
  List.iter
    (fun (w, ((r : Fuzz.Schedule.result), _, _)) ->
       Printf.printf "sessions=%d found: %s\n" w
         (match Fuzz.Triage.bug_ids r.Fuzz.Schedule.sr_triage with
          | [] -> "(none)"
          | ids -> String.concat ", " ids))
    results;
  List.concat_map
    (fun (w, ((r : Fuzz.Schedule.result), _metrics, wall)) ->
       let tag suffix = Printf.sprintf "schedule/sessions%d/%s" w suffix in
       [ (tag "throughput",
          (if wall > 0. then float_of_int r.Fuzz.Schedule.sr_steps /. wall
           else 0.),
          "steps/s");
         (tag "steps", float_of_int r.Fuzz.Schedule.sr_steps, "steps");
         (tag "bugs",
          float_of_int (Fuzz.Triage.unique_count r.Fuzz.Schedule.sr_triage),
          "bugs");
         (tag "violations",
          float_of_int (Fuzz.Triage.logic_count r.Fuzz.Schedule.sr_triage),
          "violations");
         (tag "replay_mismatch",
          float_of_int r.Fuzz.Schedule.sr_replay_mismatch, "schedules") ])
    results

(* REPRO_WORKERS ablation: the farm's process transport (DESIGN.md
   §16) against the in-process transport at equal farm budget — worker
   pools of 1, 2 and 4 OS processes versus the 4-domain in-process
   farm. On a single-CPU container the honest result is ~1x; the row
   exists to price the process transport + store round-trips so a
   multi-core run has a baseline to compare against. *)
let workers_ablation () =
  let farm_budget =
    match Sys.getenv_opt "REPRO_WORKERS" with
    | Some s -> (try max 2000 (int_of_string s) with Failure _ -> 12_000)
    | None -> 12_000
  in
  section
    (Printf.sprintf
       "Worker-process ablation -- in-process farm vs --workers 1/2/4 \
        (%d-exec farm budget; set REPRO_WORKERS)"
       farm_budget);
  let legofuzz =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "legofuzz.exe"))
  in
  if not (Sys.file_exists legofuzz) then begin
    Printf.printf
      "skipped: worker binary %s not built (run dune build first)\n" legofuzz;
    []
  end
  else begin
    let rec rm_rf path =
      if Sys.file_exists path then
        if Sys.is_directory path then begin
          Array.iter
            (fun e -> rm_rf (Filename.concat path e))
            (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
    in
    let spec =
      { Farm.Spec.fs_campaigns =
          [ { Farm.Store.sc_id = "hot"; sc_fuzzer = "lego";
              sc_dialect = "postgresql"; sc_quirks = [];
              sc_feedback = Fuzz.Harness.Both; sc_oracles = false;
              sc_exec_cache = 0; sc_seed = 3; sc_budget = farm_budget };
            { Farm.Store.sc_id = "cold"; sc_fuzzer = "sqlsmith";
              sc_dialect = "postgresql"; sc_quirks = [];
              sc_feedback = Fuzz.Harness.Edges; sc_oracles = false;
              sc_exec_cache = 0; sc_seed = 5; sc_budget = farm_budget } ];
        fs_total_execs = farm_budget;
        fs_round_execs = max 500 (farm_budget / 8);
        fs_workers = 4;
        fs_policy = Farm.Spec.Bandit;
        fs_ucb_c = 0.3 }
    in
    let run_backend label backend =
      Gc.compact ();
      let runs_dir = Filename.temp_file "legofuzz-bench-workers-" "" in
      Sys.remove runs_dir;
      Farm.Store.ensure_dir runs_dir;
      Fun.protect
        ~finally:(fun () -> rm_rf runs_dir)
        (fun () ->
           let start = Telemetry.Span.now_s () in
           match backend runs_dir with
           | Error m -> failwith ("workers ablation (" ^ label ^ "): " ^ m)
           | Ok r -> (r, Telemetry.Span.now_s () -. start))
    in
    let worker_cmd runs_dir k =
      [| legofuzz; "worker"; "--worker-id"; string_of_int k; "--runs-dir";
         runs_dir |]
    in
    let rows =
      ("inproc_j4", fun d -> Farm.Scheduler.run ~runs_dir:d spec)
      :: List.map
           (fun n ->
              ( Printf.sprintf "w%d" n,
                fun d ->
                  Farm.Scheduler.run_processes ~runs_dir:d
                    ~worker_cmd:(worker_cmd d) ~workers:n spec ))
           [ 1; 2; 4 ]
    in
    let results = List.map (fun (label, f) -> (label, run_backend label f)) rows in
    let new_keys r =
      List.fold_left
        (fun acc c -> acc + c.Farm.Scheduler.fc_new_keys)
        0 r.Farm.Scheduler.fr_campaigns
    in
    let widths = [ 12; 10; 10; 10; 12 ] in
    print_row widths
      [ "Backend"; "allocated"; "new keys"; "wall (s)"; "execs/s" ];
    let base_eps = ref 0.0 in
    let metrics =
      List.concat_map
        (fun (label, (r, wall)) ->
           let eps =
             if wall > 0.0 then
               float_of_int r.Farm.Scheduler.fr_allocated /. wall
             else 0.0
           in
           if label = "inproc_j4" then base_eps := eps;
           print_row widths
             [ label;
               string_of_int r.Farm.Scheduler.fr_allocated;
               string_of_int (new_keys r);
               Printf.sprintf "%.2f" wall;
               Printf.sprintf "%.0f" eps ];
           [ (Printf.sprintf "farm_workers/%s/wall" label, wall, "s");
             (Printf.sprintf "farm_workers/%s/execs_per_sec" label, eps,
              "execs/s");
             (Printf.sprintf "farm_workers/%s/new_keys" label,
              float_of_int (new_keys r), "keys") ])
        results
    in
    (match List.assoc_opt "w4" results with
     | Some (_, _) when !base_eps > 0.0 ->
       let w4_eps =
         match List.assoc_opt "w4" results with
         | Some (r, wall) when wall > 0.0 ->
           float_of_int r.Farm.Scheduler.fr_allocated /. wall
         | _ -> 0.0
       in
       Printf.printf
         "Throughput of --workers 4 vs in-process 4-domain farm: %.2fx \
          (single-CPU containers honestly report ~1x or below)\n"
         (w4_eps /. !base_eps)
     | _ -> ());
    metrics
  end

(* ------------------------------------------------------------------ *)
(* BENCH_campaigns.json: machine-readable perf trajectory              *)
(* ------------------------------------------------------------------ *)

let write_bench_json ?(extra_metrics = []) campaigns =
  let path = "BENCH_campaigns.json" in
  let per_campaign c =
    let tag suffix = Printf.sprintf "%s/%s/%s" c.c_fuzzer c.c_dialect suffix in
    let stage_metrics =
      List.filter_map
        (fun stage ->
           match Telemetry.Span.stage_stats c.c_metrics stage with
           (* calls = 0 means the stage never ran this campaign (e.g.
              triage on a crash-free run): omit the row rather than
              emit a 0.0 indistinguishable from truncated timing. *)
           | Some (calls, total_us) when calls > 0 ->
             Some
               (tag (Printf.sprintf "stage.%s" stage),
                float_of_int total_us /. 1e6, "s")
           | Some _ | None -> None)
        (Telemetry.Span.stage_names c.c_metrics)
    in
    [ (tag "branches", float_of_int c.c_final.Fuzz.Driver.st_branches,
       "branches");
      (tag "bugs",
       float_of_int (List.length c.c_final.Fuzz.Driver.st_bugs), "bugs");
      (tag "execs", float_of_int c.c_final.Fuzz.Driver.st_execs, "execs");
      (tag "wall", c.c_wall_s, "s");
      (tag "execs_per_sec", execs_per_sec c, "execs/s") ]
    @ (let r = cache_hit_rate c in
       if Float.is_nan r then []
       else [ (tag "cache.hit_rate", r, "ratio") ])
    @ stage_metrics
  in
  let totals =
    let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 campaigns in
    [ ("total/branches",
       sum (fun c -> float_of_int c.c_final.Fuzz.Driver.st_branches),
       "branches");
      ("total/bugs",
       sum (fun c -> float_of_int (List.length c.c_final.Fuzz.Driver.st_bugs)),
       "bugs");
      ("total/execs",
       sum (fun c -> float_of_int c.c_final.Fuzz.Driver.st_execs), "execs");
      ("total/wall", sum (fun c -> c.c_wall_s), "s") ]
  in
  Telemetry.Sink.bench_json ~path ~bench:"campaigns"
    ~extra:
      [ ("budget", Telemetry.Json.Int budget);
        ("jobs", Telemetry.Json.Int jobs);
        ("campaigns", Telemetry.Json.Int (List.length campaigns)) ]
    (List.concat_map per_campaign campaigns @ totals @ extra_metrics);
  Printf.printf "wrote %s (%d campaigns)\n" path (List.length campaigns)

let () =
  print_endline "LEGO reproduction bench harness";
  Printf.printf
    "Budget: %d executions per campaign (set REPRO_EXECS to change); \
     continuous budget %d; %d shard(s) per campaign (set REPRO_JOBS)\n"
    budget continuous_budget jobs;
  print_endline "Running campaigns (one per fuzzer per DBMS)...";
  let campaigns = Lazy.force all_campaigns in
  fig9 campaigns;
  table2 campaigns;
  table3 campaigns;
  table4 campaigns;
  table1 campaigns;
  length_ablation ();
  squirrel_plus_ablation ();
  let exchange_metrics = exchange_ablation () in
  let cache_metrics = cache_ablation () in
  let feedback_metrics = feedback_ablation () in
  let sessions_metrics = sessions_ablation () in
  let farm_metrics = farm_ablation () in
  let workers_metrics = workers_ablation () in
  micro ();
  print_newline ();
  write_bench_json
    ~extra_metrics:
      (exchange_metrics @ cache_metrics @ feedback_metrics
       @ sessions_metrics @ farm_metrics @ workers_metrics)
    campaigns;
  (match Lazy.force Exp_common.bench_sink with
   | Some sink -> Telemetry.Sink.close sink
   | None -> ());
  print_endline "Done. See EXPERIMENTS.md for the paper-vs-measured record."
