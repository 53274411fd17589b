(* legofuzz: command-line driver for the LEGO reproduction.

   Subcommands:
     fuzz       run one fuzzer on one simulated DBMS
     compare    run every fuzzer on one DBMS with the same budget
     report     render a recorded telemetry run (runs/*.jsonl)
     bugs       print the seeded bug inventory (Table I data)
     affinities run LEGO briefly and dump the learned affinity map
     exec       execute a SQL file against a simulated DBMS *)

open Cmdliner

let profile_of_name name =
  match Dialects.Registry.by_name name with
  | Some p -> Ok p
  | None ->
    Error
      (`Msg
         (Printf.sprintf
            "unknown DBMS %S (try postgresql, mysql, mariadb, comdb2)" name))

let dialect_conv =
  Arg.conv
    ( (fun s -> profile_of_name s),
      fun fmt p -> Format.pp_print_string fmt (Minidb.Profile.name p) )

let dialect_arg =
  let doc = "Simulated DBMS: postgresql, mysql, mariadb or comdb2." in
  Arg.(
    value
    & opt dialect_conv Dialects.Registry.pg_sim
    & info [ "d"; "dialect" ] ~docv:"DBMS" ~doc)

let execs_arg =
  let doc = "Execution budget." in
  Arg.(value & opt int 50_000 & info [ "n"; "execs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed (campaigns are deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Number of parallel campaign shards (OCaml domains). 1 = the exact \
     sequential behaviour; each shard gets a distinct derived seed and \
     1/JOBS of the execution budget."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let sync_arg =
  let doc =
    "Executions between cross-shard coverage/crash syncs (jobs > 1 only)."
  in
  Arg.(
    value
    & opt int Fuzz.Sync.default_interval
    & info [ "sync-every" ] ~docv:"N" ~doc)

let onoff = Arg.enum [ ("on", true); ("off", false) ]

let sync_seeds_arg =
  let doc =
    "Bidirectional seed exchange between shards at sync rounds (jobs > 1 \
     only): shards publish their coverage-increasing seeds and import \
     each other's. $(b,on) or $(b,off)."
  in
  Arg.(value & opt onoff true & info [ "sync-seeds" ] ~docv:"on|off" ~doc)

let sync_affinities_arg =
  let doc =
    "Bidirectional type-affinity and AST-skeleton exchange between shards \
     at sync rounds (jobs > 1 only); imported affinities trigger LEGO's \
     sequence synthesis on the importing shard. $(b,on) or $(b,off)."
  in
  Arg.(
    value & opt onoff true & info [ "sync-affinities" ] ~docv:"on|off" ~doc)

let exchange_of ~sync_seeds ~sync_affinities =
  { Fuzz.Sync.ex_seeds = sync_seeds; ex_affinities = sync_affinities }

let oracles_arg =
  let doc =
    "Logic-bug oracles: replay every coverage-increasing, non-crashing \
     execution through the differential-plan, TLP-partitioning and \
     rewrite-consistency oracles (SQLancer-style) on a fault-free engine; \
     unique violations are reported and reduced like crashes. $(b,on) or \
     $(b,off)."
  in
  Arg.(value & opt onoff false & info [ "oracles" ] ~docv:"on|off" ~doc)

let exec_cache_arg =
  let doc =
    "Prefix-snapshot execution cache: seed statement prefixes are \
     captured as engine snapshots and mutants sharing a prefix resume \
     from the snapshot instead of replaying it. Outcomes — coverage, \
     crashes, oracle verdicts — are identical to cold replays; only \
     wall-clock changes. $(b,on) (1024 entries), $(b,off), or an entry \
     count."
  in
  let cache_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "on" -> Ok 1024
      | "off" -> Ok 0
      | s -> (
          match int_of_string_opt s with
          | Some n when n >= 0 -> Ok n
          | _ ->
            Error
              (`Msg
                 (Printf.sprintf
                    "invalid exec-cache %S (on, off or an entry count)" s)))
    in
    let print ppf n =
      Format.pp_print_string ppf (if n = 0 then "off" else string_of_int n)
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value & opt cache_conv 1024 & info [ "exec-cache" ] ~docv:"on|off|N" ~doc)

let feedback_arg =
  let doc =
    "Coverage feedback driving the keep/analyze decision: $(b,edges) (the \
     engine edge bitmap — the paper's signal and the default, \
     byte-identical to earlier builds), $(b,grammar) (the grammar \
     rule-pair bitmap: every executed case is re-parsed and productions \
     fired under their parent production count as coverage), or \
     $(b,both) (either signal; also biases generation toward unfired \
     rule pairs)."
  in
  let feedback_conv =
    let parse s =
      match Fuzz.Harness.feedback_of_string (String.lowercase_ascii s) with
      | Some f -> Ok f
      | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid feedback %S (edges, grammar or both)" s))
    in
    let print ppf f =
      Format.pp_print_string ppf (Fuzz.Harness.feedback_to_string f)
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt feedback_conv Fuzz.Harness.Edges
    & info [ "feedback" ] ~docv:"edges|grammar|both" ~doc)

let sessions_arg =
  let doc =
    "Concurrent sessions for the interleaving-schedule phase: after the \
     single-session campaign, corpus sequences are assigned to SESSIONS \
     sessions of one shared engine and executed under synthesized \
     interleavings (real OCaml domains, deterministic turnstile order), \
     hunting concurrency bugs and isolation violations no single-session \
     campaign can reach. 1 disables the phase."
  in
  Arg.(value & opt int 1 & info [ "sessions" ] ~docv:"N" ~doc)

let schedules_arg =
  let doc =
    "Interleaving schedules to synthesize and execute when --sessions > 1 \
     (each runs live-concurrent, then serially replayed for triage)."
  in
  Arg.(value & opt int 64 & info [ "schedules" ] ~docv:"M" ~doc)

let telemetry_arg =
  let doc =
    "Telemetry recording: $(b,none) (console only; byte-identical output \
     to pre-telemetry builds for the same seed) or $(b,jsonl) (also \
     record every event under runs/ as a .jsonl stream for $(b,legofuzz \
     report))."
  in
  Arg.(
    value
    & opt (enum [ ("none", `None); ("jsonl", `Jsonl) ]) `None
    & info [ "telemetry" ] ~docv:"MODE" ~doc)

let json_arg =
  let doc =
    "Machine-readable output: print every telemetry event to stdout as \
     one JSON object per line instead of the human summary."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

(* Validate the fuzzer name up front and return a shard factory: fuzzer
   construction is deferred into the shard's domain by the campaign
   engine (it executes the initial corpus). The factory itself lives in
   Farm.Spec so that a store's meta.json resolves to exactly the same
   fuzzer assembly the CLI uses. *)
let make_fuzzer ?(oracles = false) ?(exec_cache = 0)
    ?(feedback = Fuzz.Harness.Edges) name profile seed =
  match
    Farm.Spec.fuzzer_factory ~oracles ~exec_cache ~feedback ~name ~profile
      ~seed ()
  with
  | Ok make -> Ok make
  | Error m -> Error (`Msg m)

(* --- telemetry plumbing ---------------------------------------------- *)

let point_of ~series (s : Fuzz.Driver.snapshot) =
  { Telemetry.Event.p_series = series;
    p_iteration = s.Fuzz.Driver.st_iteration;
    p_execs = s.st_execs;
    p_branches = s.st_branches;
    p_crashes_total = s.st_total_crashes;
    p_crashes_unique = s.st_unique_crashes;
    p_bugs = s.st_bugs }

(* The one summary formatter (human sink) serves both [fuzz] and
   [compare]; [shards] controls whether per-shard lines appear
   ([compare] never printed them). *)
let summary_event ~name ?(shards = []) ~sync_rounds ~wall_s
    (snap : Fuzz.Driver.snapshot) =
  Telemetry.Event.Summary
    { point = point_of ~series:name snap;
      shards;
      sync_rounds;
      wall_s = Some wall_s;
      execs_per_sec =
        (if wall_s > 0.0 then
           Some (float_of_int snap.Fuzz.Driver.st_execs /. wall_s)
         else None) }

let shard_points (res : Fuzz.Campaign.result) =
  List.map
    (fun (sh : Fuzz.Campaign.shard) ->
       point_of
         ~series:(Printf.sprintf "shard-%d" sh.sh_id)
         sh.sh_snapshot)
    res.cg_shards

(* Console sink + optional JSONL recorder; returns the sink stack and the
   recorder path (when recording) for the closing "telemetry:" note. *)
let sink_stack ~json ~telemetry ~name =
  let console =
    if json then Telemetry.Sink.json_lines ()
    else Telemetry.Sink.human ()
  in
  match telemetry with
  | `None -> (console, None)
  | `Jsonl ->
    let recorder, path = Telemetry.Sink.jsonl ~name () in
    (Telemetry.Sink.tee [ console; recorder ], Some path)

let registry_dumps ?aggregate ~prefix sink (res : Fuzz.Campaign.result) =
  let aggregate =
    match aggregate with Some r -> r | None -> res.Fuzz.Campaign.cg_metrics
  in
  Telemetry.Sink.emit sink
    (Telemetry.Event.Registry_dump
       { series = prefix ^ "aggregate"; registry = aggregate });
  if List.length res.cg_shards > 1 then
    List.iter
      (fun (sh : Fuzz.Campaign.shard) ->
         Telemetry.Sink.emit sink
           (Telemetry.Event.Registry_dump
              { series = Printf.sprintf "%sshard-%d" prefix sh.sh_id;
                registry =
                  Fuzz.Harness.metrics sh.sh_fuzzer.Fuzz.Driver.f_harness }))
      res.cg_shards

(* --- fuzz ------------------------------------------------------------ *)

let fuzz_cmd =
  let fuzzer_arg =
    let doc = "Fuzzer: lego, lego-, squirrel, sqlancer or sqlsmith." in
    Arg.(
      value & opt string "lego" & info [ "f"; "fuzzer" ] ~docv:"FUZZER" ~doc)
  in
  let save_arg =
    let doc = "Directory to write one reduced .sql reproducer per bug." in
    Arg.(value & opt (some string) None & info [ "o"; "save" ] ~docv:"DIR" ~doc)
  in
  let store_arg =
    let doc =
      "Persist the campaign's final state (corpus, affinities, skeletons, \
       virgin maps, dedup keys) as a store generation under \
       runs/$(docv)/store, resumable with $(b,legofuzz resume) $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "store" ] ~docv:"CAMPAIGN" ~doc)
  in
  let run fuzzer profile execs seed jobs sync_every sync_seeds
      sync_affinities oracles exec_cache feedback sessions schedules
      telemetry json save store =
    (match store with
     | Some id when not (Farm.Spec.valid_id id) ->
       Printf.eprintf
         "invalid campaign id %S (letters, digits, '.', '_', '-')\n" id;
       exit 2
     | _ -> ());
    match make_fuzzer ~oracles ~exec_cache ~feedback fuzzer profile seed with
    | Error (`Msg m) ->
      prerr_endline m;
      exit 2
    | Ok make ->
      let jobs = max 1 jobs in
      let exchange = exchange_of ~sync_seeds ~sync_affinities in
      let dialect = Minidb.Profile.name profile in
      if not json then
        Printf.printf "fuzzing %s with %s, %d executions, %d job(s)...\n%!"
          dialect fuzzer execs jobs;
      let sink, recording =
        sink_stack ~json ~telemetry
          ~name:(Printf.sprintf "fuzz-%s-%s-seed%d" dialect fuzzer seed)
      in
      Telemetry.Sink.emit sink
        (Telemetry.Event.Meta
           [ ("command", Telemetry.Json.Str "fuzz");
             ("fuzzer", Telemetry.Json.Str fuzzer);
             ("dialect", Telemetry.Json.Str dialect);
             ("seed", Telemetry.Json.Int seed);
             ("execs", Telemetry.Json.Int execs);
             ("jobs", Telemetry.Json.Int jobs);
             ("sync_every", Telemetry.Json.Int sync_every);
             ("sync_seeds", Telemetry.Json.Bool sync_seeds);
             ("sync_affinities", Telemetry.Json.Bool sync_affinities);
             ("oracles", Telemetry.Json.Bool oracles);
             ("exec_cache", Telemetry.Json.Int exec_cache);
             ("feedback",
              Telemetry.Json.Str (Fuzz.Harness.feedback_to_string feedback));
             ("sessions", Telemetry.Json.Int sessions);
             ("schedules", Telemetry.Json.Int schedules) ]);
      let start = Telemetry.Span.now_s () in
      let res =
        Fuzz.Campaign.run ~checkpoint_every:(max 1 (execs / 5)) ~sync_every
          ~exchange ~sink ~jobs ~execs make
      in
      let wall_s = Telemetry.Span.now_s () -. start in
      Telemetry.Sink.emit sink
        (summary_event ~name:fuzzer ~shards:(shard_points res)
           ~sync_rounds:res.Fuzz.Campaign.cg_sync_rounds ~wall_s
           res.Fuzz.Campaign.cg_snapshot);
      (match save with
       | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
       | _ -> ());
      (* Post-campaign registry: the reduce stage happens after the
         campaign's own metrics were snapshotted, so its span and try
         counter are collected separately and merged into the aggregate
         registry dump below — "reduce" then shows up in the stage
         breakdown of [legofuzz report] next to execute/triage. *)
      let post = Telemetry.Registry.create () in
      let sp_reduce = Telemetry.Span.stage post "reduce" in
      let c_tries = Telemetry.Registry.counter post "reducer.tries" in
      List.iter
        (fun ((c : Minidb.Fault.crash), testcase) ->
           if not json then Format.printf "@.%a@." Minidb.Fault.pp_crash c;
           match testcase with
           | None -> ()
           | Some tc ->
             (* ship a minimized reproducer, like the paper's Fig. 3/7 *)
             let bug_id = c.Minidb.Fault.c_bug.Minidb.Fault.bug_id in
             let out =
               Telemetry.Span.time sp_reduce (fun () ->
                   Fuzz.Reducer.reduce ~profile ~max_tries:256 ~bug_id tc)
             in
             Telemetry.Registry.incr ~by:out.Fuzz.Reducer.r_tries c_tries;
             let reduced = out.Fuzz.Reducer.r_testcase in
             let sql = Sqlcore.Sql_printer.testcase reduced in
             if not json then
               Printf.printf "reproducer (%d statements):\n%s\n"
                 (List.length reduced) sql;
             (match save with
              | None -> ()
              | Some dir ->
                let path = Filename.concat dir (bug_id ^ ".sql") in
                Out_channel.with_open_text path (fun oc ->
                    Out_channel.output_string oc (sql ^ "\n"));
                if not json then Printf.printf "saved to %s\n" path))
        res.Fuzz.Campaign.cg_crashes;
      (* Logic-bug findings: same pipeline as crashes — print, reduce with
         the violation's oracle as the interestingness predicate, save. *)
      List.iteri
        (fun i ((v : Oracle.Violation.t), testcase) ->
           if not json then Format.printf "@.%a@." Oracle.Violation.pp v;
           match testcase with
           | None -> ()
           | Some tc ->
             let suite = Oracle.Suite.create profile in
             let key = Oracle.Violation.key v in
             let pred candidate =
               List.exists
                 (fun v' -> String.equal (Oracle.Violation.key v') key)
                 (Oracle.Suite.check suite candidate)
                   .Oracle.Suite.oc_violations
             in
             let out =
               Telemetry.Span.time sp_reduce (fun () ->
                   Fuzz.Reducer.reduce_with ~pred ~max_tries:256 tc)
             in
             Telemetry.Registry.incr ~by:out.Fuzz.Reducer.r_tries c_tries;
             let reduced = out.Fuzz.Reducer.r_testcase in
             let sql = Sqlcore.Sql_printer.testcase reduced in
             if not json then
               Printf.printf "reproducer (%d statements):\n%s\n"
                 (List.length reduced) sql;
             (match save with
              | None -> ()
              | Some dir ->
                let path =
                  Filename.concat dir
                    (Printf.sprintf "logic-%s-%d.sql" v.Oracle.Violation.vi_oracle i)
                in
                Out_channel.with_open_text path (fun oc ->
                    Out_channel.output_string oc (sql ^ "\n"));
                if not json then Printf.printf "saved to %s\n" path))
        res.Fuzz.Campaign.cg_logic;
      (* Interleaving-schedule phase: corpus sequences across concurrent
         sessions of one shared engine. Its schedule.* / session.* /
         oracle.isolation.* counters join the aggregate registry dump. *)
      let sched_metrics = Telemetry.Registry.create () in
      if sessions > 1 && schedules > 0 then begin
        let corpus = Fuzz.Corpus.initial profile in
        let sr =
          Fuzz.Schedule.campaign ~metrics:sched_metrics ~profile ~sessions
            ~schedules ~seed ~corpus ()
        in
        if not json then begin
          Printf.printf
            "\nschedules: %d executed (%d steps, %d sessions), %d replay \
             mismatch(es)\n"
            sr.Fuzz.Schedule.sr_schedules sr.Fuzz.Schedule.sr_steps sessions
            sr.Fuzz.Schedule.sr_replay_mismatch;
          List.iter
            (fun (bug_id, steps) ->
               Printf.printf
                 "\nconcurrency crash %s, minimized schedule (%d steps):\n%s\n"
                 bug_id (Array.length steps)
                 (Fuzz.Schedule.render_steps steps))
            sr.Fuzz.Schedule.sr_crash_repros;
          List.iter
            (fun (key, steps) ->
               Printf.printf
                 "\nisolation violation %s, minimized schedule (%d steps):\n%s\n"
                 key (Array.length steps)
                 (Fuzz.Schedule.render_steps steps))
            sr.Fuzz.Schedule.sr_violation_repros
        end
      end;
      let aggregate = Telemetry.Registry.snapshot res.Fuzz.Campaign.cg_metrics in
      Telemetry.Registry.merge ~into:aggregate post;
      Telemetry.Registry.merge ~into:aggregate sched_metrics;
      registry_dumps ~aggregate ~prefix:"" sink res;
      (* Persist the campaign as a resumable store generation. *)
      (match store with
       | None -> ()
       | Some id ->
         let campaign =
           { Farm.Store.sc_id = id; sc_fuzzer = fuzzer; sc_dialect = dialect;
             sc_quirks = []; sc_feedback = feedback; sc_oracles = oracles;
             sc_exec_cache = exec_cache; sc_seed = seed; sc_budget = execs }
         in
         let snapshot =
           Farm.Resume.capture
             ~prior:(Farm.Store.empty_snapshot campaign)
             ~campaign
             ~progress:
               { Farm.Store.pr_execs_done =
                   res.Fuzz.Campaign.cg_snapshot.Fuzz.Driver.st_execs;
                 pr_epoch = 0 }
             res
         in
         let dir = Farm.Store.store_dir id in
         let gen = Farm.Store.save ~dir snapshot in
         if not json then Printf.printf "store: %s (generation %d)\n" dir gen);
      Telemetry.Sink.close sink;
      match recording with
      | Some path when not json -> Printf.printf "telemetry: %s\n" path
      | _ -> ()
  in
  let term =
    Term.(const run $ fuzzer_arg $ dialect_arg $ execs_arg $ seed_arg
          $ jobs_arg $ sync_arg $ sync_seeds_arg $ sync_affinities_arg
          $ oracles_arg $ exec_cache_arg $ feedback_arg
          $ sessions_arg $ schedules_arg $ telemetry_arg $ json_arg
          $ save_arg $ store_arg)
  in
  Cmd.v (Cmd.info "fuzz" ~doc:"Run one fuzzer on one simulated DBMS.") term

(* --- compare --------------------------------------------------------- *)

let compare_cmd =
  let run profile execs seed jobs sync_every sync_seeds sync_affinities
      exec_cache feedback telemetry json =
    let dialect = Minidb.Profile.name profile in
    let exchange = exchange_of ~sync_seeds ~sync_affinities in
    let sink, recording =
      sink_stack ~json ~telemetry
        ~name:(Printf.sprintf "compare-%s-seed%d" dialect seed)
    in
    Telemetry.Sink.emit sink
      (Telemetry.Event.Meta
         [ ("command", Telemetry.Json.Str "compare");
           ("dialect", Telemetry.Json.Str dialect);
           ("seed", Telemetry.Json.Int seed);
           ("execs", Telemetry.Json.Int execs);
           ("jobs", Telemetry.Json.Int jobs);
           ("sync_every", Telemetry.Json.Int sync_every);
           ("sync_seeds", Telemetry.Json.Bool sync_seeds);
           ("sync_affinities", Telemetry.Json.Bool sync_affinities);
           ("exec_cache", Telemetry.Json.Int exec_cache);
           ("feedback",
            Telemetry.Json.Str (Fuzz.Harness.feedback_to_string feedback)) ]);
    List.iter
      (fun name ->
         match make_fuzzer ~exec_cache ~feedback name profile seed with
         | Error _ -> ()
         | Ok make ->
           (* The series prefix keeps the five fuzzers' checkpoint series
              apart in one recorded stream ("lego/aggregate", ...); the
              human sink only voices the unprefixed "aggregate" series,
              so compare's console output stays exactly summary lines. *)
           let prefix = name ^ "/" in
           let start = Telemetry.Span.now_s () in
           let res =
             Fuzz.Campaign.run ~sync_every ~exchange ~sink
               ~series_prefix:prefix ~jobs ~execs make
           in
           let wall_s = Telemetry.Span.now_s () -. start in
           Telemetry.Sink.emit sink
             (summary_event ~name
                ~sync_rounds:res.Fuzz.Campaign.cg_sync_rounds ~wall_s
                res.Fuzz.Campaign.cg_snapshot);
           registry_dumps ~prefix sink res)
      [ "lego"; "lego-"; "squirrel"; "sqlancer"; "sqlsmith" ];
    Telemetry.Sink.close sink;
    match recording with
    | Some path when not json -> Printf.printf "telemetry: %s\n" path
    | _ -> ()
  in
  let term =
    Term.(const run $ dialect_arg $ execs_arg $ seed_arg $ jobs_arg
          $ sync_arg $ sync_seeds_arg $ sync_affinities_arg $ exec_cache_arg
          $ feedback_arg $ telemetry_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run every fuzzer on one DBMS with the same budget.")
    term

(* --- resume ---------------------------------------------------------- *)

let resume_cmd =
  let id_arg =
    let doc = "Campaign id: the store under runs/$(docv)/store." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CAMPAIGN" ~doc)
  in
  let execs_opt_arg =
    let doc =
      "Run N $(i,additional) executions, extending the stored budget; \
       without it the campaign runs its unspent remainder."
    in
    Arg.(value & opt (some int) None & info [ "n"; "execs" ] ~docv:"N" ~doc)
  in
  let run id execs jobs sync_every telemetry json =
    let jobs = max 1 jobs in
    let dir = Farm.Store.store_dir id in
    let run_dir = Filename.concat (Telemetry.Sink.runs_dir ()) id in
    Farm.Store.ensure_dir run_dir;
    (* Resumed segments append to the campaign's own events.jsonl, so one
       stream carries every epoch; the Meta event's resumed_from field
       marks each boundary. *)
    let console =
      if json then Telemetry.Sink.json_lines () else Telemetry.Sink.human ()
    in
    let sink, recording =
      match telemetry with
      | `None -> (console, None)
      | `Jsonl ->
        let recorder, path =
          Telemetry.Sink.jsonl ~dir:run_dir ~append:true ~name:"events" ()
        in
        (Telemetry.Sink.tee [ console; recorder ], Some path)
    in
    let start = Telemetry.Span.now_s () in
    match Farm.Resume.run ~jobs ?execs ~sync_every ~sink ~dir () with
    | Error e ->
      Telemetry.Sink.close sink;
      prerr_endline e;
      exit 1
    | Ok out ->
      let wall_s = Telemetry.Span.now_s () -. start in
      let res = out.Farm.Resume.rs_result in
      List.iter
        (fun w -> Printf.eprintf "warning: %s\n" w)
        out.Farm.Resume.rs_warnings;
      if not json then
        Printf.printf
          "resumed %s from generation %d (epoch %d): +%d execs (%d/%d \
           total), generation %d written\n"
          id out.Farm.Resume.rs_from_generation out.Farm.Resume.rs_epoch
          out.Farm.Resume.rs_executed out.Farm.Resume.rs_execs_done
          out.Farm.Resume.rs_budget out.Farm.Resume.rs_generation;
      Telemetry.Sink.emit sink
        (summary_event
           ~name:out.Farm.Resume.rs_campaign.Farm.Store.sc_fuzzer
           ~shards:(shard_points res)
           ~sync_rounds:res.Fuzz.Campaign.cg_sync_rounds ~wall_s
           res.Fuzz.Campaign.cg_snapshot);
      registry_dumps ~prefix:"" sink res;
      Telemetry.Sink.close sink;
      match recording with
      | Some path when not json -> Printf.printf "telemetry: %s\n" path
      | _ -> ()
  in
  let term =
    Term.(const run $ id_arg $ execs_opt_arg $ jobs_arg $ sync_arg
          $ telemetry_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Resume a stored campaign from its last good store generation: \
          rebuild the fuzzer, preload corpus/affinities/skeletons/virgin \
          maps/dedup keys, and continue the budget without re-reporting \
          old findings.")
    term

(* --- worker (internal) ----------------------------------------------- *)

(* The farm worker process entrypoint: spawned by `farm --workers N`,
   never run by hand. stdout carries protocol lines only, so the
   human-facing chatter other commands print must stay off this path. *)
let worker_cmd =
  let id_arg =
    let doc = "Worker slot id (tags store generation namespaces)." in
    Arg.(required & opt (some int) None & info [ "worker-id" ] ~docv:"K" ~doc)
  in
  let runs_dir_arg =
    let doc = "Runs directory the campaign stores live under." in
    Arg.(
      value & opt (some string) None & info [ "runs-dir" ] ~docv:"DIR" ~doc)
  in
  let hb_arg =
    let doc = "Executions between mid-round heartbeats." in
    Arg.(value & opt int 500 & info [ "heartbeat-execs" ] ~docv:"N" ~doc)
  in
  let run worker runs_dir heartbeat_execs =
    Farm.Worker.serve ?runs_dir ~heartbeat_execs ~worker stdin stdout
  in
  let term =
    Term.(const run $ id_arg $ runs_dir_arg $ hb_arg)
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "(internal) Farm worker process: serves farm rounds over a \
          line-framed JSON protocol on stdin/stdout. Spawned by \
          $(b,legofuzz farm --workers N); not meant to be run by hand.")
    term

(* --- farm ------------------------------------------------------------ *)

let farm_cmd =
  let spec_arg =
    let doc =
      "Farm spec: a JSON file listing campaigns (id, fuzzer, dialect, \
       budget, optional quirks/feedback/oracles/exec_cache/seed) and the \
       global total_execs / round_execs / workers / policy knobs."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC.json" ~doc)
  in
  let workers_arg =
    let doc =
      "Run round slices in N spawned worker processes (the multi-process \
       backend: each worker is a separate $(b,legofuzz worker) process, \
       coordinated over pipes, merging results through store generation \
       namespaces). 0 (default) keeps the in-process domain pool sized by \
       the spec's $(b,workers) field."
    in
    Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let hb_timeout_arg =
    let doc =
      "Seconds of mid-round silence after which a worker process is \
       declared wedged, killed and its round re-queued (multi-process \
       backend only)."
    in
    Arg.(value & opt float 30. & info [ "heartbeat-timeout" ] ~docv:"S" ~doc)
  in
  let run spec_path workers heartbeat_timeout telemetry json =
    match Farm.Spec.of_file spec_path with
    | Error e ->
      Printf.eprintf "%s: %s\n" spec_path e;
      exit 2
    | Ok spec ->
      let sink, recording = sink_stack ~json ~telemetry ~name:"farm" in
      if not json then
        Printf.printf
          "farm: %d campaign(s), %d total execs, %d per round, %s, %s \
           policy\n%!"
          (List.length spec.Farm.Spec.fs_campaigns)
          spec.Farm.Spec.fs_total_execs spec.Farm.Spec.fs_round_execs
          (if workers > 0 then
             Printf.sprintf "%d worker process(es)" workers
           else
             Printf.sprintf "%d domain worker(s)" spec.Farm.Spec.fs_workers)
          (Farm.Spec.policy_to_string spec.Farm.Spec.fs_policy);
      let start = Telemetry.Span.now_s () in
      let result =
        if workers > 0 then
          let worker_argv k =
            [| Sys.executable_name; "worker"; "--worker-id";
               string_of_int k; "--runs-dir"; Telemetry.Sink.runs_dir () |]
          in
          Farm.Scheduler.run_processes ~sink ~worker_cmd:worker_argv
            ~heartbeat_timeout ~workers spec
        else Farm.Scheduler.run ~sink spec
      in
      (match result with
       | Error e ->
         Telemetry.Sink.close sink;
         prerr_endline e;
         exit 1
       | Ok res ->
         let wall_s = Telemetry.Span.now_s () -. start in
         List.iter
           (fun w -> Printf.eprintf "warning: %s\n" w)
           res.Farm.Scheduler.fr_warnings;
         if not json then begin
           Printf.printf "farm done: %d round(s), %d execs dealt, %.1fs\n"
             res.Farm.Scheduler.fr_rounds res.Farm.Scheduler.fr_allocated
             wall_s;
           List.iter
             (fun (c : Farm.Scheduler.campaign_result) ->
                Printf.printf
                  "  %-16s execs=%d/%d keys=%d(+%d) crashes(unique)=%d \
                   gen=%d%s%s%s\n"
                  c.Farm.Scheduler.fc_campaign.Farm.Store.sc_id
                  c.fc_execs_done c.fc_campaign.Farm.Store.sc_budget
                  c.fc_coverage_keys c.fc_new_keys c.fc_crashes_unique
                  c.fc_generation
                  (match c.fc_resumed_from with
                   | Some g -> Printf.sprintf " resumed-from=%d" g
                   | None -> "")
                  (if c.fc_finished then " finished" else "")
                  (match c.fc_error with
                   | Some e -> " error: " ^ e
                   | None -> ""))
             res.Farm.Scheduler.fr_campaigns
         end;
         Telemetry.Sink.close sink;
         match recording with
         | Some path when not json -> Printf.printf "telemetry: %s\n" path
         | _ -> ())
  in
  let term =
    Term.(const run $ spec_arg $ workers_arg $ hb_timeout_arg
          $ telemetry_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "farm"
       ~doc:
         "Run a farm of campaigns over a domain pool — or, with \
          $(b,--workers N), over N spawned worker processes — \
          reallocating the execution budget each round with UCB1 over \
          new-coverage-key rewards; every campaign persists a resumable \
          store generation per round.")
    term

(* --- report ---------------------------------------------------------- *)

let report_cmd =
  let file_arg =
    let doc = "Recorded telemetry run (a runs/*.jsonl file)." in
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"RUN.jsonl" ~doc)
  in
  let run file =
    let lines =
      In_channel.with_open_text file (fun ic ->
          In_channel.input_lines ic)
    in
    match Telemetry.Report.parse_lines lines with
    | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 1
    | Ok events -> print_string (Telemetry.Report.render events)
  in
  let term = Term.(const run $ file_arg) in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a recorded run: coverage-over-time series and \
          stage-time breakdown.")
    term

(* --- bugs ------------------------------------------------------------ *)

let bugs_cmd =
  let run profile =
    let bugs = Minidb.Profile.bugs profile in
    Printf.printf "%s: %d seeded bugs\n" (Minidb.Profile.name profile)
      (List.length bugs);
    List.iter
      (fun (b : Minidb.Fault.bug) ->
         Printf.printf "  %-12s %-10s %-5s %s\n" b.Minidb.Fault.bug_id
           b.Minidb.Fault.component
           (Minidb.Fault.kind_name b.Minidb.Fault.kind)
           b.Minidb.Fault.identifier)
      bugs
  in
  let term = Term.(const run $ dialect_arg) in
  Cmd.v
    (Cmd.info "bugs" ~doc:"Print the seeded bug inventory (Table I data).")
    term

(* --- affinities ------------------------------------------------------ *)

let affinities_cmd =
  let run profile execs seed =
    let cfg = { Lego.Lego_fuzzer.default_config with seed } in
    let t = Lego.Lego_fuzzer.create ~config:cfg profile in
    let _ = Fuzz.Driver.run_until_execs (Lego.Lego_fuzzer.fuzzer t) ~execs in
    let aff = Lego.Lego_fuzzer.affinities t in
    Printf.printf "%d affinities after %d executions on %s:\n"
      (Lego.Affinity.count aff) execs (Minidb.Profile.name profile);
    List.iter
      (fun (a, b) ->
         Printf.printf "  %s -> %s\n" (Sqlcore.Stmt_type.name a)
           (Sqlcore.Stmt_type.name b))
      (Lego.Affinity.pairs aff)
  in
  let term = Term.(const run $ dialect_arg $ execs_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "affinities"
       ~doc:"Run LEGO briefly and dump the learned type-affinity map.")
    term

(* --- exec ------------------------------------------------------------ *)

let exec_cmd =
  let file_arg =
    let doc = "SQL file to execute ('-' for stdin)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run profile file =
    let sql =
      if file = "-" then In_channel.input_all In_channel.stdin
      else In_channel.with_open_text file In_channel.input_all
    in
    match Sqlparser.Parser.parse_testcase sql with
    | Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 1
    | Ok tc ->
      let cov = Coverage.Bitmap.create () in
      let engine = Minidb.Engine.create ~profile ~cov () in
      (try
         List.iter
           (fun stmt ->
              Printf.printf "%s;\n" (Sqlcore.Sql_printer.stmt stmt);
              match Minidb.Engine.exec_stmt engine stmt with
              | Minidb.Engine.Ok_result
                  (Minidb.Executor.Rows (headers, rows)) ->
                Printf.printf "  -> %s\n" (String.concat " | " headers);
                List.iter
                  (fun row ->
                     Printf.printf "     %s\n"
                       (String.concat " | "
                          (Array.to_list
                             (Array.map Storage.Value.to_display row))))
                  rows
              | Minidb.Engine.Ok_result (Minidb.Executor.Affected n) ->
                Printf.printf "  -> %d row(s)\n" n
              | Minidb.Engine.Ok_result (Minidb.Executor.Done msg) ->
                Printf.printf "  -> %s\n" msg
              | Minidb.Engine.Sql_failed e ->
                Printf.printf "  !! %s\n" (Minidb.Errors.message e))
           tc
       with Minidb.Fault.Crashed c ->
         Format.printf "@.*** server crash ***@.%a@." Minidb.Fault.pp_crash c);
      Printf.printf "\n%d branches covered\n"
        (Coverage.Bitmap.count_nonzero cov)
  in
  let term = Term.(const run $ dialect_arg $ file_arg) in
  Cmd.v
    (Cmd.info "exec" ~doc:"Execute a SQL file against a simulated DBMS.")
    term

(* --- serve ----------------------------------------------------------- *)

let serve_cmd =
  let sessions_arg =
    let doc = "Number of concurrent sessions served by the pool." in
    Arg.(value & opt int 4 & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let run profile sessions =
    let sessions = max 1 sessions in
    let cov = Coverage.Bitmap.create () in
    let pool =
      Server.Session_pool.create ~sessions ~profile ~cov ()
    in
    Printf.printf
      "legofuzz serve: %s, %d session(s). \"@N SQL\" runs SQL on session \
       N, \"@N\" switches; \\q quits.\n%!"
      (Minidb.Profile.name profile) sessions;
    let current = ref 0 in
    let rec loop () =
      Printf.printf "s%d> " !current;
      flush stdout;
      match In_channel.input_line In_channel.stdin with
      | None -> ()
      | Some line ->
        let line = String.trim line in
        if line = "\\q" || line = "exit" then ()
        else if line = "" then loop ()
        else begin
          let sql, sid =
            if String.length line > 1 && line.[0] = '@' then begin
              let rest, digits =
                match String.index_opt line ' ' with
                | Some sp ->
                  ( String.sub line (sp + 1) (String.length line - sp - 1),
                    String.sub line 1 (sp - 1) )
                | None -> ("", String.sub line 1 (String.length line - 1))
              in
              match int_of_string_opt digits with
              | Some n when n >= 0 && n < sessions -> (rest, n)
              | _ ->
                Printf.printf "no such session %s (0..%d)\n" digits
                  (sessions - 1);
                ("", !current)
            end
            else (line, !current)
          in
          current := sid;
          (if sql <> "" then
             match Sqlparser.Parser.parse_testcase sql with
             | Error msg -> Printf.printf "parse error: %s\n" msg
             | Ok stmts ->
               List.iter
                 (fun stmt ->
                    print_endline
                      (Server.Wire.render
                         (Server.Session_pool.exec pool ~session:sid stmt)))
                 stmts);
          loop ()
        end
    in
    loop ()
  in
  let term = Term.(const run $ dialect_arg $ sessions_arg) in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a multi-session MiniDB REPL on stdio: one shared store, \
          per-session transaction state, typed wire responses.")
    term

(* --- reduce ----------------------------------------------------------- *)

let reduce_cmd =
  let file_arg =
    let doc = "SQL file holding the crashing test case ('-' for stdin)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let bug_arg =
    let doc =
      "Internal bug id to preserve (see the $(b,bugs) subcommand); when \
       omitted, the bug the case currently triggers is used."
    in
    Arg.(value & opt (some string) None & info [ "b"; "bug" ] ~docv:"ID" ~doc)
  in
  let run profile file bug_opt =
    let sql =
      if file = "-" then In_channel.input_all In_channel.stdin
      else In_channel.with_open_text file In_channel.input_all
    in
    match Sqlparser.Parser.parse_testcase sql with
    | Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 1
    | Ok tc ->
      let bug_id =
        match bug_opt with
        | Some id -> Some id
        | None -> (
            let cov = Coverage.Bitmap.create () in
            let engine = Minidb.Engine.create ~profile ~cov () in
            match
              (Minidb.Engine.run_testcase engine tc).Minidb.Engine.rs_crash
            with
            | Some c -> Some c.Minidb.Fault.c_bug.Minidb.Fault.bug_id
            | None -> None)
      in
      (match bug_id with
       | None ->
         Printf.eprintf "the test case does not crash %s\n"
           (Minidb.Profile.name profile);
         exit 1
       | Some bug_id ->
         let out = Fuzz.Reducer.reduce ~profile ~bug_id tc in
         Printf.printf
           "-- reduced for %s: %d -> %d statements (%d oracle runs)\n%s\n"
           bug_id (List.length tc)
           (List.length out.Fuzz.Reducer.r_testcase)
           out.Fuzz.Reducer.r_tries
           (Sqlcore.Sql_printer.testcase out.Fuzz.Reducer.r_testcase))
  in
  let term = Term.(const run $ dialect_arg $ file_arg $ bug_arg) in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Shrink a crashing SQL test case while keeping the same bug.")
    term

let () =
  (* The fuzzing loop allocates short-lived values at a high rate
     (ASTs, sequence nodes, RNG state); the default 2 MiB minor heap
     forces a minor collection every few thousand executions. A 4 MiB
     nursery halves the collections while still fitting in L2/L3 (a
     much larger nursery measures slower: every allocation sweeps cold
     cache lines). Changes no observable behavior. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 512 * 1024 };
  let doc = "LEGO (ICDE'23) sequence-oriented DBMS fuzzing, reproduced." in
  let info = Cmd.info "legofuzz" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ fuzz_cmd; compare_cmd; farm_cmd; worker_cmd; resume_cmd;
            report_cmd; bugs_cmd; affinities_cmd; exec_cmd; serve_cmd;
            reduce_cmd ]))
