(* Shared campaign machinery for the paper-reproduction benches.

   One campaign = one fuzzer on one simulated DBMS with a fixed execution
   budget (the stand-in for the paper's 24-hour wall-clock runs; see
   DESIGN.md). Campaign results feed Figure 9 and Tables II-IV; extending
   a LEGO campaign to a larger budget gives the "continuous fuzzing" data
   of Table I. *)

type campaign = {
  c_fuzzer : string;
  c_dialect : string;
  c_series : (int * int) list;  (* (execs, branches) checkpoints *)
  c_final : Fuzz.Driver.snapshot;
  c_fz : Fuzz.Driver.fuzzer;
      (* shard 0's fuzzer; with REPRO_JOBS=1 (the default) this is the
         whole campaign, as before the campaign-engine refactor *)
  c_corpus : unit -> Sqlcore.Ast.testcase list;
      (* generated corpus across every shard (Table II / IV censuses) *)
  c_lego : Lego.Lego_fuzzer.t option;  (* shard 0's, for LEGO campaigns *)
  c_metrics : Telemetry.Registry.t;
      (* campaign-wide metric registry (stage times, engine counters) *)
  c_wall_s : float;  (* wall-clock annotation, never determinism-checked *)
}

let budget =
  match Sys.getenv_opt "REPRO_EXECS" with
  | Some s -> (try max 1000 (int_of_string s) with Failure _ -> 60_000)
  | None -> 60_000

(* Campaign shards (OCaml domains) per campaign. The default of 1 keeps
   the published EXPERIMENTS.md numbers bit-for-bit reproducible; raise
   it on multicore hardware for wall-clock speed at equal total budget. *)
let jobs =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 1)
  | None -> 1

let sync_every =
  match Sys.getenv_opt "REPRO_SYNC" with
  | Some s ->
    (try max 1 (int_of_string s) with Failure _ -> Fuzz.Sync.default_interval)
  | None -> Fuzz.Sync.default_interval

(* REPRO_EXCHANGE=off disables the bidirectional seed/affinity exchange
   at sync rounds (jobs > 1 only); the default matches the CLI: on. *)
let exchange =
  match Sys.getenv_opt "REPRO_EXCHANGE" with
  | Some "off" -> Fuzz.Sync.exchange_off
  | _ -> Fuzz.Sync.exchange_all

(* REPRO_ORACLES=on replays coverage-increasing executions through the
   logic-bug oracle suite; the default matches the CLI: off, keeping the
   published EXPERIMENTS.md numbers and exec rates untouched. *)
let oracles =
  match Sys.getenv_opt "REPRO_ORACLES" with
  | Some "on" -> true
  | _ -> false

(* REPRO_EXEC_CACHE=on (or an entry count) enables the prefix-snapshot
   execution cache in every campaign harness; the default matches the
   CLI-off behaviour so published numbers stay byte-identical. The
   cache-ablation bench overrides it per campaign. *)
let exec_cache =
  match Sys.getenv_opt "REPRO_EXEC_CACHE" with
  | Some "on" -> 1024
  | Some ("off" | "") | None -> 0
  | Some s -> (try max 0 (int_of_string s) with Failure _ -> 0)

(* REPRO_FEEDBACK=grammar|both switches the coverage signal driving the
   keep/analyze decision to the grammar rule-pair bitmap (DESIGN.md §15);
   the default matches the CLI: edges, byte-identical to earlier builds.
   The feedback-ablation bench overrides it per campaign regardless of
   the global setting. *)
let feedback =
  match Sys.getenv_opt "REPRO_FEEDBACK" with
  | Some s -> (
      match Fuzz.Harness.feedback_of_string (String.lowercase_ascii s) with
      | Some f -> f
      | None -> Fuzz.Harness.Edges)
  | None -> Fuzz.Harness.Edges

(* REPRO_SESSIONS / REPRO_SCHEDULES scale the interleaving-schedule
   ablation: the widest session-pool width measured, and how many
   schedules each width synthesizes and executes. *)
let sessions =
  match Sys.getenv_opt "REPRO_SESSIONS" with
  | Some s -> (try max 2 (int_of_string s) with Failure _ -> 4)
  | None -> 4

let schedules =
  match Sys.getenv_opt "REPRO_SCHEDULES" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 128)
  | None -> 128

(* One shard's execution harness, when any harness-level feature
   (oracles, exec cache, grammar feedback) is enabled; [None] lets the
   fuzzer build its own default harness, as before those features
   existed. *)
let campaign_harness ?(exec_cache = exec_cache) ?(feedback = feedback)
    profile =
  if oracles || exec_cache > 0 || feedback <> Fuzz.Harness.Edges then
    Some
      (Fuzz.Harness.create ~profile ~exec_cache ~feedback
         ?oracles:
           (if oracles then Some (Oracle.Suite.create profile) else None)
         ())
  else None

let continuous_budget = budget * 3

let dialects = Dialects.Registry.all

let dialect_name p = Minidb.Profile.name p

(* Keep the checkpoint count fixed so the Fig. 9 series is readable. *)
let checkpoint_every = max 1 (budget / 6)

(* With REPRO_TELEMETRY=jsonl every bench campaign records its event
   stream into one shared runs/bench-campaigns.jsonl, series-prefixed
   "<fuzzer>-<dialect>/", for legofuzz report. *)
let bench_sink =
  lazy
    (match Sys.getenv_opt "REPRO_TELEMETRY" with
     | Some "jsonl" ->
       let sink, path = Telemetry.Sink.jsonl ~name:"bench-campaigns" () in
       Printf.printf "telemetry: recording to %s\n%!" path;
       Some sink
     | _ -> None)

(* A campaign maker: [factory shard_id] builds one shard's fuzzer (called
   inside the shard's domain by the campaign engine). [jobs], [exchange]
   and [sync_every] default to the REPRO_JOBS / REPRO_EXCHANGE /
   REPRO_SYNC environment configuration; the exchange-ablation bench
   overrides all three. *)
let run_campaign ?(execs = budget) ?(jobs = jobs) ?(exchange = exchange)
    ?(sync_every = sync_every) ?series_prefix profile (name, factory) =
  let series = ref [] in
  let lego0 = ref None in
  let make shard_id =
    let fz, lego = factory shard_id in
    if shard_id = 0 then lego0 := lego;
    fz
  in
  let series_prefix =
    match series_prefix with
    | Some p -> p
    | None -> Printf.sprintf "%s-%s/" name (dialect_name profile)
  in
  let sink =
    match Lazy.force bench_sink with
    | Some s -> s
    | None -> Telemetry.Sink.null
  in
  let start = Telemetry.Span.now_s () in
  let res =
    Fuzz.Campaign.run ~checkpoint_every
      ~on_checkpoint:(fun cp ->
          let snap = cp.Fuzz.Driver.cp_snapshot in
          series := (snap.Fuzz.Driver.st_execs, snap.st_branches) :: !series)
      ~sync_every ~exchange ~sink ~series_prefix ~jobs ~execs make
  in
  let wall_s = Telemetry.Span.now_s () -. start in
  let final = res.Fuzz.Campaign.cg_snapshot in
  let shards = res.Fuzz.Campaign.cg_shards in
  { c_fuzzer = name;
    c_dialect = dialect_name profile;
    c_series =
      List.rev ((final.Fuzz.Driver.st_execs, final.st_branches) :: !series);
    c_final = final;
    c_fz = (List.hd shards).Fuzz.Campaign.sh_fuzzer;
    c_corpus =
      (fun () ->
         List.concat_map
           (fun sh -> sh.Fuzz.Campaign.sh_fuzzer.Fuzz.Driver.f_corpus ())
           shards);
    c_lego = !lego0;
    c_metrics = res.Fuzz.Campaign.cg_metrics;
    c_wall_s = wall_s }

let make_lego ?(seq = true) ?(max_seq_len = 5) ?(seed = 1)
    ?(exec_cache = exec_cache) ?(feedback = feedback) profile =
  ( (if seq then "LEGO" else "LEGO-"),
    fun shard_id ->
      let config =
        { Lego.Lego_fuzzer.default_config with
          sequence_oriented = seq;
          max_seq_len;
          seed = Fuzz.Campaign.shard_seed ~seed ~shard_id }
      in
      let t =
        Lego.Lego_fuzzer.create ~config
          ?harness:(campaign_harness ~exec_cache ~feedback profile) profile
      in
      (Lego.Lego_fuzzer.fuzzer t, Some t) )

let make_baseline name create fuzzer ?(seed = 1) profile =
  ( name,
    fun shard_id ->
      (fuzzer
         (create
            ~seed:(Fuzz.Campaign.shard_seed ~seed ~shard_id)
            ~harness:(campaign_harness profile) profile),
       None) )

(* Fraction of executions that restored a cached prefix ([nan] when the
   cache was off: no lookups at all). The denominator is hits + misses
   only: unhinted single-session executions land in [cache.bypass] and
   interleaving-schedule executions in [cache.schedule_bypass], and
   neither belongs in a prefix-restore rate — a campaign with a long
   schedule phase must report the same hit rate as one without. *)
let cache_hit_rate c =
  let hits = Telemetry.Registry.counter_value c.c_metrics "cache.hits" in
  let misses = Telemetry.Registry.counter_value c.c_metrics "cache.misses" in
  if hits + misses = 0 then nan
  else float_of_int hits /. float_of_int (hits + misses)

let execs_per_sec c =
  if c.c_wall_s > 0.0 then
    float_of_int c.c_final.Fuzz.Driver.st_execs /. c.c_wall_s
  else 0.0

let make_squirrel profile =
  make_baseline "SQUIRREL"
    (fun ~seed ~harness p -> Baselines.Squirrel_sim.create ~seed ?harness p)
    Baselines.Squirrel_sim.fuzzer profile

let make_sqlancer profile =
  make_baseline "SQLancer"
    (fun ~seed ~harness p -> Baselines.Sqlancer_sim.create ~seed ?harness p)
    Baselines.Sqlancer_sim.fuzzer profile

let make_sqlsmith profile =
  make_baseline "SQLsmith"
    (fun ~seed ~harness p -> Baselines.Sqlsmith_sim.create ~seed ?harness p)
    Baselines.Sqlsmith_sim.fuzzer profile

(* --- table rendering ------------------------------------------------ *)

let hr width = print_endline (String.make width '-')

let section title =
  print_newline ();
  hr 78;
  Printf.printf "%s\n" title;
  hr 78

let print_row widths cells =
  let padded =
    List.map2
      (fun w c -> Printf.sprintf "%-*s" w c)
      widths cells
  in
  print_endline (String.concat "  " padded)

let pct_improvement a b =
  if b = 0 then 0.0 else 100.0 *. (float_of_int a /. float_of_int b -. 1.0)
