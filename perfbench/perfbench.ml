(* One repetition of a named benchmark workload.

   The benchmark drives the libraries only through their public entry
   points (Campaign.run, Lego_fuzzer.create, Scheduler.run, ...) and takes
   every timing itself, around those calls. It prints one JSON object on
   its last stdout line: counts, timings, correctness checks and, with
   [--trace 1], per-layer metrics. perfbench/run.py repeats it, takes the
   medians and turns the result into the reported metric set. *)

module J = Telemetry.Json

let now = Unix.gettimeofday
let origin = now ()

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

type span = {
  s_id : int;
  s_name : string;
  s_parent : int;  (* -1 = root *)
  s_case : int;    (* test-case id (replay), shard (steps), round (farm) *)
  s_t0 : float;
  s_t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let open_stack : int list ref = ref []

(* A root span measured by the caller (steps, farm rounds, store calls). *)
let add_span ~case name t0 t1 =
  let id = !next_id in
  incr next_id;
  spans := { s_id = id; s_name = name; s_parent = -1; s_case = case;
             s_t0 = t0; s_t1 = t1 } :: !spans

(* A nested span around [f], for the single-threaded replay phase. The id
   is reserved up front so children can name their parent. *)
let with_span ?(case = -1) name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_stack with p :: _ -> p | [] -> -1 in
  open_stack := id :: !open_stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    open_stack := List.tl !open_stack;
    spans := { s_id = id; s_name = name; s_parent = parent; s_case = case;
               s_t0 = t0; s_t1 = t1 } :: !spans
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let durations name =
  List.filter_map
    (fun s -> if s.s_name = name then Some (s.s_t1 -. s.s_t0) else None)
    !spans

(* Self time: a span's duration minus what its children cover, summed
   per layer (the span name up to its first dot). *)
let self_ms_by_layer () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       if s.s_parent >= 0 then
         Hashtbl.replace child s.s_parent
           ((try Hashtbl.find child s.s_parent with Not_found -> 0.0)
            +. (s.s_t1 -. s.s_t0)))
    !spans;
  let by = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let layer =
         match String.index_opt s.s_name '.' with
         | Some i -> String.sub s.s_name 0 i
         | None -> s.s_name
       in
       let self =
         s.s_t1 -. s.s_t0
         -. (try Hashtbl.find child s.s_id with Not_found -> 0.0)
       in
       Hashtbl.replace by layer
         ((try Hashtbl.find by layer with Not_found -> 0.0) +. self))
    !spans;
  fun layer -> 1000.0 *. (try Hashtbl.find by layer with Not_found -> 0.0)

(* ------------------------------------------------------------------ *)
(* Small statistics                                                     *)

let quantile q xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let median xs = quantile 0.5 xs
let us xs = List.map (fun s -> s *. 1e6) xs
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type lego_run = {
  lr_profile : Minidb.Profile.t;
  lr_feedback : Fuzz.Harness.feedback;
  lr_jobs : int;
  lr_execs : int;
}

type kind = Lego_campaign of lego_run | Farm_resume

type workload = { w_name : string; w_kind : kind; w_config : J.t }

let pg = Dialects.Registry.pg_sim

(* The farm's four campaigns: every generator family, four dialects, the
   oracle suite on one of them. *)
let farm_campaigns ~seed ~budget =
  let c id fuzzer dialect oracles =
    { Farm.Store.sc_id = id; sc_fuzzer = fuzzer; sc_dialect = dialect;
      sc_quirks = []; sc_feedback = Fuzz.Harness.Edges; sc_oracles = oracles;
      sc_exec_cache = 0; sc_seed = seed; sc_budget = budget }
  in
  [ c "lego-pg" "lego" "postgresql" false;
    c "legominus-my" "lego-" "mysql" true;
    c "squirrel-maria" "squirrel" "mariadb" false;
    c "sqlancer-comdb2" "sqlancer" "comdb2" false ]

let farm_spec ~seed ~div =
  { Farm.Spec.fs_campaigns = farm_campaigns ~seed ~budget:(24_000 / div);
    fs_total_execs = 64_000 / div; fs_round_execs = 2048 / div;
    fs_workers = 2; fs_policy = Farm.Spec.Bandit; fs_ucb_c = 0.5 }

let workload ~name ~seed ~div =
  let lego ~feedback ~jobs ~execs =
    let r = { lr_profile = pg; lr_feedback = feedback; lr_jobs = jobs;
              lr_execs = execs / div } in
    let config =
      J.Obj
        [ ("fuzzer", J.Str "lego"); ("dialect", J.Str "postgresql");
          ("feedback", J.Str (Fuzz.Harness.feedback_to_string feedback));
          ("exec_cache", J.Int 1024); ("cow", J.Bool true);
          ("jobs", J.Int jobs); ("execs", J.Int r.lr_execs);
          ("sync_every", J.Int Fuzz.Sync.default_interval);
          ("exchange", J.Str (if jobs > 1 then "seeds+affinities" else "none"));
          ("campaign_seed", J.Int seed) ]
    in
    Some { w_name = name; w_kind = Lego_campaign r; w_config = config }
  in
  match name with
  | "pg-edges-stall" -> lego ~feedback:Fuzz.Harness.Edges ~jobs:1 ~execs:36_000
  | "pg-both-j2" -> lego ~feedback:Fuzz.Harness.Both ~jobs:2 ~execs:64_000
  | "farm-resume" ->
    let spec = farm_spec ~seed ~div in
    Some { w_name = name; w_kind = Farm_resume;
           w_config =
             J.Obj [ ("spec", Farm.Spec.to_json spec);
                     ("backend", J.Str "domains");
                     ("invocations", J.Str "fresh, then resume to budget") ] }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Results                                                              *)

type run = {
  mutable setup : float list;
  mutable execs : int;
  mutable wall : float;
  mutable cpu : float;
  mutable late_execs : int;
  mutable late_wall : float;
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * bool * string) list;
  mutable branches : int;
  mutable keys : int;
  mutable bugs : string list;
  mutable affinities : int;
  mutable layer : (string * float * string) list;
  mutable stages : (string * int * int) list;
  mutable steps : (int * float * float * int) list;
      (* shard, start, end, execs — traced campaigns only *)
}

let check r name ok detail = r.checks <- (name, ok, detail) :: r.checks
let metric r name unit v = r.layer <- (name, v, unit) :: r.layer

let stage_totals reg =
  List.filter_map
    (fun s ->
       Option.map (fun (calls, total) -> (s, calls, total))
         (Telemetry.Span.stage_stats reg s))
    (Telemetry.Span.stage_names reg)

let merge_stages a b =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (s, c, u) ->
       let c0, u0 = try Hashtbl.find t s with Not_found -> (0, 0) in
       Hashtbl.replace t s (c0 + c, u0 + u))
    (a @ b);
  List.sort compare (Hashtbl.fold (fun s (c, u) acc -> (s, c, u) :: acc) t [])

let time_setups ~reps f =
  List.init reps (fun _ ->
      Gc.full_major ();
      let t0 = now () in
      ignore (Sys.opaque_identity (f ()));
      now () -. t0)

(* Every unique crash reproducer must fire the same bug on a fresh
   engine: the campaign's crash report is an output we can verify. *)
let check_reproducers r ~profile crashes =
  List.iter
    (fun ((c : Minidb.Fault.crash), tc) ->
       let want = c.Minidb.Fault.c_bug.Minidb.Fault.bug_id in
       match tc with
       | None -> check r ("reproducer " ^ want) false "no reproducer kept"
       | Some tc ->
         let e =
           Minidb.Engine.create ~profile ~cov:(Coverage.Bitmap.create ()) ()
         in
         let got =
           match (Minidb.Engine.run_testcase e tc).Minidb.Engine.rs_crash with
           | Some c' -> c'.Minidb.Fault.c_bug.Minidb.Fault.bug_id
           | None -> "no crash"
         in
         check r ("reproducer " ^ want) (got = want) got)
    crashes

(* ------------------------------------------------------------------ *)
(* Replay phase (traced runs)                                           *)

type slow = {
  sl_us : float;
  sl_tc : Sqlcore.Ast.testcase;
  sl_rows : int;
  sl_origin : string;  (* "corpus", or the digest of the seed mutated *)
}

let reservoir_size = 20

let sample ~seed ~cap xs =
  let a = Array.of_list xs in
  let rng = Reprutil.Rng.create seed in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Reprutil.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 (min cap n))

let hist_edges_us = Array.init 24 (fun i -> 1 lsl i)  (* 1 µs .. 8.4 s *)

let histogram xs =
  let counts = Array.make (Array.length hist_edges_us + 1) 0 in
  List.iter
    (fun x ->
       let rec go i =
         if i >= Array.length hist_edges_us then i
         else if x <= float_of_int hist_edges_us.(i) then i
         else go (i + 1)
       in
       let b = go 0 in
       counts.(b) <- counts.(b) + 1)
    xs;
  J.Arr
    (Array.to_list
       (Array.mapi
          (fun i n ->
             J.Obj
               [ ("le_us",
                  if i < Array.length hist_edges_us then J.Int hist_edges_us.(i)
                  else J.Str "inf");
                 ("count", J.Int n) ])
          counts))

(* The slowest driver steps, for locating the stall in time: the cases
   they executed are not kept by the fuzzer, only the steps are visible. *)
let slow_steps steps =
  let origin = List.fold_left (fun m (_, t0, _, _) -> Float.min m t0) infinity steps in
  let top =
    List.filteri (fun i _ -> i < reservoir_size)
      (List.sort
         (fun (_, a0, a1, _) (_, b0, b1, _) -> compare (b1 -. b0) (a1 -. a0))
         steps)
  in
  J.Arr
    (List.map
       (fun (shard, t0, t1, execs) ->
          J.Obj
            [ ("shard", J.Int shard); ("at_s", J.Float (t0 -. origin));
              ("us", J.Float ((t1 -. t0) *. 1e6)); ("execs", J.Int execs) ])
       top)

let types_of tc =
  List.map (fun s -> Sqlcore.Stmt_type.name (Sqlcore.Ast.type_of_stmt s)) tc

let digest tc = Digest.to_hex (Digest.string (Sqlcore.Sql_printer.testcase tc))

let slow_json s =
  J.Obj
    [ ("digest", J.Str (digest s.sl_tc)); ("origin", J.Str s.sl_origin);
      ("us", J.Float s.sl_us); ("rows_scanned", J.Int s.sl_rows);
      ("types", J.Arr (List.map (fun t -> J.Str t) (types_of s.sl_tc)));
      ("statements",
       J.Arr (List.map (fun st -> J.Str (Sqlcore.Sql_printer.stmt st)) s.sl_tc)) ]

(* The engine pass covers the whole kept corpus, so the slow-execution
   reservoir sees every stalling seed; the other layers replay a sample
   drawn with the workload seed. *)
let replay_engine r ~profile corpus =
  let runs =
    List.mapi
      (fun i tc ->
         with_span ~case:i "replay.case" (fun () ->
             let e =
               Minidb.Engine.create ~profile ~cov:(Coverage.Bitmap.create ()) ()
             in
             let t0 = now () in
             let st =
               with_span ~case:i "engine.run" (fun () ->
                   Minidb.Engine.run_testcase e tc)
             in
             let dt = (now () -. t0) *. 1e6 in
             (if st.Minidb.Engine.rs_crash = None then
                let snap =
                  with_span ~case:i "engine.snapshot" (fun () ->
                      Minidb.Engine.snapshot e)
                in
                ignore
                  (with_span ~case:i "engine.restore" (fun () ->
                       Minidb.Engine.restore snap
                         ~cov:(Coverage.Bitmap.create ()) ())));
             ({ sl_us = dt; sl_tc = tc; sl_rows = st.Minidb.Engine.rs_rows_scanned;
                sl_origin = "corpus" },
              st)))
      corpus
  in
  let n = List.length runs in
  let times = List.map (fun (s, _) -> s.sl_us) runs in
  let total = List.fold_left ( +. ) 0.0 times in
  let slow = List.filter (fun t -> t > 2000.0) times in
  let sum f = List.fold_left (fun acc (_, st) -> acc + f st) 0 runs in
  metric r "engine.run_us.p50" "us" (median times);
  metric r "engine.run_us.p99" "us" (quantile 0.99 times);
  metric r "engine.run_us.max" "us" (quantile 1.0 times);
  metric r "engine.rows_scanned_per_exec" "rows/exec"
    (ratio (sum (fun st -> st.Minidb.Engine.rs_rows_scanned)) n);
  metric r "engine.slow_share" "ratio" (ratio (List.length slow) n);
  metric r "engine.slow_time_share" "ratio"
    (if total > 0.0 then List.fold_left ( +. ) 0.0 slow /. total else 0.0);
  metric r "engine.stmt_error_share" "ratio"
    (ratio (sum (fun st -> st.Minidb.Engine.rs_errors))
       (sum (fun st -> st.Minidb.Engine.rs_executed)));
  metric r "engine.snapshot_us.p50" "us" (median (us (durations "engine.snapshot")));
  metric r "engine.restore_us.p50" "us" (median (us (durations "engine.restore")));
  (List.map fst runs, histogram times)

let slowest xs =
  List.filteri (fun i _ -> i < reservoir_size)
    (List.sort (fun a b -> compare b.sl_us a.sl_us) xs)

(* The stall's multi-second steps execute mutants of the stalling seeds,
   which the fuzzer does not keep. Replaying the mutants of the three
   slowest seeds names them; the pass stops starting new mutants after
   [mutant_budget_s] so a traced run stays bounded. *)
let mutant_budget_s = 8.0

let reservoir ~profile ~skeletons ~seed runs =
  let rng = Reprutil.Rng.create seed in
  let types = Minidb.Profile.types profile in
  let spent = ref 0.0 in
  let mutants =
    List.concat_map
      (fun parent ->
         List.filter_map
           (fun (_, tc) ->
              if !spent > mutant_budget_s then None
              else begin
                let e =
                  Minidb.Engine.create ~profile ~cov:(Coverage.Bitmap.create ()) ()
                in
                let t0 = now () in
                let st =
                  with_span "engine.mutant" (fun () -> Minidb.Engine.run_testcase e tc)
                in
                let dt = now () -. t0 in
                spent := !spent +. dt;
                Some { sl_us = dt *. 1e6; sl_tc = tc;
                       sl_rows = st.Minidb.Engine.rs_rows_scanned;
                       sl_origin = "mutant of " ^ digest parent.sl_tc }
              end)
           (Lego.Seq_mutation.mutate_all rng ~skeletons ~types parent.sl_tc))
      (List.filteri (fun i _ -> i < 3) (slowest runs))
  in
  slowest (runs @ mutants)

let replay_layers r ~profile ~feedback ~exec_cache ~skeletons ~seed sample_cases =
  let types = Minidb.Profile.types profile in
  let h = Fuzz.Harness.create ~profile ~exec_cache ~feedback () in
  (* grammar_novelty needs grammar feedback; edges workloads rank against
     a scratch grammar harness *)
  let hg =
    if Fuzz.Harness.grammar_feedback h then h
    else Fuzz.Harness.create ~profile ~feedback:Fuzz.Harness.Both ()
  in
  let gmap = Coverage.Bitmap.create () in
  let rng = Reprutil.Rng.create seed in
  let base = 1_000_000 in
  let interesting = ref 0 in
  List.iteri
    (fun i tc ->
       let case = base + i in
       with_span ~case "replay.case" (fun () ->
           let o =
             with_span ~case "harness.execute" (fun () ->
                 Fuzz.Harness.execute h tc)
           in
           if o.Fuzz.Harness.o_interesting then incr interesting;
           let sql =
             with_span ~case "grammar.print" (fun () ->
                 Sqlcore.Sql_printer.testcase tc)
           in
           Coverage.Bitmap.reset gmap;
           ignore
             (with_span ~case "grammar.parse" (fun () ->
                  Sqlparser.Parser.parse_testcase ~grammar:gmap sql));
           ignore
             (with_span ~case "grammar.novelty" (fun () ->
                  Fuzz.Harness.grammar_novelty hg tc));
           ignore
             (with_span ~case "lego.mutate" (fun () ->
                  Lego.Seq_mutation.mutate_all rng ~skeletons ~types tc));
           ignore
             (with_span ~case "lego.instantiate" (fun () ->
                  Lego.Instantiate.sequence rng ~skeletons
                    (List.map Sqlcore.Ast.type_of_stmt tc)))))
    sample_cases;
  let p name q = quantile q (us (durations name)) in
  metric r "harness.execute_us.p50" "us" (p "harness.execute" 0.5);
  metric r "harness.execute_us.p99" "us" (p "harness.execute" 0.99);
  metric r "harness.interesting_share" "ratio"
    (ratio !interesting (List.length sample_cases));
  metric r "grammar.print_us.p50" "us" (p "grammar.print" 0.5);
  metric r "grammar.parse_us.p50" "us" (p "grammar.parse" 0.5);
  metric r "grammar.parse_us.p99" "us" (p "grammar.parse" 0.99);
  metric r "grammar.novelty_us.p50" "us" (p "grammar.novelty" 0.5);
  metric r "lego.mutate_us.p50" "us" (p "lego.mutate" 0.5);
  metric r "lego.instantiate_us.p50" "us" (p "lego.instantiate" 0.5)

(* Algorithm 3 replayed: the campaign's affinity discovery log pushed into
   a fresh synthesis state, in discovery order. *)
let replay_synthesis r ~profile affinity_logs =
  let synth = Lego.Synthesis.create ~types:(Minidb.Profile.types profile) () in
  let aff = Lego.Affinity.create () in
  with_span "lego.synthesize" (fun () ->
      List.iter
        (List.iter (fun (a, b) ->
             if Lego.Affinity.add aff a b then
               ignore (Lego.Synthesis.on_new_affinity synth aff (a, b))))
        affinity_logs);
  metric r "lego.synthesize_ms" "ms"
    (1000.0 *. List.fold_left ( +. ) 0.0 (durations "lego.synthesize"));
  metric r "lego.sequences" "count" (float_of_int (Lego.Synthesis.total synth))

let replay_oracle r ~profile ~seed corpus =
  let suite = Oracle.Suite.create profile in
  List.iteri
    (fun i tc ->
       ignore
         (with_span ~case:(2_000_000 + i) "oracle.check" (fun () ->
              Oracle.Suite.check suite tc)))
    (sample ~seed ~cap:128 corpus);
  let d = us (durations "oracle.check") in
  metric r "oracle.check_us.p50" "us" (median d);
  metric r "oracle.check_us.p99" "us" (quantile 0.99 d)

let counter_sum reg pred =
  List.fold_left
    (fun acc n -> if pred n then acc + Telemetry.Registry.counter_value reg n else acc)
    0 (Telemetry.Registry.counter_names reg)

let registry_metrics r reg =
  let c = Telemetry.Registry.counter_value reg in
  let hits = c "cache.hits" and misses = c "cache.misses"
  and bypass = c "cache.bypass" in
  metric r "cache.hit_rate" "ratio" (ratio hits (hits + misses));
  metric r "cache.bypass_share" "ratio" (ratio bypass (hits + misses + bypass));
  metric r "cache.evictions" "count" (float_of_int (c "cache.evictions"));
  metric r "cache.bytes" "bytes"
    (float_of_int (Telemetry.Registry.gauge_value reg "cache.bytes"));
  let oracle suffix n =
    String.starts_with ~prefix:"oracle." n && String.ends_with ~suffix n
  in
  metric r "oracle.checks" "count"
    (float_of_int (counter_sum reg (oracle ".checks")));
  metric r "oracle.violations" "count"
    (float_of_int (counter_sum reg (oracle ".violations")))

let step_metrics r ~jobs ~wall =
  let steps = r.steps in
  let d = List.map (fun (_, t0, t1, _) -> (t1 -. t0) *. 1e6) steps in
  metric r "driver.step_us.p50" "us" (median d);
  metric r "driver.step_us.p99" "us" (quantile 0.99 d);
  metric r "driver.step_us.max" "us" (quantile 1.0 d);
  metric r "driver.execs_per_step" "execs/step"
    (ratio (List.fold_left (fun a (_, _, _, e) -> a + e) 0 steps) (List.length steps));
  let busy = List.fold_left ( +. ) 0.0 d /. 1e6 in
  metric r "sync.wait_share" "ratio"
    (if wall > 0.0 && steps <> [] then
       Float.max 0.0 (1.0 -. (busy /. (float_of_int jobs *. wall)))
     else 0.0);
  let last =
    List.init jobs (fun k ->
        List.fold_left
          (fun m (s, _, t1, _) -> if s = k then Float.max m t1 else m)
          0.0 steps)
  in
  metric r "sync.shard_skew_s" "s"
    (if jobs > 1 && steps <> [] then
       List.fold_left Float.max 0.0 last -. List.fold_left Float.min infinity last
     else 0.0)

(* ------------------------------------------------------------------ *)
(* LEGO campaign workloads                                              *)

let run_lego r ~trace ~seed ~sample_seed lr =
  let profile = lr.lr_profile in
  let handles = Array.make lr.lr_jobs None in
  let make shard_id =
    let harness =
      Fuzz.Harness.create ~profile ~exec_cache:1024 ~feedback:lr.lr_feedback ()
    in
    let config =
      { Lego.Lego_fuzzer.default_config with
        seed = Fuzz.Campaign.shard_seed ~seed ~shard_id }
    in
    let t = Lego.Lego_fuzzer.create ~config ~harness profile in
    handles.(shard_id) <- Some t;
    Lego.Lego_fuzzer.fuzzer t
  in
  r.setup <-
    time_setups ~reps:7 (fun () -> List.init lr.lr_jobs (fun k -> make k));
  let logs = Array.make lr.lr_jobs [] in
  let factory shard_id =
    let f = make shard_id in
    if not trace then f
    else
      let h = f.Fuzz.Driver.f_harness in
      { f with
        Fuzz.Driver.f_step =
          (fun () ->
             let e0 = Fuzz.Harness.execs h in
             let t0 = now () in
             f.Fuzz.Driver.f_step ();
             let t1 = now () in
             logs.(shard_id) <-
               (shard_id, t0, t1, Fuzz.Harness.execs h - e0) :: logs.(shard_id)) }
  in
  let half = ref None in
  let on_checkpoint (cp : Fuzz.Driver.checkpoint) =
    let e = cp.Fuzz.Driver.cp_snapshot.Fuzz.Driver.st_execs in
    if !half = None && e >= lr.lr_execs / 2 then half := Some (now (), e)
  in
  r.attempted <- lr.lr_execs;
  let exchange =
    { Fuzz.Sync.ex_seeds = lr.lr_jobs > 1; ex_affinities = lr.lr_jobs > 1 }
  in
  Gc.full_major ();
  let c0 = cpu_now () in
  let t0 = now () in
  match
    Fuzz.Campaign.run ~checkpoint_every:(max 1 (lr.lr_execs / 2)) ~on_checkpoint
      ~exchange ~jobs:lr.lr_jobs ~execs:lr.lr_execs factory
  with
  | exception e ->
    r.failed <- lr.lr_execs;
    check r "campaign" false (Printexc.to_string e);
    None
  | res ->
    let t1 = now () in
    r.cpu <- cpu_now () -. c0;
    let snap = res.Fuzz.Campaign.cg_snapshot in
    r.execs <- snap.Fuzz.Driver.st_execs;
    r.wall <- t1 -. t0;
    (match !half with
     | Some (th, eh) ->
       r.late_execs <- r.execs - eh;
       r.late_wall <- t1 -. th
     | None -> ());
    r.branches <- snap.Fuzz.Driver.st_branches;
    r.keys <-
      List.fold_left
        (fun acc (sh : Fuzz.Campaign.shard) ->
           acc + Farm.Scheduler.coverage_keys sh.Fuzz.Campaign.sh_fuzzer
           - Fuzz.Harness.branches sh.sh_fuzzer.Fuzz.Driver.f_harness)
        r.branches res.cg_shards;
    r.bugs <- List.sort_uniq compare snap.Fuzz.Driver.st_bugs;
    let corpus =
      List.concat_map
        (fun (sh : Fuzz.Campaign.shard) -> sh.sh_fuzzer.Fuzz.Driver.f_corpus ())
        res.cg_shards
    in
    r.affinities <- Lego.Affinity.count (Lego.Affinity.of_corpus corpus);
    check r "budget" (r.execs >= lr.lr_execs) (string_of_int r.execs);
    check_reproducers r ~profile res.cg_crashes;
    r.stages <- stage_totals res.cg_metrics;
    if trace then begin
      r.steps <- List.concat_map List.rev (Array.to_list logs);
      List.iter
        (fun (shard, a, b, _) -> add_span ~case:shard "driver.step" a b)
        r.steps;
      step_metrics r ~jobs:lr.lr_jobs ~wall:r.wall;
      metric r "sync.rounds" "count" (float_of_int res.cg_sync_rounds);
      registry_metrics r res.cg_metrics;
      let runs, hist = replay_engine r ~profile corpus in
      let shards = List.filter_map Fun.id (Array.to_list handles) in
      let skeletons = Lego.Lego_fuzzer.skeletons (List.hd shards) in
      replay_layers r ~profile ~feedback:lr.lr_feedback ~exec_cache:1024
        ~skeletons ~seed:sample_seed (sample ~seed:sample_seed ~cap:400 corpus);
      let top = reservoir ~profile ~skeletons ~seed:sample_seed runs in
      replay_synthesis r ~profile
        (List.map
           (fun t -> Lego.Affinity.log_since (Lego.Lego_fuzzer.affinities t) 0)
           shards);
      replay_oracle r ~profile ~seed:sample_seed corpus;
      List.iter
        (fun (n, u) -> metric r n u 0.0)
        [ ("farm.round_s.p50", "s"); ("farm.round_s.p99", "s");
          ("farm.rounds", "count"); ("farm.hot_share", "ratio");
          ("farm.store.load_ms.p50", "ms"); ("farm.store.save_ms.p50", "ms");
          ("farm.store.bytes", "bytes") ];
      Some (top, hist)
    end
    else None

(* ------------------------------------------------------------------ *)
(* Farm: a fresh farm, then a resume of every campaign to its budget     *)

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

let dir_bytes d =
  Array.fold_left
    (fun acc f ->
       let p = Filename.concat d f in
       if Sys.is_directory p then acc else acc + (Unix.stat p).Unix.st_size)
    0 (Sys.readdir d)

let run_farm r ~trace ~seed ~sample_seed ~div ~work =
  let spec = farm_spec ~seed ~div in
  let root = Filename.concat work (Printf.sprintf "farm-%d" (Unix.getpid ())) in
  rm_rf root;
  Farm.Store.ensure_dir root;
  let runs_dir = Filename.concat root "runs" in
  let spec_path = Filename.concat root "spec.json" in
  Out_channel.with_open_text spec_path (fun oc ->
      output_string oc (J.to_string (Farm.Spec.to_json spec)));
  let arrivals = ref [] in
  let sink =
    { Telemetry.Sink.emit =
        (fun ev ->
           let t = now () in
           match ev with
           | Telemetry.Event.Meta _ -> arrivals := (t, -1) :: !arrivals
           | Telemetry.Event.Checkpoint { point; _ }
             when String.starts_with ~prefix:"farm/" point.Telemetry.Event.p_series ->
             arrivals := (t, point.p_iteration) :: !arrivals
           | _ -> ());
      close = ignore }
  in
  let dirs =
    List.map
      (fun (c : Farm.Store.campaign) -> Farm.Store.store_dir ~runs_dir c.sc_id)
      spec.fs_campaigns
  in
  let invoke () =
    Gc.full_major ();
    let c0 = cpu_now () in
    let t0 = now () in
    let res = Farm.Scheduler.run ~sink ~runs_dir spec in
    let wall = now () -. t0 in
    r.cpu <- r.cpu +. (cpu_now () -. c0);
    (res, wall)
  in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let failed_setup msg =
    r.failed <- spec.fs_total_execs;
    r.attempted <- spec.fs_total_execs;
    check r "farm" false msg;
    None
  in
  match invoke () with
  | Error e, _ -> failed_setup e
  | Ok fresh, wall1 ->
    let rounds1 = List.rev !arrivals in
    arrivals := [];
    (* Set-up of the resume: spec parse, store loads, fuzzer rebuilds. *)
    match
      time_setups ~reps:3 (fun () ->
          match Farm.Spec.of_file spec_path with
          | Error e -> failwith e
          | Ok sp ->
            List.map2
              (fun (c : Farm.Store.campaign) dir ->
                 match Farm.Store.load ~dir with
                 | Error w ->
                   failwith
                     (Printf.sprintf "unloadable store %s: %s" c.sc_id
                        (String.concat "; " w))
                 | Ok (snap, _, _) ->
                   (match Farm.Spec.make ~campaign:c ~seed:c.sc_seed with
                    | Error e -> failwith e
                    | Ok make ->
                      let f = make 0 in
                      Farm.Resume.preload_fuzzer snap f;
                      f))
              sp.Farm.Spec.fs_campaigns dirs)
    with
    | exception Failure msg -> failed_setup msg
    | setup ->
      r.setup <- setup;
      let resumed = invoke () in
      let rounds2 = List.rev !arrivals in
      match resumed with
      | Error e, _ -> failed_setup e
      | Ok res, wall2 ->
        let cs1 = fresh.Farm.Scheduler.fr_campaigns
        and cs2 = res.Farm.Scheduler.fr_campaigns in
        let sum f cs = List.fold_left (fun a c -> a + f c) 0 cs in
        let executed (c : Farm.Scheduler.campaign_result) = c.fc_executed in
        let allocated (c : Farm.Scheduler.campaign_result) = c.fc_allocated in
        r.execs <- sum executed cs1 + sum executed cs2;
        r.wall <- wall1 +. wall2;
        r.late_execs <- sum executed cs2;
        r.late_wall <- wall2;
        r.attempted <- sum allocated cs1 + sum allocated cs2;
        let lost (c : Farm.Scheduler.campaign_result) =
          if c.fc_error = None then 0 else max 1 (c.fc_allocated - c.fc_executed)
        in
        r.failed <- sum lost cs1 + sum lost cs2;
        List.iter
          (fun (c : Farm.Scheduler.campaign_result) ->
             match c.fc_error with
             | Some e -> check r ("campaign " ^ c.fc_campaign.sc_id) false e
             | None -> ())
          (cs1 @ cs2);
        r.branches <- sum (fun c -> c.Farm.Scheduler.fc_branches) cs2;
        r.keys <- sum (fun c -> c.Farm.Scheduler.fc_coverage_keys) cs2;
        r.bugs <-
          List.sort_uniq compare
            (List.concat_map (fun c -> c.Farm.Scheduler.fc_bugs) (cs1 @ cs2));
        check r "store warnings"
          (fresh.fr_warnings = [] && res.fr_warnings = [])
          (String.concat "; " (fresh.fr_warnings @ res.fr_warnings));
        check r "campaigns finished"
          (List.for_all (fun c -> c.Farm.Scheduler.fc_finished) cs2) "";
        (* Reload every store: valid, no corrupt generation skipped, and
           each finding reported once across the two invocations. *)
        let snaps =
          List.map2
            (fun (c1, c2) dir ->
               let id = c1.Farm.Scheduler.fc_campaign.sc_id in
               let t0 = now () in
               match Farm.Store.load ~dir with
               | Error w ->
                 check r ("load " ^ id) false (String.concat "; " w);
                 None
               | Ok (snap, _, warnings) ->
                 add_span ~case:(-1) "farm.store.load" t0 (now ());
                 check r ("load " ^ id) (warnings = []) (String.concat "; " warnings);
                 let keys = snap.Farm.Store.sn_crash_keys @ snap.sn_logic_keys in
                 let reported =
                   c1.Farm.Scheduler.fc_crashes_unique + c1.fc_logic_unique
                   + c2.Farm.Scheduler.fc_crashes_unique + c2.fc_logic_unique
                 in
                 check r ("findings once " ^ id)
                   (List.length (List.sort_uniq compare keys) = List.length keys
                    && reported = List.length keys)
                   (Printf.sprintf "reported %d, stored %d" reported
                      (List.length keys));
                 Some (c1.fc_campaign, dir, snap))
            (List.combine cs1 cs2) dirs
          |> List.filter_map Fun.id
        in
        let corpus_of snap = List.map (fun x -> x.Fuzz.Sync.xs_tc) snap.Farm.Store.sn_seeds in
        r.affinities <-
          Lego.Affinity.count
            (Lego.Affinity.of_corpus
               (List.concat_map (fun (_, _, s) -> corpus_of s) snaps));
        r.stages <-
          merge_stages (stage_totals fresh.fr_metrics) (stage_totals res.fr_metrics);
        if not trace then None
        else begin
          let round_spans arrivals =
            (* A round ends when its last campaign checkpoint arrives (after
               the store save); it starts where the previous one ended. *)
            let ends = Hashtbl.create 32 in
            let start = ref None in
            List.iter
              (fun (t, rd) ->
                 if rd < 0 then (if !start = None then start := Some t)
                 else Hashtbl.replace ends rd t)
              arrivals;
            let rds =
              List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ends [])
            in
            let prev = ref (Option.value !start ~default:0.0) in
            List.iter
              (fun (rd, t) ->
                 add_span ~case:rd "farm.round" !prev t;
                 prev := t)
              rds
          in
          round_spans rounds1;
          round_spans rounds2;
          let rs = durations "farm.round" in
          metric r "farm.round_s.p50" "s" (median rs);
          metric r "farm.round_s.p99" "s" (quantile 0.99 rs);
          metric r "farm.rounds" "count"
            (float_of_int (fresh.fr_rounds + res.fr_rounds));
          let total = r.attempted in
          metric r "farm.hot_share" "ratio"
            (List.fold_left2
               (fun m c1 c2 -> Float.max m (ratio (allocated c1 + allocated c2) total))
               0.0 cs1 cs2);
          let save_root = Filename.concat root "save" in
          let bytes = ref 0 in
          List.iter
            (fun ((c : Farm.Store.campaign), _, snap) ->
               let dir = Filename.concat save_root c.sc_id in
               let t0 = now () in
               let gen = Farm.Store.save ~dir snap in
               add_span ~case:(-1) "farm.store.save" t0 (now ());
               bytes := !bytes + dir_bytes (Farm.Store.generation_dir ~dir gen))
            snaps;
          metric r "farm.store.load_ms.p50" "ms"
            (1000.0 *. median (durations "farm.store.load"));
          metric r "farm.store.save_ms.p50" "ms"
            (1000.0 *. median (durations "farm.store.save"));
          metric r "farm.store.bytes" "bytes" (float_of_int !bytes);
          let reg = Telemetry.Registry.create () in
          Telemetry.Registry.merge ~into:reg fresh.fr_metrics;
          Telemetry.Registry.merge ~into:reg res.fr_metrics;
          registry_metrics r reg;
          (* No step boundary of a farm campaign is reachable from outside
             Scheduler.run, and farm campaigns run unsharded. *)
          List.iter
            (fun (n, u) -> metric r n u 0.0)
            [ ("driver.step_us.p50", "us"); ("driver.step_us.p99", "us");
              ("driver.step_us.max", "us"); ("driver.execs_per_step", "execs/step");
              ("sync.rounds", "count"); ("sync.shard_skew_s", "s");
              ("sync.wait_share", "ratio") ];
          let find id = List.find_opt (fun (c, _, _) -> c.Farm.Store.sc_id = id) snaps in
          match (find "lego-pg", find "legominus-my") with
          | Some (c, _, snap), Some (oc, _, osnap) ->
            let profile = Result.get_ok (Farm.Spec.profile c) in
            let t =
              Lego.Lego_fuzzer.create
                ~config:{ Lego.Lego_fuzzer.default_config with seed } profile
            in
            Farm.Resume.preload_fuzzer snap (Lego.Lego_fuzzer.fuzzer t);
            let corpus = corpus_of snap in
            let runs, hist = replay_engine r ~profile corpus in
            let skeletons = Lego.Lego_fuzzer.skeletons t in
            replay_layers r ~profile ~feedback:c.sc_feedback
              ~exec_cache:c.sc_exec_cache ~skeletons
              ~seed:sample_seed (sample ~seed:sample_seed ~cap:400 corpus);
            let top = reservoir ~profile ~skeletons ~seed:sample_seed runs in
            replay_synthesis r ~profile [ snap.sn_affinities ];
            replay_oracle r ~profile:(Result.get_ok (Farm.Spec.profile oc))
              ~seed:sample_seed (corpus_of osnap);
            Some (top, hist)
          | _ ->
            check r "replay corpora" false "lego-pg or legominus-my store missing";
            None
        end

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let write_trace path ~header =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string header);
      output_char oc '\n';
      List.iter
        (fun s ->
           output_string oc
             (J.to_string
                (J.Obj
                   [ ("id", J.Int s.s_id); ("name", J.Str s.s_name);
                     ("parent", J.Int s.s_parent); ("case", J.Int s.s_case);
                     ("start_s", J.Float (s.s_t0 -. origin));
                     ("end_s", J.Float (s.s_t1 -. origin)) ]));
           output_char oc '\n')
        (List.rev !spans))

let finite x = if Float.is_finite x then J.Float x else J.Null

let () =
  let name = ref "" and seed = ref 1 and sample_seed = ref 1 and trace = ref 0
  and work = ref ".bench_work" and div = ref 1 in
  Arg.parse
    [ ("--workload", Arg.Set_string name, "NAME workload to run");
      ("--campaign-seed", Arg.Set_int seed, "N campaign RNG seed (default 1)");
      ("--sample-seed", Arg.Set_int sample_seed, "N replay-sample seed");
      ("--trace", Arg.Set_int trace, "0|1 traced run with replay phase");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--div", Arg.Set_int div, "D divide every budget by D (self-test)") ]
    (fun a -> raise (Arg.Bad a))
    "perfbench --workload NAME [options]";
  match workload ~name:!name ~seed:!seed ~div:(max 1 !div) with
  | None ->
    prerr_endline ("unknown workload " ^ !name);
    exit 2
  | Some w ->
    Farm.Store.ensure_dir !work;
    let trace = !trace = 1 in
    let r =
      { setup = []; execs = 0; wall = 0.0; cpu = 0.0; late_execs = 0; late_wall = 0.0;
        attempted = 0; failed = 0; checks = []; branches = 0; keys = 0; bugs = [];
        affinities = 0; layer = []; stages = []; steps = [] }
    in
    let replay =
      match w.w_kind with
      | Lego_campaign lr ->
        run_lego r ~trace ~seed:!seed ~sample_seed:!sample_seed lr
      | Farm_resume ->
        run_farm r ~trace ~seed:!seed ~sample_seed:!sample_seed ~div:(max 1 !div)
          ~work:!work
    in
    let stages =
      J.Obj
        (List.map
           (fun (s, calls, total) ->
              (s, J.Obj [ ("calls", J.Int calls); ("us", J.Int total) ]))
           r.stages)
    in
    let trace_file =
      match replay with
      | None -> J.Null
      | Some (top, hist) ->
        let self = self_ms_by_layer () in
        List.iter
          (fun l -> metric r ("self_ms." ^ l) "ms" (self l))
          [ "driver"; "farm"; "harness"; "engine"; "grammar"; "lego"; "oracle";
            "replay" ];
        metric r "replay.cases" "count"
          (float_of_int
             (List.length (List.filter (fun s -> s.s_name = "replay.case") !spans)));
        let path =
          Filename.concat !work
            (Printf.sprintf "trace-%s-c%d-s%d.jsonl" w.w_name !seed !sample_seed)
        in
        write_trace path
          ~header:
            (J.Obj
               [ ("workload", J.Str w.w_name); ("config", w.w_config);
                 ("slowest", J.Arr (List.map slow_json top));
                 ("slowest_steps", slow_steps r.steps);
                 ("exec_us_histogram", hist); ("stages", stages) ]);
        J.Str path
    in
    let ok = List.for_all (fun (_, ok, _) -> ok) r.checks in
    let out =
      J.Obj
        [ ("workload", J.Str w.w_name); ("config", w.w_config);
          ("ocaml", J.Str Sys.ocaml_version);
          ("setup_s", J.Arr (List.map (fun x -> J.Float x) r.setup));
          ("execs", J.Int r.execs); ("wall_s", finite r.wall);
          ("cpu_s", finite r.cpu);
          ("late_execs", J.Int r.late_execs); ("late_wall_s", finite r.late_wall);
          ("attempted", J.Int r.attempted);
          ("failed", J.Int (if ok then r.failed else r.attempted));
          ("correct", J.Bool ok);
          ("checks",
           J.Arr
             (List.rev_map
                (fun (n, ok, d) ->
                   J.Obj [ ("name", J.Str n); ("ok", J.Bool ok); ("detail", J.Str d) ])
                r.checks));
          ("counts",
           J.Obj
             [ ("branches", J.Int r.branches); ("coverage_keys", J.Int r.keys);
               ("bugs", J.Arr (List.map (fun b -> J.Str b) r.bugs));
               ("affinities", J.Int r.affinities) ]);
          ("layer",
           J.Obj
             (List.rev_map
                (fun (n, v, u) -> (n, J.Obj [ ("value", finite v); ("unit", J.Str u) ]))
                r.layer));
          ("stages", stages); ("trace_file", trace_file) ]
    in
    print_endline (J.to_string out)
