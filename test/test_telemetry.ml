(* Telemetry subsystem tests: the registry merge algebra (which must
   mirror Coverage.Bitmap.merge's laws — see test_coverage.ml), histogram
   bucket edges, JSONL round-trips through the report parser, and the
   byte-identity regression for the human summary sink. *)

module T = Telemetry

let canon r = T.Json.to_string (T.Registry.to_json r)

(* Deterministically populated registries for the law checks. *)
let mk_registry seed =
  let rng = Reprutil.Rng.create seed in
  let r = T.Registry.create () in
  let c1 = T.Registry.counter r "execs" in
  let c2 = T.Registry.counter r "crashes" in
  let g = T.Registry.gauge r "pool.max" in
  let h = T.Registry.histogram r "cost" in
  for _ = 1 to 32 do
    T.Registry.incr ~by:(Reprutil.Rng.int rng 5) c1;
    if Reprutil.Rng.ratio rng 1 4 then T.Registry.incr c2;
    T.Registry.set_max g (Reprutil.Rng.int rng 1000);
    T.Registry.observe h (Reprutil.Rng.int rng 100_000)
  done;
  r

let merged a b =
  let into = T.Registry.snapshot a in
  T.Registry.merge ~into b;
  into

let test_merge_commutative () =
  let a = mk_registry 1 and b = mk_registry 2 in
  Alcotest.(check string) "a+b = b+a" (canon (merged a b)) (canon (merged b a))

let test_merge_associative () =
  let a = mk_registry 3 and b = mk_registry 4 and c = mk_registry 5 in
  Alcotest.(check string) "(a+b)+c = a+(b+c)"
    (canon (merged (merged a b) c))
    (canon (merged a (merged b c)))

let test_merge_gauge_idempotent () =
  let a = mk_registry 6 in
  let twice = merged a a in
  Alcotest.(check int) "gauge unchanged under self-merge"
    (T.Registry.gauge_value a "pool.max")
    (T.Registry.gauge_value twice "pool.max");
  Alcotest.(check int) "counters double under self-merge"
    (2 * T.Registry.counter_value a "execs")
    (T.Registry.counter_value twice "execs")

(* The delta-publish law the campaign engine relies on:
   merge last; merge (diff cur ~since:last)  ==  merge cur. *)
let test_diff_merge_roundtrip () =
  let last = mk_registry 7 in
  let cur = merged last (mk_registry 8) in
  let global = T.Registry.create () in
  T.Registry.merge ~into:global last;
  T.Registry.merge ~into:global (T.Registry.diff cur ~since:last);
  Alcotest.(check string) "delta publish reconstructs the absolute registry"
    (canon cur) (canon global)

let test_histogram_edges () =
  let r = T.Registry.create () in
  let h = T.Registry.histogram ~edges:[| 0; 10; 100 |] r "h" in
  (* bucket i counts edges.(i-1) < v <= edges.(i); overflow past the end *)
  List.iter (T.Registry.observe h) [ 0; 1; 10; 11; 100; 101; 1_000_000 ];
  match T.Registry.histogram_stats r "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some (edges, counts, sum, n) ->
    Alcotest.(check (array int)) "edges kept" [| 0; 10; 100 |] edges;
    Alcotest.(check (array int)) "bucket counts" [| 1; 2; 2; 2 |] counts;
    Alcotest.(check int) "n" 7 n;
    Alcotest.(check int) "sum" 1_000_223 sum

let test_histogram_edge_mismatch () =
  let a = T.Registry.create () in
  ignore (T.Registry.histogram ~edges:[| 0; 10 |] a "h");
  let b = T.Registry.create () in
  ignore (T.Registry.histogram ~edges:[| 0; 20 |] b "h");
  Alcotest.check_raises "merging mismatched edges is an error"
    (Invalid_argument "Registry.merge: histogram h edges disagree")
    (fun () -> T.Registry.merge ~into:a b)

let test_registry_json_roundtrip () =
  let r = mk_registry 9 in
  match T.Registry.of_json (T.Registry.to_json r) with
  | Error msg -> Alcotest.fail msg
  | Ok r' -> Alcotest.(check string) "canonical json stable" (canon r) (canon r')

let sample_events =
  let point series execs branches =
    { T.Event.p_series = series; p_iteration = execs / 3; p_execs = execs;
      p_branches = branches; p_crashes_total = 2; p_crashes_unique = 1;
      p_bugs = [ "PG-006" ] }
  in
  let reg = mk_registry 10 in
  T.Span.record_us (T.Span.stage reg "execute") 1500;
  T.Span.record_us (T.Span.stage reg "mutate") 400;
  [ T.Event.Meta [ ("command", T.Json.Str "fuzz"); ("seed", T.Json.Int 3) ];
    T.Event.Checkpoint
      { point = point "aggregate" 1000 400; wall_s = Some 0.5;
        execs_per_sec = Some 2000.0 };
    T.Event.Checkpoint
      { point = point "shard-0" 500 300; wall_s = None;
        execs_per_sec = None };
    T.Event.Summary
      { point = point "lego" 2000 450;
        shards = [ point "shard-0" 1000 300; point "shard-1" 1000 310 ];
        sync_rounds = 4; wall_s = Some 1.25; execs_per_sec = Some 1600.0 };
    T.Event.Registry_dump { series = "aggregate"; registry = reg } ]

let test_event_jsonl_roundtrip () =
  let lines =
    List.map (fun ev -> T.Json.to_string (T.Event.to_json ev)) sample_events
  in
  match T.Report.parse_lines lines with
  | Error msg -> Alcotest.fail msg
  | Ok events ->
    let lines' =
      List.map (fun ev -> T.Json.to_string (T.Event.to_json ev)) events
    in
    Alcotest.(check (list string)) "events survive the JSONL round-trip"
      lines lines'

let test_jsonl_flushes_checkpoints () =
  let dir = Filename.temp_dir "jsonl-flush" "" in
  let sink, path = T.Sink.jsonl ~dir ~name:"run" () in
  let lines () = In_channel.with_open_text path In_channel.input_all in
  (* The sample stream's Meta header and first checkpoint. *)
  List.iter (T.Sink.emit sink) (List.filteri (fun i _ -> i < 2) sample_events);
  (* Read before close: the checkpoint line must already be on disk. *)
  let before = String.split_on_char '\n' (String.trim (lines ())) in
  T.Sink.close sink;
  Sys.remove path;
  Sys.rmdir dir;
  Alcotest.(check int) "meta and checkpoint lines on disk" 2
    (List.length before);
  match T.Report.parse_lines before with
  | Ok [ T.Event.Meta _; T.Event.Checkpoint _ ] -> ()
  | Ok _ -> Alcotest.fail "unexpected events before close"
  | Error msg -> Alcotest.fail msg

let test_report_render () =
  let out = T.Report.render sample_events in
  let contains needle =
    Alcotest.(check bool)
      (Printf.sprintf "report mentions %S" needle)
      true
      (let nl = String.length needle and ol = String.length out in
       let rec scan i =
         i + nl <= ol && (String.sub out i nl = needle || scan (i + 1))
       in
       scan 0)
  in
  contains "aggregate";
  contains "shard-0";
  contains "stage-time";
  contains "execs=2000"

let test_report_parse_error () =
  match T.Report.parse_lines [ "{\"type\":\"checkpoint\"}"; "not json" ] with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error msg ->
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec scan i =
        i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
      in
      scan 0
    in
    Alcotest.(check bool) "error carries the line number" true
      (contains msg "line")

let mentions hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
  in
  scan 0

(* Degenerate streams: a report over zero events, or over events that
   carry no checkpoints, must render cleanly and say what is missing
   rather than crash or silently drop the time-series section. *)
let test_report_empty_stream () =
  Alcotest.(check string) "empty stream renders the sentinel"
    "empty telemetry stream\n"
    (T.Report.render [])

let test_report_no_checkpoints () =
  let out =
    T.Report.render
      [ T.Event.Meta [ ("command", T.Json.Str "fuzz");
                       ("seed", T.Json.Int 7) ] ]
  in
  Alcotest.(check bool) "meta table survives" true (mentions out "fuzz");
  Alcotest.(check bool) "missing series is called out" true
    (mentions out "no checkpoints recorded")

let test_report_single_checkpoint () =
  let point =
    { T.Event.p_series = "aggregate"; p_iteration = 1; p_execs = 100;
      p_branches = 40; p_crashes_total = 0; p_crashes_unique = 0;
      p_bugs = [] }
  in
  let out =
    T.Report.render
      [ T.Event.Checkpoint { point; wall_s = Some 0.1; execs_per_sec = None } ]
  in
  Alcotest.(check bool) "series plotted" true (mentions out "aggregate");
  Alcotest.(check bool) "one checkpoint is a series, not a gap" false
    (mentions out "no checkpoints recorded")

let test_report_grammar_section () =
  let reg = T.Registry.create () in
  T.Registry.set_max (T.Registry.gauge reg "grammar.rules") 17;
  T.Registry.set_max (T.Registry.gauge reg "grammar.pairs") 23;
  T.Registry.incr ~by:9 (T.Registry.counter reg "grammar.memo_hits");
  T.Registry.incr ~by:1 (T.Registry.counter reg "grammar.memo_misses");
  let out =
    T.Report.render
      [ T.Event.Registry_dump { series = "aggregate"; registry = reg } ]
  in
  List.iter
    (fun needle ->
       Alcotest.(check bool)
         (Printf.sprintf "grammar section mentions %S" needle)
         true (mentions out needle))
    [ "grammar coverage [aggregate]"; "rules fired"; "rule pairs fired";
      "parse errors"; "statement memo hit rate";
      "90.0% (9 hits, 1 misses)" ];
  (* a registry without grammar gauges must not emit the section *)
  let plain = T.Report.render
      [ T.Event.Registry_dump { series = "x"; registry = T.Registry.create () } ]
  in
  Alcotest.(check bool) "section absent without grammar gauges" false
    (mentions plain "grammar coverage")

(* The determinism contract: a jobs=1 campaign rendered through the human
   sink must print byte-identically across runs of the same seed, and the
   telemetry plumbing (spans, counters, null sink) must not disturb the
   snapshot itself. *)
let run_campaign_with_human_sink () =
  let buf = Buffer.create 256 in
  let sink = T.Sink.human ~print:(Buffer.add_string buf) () in
  let make _shard =
    let cfg = { Lego.Lego_fuzzer.default_config with seed = 5 } in
    Lego.Lego_fuzzer.fuzzer
      (Lego.Lego_fuzzer.create ~config:cfg Dialects.Registry.comdb2_sim)
  in
  let res =
    Fuzz.Campaign.run ~checkpoint_every:500 ~sink ~jobs:1 ~execs:2000 make
  in
  let snap = res.Fuzz.Campaign.cg_snapshot in
  T.Sink.emit sink
    (T.Event.Summary
       { point =
           { T.Event.p_series = "lego"; p_iteration = snap.Fuzz.Driver.st_iteration;
             p_execs = snap.st_execs; p_branches = snap.st_branches;
             p_crashes_total = snap.st_total_crashes;
             p_crashes_unique = snap.st_unique_crashes; p_bugs = snap.st_bugs };
         shards = []; sync_rounds = 0; wall_s = Some 0.0;
         execs_per_sec = None });
  (Buffer.contents buf, snap)

let test_human_sink_byte_identical () =
  let out1, snap1 = run_campaign_with_human_sink () in
  let out2, snap2 = run_campaign_with_human_sink () in
  Alcotest.(check string) "same seed, same bytes" out1 out2;
  Alcotest.(check bool) "snapshots equal" true (snap1 = snap2);
  (* the legacy summary line, formatted exactly as the CLI always has *)
  let expected =
    Printf.sprintf
      "%-9s execs=%d branches=%d crashes(total)=%d crashes(unique)=%d\n"
      "lego" snap1.Fuzz.Driver.st_execs snap1.st_branches
      snap1.st_total_crashes snap1.st_unique_crashes
    ^ (if snap1.st_bugs <> [] then
         Printf.sprintf "  bugs: %s\n" (String.concat ", " snap1.st_bugs)
       else "")
  in
  Alcotest.(check bool) "summary block formatted as the legacy CLI" true
    (let el = String.length expected and ol = String.length out1 in
     el <= ol && String.sub out1 (ol - el) el = expected)

(* Campaign metrics: stage spans and engine counters flow into the
   result registry, and the harness exec counter agrees with the
   deterministic snapshot counter. *)
let test_campaign_metrics () =
  let make _shard =
    let cfg = { Lego.Lego_fuzzer.default_config with seed = 5 } in
    Lego.Lego_fuzzer.fuzzer
      (Lego.Lego_fuzzer.create ~config:cfg Dialects.Registry.comdb2_sim)
  in
  let res = Fuzz.Campaign.run ~jobs:1 ~execs:2000 make in
  let m = res.Fuzz.Campaign.cg_metrics in
  Alcotest.(check int) "harness.execs counter = snapshot execs"
    res.Fuzz.Campaign.cg_snapshot.Fuzz.Driver.st_execs
    (T.Registry.counter_value m "harness.execs");
  Alcotest.(check bool) "engine counted statements" true
    (T.Registry.counter_value m "engine.statements_executed" > 0);
  Alcotest.(check bool) "rows were scanned" true
    (T.Registry.counter_value m "engine.rows_scanned" > 0);
  let stages = T.Span.stage_names m in
  List.iter
    (fun s ->
       Alcotest.(check bool) (Printf.sprintf "stage %s recorded" s) true
         (List.mem s stages))
    [ "execute"; "triage"; "mutate"; "synthesize" ]

(* A timed section longer than the clock's resolution must record
   roughly its true duration. *)
let test_span_measures_sleep () =
  let reg = T.Registry.create () in
  let sp = T.Span.stage reg "nap" in
  T.Span.time sp (fun () -> Unix.sleepf 0.002);
  match T.Span.stage_stats reg "nap" with
  | None -> Alcotest.fail "stage not recorded"
  | Some (calls, us) ->
    Alcotest.(check int) "one call" 1 calls;
    Alcotest.(check bool)
      (Printf.sprintf "2ms sleep recorded as %dus" us)
      true (us >= 1500)

(* The regression behind BENCH stage.triage = 0.0: sections shorter
   than 1µs truncated to zero on every call, so a stage of many fast
   calls summed to nothing. The sub-µs carry must keep the *sum* honest
   even when individual calls round to zero. *)
let test_span_subus_carry () =
  let reg = T.Registry.create () in
  let sp = T.Span.stage reg "fast" in
  let sink = ref 0 in
  for i = 1 to 20_000 do
    T.Span.time sp (fun () -> sink := !sink + i)
  done;
  match T.Span.stage_stats reg "fast" with
  | None -> Alcotest.fail "stage not recorded"
  | Some (calls, us) ->
    Alcotest.(check int) "every call counted" 20_000 calls;
    Alcotest.(check bool)
      (Printf.sprintf "20k sub-us sections summed to %dus (want > 0)" us)
      true (us > 0)

let suite =
  [ Alcotest.test_case "merge commutative" `Quick test_merge_commutative;
    Alcotest.test_case "merge associative" `Quick test_merge_associative;
    Alcotest.test_case "gauge idempotent / counters add" `Quick
      test_merge_gauge_idempotent;
    Alcotest.test_case "diff-merge roundtrip" `Quick test_diff_merge_roundtrip;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_edges;
    Alcotest.test_case "histogram edge mismatch" `Quick
      test_histogram_edge_mismatch;
    Alcotest.test_case "registry json roundtrip" `Quick
      test_registry_json_roundtrip;
    Alcotest.test_case "event jsonl roundtrip" `Quick
      test_event_jsonl_roundtrip;
    Alcotest.test_case "jsonl flushes each checkpoint" `Quick
      test_jsonl_flushes_checkpoints;
    Alcotest.test_case "report render" `Quick test_report_render;
    Alcotest.test_case "report parse error" `Quick test_report_parse_error;
    Alcotest.test_case "report empty stream" `Quick test_report_empty_stream;
    Alcotest.test_case "report no checkpoints" `Quick
      test_report_no_checkpoints;
    Alcotest.test_case "report single checkpoint" `Quick
      test_report_single_checkpoint;
    Alcotest.test_case "report grammar section" `Quick
      test_report_grammar_section;
    Alcotest.test_case "human sink byte-identical (jobs=1)" `Quick
      test_human_sink_byte_identical;
    Alcotest.test_case "campaign metrics" `Quick test_campaign_metrics;
    Alcotest.test_case "span measures a sleep" `Quick
      test_span_measures_sleep;
    Alcotest.test_case "span sub-us carry" `Quick test_span_subus_carry ]
