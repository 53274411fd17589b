let parse_lines lines =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.trim line = "" then go (i + 1) acc rest
      else
        (match Event.of_line line with
         | Ok ev -> go (i + 1) (ev :: acc) rest
         | Error msg -> Error (Printf.sprintf "line %d: %s" i msg))
  in
  go 1 [] lines

(* --- helpers --------------------------------------------------------- *)

let checkpoints events =
  List.filter_map
    (function Event.Checkpoint { point; _ } -> Some point | _ -> None)
    events

let series_names points =
  List.fold_left
    (fun acc (p : Event.point) ->
       if List.mem p.p_series acc then acc else acc @ [ p.p_series ])
    [] points

let bar width value max_value =
  if max_value <= 0 then ""
  else String.make (max 0 (value * width / max_value)) '#'

(* --- sections -------------------------------------------------------- *)

let render_meta buf events =
  List.iter
    (function
      | Event.Meta fields ->
        let cell k =
          match List.assoc_opt k fields with
          | Some (Json.Str s) -> Some s
          | Some (Json.Int i) -> Some (string_of_int i)
          | _ -> None
        in
        let pairs =
          List.filter_map
            (fun k ->
               Option.map (fun v -> Printf.sprintf "%s=%s" k v) (cell k))
            [ "command"; "fuzzer"; "dialect"; "seed"; "execs"; "jobs";
              "sync_every"; "feedback" ]
        in
        if pairs <> [] then
          Buffer.add_string buf
            (Printf.sprintf "run: %s\n" (String.concat " " pairs))
      | _ -> ())
    events

let render_series buf events =
  let points = checkpoints events in
  (* A run recorded with a checkpoint interval longer than its budget has
     zero checkpoints; say so rather than silently dropping the section
     (the stream is valid, there is just no time series to plot). *)
  if points = [] then begin
    if events <> [] then
      Buffer.add_string buf
        "\ncoverage over time: no checkpoints recorded\n"
  end
  else begin
    Buffer.add_string buf "\ncoverage over time (branches vs execs)\n";
    let max_branches =
      List.fold_left (fun m (p : Event.point) -> max m p.p_branches) 1 points
    in
    List.iter
      (fun name ->
         let mine =
           List.filter (fun (p : Event.point) -> p.p_series = name) points
         in
         Buffer.add_string buf (Printf.sprintf "  [%s]\n" name);
         List.iter
           (fun (p : Event.point) ->
              Buffer.add_string buf
                (Printf.sprintf "  %10d %8d  %s\n" p.p_execs p.p_branches
                   (bar 40 p.p_branches max_branches)))
           mine)
      (series_names points)
  end

let render_stages buf events =
  let dumps =
    List.filter_map
      (function
        | Event.Registry_dump { series; registry } -> Some (series, registry)
        | _ -> None)
      events
  in
  List.iter
    (fun (series, reg) ->
       let stages = Span.stage_names reg in
       if stages <> [] then begin
         Buffer.add_string buf
           (Printf.sprintf "\nstage-time breakdown [%s]\n" series);
         let stats =
           List.filter_map
             (fun s -> Option.map (fun st -> (s, st)) (Span.stage_stats reg s))
             stages
         in
         let total_us =
           List.fold_left (fun acc (_, (_, us)) -> acc + us) 0 stats
         in
         Buffer.add_string buf
           (Printf.sprintf "  %-12s %10s %12s %7s\n" "stage" "calls"
              "total_ms" "share");
         List.iter
           (fun (name, (calls, us)) ->
              let share =
                if total_us = 0 then 0.0
                else 100.0 *. float_of_int us /. float_of_int total_us
              in
              Buffer.add_string buf
                (Printf.sprintf "  %-12s %10d %12.1f %6.1f%%\n" name calls
                   (float_of_int us /. 1000.0) share))
           stats
       end;
       let counters = Registry.counter_names reg in
       let plain =
         List.filter
           (fun c -> not (String.length c > 6 && String.sub c 0 6 = "stage."))
           counters
       in
       if plain <> [] then begin
         Buffer.add_string buf (Printf.sprintf "\ncounters [%s]\n" series);
         List.iter
           (fun c ->
              Buffer.add_string buf
                (Printf.sprintf "  %-28s %12d\n" c
                   (Registry.counter_value reg c)))
           plain
       end;
       let gauges = Registry.gauge_names reg in
       if gauges <> [] then begin
         Buffer.add_string buf (Printf.sprintf "\ngauges [%s]\n" series);
         List.iter
           (fun g ->
              Buffer.add_string buf
                (Printf.sprintf "  %-28s %12d\n" g
                   (Registry.gauge_value reg g)))
           gauges
       end)
    dumps

(* Farm budget allocation (DESIGN.md §16): present only when the stream
   was recorded by [legofuzz farm], i.e. when the "farm" registry dump
   carries farm.<id>.* scheduling counters. The campaign id is whatever
   sits between the "farm." prefix and the ".rounds/.allocated/.new_keys"
   suffix, so ids containing dots render correctly. *)
let render_farm buf events =
  List.iter
    (function
      | Event.Registry_dump { series = "farm"; registry } ->
        let suffixes = [ ".rounds"; ".allocated"; ".new_keys" ] in
        (* farm.worker.* and farm.store.* are scheduler namespaces, not
           campaign ids — the worker table below renders those. *)
        let reserved = [ "farm.worker."; "farm.store." ] in
        let has_prefix p c =
          String.length c >= String.length p
          && String.sub c 0 (String.length p) = p
        in
        let ids =
          List.filter_map
            (fun c ->
               if
                 String.length c > 5
                 && String.sub c 0 5 = "farm."
                 && not (List.exists (fun p -> has_prefix p c) reserved)
               then
                 List.find_map
                   (fun sfx ->
                      let lc = String.length c and ls = String.length sfx in
                      if lc > 5 + ls && String.sub c (lc - ls) ls = sfx then
                        Some (String.sub c 5 (lc - 5 - ls))
                      else None)
                   suffixes
               else None)
            (Registry.counter_names registry)
          |> List.sort_uniq compare
        in
        if ids <> [] then begin
          let value id which =
            Registry.counter_value registry
              (Printf.sprintf "farm.%s.%s" id which)
          in
          let total =
            List.fold_left (fun acc id -> acc + value id "allocated") 0 ids
          in
          Buffer.add_string buf "\nfarm allocation\n";
          Buffer.add_string buf
            (Printf.sprintf "  %-16s %7s %10s %7s %9s %9s\n" "campaign"
               "rounds" "allocated" "share" "new_keys" "keys/1k");
          List.iter
            (fun id ->
               let allocated = value id "allocated" in
               let new_keys = value id "new_keys" in
               let share =
                 if total = 0 then 0.0
                 else 100.0 *. float_of_int allocated /. float_of_int total
               in
               let per_k =
                 if allocated = 0 then 0.0
                 else 1000.0 *. float_of_int new_keys /. float_of_int allocated
               in
               Buffer.add_string buf
                 (Printf.sprintf "  %-16s %7d %10d %6.1f%% %9d %9.1f\n" id
                    (value id "rounds") allocated share new_keys per_k))
            ids
        end
      | _ -> ())
    events

(* Worker utilization (DESIGN.md §16): present for farm runs, i.e. when
   the "farm" registry dump carries farm.worker.<K>.* counters; the
   in-process transport reports its shared worker as slot 1. *)
let render_workers buf events =
  List.iter
    (function
      | Event.Registry_dump { series = "farm"; registry } ->
        let prefix = "farm.worker." in
        let lp = String.length prefix in
        let ids =
          List.filter_map
            (fun c ->
               if String.length c > lp && String.sub c 0 lp = prefix then
                 match String.index_from_opt c lp '.' with
                 | Some dot -> int_of_string_opt (String.sub c lp (dot - lp))
                 | None -> None
               else None)
            (Registry.counter_names registry)
          |> List.sort_uniq compare
        in
        if ids <> [] then begin
          let value k which =
            Registry.counter_value registry
              (Printf.sprintf "farm.worker.%d.%s" k which)
          in
          Buffer.add_string buf "\nfarm workers\n";
          Buffer.add_string buf
            (Printf.sprintf "  %-8s %7s %10s %9s\n" "worker" "rounds"
               "execs" "restarts");
          List.iter
            (fun k ->
               Buffer.add_string buf
                 (Printf.sprintf "  %-8d %7d %10d %9d\n" k
                    (value k "rounds") (value k "execs")
                    (value k "restarts")))
            ids;
          let reloads =
            Registry.counter_value registry "farm.store.reloads"
          in
          let skipped =
            Registry.counter_value registry "farm.store.reload_skipped"
          in
          if reloads > 0 || skipped > 0 then
            Buffer.add_string buf
              (Printf.sprintf
                 "  store reloads: %d performed, %d skipped (manifest \
                  unchanged)\n"
                 reloads skipped)
        end
      | _ -> ())
    events

(* Grammar-rule coverage (DESIGN.md §15): present only when the run was
   recorded with --feedback grammar|both, i.e. when a registry dump
   carries the grammar.* namespace. *)
let render_grammar buf events =
  List.iter
    (function
      | Event.Registry_dump { series; registry } ->
        let rules = Registry.gauge_value registry "grammar.rules" in
        let pairs = Registry.gauge_value registry "grammar.pairs" in
        if rules > 0 || pairs > 0 then begin
          Buffer.add_string buf
            (Printf.sprintf "\ngrammar coverage [%s]\n" series);
          Buffer.add_string buf
            (Printf.sprintf "  %-28s %12d\n" "rules fired" rules);
          Buffer.add_string buf
            (Printf.sprintf "  %-28s %12d\n" "rule pairs fired" pairs);
          Buffer.add_string buf
            (Printf.sprintf "  %-28s %12d\n" "parse errors"
               (Registry.counter_value registry "grammar.parse_errors"));
          let hits = Registry.counter_value registry "grammar.memo_hits" in
          let misses =
            Registry.counter_value registry "grammar.memo_misses"
          in
          if hits + misses > 0 then
            Buffer.add_string buf
              (Printf.sprintf "  %-28s %11.1f%% (%d hits, %d misses)\n"
                 "statement memo hit rate"
                 (100.0 *. float_of_int hits /. float_of_int (hits + misses))
                 hits misses)
        end
      | _ -> ())
    events

let render_summary buf events =
  List.iter
    (function
      | Event.Summary { point; shards; sync_rounds; wall_s; execs_per_sec }
        ->
        Buffer.add_string buf
          (Printf.sprintf
             "\nsummary [%s]: execs=%d branches=%d crashes(total)=%d \
              crashes(unique)=%d\n"
             point.Event.p_series point.p_execs point.p_branches
             point.p_crashes_total point.p_crashes_unique);
        if point.p_bugs <> [] then
          Buffer.add_string buf
            (Printf.sprintf "  bugs: %s\n" (String.concat ", " point.p_bugs));
        List.iteri
          (fun i (sh : Event.point) ->
             Buffer.add_string buf
               (Printf.sprintf
                  "  shard %d: execs=%d branches=%d crashes(unique)=%d\n" i
                  sh.p_execs sh.p_branches sh.p_crashes_unique))
          shards;
        if sync_rounds > 0 then
          Buffer.add_string buf
            (Printf.sprintf "  sync rounds: %d\n" sync_rounds);
        (match (wall_s, execs_per_sec) with
         | Some w, Some eps ->
           Buffer.add_string buf
             (Printf.sprintf "  wall: %.2fs (%.0f execs/sec)\n" w eps)
         | Some w, None ->
           Buffer.add_string buf (Printf.sprintf "  wall: %.2fs\n" w)
         | None, _ -> ())
      | _ -> ())
    events

let render events =
  let buf = Buffer.create 1024 in
  render_meta buf events;
  render_series buf events;
  render_farm buf events;
  render_workers buf events;
  render_stages buf events;
  render_grammar buf events;
  render_summary buf events;
  if Buffer.length buf = 0 then "empty telemetry stream\n"
  else Buffer.contents buf
