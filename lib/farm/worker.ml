(* The farm worker loop (DESIGN.md §16). One worker serves rounds for
   any campaign the coordinator deals it: load the campaign's newest
   good store generation, run the allocated execs, persist the result
   into the worker's generation namespace (gen-NNNNNN.wK — invisible
   until the coordinator promotes it), and report. Between rounds the
   worker keeps each campaign's fuzzer alive; a manifest-digest probe
   decides whether the store moved under it (another worker promoted
   news) and only then pays for a full reload. A worker process serves
   over the line protocol; the in-process farm shares one worker across
   a domain pool, so the campaign table is mutex-guarded (each campaign
   runs on at most one domain at a time, so its state needs no lock). *)

let coverage_keys (fz : Fuzz.Driver.fuzzer) =
  let h = fz.Fuzz.Driver.f_harness in
  Fuzz.Harness.branches h
  + (match Fuzz.Harness.grammar_virgin h with
     | Some g -> Coverage.Bitmap.count_nonzero g
     | None -> 0)

type wstate = {
  ws_campaign : Store.campaign;
  ws_fuzzer : Fuzz.Driver.fuzzer;
  ws_acc : Store.acc;
  ws_prior_execs : int;  (* execs_done carried in from the store *)
  ws_epoch : int;
  mutable ws_keys : int;
  mutable ws_digests : (string * string) list;
      (* manifest digests of the plain generation this state descends
         from — the reload short-circuit compares against the store's
         newest plain generation *)
  mutable ws_error : string option;
}

type t = {
  t_worker : int;
  t_runs_dir : string option;
  t_heartbeat_execs : int;
  t_heartbeat : execs:int -> unit;
  t_states : (string, wstate) Hashtbl.t;
  t_mu : Mutex.t;  (* guards t_states *)
}

let default_heartbeat_execs = 500

let create ?runs_dir ?(heartbeat_execs = default_heartbeat_execs)
    ?(heartbeat = fun ~execs:_ -> ()) ~worker () =
  { t_worker = worker; t_runs_dir = runs_dir;
    t_heartbeat_execs = max 1 heartbeat_execs; t_heartbeat = heartbeat;
    t_states = Hashtbl.create 4; t_mu = Mutex.create () }

(* Eager, not lazy: domains of the in-process farm would race to force
   it. *)
let empty_compact = Coverage.Bitmap.compact_of_cells []

let harness_metrics t =
  Mutex.protect t.t_mu (fun () ->
      Hashtbl.fold (fun id ws acc -> (id, ws) :: acc) t.t_states [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (_, ws) ->
      Fuzz.Harness.metrics ws.ws_fuzzer.Fuzz.Driver.f_harness)

let error_report ~campaign ~execs ~round e =
  { Transport.rr_campaign = campaign; rr_round = round; rr_allocated = execs;
    rr_executed = 0; rr_execs_done = 0; rr_branches = 0; rr_coverage_keys = 0;
    rr_new_keys = 0; rr_crashes_unique = 0; rr_logic_unique = 0; rr_bugs = [];
    rr_generation = 0; rr_finished = false; rr_reloads = 0;
    rr_reload_skipped = 0; rr_error = Some e }

(* Newest plain generation's manifest digests — the store's identity as
   far as a reload is concerned. *)
let newest_digests ~dir =
  match List.rev (Store.generations ~dir) with
  | [] -> None
  | gen :: _ -> Store.manifest_digests (Store.generation_dir ~dir gen)

(* Full reload: parse the newest good generation under its read-mark,
   rebuild the fuzzer on a fresh epoch stream, preload learned state. *)
let load_state t ~dir campaign =
  match Store.load_marked ~dir with
  | Error warns ->
    Error
      (Printf.sprintf "cannot load store under %s: %s" dir
         (String.concat "; " warns))
  | Ok (sn, gen, _warns) ->
    (* A store the coordinator just seeded (no execs, epoch 0) is a
       fresh campaign: epoch 0 runs on the campaign seed itself, as
       [legofuzz fuzz] would. Anything with history resumes on a new
       epoch stream so it never replays the interrupted epoch's
       decisions. *)
    let fresh =
      sn.Store.sn_progress.pr_execs_done = 0 && sn.Store.sn_progress.pr_epoch = 0
    in
    let epoch =
      if fresh then 0 else sn.Store.sn_progress.pr_epoch + 1
    in
    let c = sn.Store.sn_campaign in
    (match Spec.make ~campaign:c ~seed:(Spec.epoch_seed ~campaign:c ~epoch) with
     | Error e -> Error e
     | Ok base ->
       let fz = base 0 in
       Resume.preload_fuzzer sn fz;
       let ws =
         { ws_campaign = c; ws_fuzzer = fz; ws_acc = Store.acc_of_snapshot sn;
           ws_prior_execs = sn.Store.sn_progress.pr_execs_done;
           ws_epoch = epoch; ws_keys = coverage_keys fz;
           ws_digests =
             Option.value ~default:[]
               (Store.manifest_digests (Store.generation_dir ~dir gen));
           ws_error = None }
       in
       Mutex.protect t.t_mu (fun () -> Hashtbl.replace t.t_states campaign ws);
       Ok ws)

let run_round t ~campaign ~execs ~round =
  let dir = Store.store_dir ?runs_dir:t.t_runs_dir campaign in
  let reloads = ref 0 and skipped = ref 0 in
  let state_r =
    match
      ( Mutex.protect t.t_mu (fun () -> Hashtbl.find_opt t.t_states campaign),
        newest_digests ~dir )
    with
    | Some ws, Some digests
      when ws.ws_error = None && digests = ws.ws_digests ->
      (* The store still is what this live fuzzer descends from: skip
         the reload, keep the epoch running. *)
      incr skipped;
      Ok ws
    | _ ->
      incr reloads;
      load_state t ~dir campaign
  in
  match state_r with
  | Error e -> error_report ~campaign ~execs ~round e
  | Ok ws ->
    let h = ws.ws_fuzzer.Fuzz.Driver.f_harness in
    let before = Fuzz.Harness.execs h in
    let keys_before = ws.ws_keys in
    let target = before + execs in
    (* Execute in sub-slices so a heartbeat goes out every
       t_heartbeat_execs even mid-round. *)
    (try
       while Fuzz.Harness.execs h < target && ws.ws_error = None do
         let next = min target (Fuzz.Harness.execs h + t.t_heartbeat_execs) in
         ignore (Fuzz.Driver.run_until_execs ws.ws_fuzzer ~execs:next);
         t.t_heartbeat ~execs:(Fuzz.Harness.execs h - before)
       done
     with
     | Fuzz.Driver.Stalled msg -> ws.ws_error <- Some ("stalled: " ^ msg)
     | exn -> ws.ws_error <- Some (Printexc.to_string exn));
    ws.ws_keys <- coverage_keys ws.ws_fuzzer;
    let executed = Fuzz.Harness.execs h - before in
    let execs_done = ws.ws_prior_execs + Fuzz.Harness.execs h in
    (match ws.ws_fuzzer.Fuzz.Driver.f_exchange with
     | Some port -> Store.acc_add_export ws.ws_acc (port.Fuzz.Sync.p_export ())
     | None -> ());
    let tri = Fuzz.Harness.triage h in
    let snapshot =
      Store.acc_snapshot ws.ws_acc ~campaign:ws.ws_campaign
        ~progress:{ Store.pr_execs_done = execs_done; pr_epoch = ws.ws_epoch }
        ~virgin:(Coverage.Bitmap.compact (Fuzz.Harness.virgin h))
        ~grammar:
          (match Fuzz.Harness.grammar_virgin h with
           | Some g -> Coverage.Bitmap.compact g
           | None -> empty_compact)
        ~crash_keys:(Fuzz.Triage.crash_keys tri)
        ~logic_keys:(Fuzz.Triage.logic_keys tri)
    in
    let gen =
      try Store.save ~worker:t.t_worker ~dir snapshot with _ -> 0
    in
    (* After the coordinator promotes gen-N.wK by rename, the plain
       gen-N carries these exact digests — the next round on this
       campaign short-circuits its reload. *)
    if gen > 0 then
      ws.ws_digests <-
        Option.value ~default:[]
          (Store.manifest_digests
             (Store.worker_generation_dir ~dir ~worker:t.t_worker gen));
    { Transport.rr_campaign = campaign; rr_round = round;
      rr_allocated = execs; rr_executed = executed;
      rr_execs_done = execs_done; rr_branches = Fuzz.Harness.branches h;
      rr_coverage_keys = ws.ws_keys; rr_new_keys = ws.ws_keys - keys_before;
      rr_crashes_unique = Fuzz.Triage.unique_count tri;
      rr_logic_unique = Fuzz.Triage.logic_count tri;
      rr_bugs = Fuzz.Triage.bug_ids tri; rr_generation = gen;
      rr_finished = execs_done >= ws.ws_campaign.Store.sc_budget;
      rr_reloads = !reloads; rr_reload_skipped = !skipped;
      rr_error = ws.ws_error }

(* The worker protocol loop: Hello, then serve Run commands until
   Shutdown, stdin EOF, or a malformed command (reported as Fatal — the
   coordinator decides what to do with the carcass). stdout carries
   protocol lines only. *)
let serve ?runs_dir ?heartbeat_execs ~worker ic oc =
  let emit m =
    output_string oc (Transport.message_to_line m);
    output_char oc '\n';
    flush oc
  in
  let t =
    create ?runs_dir ?heartbeat_execs
      ~heartbeat:(fun ~execs ->
        emit (Transport.Heartbeat { hb_worker = worker; hb_execs = execs }))
      ~worker ()
  in
  emit (Transport.Hello { h_worker = worker; h_pid = Unix.getpid () });
  let rec loop () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line -> (
        match Transport.command_of_line line with
        | Error e ->
          emit (Transport.Fatal (Printf.sprintf "bad command line: %s" e))
        | Ok Transport.Shutdown -> ()
        | Ok (Transport.Run r) ->
          let report =
            run_round t ~campaign:r.rc_campaign ~execs:r.rc_execs
              ~round:r.rc_round
          in
          emit (Transport.Round report);
          loop ())
  in
  loop ()
