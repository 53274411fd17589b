(* The farm round loop (DESIGN.md §16). Each round: deal the budget over
   the live campaigns → hand the jobs to a transport, which serves each
   through Worker.run_round → once every job of the round is done,
   handle the reports in job order: promote the worker generation,
   reward the bandit, bump farm.* counters, emit a checkpoint. The
   coordinator never builds a fuzzer — its campaign state is what the
   stores and the reports say. A round's jobs run on a domain pool over
   one shared worker (in-process) or on spawned worker processes
   speaking the Transport line protocol (processes). *)

type campaign_result = {
  fc_campaign : Store.campaign;
  fc_rounds : int;
  fc_allocated : int;
  fc_executed : int;
  fc_execs_done : int;
  fc_branches : int;
  fc_coverage_keys : int;
  fc_new_keys : int;
  fc_crashes_unique : int;
  fc_logic_unique : int;
  fc_bugs : string list;
  fc_generation : int;
  fc_resumed_from : int option;
  fc_finished : bool;
  fc_error : string option;
}

type result = {
  fr_campaigns : campaign_result list;
  fr_rounds : int;
  fr_allocated : int;
  fr_metrics : Telemetry.Registry.t;
  fr_warnings : string list;
}

let coverage_keys = Worker.coverage_keys

(* One round's deal: the policy's allocation over active arms, capped by
   each arm's remaining budget, with the overflow re-dealt to arms that
   still have spare capacity so the round's deal stays whole. *)
let deal_round ~policy ~bandit ~round_budget ~active ~remaining =
  let n = Array.length active in
  let alloc, pulls =
    match policy with
    | Spec.Bandit -> Bandit.allocate bandit ~budget:round_budget ~active
    | Spec.Round_robin ->
      let n_active =
        Array.fold_left (fun a b -> if b then a + 1 else a) 0 active
      in
      let alloc = Array.make n 0 and pulls = Array.make n 0 in
      if n_active > 0 then begin
        let base = round_budget / n_active
        and rem = ref (round_budget mod n_active) in
        Array.iteri
          (fun i is_active ->
             if is_active then begin
               alloc.(i) <- base + (if !rem > 0 then 1 else 0);
               if !rem > 0 then decr rem;
               pulls.(i) <- 1
             end)
          active
      end;
      (alloc, pulls)
  in
  let overflow = ref 0 in
  Array.iteri
    (fun i a ->
       if a > 0 then begin
         let cap = max 0 remaining.(i) in
         if a > cap then begin
           overflow := !overflow + (a - cap);
           alloc.(i) <- cap
         end
       end)
    (Array.copy alloc);
  Array.iteri
    (fun i _ ->
       if !overflow > 0 && active.(i) then begin
         let spare = max 0 (remaining.(i) - alloc.(i)) in
         let take = min spare !overflow in
         alloc.(i) <- alloc.(i) + take;
         overflow := !overflow - take
       end)
    alloc;
  (alloc, pulls)

(* Coordinator-side campaign state, built from the store at init and
   from round reports after that. *)
type pstate = {
  p_campaign : Store.campaign;
  p_dir : string;
  mutable p_execs_done : int;
  mutable p_keys : int;
  mutable p_new_keys : int;
  mutable p_branches : int;
  mutable p_rounds : int;
  mutable p_allocated : int;
  mutable p_executed : int;
  (* Unique-finding counts come back per worker epoch segment (preloaded
     keys excluded); a reload starts a new segment, so farm totals are
     base (closed segments) + the live segment's latest count. *)
  mutable p_crash_base : int;
  mutable p_seg_crashes : int;
  mutable p_logic_base : int;
  mutable p_seg_logic : int;
  mutable p_bugs : string list;
  mutable p_generation : int;
  p_resumed_from : int option;
  mutable p_error : string option;
}

let p_remaining p = p.p_campaign.Store.sc_budget - p.p_execs_done
let p_finished p = p_remaining p <= 0
let p_alive p = p.p_error = None && not (p_finished p)

(* Make sure the store has a loadable generation carrying the spec's
   (authoritative) config, and start from its counts — what a campaign
   that gets no round this invocation reports. *)
let init_campaign ~runs_dir warnings (c : Store.campaign) =
  let dir = Store.store_dir ?runs_dir c.sc_id in
  let warn w = warnings := (c.sc_id ^ ": " ^ w) :: !warnings in
  let fresh () =
    let sn = Store.empty_snapshot c in
    (sn, Store.save ~dir sn, None)
  in
  let sn, generation, resumed_from =
    if Store.generations ~dir = [] then fresh ()
    else
      match Store.load ~dir with
      | Ok (sn, gen, warns) ->
        List.iter warn warns;
        let gen' =
          if sn.Store.sn_campaign <> c then
            Store.save ~dir { sn with Store.sn_campaign = c }
          else gen
        in
        (sn, gen', Some gen)
      | Error warns ->
        List.iter warn warns;
        warn "no valid store generation, starting fresh";
        fresh ()
  in
  let cells m = List.length (Coverage.Bitmap.compact_cells m) in
  let branches = cells sn.Store.sn_virgin in
  { p_campaign = c; p_dir = dir;
    p_execs_done = sn.Store.sn_progress.pr_execs_done;
    p_keys = branches + cells sn.Store.sn_grammar; p_new_keys = 0;
    p_branches = branches; p_rounds = 0; p_allocated = 0; p_executed = 0;
    p_crash_base = 0; p_seg_crashes = 0; p_logic_base = 0; p_seg_logic = 0;
    p_bugs = []; p_generation = generation; p_resumed_from = resumed_from;
    p_error = None }

(* What runs a round's jobs. [serve ~round jobs] takes (campaign index,
   execs) pairs and answers, per job in job order, the worker slot that
   served it and its report — [None] for a job no slot could serve. *)
type transport = {
  serve : round:int -> (int * int) array -> (int * Transport.round_report) option array;
  usable : unit -> bool;  (* can any slot still serve a job? *)
  slots : int list;       (* worker ids whose namespaces the farm owns *)
  harness_metrics : unit -> Telemetry.Registry.t list;
  close : unit -> unit;
}

(* In-process transport: a pool of domains over one shared worker, so
   every campaign keeps one live fuzzer for the whole farm and no
   reload ever fires — the outcome does not depend on the pool size. *)
let domains ~runs_dir ~pool (states : pstate array) =
  let w = Worker.create ?runs_dir ~worker:1 () in
  let serve ~round jobs =
    let out = Array.make (Array.length jobs) None in
    let next = Atomic.make 0 in
    let rec loop () =
      let k = Atomic.fetch_and_add next 1 in
      if k < Array.length jobs then begin
        let i, a = jobs.(k) in
        out.(k) <-
          Some
            (1, Worker.run_round w ~campaign:states.(i).p_campaign.Store.sc_id
                  ~execs:a ~round);
        loop ()
      end
    in
    let helpers =
      Array.init (max 0 (min pool (Array.length jobs) - 1)) (fun _ ->
          Domain.spawn loop)
    in
    loop ();
    Array.iter Domain.join helpers;
    out
  in
  { serve; usable = (fun () -> true); slots = [ 1 ];
    harness_metrics = (fun () -> Worker.harness_metrics w);
    close = ignore }

(* Process transport: each job runs in a spawned worker process
   ([legofuzz worker]) speaking the Transport line protocol. A worker
   that dies, wedges (missed heartbeats) or talks garbage is
   quarantined: killed, its in-flight job re-queued, the slot respawned
   until its restart budget runs out — never a farm abort. *)

type wslot = {
  w_id : int;
  w_buf : Buffer.t;
  mutable w_pid : int;
  mutable w_stdin : out_channel option;
  mutable w_fd : Unix.file_descr option;
  mutable w_last : float;  (* last protocol activity *)
  mutable w_job : (int * int * int) option;
      (* (position in the round, campaign index, execs) *)
  mutable w_affinity : string;  (* last campaign id served *)
  mutable w_restarts : int;
  mutable w_spawns : int;
  mutable w_live : bool;
  mutable w_retired : bool;
}

let default_worker_cmd ?runs_dir () k =
  let base =
    [ Sys.executable_name; "worker"; "--worker-id"; string_of_int k ]
  in
  let rd =
    match runs_dir with Some d -> [ "--runs-dir"; d ] | None -> []
  in
  Array.of_list (base @ rd)

let processes ~worker_cmd ~heartbeat_timeout ~max_restarts ~on_heartbeat
    ~workers ~metrics ~warn (states : pstate array) =
  let wk_ctr k which =
    Telemetry.Registry.counter metrics
      (Printf.sprintf "farm.worker.%d.%s" k which)
  in
  let now () = Unix.gettimeofday () in
  let slots =
    Array.init workers (fun k ->
        { w_id = k + 1; w_buf = Buffer.create 512; w_pid = 0;
          w_stdin = None; w_fd = None; w_last = 0.; w_job = None;
          w_affinity = ""; w_restarts = 0; w_spawns = 0; w_live = false;
          w_retired = false })
  in
  Array.iter (fun w -> ignore (wk_ctr w.w_id "rounds")) slots;
  let spawn_slot w =
    let stdin_r, stdin_w = Unix.pipe () in
    let stdout_r, stdout_w = Unix.pipe () in
    Unix.set_close_on_exec stdin_w;
    Unix.set_close_on_exec stdout_r;
    let argv = worker_cmd w.w_id in
    let pid =
      try Some (Unix.create_process argv.(0) argv stdin_r stdout_w Unix.stderr)
      with Unix.Unix_error _ | Invalid_argument _ -> None
    in
    Unix.close stdin_r;
    Unix.close stdout_w;
    match pid with
    | None ->
      Unix.close stdin_w;
      Unix.close stdout_r;
      w.w_live <- false;
      w.w_retired <- true;
      warn
        (Printf.sprintf "worker %d: cannot spawn %s" w.w_id
           (if Array.length argv > 0 then argv.(0) else "<empty argv>"))
    | Some pid ->
      w.w_pid <- pid;
      w.w_stdin <- Some (Unix.out_channel_of_descr stdin_w);
      w.w_fd <- Some stdout_r;
      Buffer.clear w.w_buf;
      w.w_last <- now ();
      w.w_job <- None;
      w.w_live <- true;
      w.w_spawns <- w.w_spawns + 1
  in
  let close_ends w =
    (match w.w_stdin with
     | Some oc -> (try close_out oc with Sys_error _ -> ())
     | None -> ());
    (match w.w_fd with
     | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
     | None -> ());
    w.w_stdin <- None;
    w.w_fd <- None
  in
  let kill_slot ?(already_dead = false) w =
    close_ends w;
    if w.w_live && not already_dead && w.w_pid > 0 then begin
      (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ())
    end;
    w.w_live <- false
  in
  let pending = ref [] in
  let outstanding = ref 0 in
  let round = ref 0 in
  let results = ref [||] in
  let fail_slot ?(already_dead = false) w reason =
    (match w.w_job with
     | Some ((_, i, _) as job) ->
       Store.discard_worker_generations ~dir:states.(i).p_dir ~worker:w.w_id;
       pending := !pending @ [ job ];
       w.w_job <- None
     | None -> ());
    w.w_restarts <- w.w_restarts + 1;
    Telemetry.Registry.incr (wk_ctr w.w_id "restarts");
    let retire = w.w_restarts > max_restarts in
    warn
      (Printf.sprintf "worker %d %s; %s" w.w_id reason
         (if retire then "retiring slot" else "restarting"));
    kill_slot ~already_dead w;
    if retire then w.w_retired <- true else spawn_slot w
  in
  let send w ((_, i, a) as job) =
    match w.w_stdin with
    | None -> false
    | Some oc -> (
        let id = states.(i).p_campaign.Store.sc_id in
        try
          output_string oc
            (Transport.command_to_line
               (Transport.Run
                  { rc_campaign = id; rc_execs = a; rc_round = !round }));
          output_char oc '\n';
          flush oc;
          w.w_job <- Some job;
          w.w_last <- now ();
          w.w_affinity <- id;
          true
        with Sys_error _ ->
          fail_slot w "stdin write failed";
          false)
  in
  (* Dispatch prefers a job for the campaign the slot served last —
     that's what makes the worker's reload short-circuit hit. *)
  let pick w =
    let rec go acc = function
      | [] -> (
          match List.rev acc with
          | [] -> None
          | j :: rest -> Some (j, rest))
      | ((_, i, _) as j) :: rest
        when states.(i).p_campaign.Store.sc_id = w.w_affinity ->
        Some (j, List.rev_append acc rest)
      | j :: rest -> go (j :: acc) rest
    in
    go [] !pending
  in
  let dispatch () =
    Array.iter
      (fun w ->
         if w.w_live && not w.w_retired && w.w_job = None && !pending <> []
         then
           match pick w with
           | None -> ()
           | Some (job, rest) ->
             pending := rest;
             if not (send w job) then pending := job :: !pending)
      slots
  in
  let handle_line w line =
    match Transport.message_of_line line with
    | Error e ->
      fail_slot w (Printf.sprintf "sent a malformed control line (%s)" e)
    | Ok (Transport.Hello _) -> w.w_last <- now ()
    | Ok (Transport.Heartbeat _) ->
      w.w_last <- now ();
      on_heartbeat ~worker:w.w_id ~pid:w.w_pid
    | Ok (Transport.Fatal e) -> fail_slot w ("reported fatal: " ^ e)
    | Ok (Transport.Round r) ->
      w.w_last <- now ();
      (match w.w_job with
       | None -> ()
       | Some (k, _, _) ->
         w.w_job <- None;
         !results.(k) <- Some (w.w_id, r);
         decr outstanding)
  in
  let drain_lines w =
    let spawns = w.w_spawns in
    let continue_drain = ref true in
    while !continue_drain && w.w_spawns = spawns do
      let s = Buffer.contents w.w_buf in
      match String.index_opt s '\n' with
      | None -> continue_drain := false
      | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear w.w_buf;
        Buffer.add_substring w.w_buf s (i + 1) (String.length s - i - 1);
        handle_line w line
    done
  in
  let scratch = Bytes.create 8192 in
  let read_slot w fd =
    match Unix.read fd scratch 0 (Bytes.length scratch) with
    | 0 -> fail_slot w "closed its stdout"
    | len ->
      Buffer.add_subbytes w.w_buf scratch 0 len;
      drain_lines w
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> fail_slot w "stdout read failed"
  in
  let pump timeout =
    let live =
      Array.to_list slots
      |> List.filter_map (fun w ->
          if w.w_live then
            match w.w_fd with
            | Some fd -> Some (w, fd, w.w_spawns)
            | None -> None
          else None)
    in
    let readable =
      match live with
      | [] ->
        (* Nothing to select on; don't busy-spin while respawns or
           retirements settle. *)
        Unix.sleepf (min timeout 0.02);
        []
      | _ -> (
          match Unix.select (List.map (fun (_, fd, _) -> fd) live) [] [] timeout with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> [])
    in
    List.iter
      (fun (w, fd, spawns) ->
         if List.memq fd readable && w.w_spawns = spawns && w.w_live then
           read_slot w fd)
      live;
    Array.iter
      (fun w ->
         if w.w_live then
           match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
           | 0, _ -> ()
           | _, _ -> fail_slot ~already_dead:true w "exited unexpectedly"
           | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
             fail_slot ~already_dead:true w "exited unexpectedly")
      slots;
    Array.iter
      (fun w ->
         if w.w_live && w.w_job <> None
            && now () -. w.w_last > heartbeat_timeout
         then
           fail_slot w
             (Printf.sprintf "missed heartbeats for %.1fs"
                (now () -. w.w_last)))
      slots
  in
  let usable () = Array.exists (fun w -> not w.w_retired) slots in
  let serve ~round:r jobs =
    round := r;
    results := Array.make (Array.length jobs) None;
    pending := Array.to_list (Array.mapi (fun k (i, a) -> (k, i, a)) jobs);
    outstanding := Array.length jobs;
    while !outstanding > 0 && usable () do
      dispatch ();
      pump 0.1
    done;
    pending := [];
    !results
  in
  (* Orderly shutdown: ask, wait briefly, then make sure. *)
  let shutdown () =
    Array.iter
      (fun w ->
         if w.w_live then (
           match w.w_stdin with
           | Some oc -> (
               try
                 output_string oc
                   (Transport.command_to_line Transport.Shutdown);
                 output_char oc '\n';
                 flush oc;
                 close_out oc;
                 w.w_stdin <- None
               with Sys_error _ -> ())
           | None -> ()))
      slots;
    let deadline = now () +. 5.0 in
    Array.iter
      (fun w ->
         if w.w_live then begin
           let rec wait () =
             match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
             | 0, _ ->
               if now () < deadline then begin
                 Unix.sleepf 0.02;
                 wait ()
               end
               else begin
                 (try Unix.kill w.w_pid Sys.sigkill
                  with Unix.Unix_error _ -> ());
                 (try ignore (Unix.waitpid [] w.w_pid)
                  with Unix.Unix_error _ -> ())
               end
             | _, _ -> ()
             | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
           in
           wait ();
           close_ends w;
           w.w_live <- false
         end)
      slots
  in
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Array.iter spawn_slot slots;
  { serve; usable;
    slots = Array.to_list (Array.map (fun w -> w.w_id) slots);
    harness_metrics = (fun () -> []);
    close =
      (fun () ->
         Fun.protect shutdown ~finally:(fun () ->
             ignore (Sys.signal Sys.sigpipe old_sigpipe))) }

(* The one round loop, over whichever transport [start] builds. *)
let farm ~sink ~runs_dir ~backend ~workers (spec : Spec.t) start =
  let warnings = ref [] in
  let warn w = warnings := w :: !warnings in
  let setup_error =
    List.find_map
      (fun (c : Store.campaign) ->
         match Spec.make ~campaign:c ~seed:c.sc_seed with
         | Error e -> Some e
         | Ok _ -> None)
      spec.Spec.fs_campaigns
  in
  match setup_error with
  | Some e -> Error e
  | None ->
    let states =
      Array.of_list
        (List.map (init_campaign ~runs_dir warnings) spec.Spec.fs_campaigns)
    in
    let n = Array.length states in
    let metrics = Telemetry.Registry.create () in
    let rounds_ctr = Telemetry.Registry.counter metrics "farm.rounds" in
    let alloc_ctr = Telemetry.Registry.counter metrics "farm.allocated" in
    let per_ctr p which =
      Telemetry.Registry.counter metrics
        (Printf.sprintf "farm.%s.%s" p.p_campaign.Store.sc_id which)
    in
    let ctr name = Telemetry.Registry.counter metrics name in
    Array.iter
      (fun p ->
         ignore (per_ctr p "rounds");
         ignore (per_ctr p "allocated");
         ignore (per_ctr p "new_keys"))
      states;
    ignore (ctr "farm.store.reloads");
    ignore (ctr "farm.store.reload_skipped");
    Telemetry.Sink.emit sink
      (Telemetry.Event.Meta
         [ ("command", Telemetry.Json.Str "farm");
           ("backend", Telemetry.Json.Str backend);
           ("campaigns", Telemetry.Json.Int n);
           ("total_execs", Telemetry.Json.Int spec.Spec.fs_total_execs);
           ("round_execs", Telemetry.Json.Int spec.Spec.fs_round_execs);
           ("workers", Telemetry.Json.Int workers);
           ("policy",
            Telemetry.Json.Str (Spec.policy_to_string spec.Spec.fs_policy)) ]);
    let bandit = Bandit.create ~c:spec.Spec.fs_ucb_c ~arms:n () in
    let t = start ~metrics ~warn states in
    let dealt_total = ref 0 and round = ref 0 and progressed = ref true in
    (* A job's report, handled once its whole round is done. *)
    let handle ~pulls (i, a) (slot, (r : Transport.round_report)) =
      let p = states.(i) in
      (if r.rr_generation > 0 then
         match Store.promote ~dir:p.p_dir ~worker:slot r.rr_generation with
         | Ok g -> p.p_generation <- g
         | Error e ->
           warn
             (Printf.sprintf "%s: promote of gen %d.w%d failed: %s"
                p.p_campaign.Store.sc_id r.rr_generation slot e));
      p.p_rounds <- p.p_rounds + 1;
      p.p_allocated <- p.p_allocated + a;
      p.p_executed <- p.p_executed + r.rr_executed;
      p.p_execs_done <- r.rr_execs_done;
      p.p_keys <- r.rr_coverage_keys;
      p.p_branches <- r.rr_branches;
      let delta = max 0 r.rr_new_keys in
      p.p_new_keys <- p.p_new_keys + delta;
      if r.rr_reloads > 0 then begin
        p.p_crash_base <- p.p_crash_base + p.p_seg_crashes;
        p.p_logic_base <- p.p_logic_base + p.p_seg_logic
      end;
      p.p_seg_crashes <- r.rr_crashes_unique;
      p.p_seg_logic <- r.rr_logic_unique;
      p.p_bugs <- List.sort_uniq compare (p.p_bugs @ r.rr_bugs);
      p.p_error <- r.rr_error;
      dealt_total := !dealt_total + a;
      (match spec.Spec.fs_policy with
       | Spec.Bandit ->
         Bandit.update bandit ~arm:i ~pulls:pulls.(i)
           ~reward:(float_of_int delta /. float_of_int (max 1 a))
       | Spec.Round_robin -> ());
      Telemetry.Registry.incr (per_ctr p "rounds");
      Telemetry.Registry.incr ~by:a (per_ctr p "allocated");
      Telemetry.Registry.incr ~by:delta (per_ctr p "new_keys");
      Telemetry.Registry.incr (ctr (Printf.sprintf "farm.worker.%d.rounds" slot));
      Telemetry.Registry.incr ~by:r.rr_executed
        (ctr (Printf.sprintf "farm.worker.%d.execs" slot));
      Telemetry.Registry.incr ~by:r.rr_reloads (ctr "farm.store.reloads");
      Telemetry.Registry.incr ~by:r.rr_reload_skipped
        (ctr "farm.store.reload_skipped");
      let crashes = p.p_crash_base + p.p_seg_crashes in
      Telemetry.Sink.emit sink
        (Telemetry.Event.Checkpoint
           { point =
               { Telemetry.Event.p_series = "farm/" ^ p.p_campaign.Store.sc_id;
                 p_iteration = !round; p_execs = p.p_execs_done;
                 p_branches = p.p_keys; p_crashes_total = crashes;
                 p_crashes_unique = crashes; p_bugs = p.p_bugs };
             wall_s = None; execs_per_sec = None })
    in
    Fun.protect ~finally:t.close (fun () ->
        while
          !progressed
          && !dealt_total < spec.Spec.fs_total_execs
          && Array.exists p_alive states
          && t.usable ()
        do
          incr round;
          let round_budget =
            min spec.Spec.fs_round_execs
              (spec.Spec.fs_total_execs - !dealt_total)
          in
          let alloc, pulls =
            deal_round ~policy:spec.Spec.fs_policy ~bandit ~round_budget
              ~active:(Array.map p_alive states)
              ~remaining:(Array.map p_remaining states)
          in
          let jobs =
            Array.to_list (Array.mapi (fun i a -> (i, a)) alloc)
            |> List.filter (fun (_, a) -> a > 0)
            |> Array.of_list
          in
          (* Nothing allocatable (every active arm is out of budget, or
             the whole round's deal overflowed): stop instead of
             spinning. *)
          progressed := jobs <> [||];
          if !progressed then begin
            let reports = t.serve ~round:!round jobs in
            let dealt_before = !dealt_total in
            Array.iteri
              (fun k job -> Option.iter (handle ~pulls job) reports.(k))
              jobs;
            let unserved =
              Array.fold_left
                (fun acc r -> if r = None then acc + 1 else acc)
                0 reports
            in
            if unserved > 0 then begin
              warn
                (Printf.sprintf
                   "farm: all worker slots exhausted with %d round jobs \
                    unserved"
                   unserved);
              progressed := false
            end;
            if unserved < Array.length jobs then begin
              Telemetry.Registry.incr rounds_ctr;
              Telemetry.Registry.incr ~by:(!dealt_total - dealt_before)
                alloc_ctr
            end
          end
        done);
    (* Namespace hygiene: no unpromoted worker generation survives the
       farm, whatever happened to its worker. *)
    Array.iter
      (fun p ->
         List.iter
           (fun slot -> Store.discard_worker_generations ~dir:p.p_dir ~worker:slot)
           t.slots)
      states;
    List.iter
      (fun reg -> Telemetry.Registry.merge ~into:metrics (Telemetry.Registry.snapshot reg))
      (t.harness_metrics ());
    Telemetry.Sink.emit sink
      (Telemetry.Event.Registry_dump { series = "farm"; registry = metrics });
    let fr_rounds = Telemetry.Registry.counter_value metrics "farm.rounds" in
    if fr_rounds = 0 && not (t.usable ()) then
      Error "farm: every worker slot failed before completing a round"
    else
      Ok
        { fr_campaigns =
            Array.to_list
              (Array.map
                 (fun p ->
                    { fc_campaign = p.p_campaign; fc_rounds = p.p_rounds;
                      fc_allocated = p.p_allocated;
                      fc_executed = p.p_executed;
                      fc_execs_done = p.p_execs_done;
                      fc_branches = p.p_branches;
                      fc_coverage_keys = p.p_keys;
                      fc_new_keys = p.p_new_keys;
                      fc_crashes_unique = p.p_crash_base + p.p_seg_crashes;
                      fc_logic_unique = p.p_logic_base + p.p_seg_logic;
                      fc_bugs = p.p_bugs; fc_generation = p.p_generation;
                      fc_resumed_from = p.p_resumed_from;
                      fc_finished = p_finished p; fc_error = p.p_error })
                 states);
          fr_rounds; fr_allocated = !dealt_total; fr_metrics = metrics;
          fr_warnings = List.rev !warnings }

let run ?(sink = Telemetry.Sink.null) ?runs_dir (spec : Spec.t) =
  let pool = spec.Spec.fs_workers in
  farm ~sink ~runs_dir ~backend:"domains" ~workers:pool spec
    (fun ~metrics:_ ~warn:_ states -> domains ~runs_dir ~pool states)

let run_processes ?(sink = Telemetry.Sink.null) ?runs_dir ?worker_cmd
    ?(heartbeat_timeout = 30.) ?(max_restarts = 3)
    ?(on_heartbeat = fun ~worker:_ ~pid:_ -> ()) ~workers (spec : Spec.t) =
  let worker_cmd =
    match worker_cmd with
    | Some f -> f
    | None -> default_worker_cmd ?runs_dir ()
  in
  let workers = max 1 workers in
  farm ~sink ~runs_dir ~backend:"processes" ~workers spec
    (processes ~worker_cmd ~heartbeat_timeout ~max_restarts ~on_heartbeat
       ~workers)
