(** The farm scheduler: many campaigns, one exec budget, UCB1 arms.

    [legofuzz farm <spec.json>] runs one round loop (DESIGN.md §16).
    Each round the scheduler reallocates [fs_round_execs] executions
    across the still-active campaigns — UCB1 ({!Bandit}) over per-round
    new-coverage-key deltas, or plain round-robin for the ablation
    baseline — and hands the jobs to a transport, which runs each
    campaign's slice through {!Worker.run_round}: the worker persists
    the round into its store generation namespace ([gen-NNNNNN.wK]) and
    answers a {!Transport.round_report}. Once every job of the round is
    done, the reports are handled in job order: {!Store.promote} under
    the store lock, bandit update, [farm.*] counters, checkpoint. A farm
    killed between rounds therefore loses at most one round of work, and
    [legofuzz resume] (or simply re-running the farm) picks each
    campaign up from its last good generation.

    The coordinator never builds a fuzzer: its campaign state comes from
    the store at start and from reports after that. A campaign that gets
    no round in an invocation (say, it finished in an earlier one)
    reports the counts of the generation loaded at start and writes no
    new generation.

    Coverage keys: edge branches plus nonzero grammar-virgin cells —
    the same news signal the harness feedback modes use.

    Determinism: campaigns never share state, rewards are pure exec /
    key counts, reports are handled in job order, and {!Bandit} is
    RNG-free — a farm run is a function of (spec, stores on disk). The
    in-process transport and a single worker process give identical
    results and stores. *)

type campaign_result = {
  fc_campaign : Store.campaign;
  fc_rounds : int;        (** rounds this campaign was allocated work in *)
  fc_allocated : int;     (** execs allocated to it by the farm *)
  fc_executed : int;      (** execs it actually performed this farm run *)
  fc_execs_done : int;    (** cumulative, including pre-farm store state *)
  fc_branches : int;      (** edge branches at end *)
  fc_coverage_keys : int; (** branches + grammar cells at end *)
  fc_new_keys : int;      (** coverage keys gained during this farm run *)
  fc_crashes_unique : int;  (** unique crashes, preloaded keys excluded *)
  fc_logic_unique : int;
  fc_bugs : string list;
  fc_generation : int;    (** newest store generation (0 = none) *)
  fc_resumed_from : int option;  (** generation preloaded at farm start *)
  fc_finished : bool;     (** budget exhausted *)
  fc_error : string option;  (** stalled / died; arm retired *)
}

type result = {
  fr_campaigns : campaign_result list;  (** spec order *)
  fr_rounds : int;
  fr_allocated : int;  (** total execs dealt across all rounds *)
  fr_metrics : Telemetry.Registry.t;
      (** [farm.*] scheduling counters; in-process, also the union of
          the live fuzzers' harness registries *)
  fr_warnings : string list;  (** corrupt store generations skipped *)
}

val coverage_keys : Fuzz.Driver.fuzzer -> int
(** {!Worker.coverage_keys}: edge branches + nonzero grammar-virgin
    cells of the fuzzer's harness. *)

val run :
  ?sink:Telemetry.Sink.t ->
  ?runs_dir:string ->
  Spec.t ->
  (result, string) Stdlib.result
(** Run a farm to completion on the in-process transport: until the
    spec's [fs_total_execs] are dealt or every campaign is finished or
    dead. A round's jobs run on a pool of [fs_workers] domains sharing
    one {!Worker} (slot 1), which keeps one live fuzzer per campaign, so
    no reload fires and the outcome does not depend on the pool size.
    Campaign stores live under [<runs_dir>/<id>/store] (default runs dir
    {!Telemetry.Sink.runs_dir}); existing stores are resumed — config
    from the spec, learned state from the store. Telemetry: a [Meta]
    header, one [farm/<id>] checkpoint per campaign per ran round, and a
    final [Registry_dump] of the farm registry go to [sink] (default
    null). [fr_metrics] holds the [farm.*] counters plus the union of
    the live fuzzers' harness registries. [Error] only on setup failures
    (unknown fuzzer/dialect); an unloadable pre-existing store with no
    valid generation is treated as a fresh campaign, not an error. *)

val run_processes :
  ?sink:Telemetry.Sink.t ->
  ?runs_dir:string ->
  ?worker_cmd:(int -> string array) ->
  ?heartbeat_timeout:float ->
  ?max_restarts:int ->
  ?on_heartbeat:(worker:int -> pid:int -> unit) ->
  workers:int ->
  Spec.t ->
  (result, string) Stdlib.result
(** The same round loop on the process transport: each job runs in one
    of [workers] spawned worker processes ([legofuzz worker], or
    whatever argv [worker_cmd slot_id] returns) speaking the
    {!Transport} line protocol over its stdin/stdout. Dispatch prefers
    the slot that served the campaign last, so its worker skips the
    reload. With [~workers:1] the result and the stores equal {!run}'s.

    Failure containment: a worker that exits, misses heartbeats for
    [heartbeat_timeout] seconds (default 30) mid-round, or emits a
    malformed control line is killed and its in-flight job re-queued
    to another slot — a lost worker costs at most one round. The slot
    respawns up to [max_restarts] times (default 3), then retires.
    [Error] only when setup fails or every slot dies before any round
    completes.

    [on_heartbeat] is a test hook invoked on every worker heartbeat
    with the slot id and live pid.

    Metrics as {!run}, plus [farm.worker.<K>.restarts]. Campaign harness
    internals ([exec.*, stage.*]) stay in the worker processes and are
    not merged. *)
