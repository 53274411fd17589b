(** The farm worker loop (DESIGN.md §16): {!run_round} serves one job
    of a farm round, whichever transport carries it.

    Process transport: [legofuzz worker] (hidden) runs {!serve} over its
    stdin/stdout — the coordinator writes {!Transport.command} lines,
    the worker answers with {!Transport.message} lines: Hello on
    startup, Heartbeats between execution sub-slices, one Round report
    per Run command. In-process transport: a pool of domains calls
    {!run_round} on one shared [t]; the campaign table is mutex-guarded,
    and the coordinator never deals one campaign to two jobs of a round.

    State: the worker keeps one live fuzzer per campaign it has served.
    Each Run probes the campaign store's newest plain generation's
    manifest digests ({!Store.manifest_digests}); when they match what
    the live fuzzer descends from — the common case once the
    coordinator dispatches with campaign affinity, since promoting a
    worker generation by rename keeps its digests — the reload is
    skipped and the epoch keeps running ([rr_reload_skipped = 1]).
    Otherwise the store moved (another worker promoted news) and the
    worker pays for a full {!Store.load_marked} + preload on a fresh
    epoch stream ([rr_reloads = 1]).

    Results are persisted into the worker's generation namespace
    ([gen-NNNNNN.wK]) — complete but invisible to loaders until the
    coordinator {!Store.promote}s them, so concurrent workers never
    contend on section files. *)

type t

val coverage_keys : Fuzz.Driver.fuzzer -> int
(** The farm's reward signal: edge branches + nonzero grammar-virgin
    cells of the fuzzer's harness. *)

val create :
  ?runs_dir:string ->
  ?heartbeat_execs:int ->
  ?heartbeat:(execs:int -> unit) ->
  worker:int ->
  unit ->
  t
(** A worker serving slot [worker]. [heartbeat] is invoked after every
    [heartbeat_execs] (default 500) executions mid-round with the
    round's running exec count. *)

val run_round :
  t -> campaign:string -> execs:int -> round:int -> Transport.round_report
(** Serve one Run command: reload-or-reuse the campaign state, run
    [execs] executions (heartbeating), persist a worker generation,
    report. Never raises: load failures, stalls and engine faults come
    back in [rr_error]. *)

val harness_metrics : t -> Telemetry.Registry.t list
(** The harness registries of the worker's live fuzzers, in campaign-id
    order — what the in-process farm folds into its result metrics. *)

val serve :
  ?runs_dir:string -> ?heartbeat_execs:int -> worker:int ->
  in_channel -> out_channel -> unit
(** The protocol loop: emit Hello, then serve Run commands until
    Shutdown, EOF, or a malformed command line (answered with Fatal,
    then exit). [oc] carries protocol lines only. *)
