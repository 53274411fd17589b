(** Pluggable telemetry sinks.

    A sink consumes {!Event.t}s; campaigns emit into whatever sink stack
    the caller assembles ({!tee}, {!locked}). Three concrete sinks cover
    the paper-reproduction needs:

    - {!jsonl}: an AFL-[plot_data]-style machine-readable recorder, one
      JSON object per line, written under the [runs/] artifact directory;
    - {!human}: the exact human summary the CLI has always printed —
      checkpoint progress lines and the final per-fuzzer/per-shard block
      (so console formatting lives in one place);
    - {!json_lines}: every event straight to stdout as JSON, for
      [--json] scripted consumption.

    {!bench_json} is the [BENCH_*.json] writer the bench harness uses to
    publish its perf trajectory. *)

type t = { emit : Event.t -> unit; close : unit -> unit }

val emit : t -> Event.t -> unit

val close : t -> unit

val null : t

val tee : t list -> t
(** Emit to every sink, close every sink. *)

val locked : t -> t
(** Serialize emissions with a mutex — required when shards on multiple
    domains share one sink. *)

val runs_dir : unit -> string
(** The run-artifact directory (["runs"]), created on first use; all
    file-writing sinks put their output here so runs never scatter
    top-level files. *)

val jsonl : ?dir:string -> ?append:bool -> name:string -> unit -> t * string
(** A JSONL recorder writing [<dir>/<name>.jsonl] (default dir
    {!runs_dir}); returns the sink and the path. The file is truncated,
    written line-by-line and flushed after every [Checkpoint] event and
    on close, so a killed run's file ends at its last checkpoint. With [append] (default
    false) an existing file is extended instead — a resumed campaign's
    checkpoints continue the interrupted run's stream (the resume [Meta]
    event carries the [resumed_from] field marking the boundary). *)

val human : ?print:(string -> unit) -> unit -> t
(** Console summary formatting. [Checkpoint] events of the ["aggregate"]
    series print progress lines; [Summary] events print the final block;
    everything else is silent. [print] defaults to stdout with a flush
    per event (tests capture output by passing a buffer). *)

val json_lines : ?print:(string -> unit) -> unit -> t
(** Every event as one JSON line (default: stdout). *)

val bench_json :
  path:string ->
  bench:string ->
  ?extra:(string * Json.t) list ->
  (string * float * string) list ->
  unit
(** Write a [BENCH_*.json] perf-trajectory file: schema
    [{"schema":"legofuzz-bench-v1","bench":<bench>,...extra,
    "metrics":[{"name","value","unit"},...]}]. *)
