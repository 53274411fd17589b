(** Per-statement grammar memo: a testcase's grammar map assembled from
    cached per-statement parts instead of re-parsing the whole printed
    testcase (DESIGN.md §15).

    A mutant shares all but one statement with its parent, so almost
    every statement the harness needs a grammar map for has been parsed
    before. The memo keeps each printed statement's
    {!Sqlparser.Parser.stmt_cells} in a fixed direct-mapped table and
    replays them in the whole-testcase parse's order. Testcases with a
    statement that is not clean, and the empty testcase, fall back to
    {!Sqlparser.Parser.parse_testcase}. One memo belongs to one harness,
    so it needs no lock. *)

type t

val create :
  hits:Telemetry.Registry.counter -> misses:Telemetry.Registry.counter -> t
(** [hits]/[misses] count statement lookups. *)

val fill : t -> Coverage.Bitmap.t -> Sqlcore.Ast.testcase -> bool
(** [fill t g tc] resets [g] and leaves it exactly as
    [Parser.parse_testcase ~grammar:g (Sql_printer.testcase tc)] would:
    the same cells, hit counts and first-touch order, and, when that
    parse fails, the same partial map. Returns [true] when that parse
    succeeds. *)
