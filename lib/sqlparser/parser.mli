(** Recursive-descent SQL parser covering the whole {!Sqlcore.Ast}.

    The grammar is the language produced by {!Sqlcore.Sql_printer}, plus the
    usual conveniences (operator precedence without mandatory parentheses,
    optional [ASC], [TRUNCATE] without [TABLE], line comments, ...). The
    paper uses its AST parser both to harvest statement structures from
    seeds and to re-validate instantiated test cases; this module plays the
    same role.

    Every entry point takes an optional [?grammar] bitmap. When present,
    each production fired during the parse records its rule cell and its
    (production × parent production) pair cell via
    {!Coverage.Grammar.record} — the grammar-coverage feedback channel —
    and the lexer contributes one token-class site per token. Without
    [?grammar] the parse is exactly the pre-instrumentation one. *)

exception Parse_error of string

val parse_testcase :
  ?grammar:Coverage.Bitmap.t -> string ->
  (Sqlcore.Ast.testcase, string) result
(** Parse a [';']-separated sequence of statements. *)

val parse_stmt :
  ?grammar:Coverage.Bitmap.t -> string -> (Sqlcore.Ast.stmt, string) result
(** Parse a single statement (an optional trailing [';'] is accepted). *)

(** {2 Per-statement grammar maps}

    A clean statement's share of a testcase's grammar map, computed once
    and replayed into every testcase that contains it. *)

val stmt_cells : scratch:Coverage.Bitmap.t -> string -> string option
(** The cells one printed statement [text] contributes when it sits in a
    {!Sqlcore.Sql_printer.testcase}: the token cells of [text ^ ";"]
    under [root] and the statement's production cells under
    [testcase], both in touch order with their counts, packed into one
    string for {!replay_testcase}. [None] unless the statement is
    clean: it lexes, and parses to exactly its own terminating [;]. On
    [None] only a whole-testcase {!parse_testcase} gives the right map.
    [scratch] is clobbered. *)

val replay_testcase : Coverage.Bitmap.t -> string list -> unit
(** Replay the cells of a testcase's statements, in order, into a reset
    map. The result equals [parse_testcase ~grammar] of the printed
    testcase — cells, counts and first-touch order — provided the list
    is non-empty and every statement was clean. *)

val parse_expr :
  ?grammar:Coverage.Bitmap.t -> string -> (Sqlcore.Ast.expr, string) result
(** Parse a stand-alone expression (for tests and tools). *)

val parse_testcase_exn :
  ?grammar:Coverage.Bitmap.t -> string -> Sqlcore.Ast.testcase
(** @raise Parse_error on malformed input. *)

val parse_stmt_exn : ?grammar:Coverage.Bitmap.t -> string -> Sqlcore.Ast.stmt
