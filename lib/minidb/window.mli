(** Window functions over one query's rows, for one [OVER] clause.

    The executor calls a window function once per output row. [create]
    evaluates every row's PARTITION BY and ORDER BY keys once, groups
    the rows into partitions and stable-sorts each partition once; each
    call then costs O(distinct probe traces) instead of re-evaluating
    and re-sorting everything.

    Coverage is unchanged: a call fires the exact (site, key) probe
    multiset the per-row algorithm fired, with each cell first touched
    in the same order, so the exec map (including
    {!Coverage.Bitmap.compact}) is byte-identical. Results and raised
    errors are identical too: a key that raised is re-raised at the
    same use. Keys containing [EXISTS] or a scalar subquery probe
    through the executor context and scan rows, so they are evaluated
    at every use instead, by the same algorithm. *)

type t

val create :
  cov:Coverage.Bitmap.t ->
  env:(int -> Expr_eval.env) ->
  rows:int ->
  Sqlcore.Ast.over_clause ->
  t
(** [create ~cov ~env ~rows over] for rows [0 .. rows-1], where [env i]
    evaluates expressions over row [i] and probes into [cov]. Fires no
    probe and raises nothing: key errors are kept for the calls. *)

type place
(** A row's partition and its position in ORDER BY order. *)

val place : t -> int -> Sqlcore.Ast.win_fn -> place
(** The key uses a call of the given function on row [i] makes before
    computing its value: every PARTITION BY key, the sort of the row's
    partition and, for [RANK]/[DENSE_RANK], the comparisons with the
    rows sorted before it. Fires their probes.
    @raise the first error a key raised. *)

val value :
  t -> place -> scalar:Expr_eval.env -> Sqlcore.Ast.win_fn ->
  Sqlcore.Ast.expr list -> Storage.Value.t
(** The function's value for a placed row. [LEAD]/[LAG] offsets and
    defaults and the [NTILE] count are evaluated in [scalar]. *)
