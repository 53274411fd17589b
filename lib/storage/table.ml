open Reprutil

type col = {
  c_name : string;
  c_type : Sqlcore.Ast.data_type;
  c_not_null : bool;
  c_primary : bool;
  c_unique : bool;
  c_default : Value.t option;
  c_zerofill : bool;
}

(* Rows live in a persistent map keyed by rowid. Rowids are assigned
   monotonically and never reused (truncate does not reset
   [next_rowid]), so ascending key order IS insertion order — [iter]
   and [to_rows] preserve the ordering the old Vec-backed storage had.
   The executor never mutates a stored row array in place (updates
   build a fresh array), so [copy] can share both the map root and the
   row arrays: snapshots are O(1) and later mutations of either side
   only rebind their own [t_rows] field. *)
type t = {
  mutable t_name : string;
  t_temp : bool;
  mutable t_cols : col array;
  mutable t_rows : Value.t array Imap.t;
  mutable next_rowid : int;
}

let create ~name ~temp cols =
  { t_name = name; t_temp = temp; t_cols = Array.of_list cols;
    t_rows = Imap.empty; next_rowid = 0 }

let col_of_def (d : Sqlcore.Ast.col_def) =
  { c_name = d.col_name;
    c_type = d.col_type;
    c_not_null = d.not_null || d.primary_key;
    c_primary = d.primary_key;
    c_unique = d.unique || d.primary_key;
    c_default = Option.map Value.of_literal d.default;
    c_zerofill = d.zerofill }

let name t = t.t_name

let set_name t n = t.t_name <- n

let is_temp t = t.t_temp

let cols t = t.t_cols

let col_index t name =
  let n = Array.length t.t_cols in
  let rec loop i =
    if i >= n then None
    else if String.equal t.t_cols.(i).c_name name then Some i
    else loop (i + 1)
  in
  loop 0

let arity t = Array.length t.t_cols

let row_count t = Imap.cardinal t.t_rows

let insert t row =
  let id = t.next_rowid in
  t.next_rowid <- id + 1;
  t.t_rows <- Imap.add id row t.t_rows;
  id

let last_rowid t = t.next_rowid - 1

let find_row t rowid = Imap.find_opt rowid t.t_rows

let update_row t rowid row =
  if Imap.mem rowid t.t_rows then t.t_rows <- Imap.add rowid row t.t_rows

let delete_rows t pred =
  let before = Imap.cardinal t.t_rows in
  let kept = Imap.filter (fun id _ -> not (pred id)) t.t_rows in
  let deleted = before - Imap.cardinal kept in
  if deleted > 0 then t.t_rows <- kept;
  deleted

let truncate t =
  let n = Imap.cardinal t.t_rows in
  t.t_rows <- Imap.empty;
  n

let iter f t = Imap.iter f t.t_rows

let to_rows t = Imap.bindings t.t_rows

let rows_root_eq a b = Imap.root_eq a.t_rows b.t_rows

let add_column t col =
  t.t_cols <- Array.append t.t_cols [| col |];
  let filler = Option.value ~default:Value.Null col.c_default in
  t.t_rows <- Imap.map (fun row -> Array.append row [| filler |]) t.t_rows

let drop_column t pos =
  let keep_cols =
    Array.of_list
      (List.filteri (fun i _ -> i <> pos) (Array.to_list t.t_cols))
  in
  t.t_cols <- keep_cols;
  t.t_rows <-
    Imap.map
      (fun row ->
         Array.of_list
           (List.filteri (fun j _ -> j <> pos) (Array.to_list row)))
      t.t_rows

let rename_column t pos name =
  let cols = Array.copy t.t_cols in
  cols.(pos) <- { cols.(pos) with c_name = name };
  t.t_cols <- cols

let copy t =
  { t_name = t.t_name; t_temp = t.t_temp; t_cols = t.t_cols;
    t_rows = t.t_rows; next_rowid = t.next_rowid }

(* Pre-refactor physical copy, kept as the reference implementation in
   the equivalence tests: rebuilds the row map with fresh arrays so
   nothing is shared. *)
let deep_copy t =
  { t_name = t.t_name; t_temp = t.t_temp; t_cols = Array.copy t.t_cols;
    t_rows = Imap.map Array.copy t.t_rows; next_rowid = t.next_rowid }

let change_column_type t pos dt =
  let cols = Array.copy t.t_cols in
  cols.(pos) <- { cols.(pos) with c_type = dt };
  t.t_cols <- cols;
  t.t_rows <-
    Imap.map
      (fun row ->
         let row = Array.copy row in
         (row.(pos) <-
            (match Value.coerce row.(pos) dt with
             | Ok v -> v
             | Error _ -> Value.Null));
         row)
      t.t_rows
