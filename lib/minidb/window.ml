open Sqlcore.Ast
open Storage

(* A window function is called once per output row, and each call needs
   every row's PARTITION BY key and its own partition sorted by ORDER
   BY. The per-row algorithm re-evaluated all of that on every call,
   quadratic in the row count. A [t] evaluates the keys once per query
   and OVER clause and sorts each partition once. Every key use the
   per-row algorithm would make is charged to a tally instead, and
   [flush] replays the charges: the same (site, key) multiset in the
   same first-touch order, so the coverage map ends byte-identical
   (DESIGN.md §18). *)

(* Pending charges against probe-trace classes (rows whose keys take
   the same path share a class), with the charged classes kept in
   first-use order. *)
type tally = {
  traces : (int * int) list array;  (* class -> its (site, key) trace *)
  count : int array;
  mutable order : int list;  (* charged classes, most recent first *)
}

let charge tl c n =
  if tl.count.(c) = 0 then tl.order <- c :: tl.order;
  tl.count.(c) <- tl.count.(c) + n

(* The pending charges as a bag of (class, count), first use first. *)
let take tl =
  let bag =
    List.rev_map
      (fun c ->
         let n = tl.count.(c) in
         tl.count.(c) <- 0;
         (c, n))
      tl.order
  in
  tl.order <- [];
  bag

(* One row's evaluated key list (or the exception evaluating it raised)
   and the class of the probes the evaluation fired. *)
type key = { k_val : (Value.t list, exn) result; k_cls : int }

type part = {
  p_members : int array;  (* row indices, ascending *)
  p_sorted : int array;   (* member indices in ORDER BY order *)
  p_pos : (int, int) Hashtbl.t;  (* row -> sorted position *)
  p_rank : int array;     (* by sorted position *)
  p_dense : int array;
  p_err : exn option;     (* the sort stopped on this key error *)
  p_bag : (int * int) list;  (* charges the sort made *)
  p_runs : (int array * int array array) option;
      (* memoised keys: the ORDER BY key classes in order of first
         sorted position, and each class's sorted positions *)
}

type t = {
  over : over_clause;
  order_by : expr list;  (* the ORDER BY key expressions *)
  env : int -> Expr_eval.env;
  n : int;
  cov : Coverage.Bitmap.t;
  live : bool;
      (* a key runs a subquery, which probes through the context and
         adds to its scan count: evaluate keys at every use and sort per
         call, exactly as the per-row algorithm did *)
  tally : tally;
  pkeys : key array;  (* memoised keys; empty when [live] *)
  okeys : key array;
  part_bag : (int * int) list;  (* charges of every PARTITION BY key *)
  part_err : exn option;
  part_of : int array;  (* row -> partition *)
  mutable parts : part array;
}

let runs_query e =
  let found = ref false in
  ignore
    (Sqlcore.Ast_util.map_expr
       (fun e ->
          (match e with Exists _ | Subquery _ -> found := true | _ -> ());
          e)
       e);
  !found

let cmp_keys ka kb dirs =
  let rec loop ka kb ds =
    match (ka, kb, ds) with
    | [], [], _ -> 0
    | x :: xs, y :: ys, d :: dt ->
      let c = Value.compare_total x y in
      let c = match d with Asc -> c | Desc -> -c in
      if c <> 0 then c else loop xs ys dt
    | _ -> 0
  in
  loop ka kb dirs

module Key_map = Map.Make (struct
    type t = Value.t list

    let compare = List.compare Value.compare_total
  end)

(* One use of row [i]'s PARTITION BY ([`Part]) or ORDER BY key, as the
   per-row algorithm makes it: charged to the tally when memoised,
   evaluated when live. Re-raises the key's error. *)
let use t which i =
  if t.live then
    let exprs =
      match which with
      | `Part -> t.over.partition_by
      | `Order -> t.order_by
    in
    List.map (fun e -> Expr_eval.eval (t.env i) e) exprs
  else begin
    let k = (match which with `Part -> t.pkeys | `Order -> t.okeys).(i) in
    charge t.tally k.k_cls 1;
    match k.k_val with Ok v -> v | Error e -> raise e
  end

let flush t =
  List.iter
    (fun (c, n) ->
       List.iter
         (fun (site, key) -> Coverage.Bitmap.probe_n t.cov ~site ~key n)
         t.tally.traces.(c))
    (take t.tally)

let class_runs t members sorted =
  if t.live then None
  else begin
    let at = Hashtbl.create 8 and first = ref [] in
    Array.iteri
      (fun p m ->
         let c = t.okeys.(members.(m)).k_cls in
         match Hashtbl.find_opt at c with
         | Some ps -> ps := p :: !ps
         | None ->
           Hashtbl.add at c (ref [ p ]);
           first := c :: !first)
      sorted;
    let classes = Array.of_list (List.rev !first) in
    Some
      ( classes,
        Array.map (fun c -> Array.of_list (List.rev !(Hashtbl.find at c)))
          classes )
  end

(* How many of the ascending positions [ps] lie below [p]. *)
let count_below ps p =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if ps.(mid) < p then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ps)

(* Sort one partition, counting its key uses, and rank it in one pass. *)
let sort_part t members =
  let m = Array.length members in
  let vals = Array.make m [] in
  let get k =
    let v = use t `Order members.(k) in
    vals.(k) <- v;
    v
  in
  let dirs = List.map snd t.over.w_order_by in
  let sorted, err =
    match
      List.stable_sort (fun a b -> cmp_keys (get a) (get b) dirs)
        (List.init m Fun.id)
    with
    | sorted -> (Array.of_list sorted, None)
    | exception e -> ([||], Some e)
  in
  let bag = take t.tally in
  let n = Array.length sorted in
  let okey i = vals.(sorted.(i)) in
  let pos = Hashtbl.create n in
  Array.iteri (fun i k -> Hashtbl.replace pos members.(k) i) sorted;
  (* Rank is one past the start of the row's tie run; Dense_rank counts
     the distinct displayed keys before that run, so keys that compare
     equal but print differently count apart. *)
  let rank = Array.make n 1 and dense = Array.make n 1 in
  let seen = Hashtbl.create 16 and distinct = Array.make n 0 in
  for i = 0 to n - 1 do
    distinct.(i) <- Hashtbl.length seen;
    Hashtbl.replace seen (List.map Value.to_display (okey i)) ();
    if i > 0 && cmp_keys (okey (i - 1)) (okey i) dirs = 0 then
      rank.(i) <- rank.(i - 1)
    else rank.(i) <- i + 1;
    dense.(i) <- distinct.(rank.(i) - 1) + 1
  done;
  { p_members = members; p_sorted = sorted; p_pos = pos; p_rank = rank;
    p_dense = dense; p_err = err; p_bag = bag;
    p_runs = class_runs t members sorted }

let create ~cov ~env ~rows over =
  let order_by = List.map fst over.w_order_by in
  let live = List.exists runs_query (over.partition_by @ order_by) in
  let classes = Hashtbl.create 8 in
  let eval_keys exprs i =
    let trace = ref [] in
    let record ~site ~key = trace := (site, key) :: !trace in
    let env = { (env i) with Expr_eval.probe = record } in
    let v =
      match List.map (Expr_eval.eval env) exprs with
      | v -> Ok v
      | exception e -> Error e
    in
    let trace = List.rev !trace in
    let c =
      match Hashtbl.find_opt classes trace with
      | Some c -> c
      | None ->
        let c = Hashtbl.length classes in
        Hashtbl.add classes trace c;
        c
    in
    { k_val = v; k_cls = c }
  in
  let memo_keys exprs =
    if live then [||] else Array.init rows (eval_keys exprs)
  in
  let pkeys = memo_keys over.partition_by in
  let okeys = memo_keys order_by in
  let traces = Array.make (Hashtbl.length classes) [] in
  Hashtbl.iter (fun trace c -> traces.(c) <- trace) classes;
  let tally =
    { traces; count = Array.make (Array.length traces) 0; order = [] }
  in
  (* Every call uses every row's partition key in row order, stopping
     at the first error. *)
  let part_err =
    Array.fold_left
      (fun err k ->
         if Option.is_some err then err
         else begin
           charge tally k.k_cls 1;
           match k.k_val with Ok _ -> None | Error e -> Some e
         end)
      None pkeys
  in
  let part_bag = take tally in
  (* Group rows by key into partitions numbered by first member. With a
     key error every call raises before it needs a partition. *)
  let part_of = Array.make (Array.length pkeys) 0 in
  let members =
    if Option.is_some part_err then [||]
    else begin
      let ids = ref Key_map.empty and n = ref 0 in
      Array.iteri
        (fun i k ->
           let v = Result.get_ok k.k_val in
           part_of.(i) <-
             (match Key_map.find_opt v !ids with
              | Some g -> g
              | None ->
                ids := Key_map.add v !n !ids;
                incr n;
                !n - 1))
        pkeys;
      let members = Array.make !n [] in
      for i = Array.length pkeys - 1 downto 0 do
        members.(part_of.(i)) <- i :: members.(part_of.(i))
      done;
      members
    end
  in
  let t =
    { over; order_by; env; n = rows; cov; live; tally; pkeys; okeys;
      part_bag; part_err; part_of; parts = [||] }
  in
  t.parts <- Array.map (fun ms -> sort_part t (Array.of_list ms)) members;
  t

type place = { part : part; pos : int }

let place t cur fn =
  let run () =
    let mine = use t `Part cur in
    let part =
      if t.live then begin
        let keys_equal a b =
          List.length a = List.length b
          && List.for_all2 (fun x y -> Value.compare_total x y = 0) a b
        in
        let members =
          List.filter
            (fun i -> keys_equal (use t `Part i) mine)
            (List.init t.n Fun.id)
        in
        sort_part t (Array.of_list members)
      end
      else begin
        List.iter (fun (c, n) -> charge t.tally c n) t.part_bag;
        Option.iter raise t.part_err;
        let p = t.parts.(t.part_of.(cur)) in
        List.iter (fun (c, n) -> charge t.tally c n) p.p_bag;
        p
      end
    in
    Option.iter raise part.p_err;
    let pos = Hashtbl.find part.p_pos cur in
    (* The per-row algorithm ranked by comparing the row with each row
       sorted before it, and Dense_rank re-read the keys below its own.
       Memoised keys are charged in bulk: the row's own class once per
       earlier row, then each class met before [pos] in order of its
       first sorted position. The sort used every key of a partition of
       two or more rows, so none of them raises here. *)
    let tie = part.p_rank.(pos) - 1 in
    (match (fn, part.p_runs) with
     | (Rank | Dense_rank), Some (classes, at) ->
       if pos > 0 then begin
         charge t.tally t.okeys.(cur).k_cls pos;
         let rec go j =
           if j < Array.length classes && at.(j).(0) < pos then begin
             charge t.tally classes.(j)
               (count_below at.(j) pos
                + if fn = Dense_rank then count_below at.(j) tie else 0);
             go (j + 1)
           end
         in
         go 0
       end
     | (Rank | Dense_rank), None ->
       for i = 0 to pos - 1 do
         let x = part.p_members.(part.p_sorted.(i)) in
         ignore (use t `Order cur);
         ignore (use t `Order x);
         if fn = Dense_rank && i < tie then ignore (use t `Order x)
       done
     | (Row_number | Lead | Lag | Ntile), _ -> ());
    { part; pos }
  in
  match run () with
  | p ->
    flush t;
    p
  | exception e ->
    flush t;
    raise e

let value t { part; pos } ~scalar fn args =
  let total = Array.length part.p_sorted in
  match fn with
  | Row_number -> Value.Int (pos + 1)
  | Rank -> Value.Int part.p_rank.(pos)
  | Dense_rank -> Value.Int part.p_dense.(pos)
  | Lead | Lag ->
    let offset =
      match args with
      | _ :: o :: _ -> (
          match Expr_eval.eval scalar o with
          | Value.Int n -> n
          | _ -> 1)
      | _ -> 1
    in
    let target = if fn = Lead then pos + offset else pos - offset in
    if target < 0 || target >= total then
      (match args with
       | _ :: _ :: d :: _ -> Expr_eval.eval scalar d
       | _ -> Value.Null)
    else
      let row = part.p_members.(part.p_sorted.(target)) in
      (match args with
       | e :: _ -> Expr_eval.eval (t.env row) e
       | [] -> Value.Null)
  | Ntile ->
    let buckets =
      match args with
      | b :: _ -> (
          match Expr_eval.eval scalar b with
          | Value.Int n when n > 0 -> n
          | _ -> 1)
      | [] -> 1
    in
    Value.Int ((pos * buckets / max 1 total) + 1)
