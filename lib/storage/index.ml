module Key = struct
  type t = Value.t list

  let compare a b =
    let rec loop a b =
      match (a, b) with
      | [], [] -> 0
      | [], _ -> -1
      | _, [] -> 1
      | x :: xs, y :: ys ->
        let c = Value.compare_total x y in
        if c <> 0 then c else loop xs ys
    in
    loop a b
end

module M = Map.Make (Key)

(* [pending] is a deferred rebuild: [fill add] calls [add key rowid]
   for every entry the rebuilt index holds, in insertion order. It
   reads a frozen row map, so it yields the same entries whenever it
   runs, and every reader forces it first. *)
type t = {
  uniq : bool;
  mutable map : int list M.t;
  mutable pending : ((Value.t list -> int -> unit) -> unit) option;
}

let create ~unique = { uniq = unique; map = M.empty; pending = None }

let unique t = t.uniq

let has_null key = List.exists (fun v -> v = Value.Null) key

let add_now t key rowid =
  match M.find_opt key t.map with
  | Some (existing :: _) when t.uniq && not (has_null key) ->
    `Dup existing
  | Some ids ->
    t.map <- M.add key (rowid :: ids) t.map;
    `Ok
  | None ->
    t.map <- M.add key [ rowid ] t.map;
    `Ok

let force t =
  match t.pending with
  | None -> ()
  | Some fill ->
    t.pending <- None;
    t.map <- M.empty;
    fill (fun key rowid -> ignore (add_now t key rowid))

let defer t fill = t.pending <- Some fill

let add t key rowid =
  force t;
  add_now t key rowid

let remove t key rowid =
  force t;
  match M.find_opt key t.map with
  | None -> ()
  | Some ids -> (
      match List.filter (fun id -> id <> rowid) ids with
      | [] -> t.map <- M.remove key t.map
      | ids -> t.map <- M.add key ids t.map)

let find t key =
  force t;
  match M.find_opt key t.map with None -> [] | Some ids -> ids

let find_range t ~lo ~hi =
  force t;
  let in_lo key =
    match lo with None -> true | Some lo -> Key.compare key lo >= 0
  in
  let in_hi key =
    match hi with None -> true | Some hi -> Key.compare key hi <= 0
  in
  M.fold
    (fun key ids acc -> if in_lo key && in_hi key then ids @ acc else acc)
    t.map []

let length t =
  force t;
  M.cardinal t.map

(* The map is persistent, so an independent copy is just a new record
   holding the same root — later [add]/[remove] on either side rebind
   their own [map] field without disturbing the other. A pending
   rebuild is shared too: each side runs it on its own first use. *)
let copy t = { uniq = t.uniq; map = t.map; pending = t.pending }
