module Parser = Sqlparser.Parser

(* Direct-mapped: a colliding statement overwrites the slot, so memory
   stays fixed however many distinct statements a campaign prints. Keys
   live inline in one buffer and each entry is a single string, so a
   miss leaves one long-lived allocation behind. *)
let slots = 4096

let digest_len = 16

type t = {
  keys : Bytes.t;  (* slot [i]'s digest at [i * digest_len] *)
  cells : string array;  (* [""]: not clean (or never filled) *)
  scratch : Coverage.Bitmap.t;  (* reused by every miss *)
  hits : Telemetry.Registry.counter;
  misses : Telemetry.Registry.counter;
}

let create ~hits ~misses =
  { keys = Bytes.make (slots * digest_len) '\000';
    cells = Array.make slots "";
    scratch = Coverage.Bitmap.create ();
    hits;
    misses }

(* Packed cells, or [""] when the statement is not clean. *)
let lookup t stmt =
  let text = Sqlcore.Sql_printer.stmt stmt in
  let key = Digest.string text in
  let slot = String.get_uint16_le key 0 land (slots - 1) in
  let o = slot * digest_len in
  if
    Int64.equal (Bytes.get_int64_le t.keys o) (String.get_int64_le key 0)
    && Int64.equal
         (Bytes.get_int64_le t.keys (o + 8))
         (String.get_int64_le key 8)
  then begin
    Telemetry.Registry.incr t.hits;
    t.cells.(slot)
  end
  else begin
    Telemetry.Registry.incr t.misses;
    let c =
      Option.value ~default:"" (Parser.stmt_cells ~scratch:t.scratch text)
    in
    Bytes.blit_string key 0 t.keys o digest_len;
    t.cells.(slot) <- c;
    c
  end

let fill t g tc =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | stmt :: rest ->
      (match lookup t stmt with
       | "" -> None
       | c -> gather (c :: acc) rest)
  in
  Coverage.Bitmap.reset g;
  match if tc = [] then None else gather [] tc with
  | Some cells ->
    Parser.replay_testcase g cells;
    true
  | None ->
    Result.is_ok
      (Parser.parse_testcase ~grammar:g (Sqlcore.Sql_printer.testcase tc))
