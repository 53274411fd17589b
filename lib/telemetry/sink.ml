type t = { emit : Event.t -> unit; close : unit -> unit }

let emit t ev = t.emit ev

let close t = t.close ()

let null = { emit = (fun _ -> ()); close = (fun () -> ()) }

let tee sinks =
  { emit = (fun ev -> List.iter (fun s -> s.emit ev) sinks);
    close = (fun () -> List.iter (fun s -> s.close ()) sinks) }

let locked sink =
  let lock = Mutex.create () in
  let guarded f x =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> f x)
  in
  { emit = guarded sink.emit; close = (fun () -> guarded sink.close ()) }

let runs_dir () =
  let dir = "runs" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let jsonl ?dir ?(append = false) ~name () =
  let dir = match dir with Some d -> d | None -> runs_dir () in
  let path = Filename.concat dir (name ^ ".jsonl") in
  let oc =
    if append then
      Out_channel.open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
    else Out_channel.open_text path
  in
  ( { emit =
        (fun ev ->
           Out_channel.output_string oc (Json.to_string (Event.to_json ev));
           Out_channel.output_char oc '\n';
           (* A killed run still leaves every checkpoint it reached. *)
           match ev with
           | Event.Checkpoint _ -> Out_channel.flush oc
           | _ -> ());
      close = (fun () -> Out_channel.close oc) },
    path )

(* The one formatter behind every console summary the CLI prints; the
   format strings are the determinism-checked CLI output, so change them
   only together with the CLI's expectations. *)
let human ?print () =
  let print =
    match print with
    | Some p -> p
    | None -> fun s -> print_string s; flush stdout
  in
  let emit = function
    | Event.Checkpoint { point; _ } when point.Event.p_series = "aggregate" ->
      print
        (Printf.sprintf "  ... execs=%d branches=%d bugs=%d\n"
           point.Event.p_execs point.p_branches (List.length point.p_bugs))
    | Event.Summary { point; shards; sync_rounds; _ } ->
      let buf = Buffer.create 128 in
      Buffer.add_string buf
        (Printf.sprintf
           "%-9s execs=%d branches=%d crashes(total)=%d crashes(unique)=%d\n"
           point.Event.p_series point.p_execs point.p_branches
           point.p_crashes_total point.p_crashes_unique);
      if point.p_bugs <> [] then
        Buffer.add_string buf
          (Printf.sprintf "  bugs: %s\n" (String.concat ", " point.p_bugs));
      if List.length shards > 1 then begin
        List.iteri
          (fun i (sh : Event.point) ->
             Buffer.add_string buf
               (Printf.sprintf
                  "  shard %d: execs=%d branches=%d crashes(unique)=%d\n" i
                  sh.p_execs sh.p_branches sh.p_crashes_unique))
          shards;
        Buffer.add_string buf
          (Printf.sprintf "  sync rounds: %d\n" sync_rounds)
      end;
      print (Buffer.contents buf)
    | Event.Checkpoint _ | Event.Meta _ | Event.Registry_dump _ -> ()
  in
  { emit; close = (fun () -> ()) }

let json_lines ?print () =
  let print =
    match print with
    | Some p -> p
    | None -> fun s -> print_string s; flush stdout
  in
  { emit =
      (fun ev -> print (Json.to_string (Event.to_json ev) ^ "\n"));
    close = (fun () -> ()) }

let bench_json ~path ~bench ?(extra = []) metrics =
  let metric (name, value, unit_) =
    Json.Obj
      [ ("name", Json.Str name); ("value", Json.Float value);
        ("unit", Json.Str unit_) ]
  in
  let doc =
    Json.Obj
      ((("schema", Json.Str "legofuzz-bench-v1") :: ("bench", Json.Str bench)
        :: extra)
       @ [ ("metrics", Json.Arr (List.map metric metrics)) ])
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string doc);
      Out_channel.output_char oc '\n')
