(* Advisory file locks for store coordination (DESIGN.md §16).

   POSIX record locks (Unix.lockf) have two sharp edges this module
   files down. First, locks are per-process: F_TEST reports a file as
   free when the *caller's own* process holds it, so a coordinator
   probing read-marks it might itself hold would never see them — we
   keep a process-local table of held paths and consult it before
   asking the kernel. Second, closing *any* descriptor of a locked file
   drops every lock the process holds on it — so probes never open a
   path the local table says we hold, and each held lock keeps its own
   descriptor open until release. *)

type kind = Shared | Exclusive

type t = { l_path : string; l_fd : Unix.file_descr; l_kind : kind }

(* path -> number of holds by this process. Mutex-guarded: workers are
   single-threaded, but the in-process farm runs on several domains. *)
let held : (string, int) Hashtbl.t = Hashtbl.create 16
let held_mu = Mutex.create ()

let note_acquire path =
  Mutex.lock held_mu;
  Hashtbl.replace held path
    (1 + Option.value ~default:0 (Hashtbl.find_opt held path));
  Mutex.unlock held_mu

let note_release path =
  Mutex.lock held_mu;
  (match Hashtbl.find_opt held path with
   | Some n when n > 1 -> Hashtbl.replace held path (n - 1)
   | _ -> Hashtbl.remove held path);
  Mutex.unlock held_mu

let held_locally path =
  Mutex.lock held_mu;
  let yes = Hashtbl.mem held path in
  Mutex.unlock held_mu;
  yes

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let open_lock path =
  mkdir_p (Filename.dirname path);
  Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644

let cmd_of ~block = function
  | Shared -> if block then Unix.F_RLOCK else Unix.F_TRLOCK
  | Exclusive -> if block then Unix.F_LOCK else Unix.F_TLOCK

let acquire ?(block = true) ~kind path =
  let fd = open_lock path in
  match Unix.lockf fd (cmd_of ~block kind) 0 with
  | () ->
    note_acquire path;
    Some { l_path = path; l_fd = fd; l_kind = kind }
  | exception Unix.Unix_error ((EACCES | EAGAIN), _, _) ->
    Unix.close fd;
    None

let release t =
  (* Closing the descriptor releases the lock; do the bookkeeping first
     so a concurrent probe never sees "free" before "not held". *)
  note_release t.l_path;
  (try Unix.lockf t.l_fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
  try Unix.close t.l_fd with Unix.Unix_error _ -> ()

let with_exclusive path f =
  match acquire ~kind:Exclusive path with
  | None -> assert false (* blocking acquire returns or raises *)
  | Some l ->
    Fun.protect ~finally:(fun () -> release l) f

let is_locked path =
  held_locally path
  || (Sys.file_exists path
      && (match Unix.openfile path [ Unix.O_RDWR ] 0o644 with
          | exception Unix.Unix_error _ -> false
          | fd ->
            let busy =
              match Unix.lockf fd Unix.F_TEST 0 with
              | () -> false
              | exception Unix.Unix_error ((EACCES | EAGAIN), _, _) -> true
              | exception Unix.Unix_error _ -> false
            in
            (try Unix.close fd with Unix.Unix_error _ -> ());
            busy))
