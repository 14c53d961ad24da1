(* Working directories for heaps and logs, under .perfbench_run/ in the
   directory the benchmark runs from (the checkout root). *)

let root = ".perfbench_run"
let counter = ref 0

let fresh name =
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  incr counter;
  let dir = Filename.concat root (Printf.sprintf "%s-%d-%d" name (Unix.getpid ()) !counter) in
  Sys.mkdir dir 0o755;
  dir

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
