(* Host-speed probe.

   The reference host, a 2-vCPU virtual machine shared with other
   tenants, changes speed by up to 1.6x over stretches of minutes: in one
   series of runs a workload's set-up time and its throughput rose and
   fell together from run to run. End-to-end times and rates are
   therefore reported in reference-host units: each raw duration is
   multiplied by [reference_ms / p], where p is the median of the last
   three timings of a fixed piece of work, taken between operations.
   The probe allocates nothing, so the program's heap does not change
   its cost; it mixes arithmetic with scattered reads and writes over a
   4 MiB buffer, as the program's hash tables and heaps do. Raw figures
   are printed next to the normalized ones. *)

let buf = Bytes.make (4 * 1024 * 1024) '\000'

(* median probe time on the reference host, which fixes the unit *)
let reference_ms = 5.0

let work () =
  let n = Bytes.length buf in
  let x = ref 88_172_645 and acc = ref 0 in
  for _ = 1 to 400_000 do
    x := ((!x * 1_103_515_245) + 12_345) land 0x3fff_ffff;
    let i = !x mod n in
    let c = Char.code (Bytes.unsafe_get buf i) in
    acc := !acc + c;
    Bytes.unsafe_set buf i (Char.unsafe_chr ((c + !x) land 255))
  done;
  !acc

let recent = ref []
let all = ref []

let sample () =
  let t0 = Results.now_ms () in
  ignore (Sys.opaque_identity (work ()));
  let dt = Results.now_ms () -. t0 in
  recent := dt :: (match !recent with a :: b :: _ -> [ a; b ] | l -> l);
  all := dt :: !all;
  dt

(** Samples three times (set-up boundaries, ladder rungs). *)
let settle () = List.init 3 (fun _ -> sample ())

(** Raw milliseconds to reference-host milliseconds. *)
let factor () = if !recent = [] then 1.0 else reference_ms /. Results.median !recent

let report () = Results.set "host.probe_ms" (Results.median !all) ~n:(List.length !all)
