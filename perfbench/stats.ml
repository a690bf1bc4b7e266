(* Order statistics over samples, and the process's peak memory. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, [q] in [0, 1]. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. Float.of_int (n - 1) in
    let lo = int_of_float pos in
    let frac = pos -. Float.of_int lo in
    if frac = 0. then a.(lo) else a.(lo) +. (frac *. (a.(lo + 1) -. a.(lo)))

let median xs = quantile xs 0.5

(* The percentiles a tail may be reported at, highest first. *)
let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* The highest ladder percentile, not above [cap], that leaves at least
   ten samples beyond it. The cap keeps each workload on one percentile
   from run to run, so a faster program that completes more operations
   is not judged on a higher percentile than its parent. Returns the
   percentile, its value and the number of samples beyond it. *)
let tail ~cap xs =
  let n = List.length xs in
  let beyond p = Float.to_int (Float.of_int n *. (1. -. (p /. 100.))) in
  let p =
    match List.find_opt (fun p -> p <= cap && beyond p >= 10) ladder with
    | Some p -> p
    | None -> 50.
  in
  (p, quantile xs (p /. 100.), beyond p)

(* VmHWM: the resident-set high-water mark of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match In_channel.input_line ic with
    | None -> 0.
    | Some line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            Float.of_int kb /. 1024.)
    | Some _ -> scan ()
  in
  scan ()

(* Steal and total jiffies of all CPUs so far (/proc/stat): the share of
   time the hypervisor gave this machine's CPUs to someone else. *)
let cpu_jiffies () =
  let line = In_channel.with_open_text "/proc/stat" In_channel.input_line in
  match Option.map (String.split_on_char ' ') line with
  | Some ("cpu" :: rest) ->
      let fields = List.filter_map int_of_string_opt rest in
      let steal = match List.nth_opt fields 7 with Some s -> s | None -> 0 in
      (steal, List.fold_left ( + ) 0 fields)
  | _ -> (0, 0)
