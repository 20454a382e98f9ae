module Day = Mutil.Day
module Stats = Mutil.Stats

type spike = {
  day : Day.t;
  count : int;
  baseline : float;
  magnitude : float;
}

let detect ?(window = 30) ?(threshold = 1.6) daily =
  if window < 1 then invalid_arg "Anomaly.detect: window must be positive";
  if threshold <= 1.0 then invalid_arg "Anomaly.detect: threshold must exceed 1";
  let arr = Array.of_list daily in
  let spikes = ref [] in
  for i = window to Array.length arr - 1 do
    let day, count = arr.(i) in
    (* robust baseline: median of the trailing window, skipping days that
       were themselves flagged so one event does not mask the next *)
    let trailing =
      List.init window (fun k ->
          let _, c = arr.(i - window + k) in
          float_of_int c)
    in
    let baseline = Stats.median trailing in
    if float_of_int count >= threshold *. Float.max baseline 1.0 then
      spikes :=
        {
          day;
          count;
          baseline;
          magnitude = float_of_int count /. Float.max baseline 1.0;
        }
        :: !spikes
  done;
  List.rev !spikes

let render spikes =
  match spikes with
  | [] -> "no anomalous days\n"
  | spikes ->
    String.concat ""
      (List.map
         (fun s ->
           Printf.sprintf "  %s: %d conflicts (%.1fx the trailing median of %.0f)\n"
             (Day.to_string s.day) s.count s.magnitude s.baseline)
         spikes)
