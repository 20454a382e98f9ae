(* What one pass of a workload hands back to the runner. *)

type t = {
  work_s : float;  (** the workload's own work, checks excluded *)
  steps_ms : float array;  (** one sample per step (see each workload) *)
  ops_us : float array;  (** one sample per operation *)
  attempted : int;  (** checked operations *)
  failed : int;  (** checks that found a wrong answer *)
}

let time f =
  let t0 = Trace.now_ns () in
  let v = f () in
  (v, Trace.seconds_between t0 (Trace.now_ns ()))

(* Latency samples, in the order taken. *)
module Samples = struct
  type t = float list ref

  let create () : t = ref []
  let push (t : t) x = t := x :: !t
  let contents (t : t) = Array.of_list (List.rev !t)
end

(* A running tally of checked operations. *)
module Checks = struct
  type t = { mutable attempted : int; mutable failed : int }

  let create () = { attempted = 0; failed = 0 }

  let check t what ok =
    t.attempted <- t.attempted + 1;
    if not ok then begin
      t.failed <- t.failed + 1;
      if t.failed <= 5 then Printf.eprintf "perfbench: check failed: %s\n%!" what
    end
end
