(** Translation of a {!Fault_plan.t} into cancellable engine events against
    a live {!Bgp.Network.t}.

    Determinism: every random draw (churn arrivals, target picks,
    downtimes, message-impairment randomness) comes from the [rng] given to
    {!arm}, with one child stream split off per plan spec in plan order —
    the same plan armed with the same seed produces the same fault
    trajectory, and adding a spec never perturbs the randomness of the
    others.  Churn arrival sequences are drawn entirely at arm time.

    Instrumentation (registered lazily, only when a fault actually fires):
    counter [faults_injected] labelled by [kind] (["link_down"],
    ["link_up"], ["router_crash"], ["router_restart"], ["impair_on"],
    ["impair_off"]) and counter [fault_churn_skipped] for churn arrivals
    that found their target already down. *)

type t
(** An armed injector. *)

val arm :
  ?metrics:Obs.Registry.t -> rng:Mutil.Rng.t -> Bgp.Network.t -> Fault_plan.t -> t
(** Schedule every spec of the plan on the network's engine.  [metrics]
    defaults to the registry the network's engine reports into.
    @raise Invalid_argument if the plan mentions a link or router outside
    the network's topology. *)

val stop : t -> unit
(** Cancel every pending fault event — including pending recoveries, so
    targets currently down stay down.  Faults already applied are not
    undone.  Idempotent. *)

val injected : t -> int
(** Fault actions actually applied so far (state-changing downs, ups,
    crashes, restarts and impairment installs/removals; skipped churn
    arrivals do not count). *)
