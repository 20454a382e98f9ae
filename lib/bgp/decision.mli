(** The BGP decision process, restricted to the attributes the simulation
    uses, with a deterministic final tie-break so that runs are exactly
    reproducible:

    1. highest LOCAL_PREF;
    2. shortest AS path (a locally originated route has length 0 and
       therefore always wins at its origin);
    3. lowest ORIGIN attribute (IGP < EGP < INCOMPLETE);
    4. lowest peer AS number (stands in for the lowest-router-id rule). *)

val prefer : Route.t -> Route.t -> int
(** [prefer a b] is negative when [a] is preferred over [b], positive
    when [b] wins, 0 only for routes identical under every criterion. *)

val best : Route.t list -> Route.t option
(** The most preferred route of a candidate list, [None] for the empty
    list. *)

val rank : Route.t list -> Route.t list
(** Candidates sorted most-preferred first. *)

val prefer_attrs : Route.t -> Route.t -> int
(** Like {!prefer} but comparing only the route attributes (LOCAL_PREF,
    path length, ORIGIN) without the final peer tie-break: 0 means the two
    routes are equally good on paper. *)

val best_with_incumbent : incumbent:Route.t option -> Route.t list -> Route.t option
(** Route selection with the oldest-route rule used by deployed BGP
    implementations (and SSFnet): the currently installed best route is
    kept unless a candidate beats it strictly on {!prefer_attrs}.  When the
    incumbent is no longer a candidate, this is plain {!best}.  The rule
    both damps churn and matches the paper's setting, where the valid
    routes converge first and bogus routes must strictly beat them. *)
