(** Per-AS community usage model (the Krenc et al. AS-level
    classification): every AS gets a {!usage_class} drawn deterministically
    from a seed, and {!policy} turns the class into a {!Policy.t} that
    applies tagging-on-origination, propagation-with-rewrite and
    scrubbing-on-transit.  This is the behavioural substrate the
    [Community_watch] detector observes — and the scrubbing class is the
    paper's Section 4.3 failure mode made concrete: a scrubber erases the
    MOAS list in transit, but its own rewrite tags keep moving, so
    community {e dynamics} survive where the list does not.

    Tag values live in a reserved window [100,299] of the community value
    space: region tags [100+r], the blackhole-capability tag [199], and
    ingress tags [201..203] (customer/peer/provider by degree order).
    The rewrite never touches values outside the window, so MOAS-list
    members and well-known values pass through untouched; only a
    {!Scrub} AS's export drops foreign values wholesale. *)

open Net

type usage_class =
  | Location  (** stamps a region tag on its own originations *)
  | Path  (** rewrites its own tag space with ingress-point tags *)
  | Blackhole  (** stamps a blackhole-capability tag on originations *)
  | Scrub  (** drops every foreign community on transit export *)

val class_to_string : usage_class -> string
(** ["location"], ["path"], ["blackhole"], ["scrub"]. *)

val all_classes : usage_class list
(** The four classes in declaration order. *)

type t
(** A classified network: class and region per AS. *)

val make :
  ?scrub_fraction:float ->
  ?blackhole_fraction:float ->
  seed:int64 ->
  transit:Asn.Set.t ->
  Topology.As_graph.t ->
  t
(** Assign classes: transit ASes become {!Path} (or {!Scrub} with
    probability [scrub_fraction], default 0), every other AS {!Location}
    (or {!Blackhole} with probability [blackhole_fraction], default
    0.25).  The assignment is a pure function of [(seed, asn)] — stable
    under any iteration or evaluation order.
    @raise Invalid_argument on fractions outside [0,1]. *)

val force_class : t -> Asn.Set.t -> usage_class -> t
(** Override the class of a set of ASes (e.g. force the victim's
    providers to {!Scrub} in the scrubbing arm). *)

val class_of : t -> Asn.t -> usage_class
(** The class of an AS ({!Location} for one outside the model's graph). *)

val region_of : t -> Asn.t -> int
(** The AS's region in [0,7] (the location-tag payload). *)

val scrubbers : t -> Asn.Set.t
(** Every AS currently classed {!Scrub}. *)

val tally : t -> (usage_class * int) list
(** AS count per class, in {!all_classes} order. *)

val ingress_tag : t -> self:Asn.t -> peer:Asn.t -> Community.t
(** The tag a {!Path}/{!Scrub} AS [self] stamps on a route imported from
    [peer]: [(self, 200 + relationship-code)]. *)

val is_tag_value : int -> bool
(** Whether a community value lies in the model's reserved tag window. *)

val policy : ?metrics:Obs.Registry.t -> t -> Asn.t -> Policy.t
(** The routing policy realising the AS's class, suitable for
    {!Network.Config.with_policy_of}.  [metrics] (default noop) receives
    per-AS counters labelled [("as", self)]: [community_scrub_events] and
    [community_scrubbed_values] on the scrub path, and
    [community_tagged_values] for stamped tags. *)
