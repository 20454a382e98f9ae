(** Deterministic, splittable pseudo-random number generator.

    Every source of randomness in the reproduction flows through this module
    so that each experiment is reproducible from a single root seed.  The
    generator is a PCG32 stream seeded through a SplitMix64 finaliser; both
    algorithms are small, well-studied, and have excellent statistical
    quality for simulation workloads. *)

type t
(** Mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] builds a generator from a 64-bit seed.  Equal seeds give
    equal streams on every platform. *)

val of_int : int -> t
(** [of_int n] is [create ~seed:(Int64.of_int n)]. *)

val copy : t -> t
(** [copy t] is an independent generator that starts at [t]'s current
    state. *)

val split_at : t -> int -> t
(** [split_at t i] derives the [i]-th child of [t] without advancing [t];
    distinct [i] give independent streams.  This keeps run [i]'s randomness
    stable no matter how many other runs are performed. *)

val bits32 : t -> int32
(** Next raw 32 bits of the stream. *)

val bits64 : t -> int64
(** Next raw 64 bits (two 32-bit draws). *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound-1].  [bound] must be positive;
    rejection sampling removes modulo bias. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo, hi] inclusive; requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [0,1]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> 'a array -> int -> 'a array
(** [sample t arr k] draws [k] distinct elements uniformly without
    replacement.  Requires [0 <= k <= Array.length arr]. *)

val sample_init : t -> int -> (int -> 'a) -> int -> 'a array
(** [sample_init t n f k] is [sample t (Array.init n f) k], drawn the
    same way, without building the pool: it calls [f] only at the
    positions the draws reach, so a small sample of a large pool costs
    O(k). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli(p) sequence, for [0 < p <= 1]. *)

val poisson : t -> float -> int
(** [poisson t lambda] draws from a Poisson distribution (Knuth's method;
    intended for small to moderate [lambda]). *)

val exponential : t -> float -> float
(** [exponential t rate] draws from an exponential distribution. *)
