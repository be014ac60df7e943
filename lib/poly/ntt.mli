(** Word-level number-theoretic transform over GF(p), p < 2{^30} prime.

    Stand-in for the paper's Cantor–Kaltofen fast polynomial multiplication
    on canonical residues held in native [int]s: the O(n log n) engine
    behind {!Conv.For_field} and {!Conv.Ntt_field} whenever a field's
    kernel hint is [Gfp_word].  An engine for p serves transforms of length
    up to 2{^k}, k = v₂(p − 1); its root of unity comes from the first
    quadratic non-residue.

    Twiddles live in one level-indexed table with Shoup quotients, shared
    by every transform length and by the inverse transform.  The table is
    built on the first transform of length > 1 and grown by doubling, so
    it never holds more entries than the longest transform requested.
    Readers never lock; growth is serialised and publishes a new table
    atomically, so pooled products on several domains may share one
    engine. *)

type t

val create : int -> t
(** [create p]: an engine for GF(p).  Does no work: no root search and no
    table until the first transform.
    @raise Invalid_argument unless 2 <= p < 2{^30} (primality is the
    caller's contract). *)

val prime : t -> int

val max_log2 : t -> int
(** k = v₂(p − 1): transforms of length up to 2{^k} exist. *)

val fits : t -> int -> bool
(** [fits t len]: a product of length [len] needs a transform of at most
    2{^k} points. *)

val table_size : t -> int
(** Entries in the twiddle table: 0 until the first transform of length
    > 1, then the longest transform length requested so far. *)

val transform : ?pool:Kp_util.Pool.t -> t -> int array -> inverse:bool -> unit
(** In-place radix-2 transform of canonical residues in [0, p); the length
    must be a power of two ≤ 2{^k}.  With a pool, long transforms split
    each butterfly level over its domains, with identical output. *)

val convolution :
  ?pool:Kp_util.Pool.t -> t -> int array -> int array -> int array
(** Full product of canonical residue vectors, length la+lb−1 ([[||]] if
    either is empty).
    @raise Invalid_argument if the product does not {!fits}. *)
