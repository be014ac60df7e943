(** Pluggable polynomial multiplication.

    The paper treats both matrix multiplication and polynomial multiplication
    (Cantor–Kaltofen) as black boxes whose cost parameterises the final
    bounds.  Algorithms in [kp_structured]/[kp_core] take a [CONV] module so
    the experiments can swap multipliers:

    - {!Karatsuba}: field-independent, O(n^{log₂3});
    - {!Ntt_generic}: O(n log n) over any field that *is semantically*
      GF(p) for an NTT-friendly prime p (including its counting and circuit
      wrappers — the butterfly plan is computed on plain ints and lifted
      through [of_int], so tracing it yields the genuine O(log n)-depth
      multiplication circuit);
    - {!For_field}: the multiplier concrete drivers use, chosen from the
      field — the word-level {!Ntt} engine where the field's elements are
      canonical GF(p) words and the product fits the prime's 2-adic limit,
      kernel-backed Karatsuba otherwise.

    Every product ticks one of the [conv.ntt] / [conv.karatsuba] counters,
    so [--stats] shows which family produced an answer. *)

module type S = sig
  type elt

  val mul_full : elt array -> elt array -> elt array
  (** Full product, length la+lb-1 ([[||]] if either input is empty). *)

  val mul_full_pool :
    Kp_util.Pool.t option -> elt array -> elt array -> elt array
  (** [mul_full_pool (Some pool) a b] is [mul_full a b] with the work fanned
      out over [pool] — parallel butterfly layers for the NTT, forked
      sub-products for Karatsuba — and [mul_full_pool None] {e is}
      [mul_full].  Parallel execution never changes the result: products
      below an internal width threshold run sequentially, larger ones
      partition disjoint index ranges whose per-coefficient operation order
      is schedule-independent.  Pooled calls are counted in the
      [pool.conv.*] {!Kp_obs} counters. *)
end

module Karatsuba_k
    (F : Kp_field.Field_intf.FIELD_CORE)
    (K : Kp_kernel.Kernel_intf.KERNEL with type t = F.t) :
  S with type elt = F.t
(** Karatsuba with its leaf products and recombination passes running on an
    explicit bulk kernel. *)

module Karatsuba (F : Kp_field.Field_intf.FIELD_CORE) : S with type elt = F.t
(** [Karatsuba_k] over the derived (operation-faithful) kernel — the
    historical behaviour, safe for counting fields and circuit builders. *)

module Karatsuba_field (F : Kp_field.Field_intf.FIELD) : S with type elt = F.t
(** [Karatsuba_k] over the kernel dispatched from [F.kernel_hint] — word-level
    unboxed leaves for GF(p)/GF(2) representations. *)

module type NTT_PRIME = sig
  val p : int
  (** NTT-friendly prime: p = c·2{^k} + 1. *)

  val root : int
  (** A primitive root mod p. *)

  val max_log2 : int
  (** Largest usable power-of-two order k. *)
end

module Default_ntt_prime : NTT_PRIME
(** 998244353 / root 3 / 2{^23} — matches {!Kp_field.Fields.Gf_ntt}. *)

module Ntt_generic_k
    (F : Kp_field.Field_intf.FIELD_CORE)
    (K : Kp_kernel.Kernel_intf.KERNEL with type t = F.t)
    (P : NTT_PRIME) : sig
  include S with type elt = F.t

  val root_tables_cached : unit -> int
  (** Number of transform lengths whose lifted root tables are currently
      retained.  The cache is bounded (LRU past 8 lengths), so this never
      exceeds 8 — the PR-6 leak fix for long-running mixed-size use. *)

  (** NTT whose butterfly levels, pointwise stage and inverse scaling run as
      bulk kernel passes.  Falls back to (kernel-backed) Karatsuba when the
      product is too long for the root order. *)
end

module Ntt_generic
    (F : Kp_field.Field_intf.FIELD_CORE)
    (P : NTT_PRIME) : sig
  include S with type elt = F.t

  val root_tables_cached : unit -> int
  (** See {!Ntt_generic_k}. *)

  (** [Ntt_generic_k] over the derived kernel; falls back to Karatsuba when
      the product is too long for the root order. *)
end

module Ntt_field (F : Kp_field.Field_intf.FIELD) (P : NTT_PRIME) : sig
  include S with type elt = F.t

  val root_tables_cached : unit -> int
  (** See {!Ntt_generic_k}; stays 0 over a [Gfp_word] field, whose
      transforms run on the word engine's own table instead. *)

  (** Over a [Gfp_word] field: the word-level {!Ntt} engine for the field's
      own prime, exactly as {!For_field}.  Over any other representation:
      [Ntt_generic_k] over the kernel dispatched from [F.kernel_hint]. *)
end

module For_field (F : Kp_field.Field_intf.FIELD) : sig
  include S with type elt = F.t

  val ntt_max_log2 : int option
  (** [Some k] (k = v₂(p − 1)) when [F.kernel_hint] is [Gfp_word {p}]:
      products of length up to 2{^k} run on the word NTT.  [None] for
      every other representation. *)

  val uses_ntt : int -> bool
  (** [uses_ntt len]: whether a product of length [len] runs on the NTT. *)

  val name : string
  (** One line naming the rule for this field (what [kp kernels] prints). *)

  val twiddles_held : unit -> int
  (** Entries in the word engine's twiddle table ({!Ntt.table_size}); 0
      until the first NTT product — applying the functor builds nothing. *)

  (** The multiplier chosen from the field: the word NTT when [F]'s hint is
      [Gfp_word {p}] and the product's transform size is at most
      2{^v₂(p − 1)}, {!Karatsuba_field} otherwise.  The choice depends on p
      and the product length alone, and both families return the same
      exact product. *)
end
