(** The randomized Las Vegas solver — Theorem 4 with the paper's failure
    discipline.

    Random elements (the 2n-1 Hankel entries, n diagonal entries, and the
    projection vectors) are drawn uniformly from a sample set S of size
    [card_s]; on a non-singular input the attempt fails with probability at
    most 3n²/card S (estimate (2)).  Failures are *detected* — the degree-n
    generator is checked against the sequence (and, for determinants,
    against a fresh projection of the same Krylov columns), the final
    solution against A·x = b, determinants against a division-by-zero
    guard — and retried through {!Kp_robust.Retry} with fresh randomness
    and a doubled sample set, so answers are certified (solve) or
    certified-given-generator (det: exact whenever the generator check
    passes, which Lemma 1 guarantees implies minpoly = charpoly).

    All failures are typed ({!Kp_robust.Outcome.error}); successes carry
    the attempt {!Kp_robust.Outcome.report}.

    The characteristic-polynomial engine is chosen from the field
    characteristic: the §3 Leverrier route if char = 0 or char > n, else
    Chistov's any-characteristic route (§5). *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module A : module type of Attempt.Make (F) (C)
  (** The shared attempt skeleton; its field defaults also serve {!Rank},
      {!Nullspace}, {!Inverse}, {!Transpose} and {!Polygcd}. *)

  module P = A.P
  module M = P.M
  module Pc = Kp_precond.Precond

  module O = Kp_robust.Outcome

  val charpoly_for_field : ?pool:Kp_util.Pool.t -> n:int -> P.charpoly_engine
  (** Leverrier engine if the characteristic allows, Chistov otherwise.
      The returned engine closes over [?pool]: its Newton/convolution (or
      βᵢ-fan-out) layers run on the pool, with bit-identical output. *)

  val solve :
    ?retries:int ->
    ?strategy:P.strategy ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?pool:Kp_util.Pool.t ->
    ?shards:int ->
    ?precond:Pc.choice ->
    Random.State.t -> M.t -> F.t array ->
    (F.t array * O.report, O.error) result
  (** Solve A·x = b.  [Ok (x, _)] comes with the certificate A·x = b
      checked; [Error (Singular _)] when repeated attempts produce the
      singularity witness (f(0) = 0 or singular Toeplitz on every try).
      Default [card_s] = max(4·3n², 64) (failure probability ≤ 1/4 per
      attempt), default retries = 10; |S| doubles after every rejection,
      clamped to the field cardinality.  [deadline_ns] is an absolute
      monotonic deadline ({!Kp_robust.Retry.deadline_after_ms}).
      [shards] routes every matrix product of the attempt through the
      row-block sharded engine ({!Kp_shard.Sharded}) at that shard count —
      bit-identical answers, fanned out per product (here and on
      [det]/[det_once]/[precompute] alike).  [precond] picks the
      preconditioner kind ({!Kp_precond}): the default resolves to the
      dense Hankel·Diagonal and reproduces the legacy draw stream exactly;
      non-dense kinds demote to dense past the attempt-budget midpoint.
      @raise Invalid_argument if [shards] < 1. *)

  val det :
    ?retries:int ->
    ?strategy:P.strategy ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?pool:Kp_util.Pool.t ->
    ?shards:int ->
    ?precond:Pc.choice ->
    Random.State.t -> M.t -> (F.t * O.report, O.error) result
  (** Determinant of A (zero is reported as [Ok (F.zero, _)] when the
      singularity witness is confirmed across attempts).  Internally two
      fully independent evaluations must agree — the anti-fault discipline
      for a quantity with no residual certificate. *)

  val det_once :
    ?retries:int ->
    ?strategy:P.strategy ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?pool:Kp_util.Pool.t ->
    ?shards:int ->
    ?precond:Pc.choice ->
    Random.State.t -> M.t -> (F.t * O.report, O.error) result
  (** A {e single} certified-given-generator evaluation of det(A) — the
      same attempt body as {!det} but without the second agreeing
      evaluation, so it is Monte Carlo against transient faults.  Callers
      must supply the cross-check themselves: {!det} runs two of these and
      compares; the session layer compares one against its cached
      charpoly-derived determinant (and evicts the cache on mismatch). *)

  val precompute :
    ?retries:int ->
    ?strategy:P.strategy ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?pool:Kp_util.Pool.t ->
    ?shards:int ->
    ?precond:Pc.choice ->
    Random.State.t -> M.t -> (P.precomp * O.report, O.error) result
  (** Certified construction of the RHS-independent {!P.precomp} record:
      random (h, d, u, v) drawn through the usual escalating retry loop,
      the degree-n generator checked against the full 2n-sequence AND a
      fresh projection u′ (the [det] recurrence certificate), constant
      term and det(H·D) checked non-zero.  [Error (Singular _)] carries
      the usual witness discipline — a singular A never yields a record. *)

  val verify_solution : M.t -> F.t array -> F.t array -> bool
end
