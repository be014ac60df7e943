(** The certified-attempt skeleton shared by the dense ({!Solver}), scalar
    black-box ({!Wiedemann}) and block ({!Block_wiedemann}) engines.

    The paper's failure discipline is one loop: draw the preconditioner P
    and the projections from S, reject a low-degree or f(0) = 0 generator,
    count a singularity witness only when P is invertible, and retry with a
    larger |S| (estimate (2)).  This module owns every piece of that loop
    that is not engine-specific; an engine supplies only its Krylov phase,
    its generator and its certificate.

    Applying the functor does no work: it only names the layers below. *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module P : module type of Pipeline.Make (F) (C)
  module MD : module type of Kp_matrix.Dense.Make (F)
  module Pc = Kp_precond.Precond
  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry

  (** {1 Field defaults} *)

  val card_s_for : ?card_s:int -> int -> int
  (** [card_s_for ?card_s n] is the caller's |S|, else the default
      max(4·3n², 64) clamped to the field cardinality: by estimate (2) an
      attempt on a non-singular input then fails with probability ≤ 1/4. *)

  val charpoly_kind : n:int -> [ `Leverrier | `Chistov ]
  (** The charpoly-engine rule: the §3 Leverrier route when char = 0 or
      char > n, Chistov's any-characteristic route (§5) otherwise. *)

  val charpoly_for_field : ?pool:Kp_util.Pool.t -> n:int -> P.charpoly_engine
  (** {!charpoly_kind} as a pooled engine. *)

  val sample_vec : Random.State.t -> card_s:int -> int -> F.t array
  (** n draws from S. *)

  val mul_of : ?shards:int -> Kp_util.Pool.t option -> MD.t -> MD.t -> MD.t
  (** The matrix-product black box: sequential, pool-parallel, or row-block
      sharded when [shards] is given — bit-identical in all three cases.
      @raise Invalid_argument if [shards] < 1. *)

  (** {1 The attempt loop} *)

  val policy : ?deadline_ns:int64 -> kind:Pc.kind -> int -> Rt.policy
  (** [retries] attempts, |S| clamped at the kind's escalation ceiling. *)

  val run :
    ns:string ->
    op:string ->
    ?sparse:bool ->
    retries:int ->
    ?deadline_ns:int64 ->
    card_s:int ->
    charpoly:P.charpoly_engine ->
    n:int ->
    Pc.choice ->
    Random.State.t ->
    (attempt:int -> card_s:int -> (unit -> P.precond) -> 'a Rt.attempt) ->
    ('a * O.report, O.error) result
  (** The prologue: resolve the choice once ([sparse] marks a black-box
      operand), drive {!Kp_robust.Retry.run}, and hand each attempt a
      [draw] that builds a fresh P of that attempt's (possibly demoted)
      kind from the RNG.  The body calls [draw] once per evaluation, before
      drawing anything else, so P leads the draw stream. *)

  (** {1 Certificates} *)

  val witness : P.precond -> O.reason -> 'a Rt.attempt
  (** The witness classifier: [Reject_with_witness r] if det(P) ≠ 0, else
      [Reject r].  det(P) is evaluated here, only when the engine reaches a
      witness branch; a [Division_by_zero] inside it counts as det(P) = 0. *)

  val checked_det : n:int -> P.precond -> F.t -> F.t Rt.attempt
  (** [checked_det ~n p chi0]: det A = (−1)ⁿ·chi0 / det(P), where chi0 is
      the constant term of the characteristic polynomial of Ã = A·P.  Two
      fresh evaluations of det(P) must agree (else a fault) and be non-zero
      (else [Singular_preconditioner]). *)

  val agree : (unit -> F.t Rt.attempt) -> F.t Rt.attempt
  (** Two independent evaluations must both accept and agree: det has no
      residual certificate, so a transient fault during one evaluation is
      caught by the other. *)

  val as_det_result :
    (F.t * O.report, O.error) result -> (F.t * O.report, O.error) result
  (** A confirmed singularity verdict is the answer det = 0. *)
end
