(** Randomized rank (§5).

    "... by a randomization such that precisely the first r principal
    minors in the randomized matrix are not zero, and then by performing a
    binary search for the largest non-singular principal submatrix"
    (cf. Borodin, von zur Gathen & Hopcroft 1982).

    Â = U·A·V with random non-singular U, V has, with high probability,
    non-singular leading principal minors exactly up to rank(A); each
    candidate minor is tested with a certified determinant (Las Vegas),
    so the only Monte Carlo component is the rank-profile genericity.
    {!search} is the one binary search behind {!rank}, {!Nullspace} and
    {!Block_wiedemann.Make.rank}, which differ only in their minor
    determinant. *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module S : module type of Solver.Make (F) (C)
  module M = S.M

  type preconditioned = {
    u_mat : M.t;
    v_mat : M.t;
    a_hat : M.t;  (** U·A·V *)
  }

  val precondition : Random.State.t -> ?card_s:int -> M.t -> preconditioned
  (** Draws U then V, unit-triangular with entries from S. *)

  val search :
    det:(M.t -> (F.t * S.O.report, S.O.error) result) -> M.t -> int
  (** The largest i whose leading i×i minor of Â is certified non-singular
      by [det] (a typed error counts as singular), by binary search. *)

  val minor_det :
    card_s:int ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> M.t -> (F.t * S.O.report, S.O.error) result
  (** The Theorem-4 minor determinant of {!rank}: {!Solver.Make.det} with
      6 attempts at the given |S|. *)

  val rank :
    ?card_s:int ->
    ?precond:Kp_precond.Precond.choice -> Random.State.t -> M.t -> int
  (** {!search} over Â with {!minor_det}. *)
end
