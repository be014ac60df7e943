module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module S = Solver.Make (F) (C)
  module M = S.M
  module MD = S.A.MD

  type preconditioned = {
    u_mat : M.t;
    v_mat : M.t;
    a_hat : M.t;
  }

  let precondition st ?card_s (a : M.t) =
    let n = a.M.rows in
    let card_s = S.A.card_s_for ?card_s n in
    (* unit-triangular products are always non-singular; their random
       entries come from the caller's sample set *)
    let u_mat = MD.sample_nonsingular st ~card_s n in
    let v_mat = MD.sample_nonsingular st ~card_s n in
    { u_mat; v_mat; a_hat = M.mul u_mat (M.mul a v_mat) }

  let search ~det (a_hat : M.t) =
    let nonsingular i =
      i = 0
      ||
      match det (M.init i i (fun r c -> M.get a_hat r c)) with
      | Ok (d, _) -> not (F.is_zero d)
      | Error _ -> false
    in
    (* invariant: minor lo is non-singular (or lo = 0), the answer is in
       [lo, hi] *)
    let rec go lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi + 1) / 2 in
        if nonsingular mid then go mid hi else go lo (mid - 1)
      end
    in
    go 0 a_hat.M.rows

  let minor_det ~card_s ?precond st = S.det ~card_s ~retries:6 ?precond st

  let rank ?card_s ?precond st (a : M.t) =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Rank.rank: non-square (embed first)";
    let card_s = S.A.card_s_for ?card_s n in
    let { a_hat; _ } = precondition st ~card_s a in
    search ~det:(minor_det ~card_s ?precond st) a_hat
end
