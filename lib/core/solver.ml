module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module A = Attempt.Make (F) (C)
  module P = A.P
  module M = P.M
  module BM = Kp_seqgen.Berlekamp_massey.Make (F)
  module Pc = Kp_precond.Precond

  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Span = Kp_obs.Span

  let charpoly_for_field = A.charpoly_for_field

  let generator_ok ~n f seq =
    (* f must be the degree-n monic generator of the whole 2n-sequence *)
    F.equal f.(n) F.one && BM.generates f seq

  let verify_solution (a : M.t) x b =
    let ax = M.matvec a x in
    Array.for_all2 F.equal ax b

  let square op (a : M.t) =
    if a.M.cols <> a.M.rows then invalid_arg ("Solver." ^ op ^ ": non-square");
    a.M.rows

  (* the shared set-up of every entry point: the product black box and the
     charpoly engine, then the attempt loop over fresh P draws *)
  let run ~op ~retries ?card_s ?deadline_ns ?pool ?shards ~precond st n body =
    let mul = A.mul_of ?shards pool in
    let card_s = A.card_s_for ?card_s n in
    let charpoly = A.charpoly_for_field ?pool ~n in
    A.run ~ns:"solver" ~op ~retries ?deadline_ns ~card_s ~charpoly ~n precond st
      (body ~mul ~charpoly)

  let solve ?(retries = 10) ?(strategy = P.Doubling) ?card_s ?deadline_ns ?pool
      ?shards ?(precond = Pc.default_choice ()) st (a : M.t) b =
    Span.with_ "solver.solve" @@ fun () ->
    let n = square "solve" a in
    if Array.length b <> n then invalid_arg "Solver.solve: bad rhs";
    run ~op:"solve" ~retries ?card_s ?deadline_ns ?pool ?shards ~precond st n
    @@ fun ~mul ~charpoly ~attempt:_ ~card_s draw ->
    let p = draw () in
    let u = A.sample_vec st ~card_s n in
    match P.solve ~mul ?pool ~charpoly ~strategy a ~b ~p ~u with
    | exception Division_by_zero ->
      (* singular Toeplitz system: the generator has degree < n — could
         be bad luck or a singular Ã *)
      A.witness p O.Low_degree
    | { x; f; seq; _ } ->
      if F.is_zero f.(0) && generator_ok ~n f seq then
        (* true minpoly with zero constant term: Ã singular *)
        A.witness p O.Zero_constant_term
      else if verify_solution a x b then Rt.Accept x
      else Rt.Reject O.Residual_mismatch

  (* the generator certificate of [det_eval] and [precompute]: full degree,
     non-zero constant term, and the transient-fault check — the
     full-degree generator is the characteristic polynomial of Ã, so it
     must also generate the projection of the same Krylov columns onto a
     fresh random u′.  A corrupted column (or a corrupted Berlekamp/Massey
     run) satisfies no such recurrence and fails here whp. *)
  let certify st ~card_s ~n ~p f seq cols accept =
    if not (generator_ok ~n f seq) then Rt.Reject O.Low_degree
    else if F.is_zero f.(0) then A.witness p O.Zero_constant_term
    else if not (BM.generates f (P.K.sequence ~u:(A.sample_vec st ~card_s n) cols))
    then Rt.Reject (O.Fault "krylov recurrence check failed")
    else accept ()

  (* one randomized det evaluation — the body both [det] (two agreeing
     evaluations) and the session layer's cache-validation discipline
     ([det_once]) drive through the retry engine *)
  let det_eval ?pool ~mul ~charpoly ~strategy st ~card_s p (a : M.t) =
    let n = a.M.rows in
    let u = A.sample_vec st ~card_s n in
    let v = A.sample_vec st ~card_s n in
    let a_tilde = P.preconditioned ~mul a p in
    let cols =
      match strategy with
      | P.Doubling -> P.K.columns ~mul a_tilde v (2 * n)
      | P.Sequential -> P.K.columns_sequential a_tilde v (2 * n)
    in
    let seq = P.K.sequence ~u cols in
    match P.minimal_generator ~mul ?pool ~charpoly ~strategy ~n seq with
    | exception Division_by_zero -> A.witness p O.Low_degree
    | f -> certify st ~card_s ~n ~p f seq cols @@ fun () -> A.checked_det ~n p f.(0)

  (* [evals] is [A.agree] for [det]: unlike solve, det has no residual to
     check against the ORIGINAL input — a corruption while building Ã is
     self-consistent (f really is the characteristic polynomial of the
     corrupted Ã′, every recurrence certificate passes, and det(Ã′)/det(P)
     is wrong), so two fully independent evaluations must agree *)
  let det_with ~op ~evals ?(retries = 10) ?(strategy = P.Doubling) ?card_s
      ?deadline_ns ?pool ?shards ?(precond = Pc.default_choice ()) st (a : M.t) =
    Span.with_ ("solver." ^ op) @@ fun () ->
    let n = square op a in
    A.as_det_result
    @@ run ~op ~retries ?card_s ?deadline_ns ?pool ?shards ~precond st n
    @@ fun ~mul ~charpoly ~attempt:_ ~card_s draw ->
    evals (fun () -> det_eval ?pool ~mul ~charpoly ~strategy st ~card_s (draw ()) a)

  let det = det_with ~op:"det" ~evals:A.agree
  let det_once = det_with ~op:"det_once" ~evals:(fun eval -> eval ())

  let precompute ?(retries = 10) ?(strategy = P.Doubling) ?card_s ?deadline_ns
      ?pool ?shards ?(precond = Pc.default_choice ()) st (a : M.t) =
    Span.with_ "solver.precompute" @@ fun () ->
    let n = square "precompute" a in
    run ~op:"precompute" ~retries ?card_s ?deadline_ns ?pool ?shards ~precond st n
    @@ fun ~mul ~charpoly ~attempt:_ ~card_s draw ->
    let p = draw () in
    let u = A.sample_vec st ~card_s n in
    let v = A.sample_vec st ~card_s n in
    match P.precompute ~mul ?pool ~charpoly ~strategy a ~p ~u ~v with
    | exception Division_by_zero -> A.witness p O.Low_degree
    | pc, cols, seq ->
      (* a zero constant term is rejected by [certify]: never cache such a
         record, every solve through it would divide by zero.  No det(P)
         gate is needed either: an accepted certificate is the full-degree
         characteristic polynomial f of Ã = A·P with f(0) ≠ 0, so
         det Ã = (−1)ⁿ·f(0) ≠ 0 and hence det P ≠ 0.  Only a fault can
         break that; the session's det query then meets a zero det(P) and
         evicts the record as stale. *)
      certify st ~card_s ~n ~p pc.P.charpoly_f seq cols @@ fun () ->
      Rt.Accept pc
end
