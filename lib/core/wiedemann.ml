module Make (F : Kp_field.Field_intf.FIELD) = struct
  module Bb = Kp_matrix.Blackbox.Make (F)

  (* the multiplier chosen from F (word NTT or kernel-backed Karatsuba);
     it only reaches the dense H·D's det(P) on witness and det branches *)
  module C = Kp_poly.Conv.For_field (F)
  module A = Attempt.Make (F) (C)
  module BM = Kp_seqgen.Berlekamp_massey.Make (F)
  module LR = Kp_seqgen.Linrec.Make (F)
  module Pc = Kp_precond.Precond

  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Span = Kp_obs.Span
  module Counter = Kp_obs.Counter

  let c_singular_witness = Counter.make "wiedemann.singular_witnesses"

  (* the scalar generator of {u·Mⁱ·v}: 2n applications, then
     Berlekamp/Massey *)
  let generator apply ~u ~v n =
    let seq = LR.krylov_sequence apply ~u ~b:v (2 * n) in
    BM.P.to_array (BM.minimal_polynomial seq)

  let minimal_polynomial ?card_s st (bb : Bb.t) =
    Span.with_ "wiedemann.minpoly" @@ fun () ->
    let n = bb.Bb.dim in
    let card_s = A.card_s_for ?card_s n in
    let bb = Bb.instrument bb in
    let u = A.sample_vec st ~card_s n in
    let b = A.sample_vec st ~card_s n in
    generator bb.Bb.apply ~u ~v:b n

  (* x = -(1/f_0) Σ_{i=1}^{deg} f_i A^{i-1} b, by Cayley–Hamilton *)
  let cayley_hamilton_solution apply f ~deg b =
    let n = Array.length b in
    let acc = ref (Array.make n F.zero) in
    let w = ref b in
    for i = 1 to deg do
      acc := Array.mapi (fun j aj -> F.add aj (F.mul f.(i) !w.(j))) !acc;
      if i < deg then w := apply !w
    done;
    let c = F.neg (F.inv f.(0)) in
    Array.map (F.mul c) !acc

  (* the solve body of both entry points: the minimum polynomial of
     {Mⁱ·b} for M = [apply], then M⁻¹·b by Cayley–Hamilton, handed to
     [certify] for recovery and the residual check *)
  let solve_via apply ~u b certify =
    let f = generator apply ~u ~v:b (Array.length b) in
    let deg = Array.length f - 1 in
    if deg = 0 then Rt.Reject O.Low_degree
    else if F.is_zero f.(0) then Rt.Reject O.Zero_constant_term
    else certify (cayley_hamilton_solution apply f ~deg b)

  let residual_ok (bb : Bb.t) x b =
    if Array.for_all2 F.equal (bb.Bb.apply x) b then Rt.Accept x
    else Rt.Reject O.Residual_mismatch

  let solve ?(retries = 10) ?card_s ?deadline_ns st (bb : Bb.t) b =
    Span.with_ "wiedemann.solve" @@ fun () ->
    let n = bb.Bb.dim in
    if Array.length b <> n then invalid_arg "Wiedemann.solve: bad rhs";
    let card_s = A.card_s_for ?card_s n in
    let bb = Bb.instrument bb in
    Rt.run ~ns:"wiedemann" ~op:"solve"
      ~policy:(A.policy ?deadline_ns ~kind:Pc.Dense_hd retries) ~card_s
    @@ fun ~attempt:_ ~card_s ->
    let u = A.sample_vec st ~card_s n in
    solve_via bb.Bb.apply ~u b @@ fun x -> residual_ok bb x b

  (* P as a black box: the record's apply/transpose/ops lifted into the
     {!Kp_matrix.Blackbox} algebra (forcing the lazy op count exactly where
     the legacy code computed it eagerly) *)
  let precond_blackbox (p : F.t Pc.t) =
    {
      Bb.dim = p.Pc.n;
      apply = (fun v -> p.Pc.apply v);
      apply_transpose = Some (fun v -> p.Pc.apply_transpose v);
      ops_per_apply = Lazy.force p.Pc.ops_per_apply;
    }

  (* Ã = A·P as a black-box composition (Theorem 2's preconditioning) —
     for the dense kind this is the legacy scale-then-Hankel pipeline,
     for the sparse kinds the composition stays O(n log n) per apply. *)
  let preconditioned_blackbox (bb : Bb.t) p =
    Bb.compose bb (precond_blackbox p)

  (* the preconditioned routes draw P first, then their projections *)
  let run ~op ~retries ?card_s ?deadline_ns ~precond st n body =
    let card_s = A.card_s_for ?card_s n in
    let charpoly = A.charpoly_for_field ?pool:None ~n in
    A.run ~ns:"wiedemann" ~op ~sparse:true ~retries ?deadline_ns ~card_s
      ~charpoly ~n precond st body

  let solve_preconditioned ?(retries = 10) ?card_s ?deadline_ns
      ?(precond = Pc.default_choice ()) st (bb : Bb.t) b =
    Span.with_ "wiedemann.solve_preconditioned" @@ fun () ->
    let n = bb.Bb.dim in
    if Array.length b <> n then
      invalid_arg "Wiedemann.solve_preconditioned: bad rhs";
    let bb_i = Bb.instrument bb in
    run ~op:"solve_preconditioned" ~retries ?card_s ?deadline_ns ~precond st n
    @@ fun ~attempt:_ ~card_s draw ->
    let p = draw () in
    let u = A.sample_vec st ~card_s n in
    let a_tilde =
      Bb.instrument ~name:"preconditioned" (preconditioned_blackbox bb p)
    in
    (* y = Ã⁻¹·b, and x = P·y solves A·x = b *)
    solve_via a_tilde.Bb.apply ~u b @@ fun y -> residual_ok bb_i (p.Pc.apply y) b

  (* det(A) = (−1)ⁿ·f(0)/det P once the minimum polynomial reaches full
     degree.  A corrupted black-box apply can yield a self-consistent Krylov
     sequence of a perturbed operator, so a single evaluation can pass every
     recurrence check and still be wrong: two independent evaluations must
     agree. *)
  let det ?(retries = 10) ?card_s ?deadline_ns
      ?(precond = Pc.default_choice ()) st (bb : Bb.t) =
    Span.with_ "wiedemann.det" @@ fun () ->
    let n = bb.Bb.dim in
    A.as_det_result
    @@ run ~op:"det" ~retries ?card_s ?deadline_ns ~precond st n
    @@ fun ~attempt:_ ~card_s draw ->
    A.agree @@ fun () ->
    let p = draw () in
    let u = A.sample_vec st ~card_s n in
    let v = A.sample_vec st ~card_s n in
    let a_tilde =
      Bb.instrument ~name:"preconditioned" (preconditioned_blackbox bb p)
    in
    let f = generator a_tilde.Bb.apply ~u ~v n in
    let deg = Array.length f - 1 in
    if deg >= 1 && F.is_zero f.(0) then
      (* λ divides the sequence's minimum polynomial: Ã is singular —
         any degree suffices; Retry.run counts the witness *)
      A.witness p O.Zero_constant_term
    else if deg < n then
      (* full degree not reached without a zero root: inconclusive *)
      Rt.Reject O.Low_degree
    else A.checked_det ~n p f.(0)

  let is_probably_singular ?(trials = 4) ?card_s st (bb : Bb.t) =
    Span.with_ "wiedemann.is_probably_singular" @@ fun () ->
    let n = bb.Bb.dim in
    let card_s = A.card_s_for ?card_s n in
    let bb = Bb.instrument bb in
    let c_attempts = Counter.make "wiedemann.attempts" in
    (* one-sided: λ | f_u^{A,b} certifies singularity; for a singular A the
       witness appears with probability >= 1 - 2n/card(S) per trial *)
    let rec go k =
      if k = 0 then false
      else begin
        Counter.incr c_attempts;
        let u = A.sample_vec st ~card_s n in
        let b = A.sample_vec st ~card_s n in
        let f = generator bb.Bb.apply ~u ~v:b n in
        if Array.length f > 1 && F.is_zero f.(0) then begin
          Counter.incr c_singular_witness;
          true
        end
        else go (k - 1)
      end
    in
    go trials
end
