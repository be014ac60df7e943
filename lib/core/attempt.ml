module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module P = Pipeline.Make (F) (C)
  module MD = Kp_matrix.Dense.Make (F)
  module Sh = Kp_shard.Sharded.Make (F)
  module Pc = Kp_precond.Precond
  module SP = Kp_precond.Precond.Make (F) (C)
  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry

  let default_card_s n =
    let bound = max (4 * 3 * n * n) 64 in
    match F.cardinality with Some q -> min bound q | None -> bound

  let card_s_for ?card_s n =
    match card_s with Some s -> s | None -> default_card_s n

  let charpoly_kind ~n =
    if F.characteristic = 0 || F.characteristic > n then `Leverrier else `Chistov

  let charpoly_for_field ?pool ~n =
    match charpoly_kind ~n with
    | `Leverrier -> P.charpoly_leverrier_pooled pool
    | `Chistov -> P.charpoly_chistov_pooled pool

  let sample_vec st ~card_s n = Array.init n (fun _ -> F.sample st ~card_s)

  (* the matrix-multiplication black box: fast sequential loops, the
     pool-parallel product when a pool is supplied (the PRAM stand-in), or
     the row-block sharded product when a shard count is requested — all
     three are bit-identical, so the choice only moves the schedule *)
  let mul_of ?shards pool =
    match shards with
    | Some s -> Sh.mul_fn ?pool ~shards:s ()
    | None -> (
      match pool with
      | None -> MD.mul
      | Some pool -> MD.mul_parallel pool)

  let policy ?deadline_ns ~kind retries =
    Rt.policy ~retries ~max_card_s:(SP.escalation_ceiling kind) ?deadline_ns ()

  let run ~ns ~op ?sparse ~retries ?deadline_ns ~card_s ~charpoly ~n precond st
      body =
    let requested = Pc.resolve ?sparse precond in
    Rt.run ~ns ~op ~policy:(policy ?deadline_ns ~kind:requested retries) ~card_s
    @@ fun ~attempt ~card_s ->
    let kind = Pc.kind_for_attempt ~retries ~attempt requested in
    body ~attempt ~card_s (fun () -> SP.build ~charpoly ~card_s ~n kind st)

  (* det(P) is fresh arithmetic, so a Division_by_zero inside it is a
     fault, not a verdict *)
  let p_nonsingular (p : F.t Pc.t) =
    match p.Pc.det () with
    | exception Division_by_zero -> false
    | dp -> not (F.is_zero dp)

  let witness p reason =
    if p_nonsingular p then Rt.Reject_with_witness reason else Rt.Reject reason

  let checked_det ~n (p : F.t Pc.t) chi0 =
    match (p.Pc.det (), p.Pc.det ()) with
    | exception Division_by_zero -> Rt.Reject O.Singular_preconditioner
    | dp, dp' ->
      if not (F.equal dp dp') then
        (* det(P) is a deterministic function of the drawn entries:
           disagreement between two fresh evaluations proves a transient
           fault *)
        Rt.Reject (O.Fault "det_hd recomputation mismatch")
      else if F.is_zero dp then Rt.Reject O.Singular_preconditioner
      else begin
        let det_tilde = if n land 1 = 0 then chi0 else F.neg chi0 in
        Rt.Accept (F.div det_tilde dp)
      end

  let agree eval =
    match eval () with
    | Rt.Accept d1 -> begin
        match eval () with
        | Rt.Accept d2 when F.equal d1 d2 -> Rt.Accept d1
        | Rt.Accept _ -> Rt.Reject (O.Fault "det recomputation mismatch")
        | other -> other
      end
    | other -> other

  let as_det_result = function
    | Error (O.Singular { report; _ }) -> Ok (F.zero, report)
    | (Ok _ | Error _) as r -> r
end
