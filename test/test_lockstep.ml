(* Draw-stream lockstep: every public randomized entry point of the three
   solve engines (and both rank searches), run on fixed seeds, must keep
   its answer, its attempt report and the number of RNG draws it consumes.

   Each row records
     - a digest of the answer,
     - [report.attempts], the rejection slugs in order and [card_s_final],
     - one [Random.State.bits] drawn from the engine's state after the
       call: any change in how many values an attempt draws, or in which
       order, moves this word.

   A change to the retry, witness or certificate plumbing that is meant to
   keep behaviour must reproduce every row bit for bit.  Preconditioner
   choices are passed explicitly ([Auto] or [Forced]), so the [KP_PRECOND]
   default does not move the pinned values. *)

module O = Kp_robust.Outcome
module Pc = Kp_precond.Precond

let slug_list (r : O.report) =
  String.concat "," (List.map (fun (j : O.rejection) -> O.reason_slug j.O.reason) r.O.rejections)

let render_report (r : O.report) =
  Printf.sprintf "attempts=%d rej=[%s] card_s=%d" r.O.attempts (slug_list r)
    r.O.card_s_final

let report_of_error = function
  | O.Singular { report; witnesses } -> (Printf.sprintf "singular(%d)" witnesses, report)
  | O.Retries_exhausted report -> ("exhausted", report)
  | O.Deadline_exceeded { report; _ } -> ("deadline", report)
  | O.Fault_detected _ -> ("fault", O.empty_report)
  | O.Overloaded _ -> ("overloaded", O.empty_report)

module Rows (F : Kp_field.Field_intf.FIELD) = struct
  module C = Kp_poly.Conv.Karatsuba (F)
  module M = Kp_matrix.Dense.Make (F)
  module Bb = Kp_matrix.Blackbox.Make (F)
  module S = Kp_core.Solver.Make (F) (C)
  module W = Kp_core.Wiedemann.Make (F)
  module BW = Kp_core.Block_wiedemann.Make (F) (C)
  module R = Kp_core.Rank.Make (F) (C)

  let digest xs =
    let s = String.concat "," (List.map F.to_string xs) in
    String.sub (Digest.to_hex (Digest.string s)) 0 12

  let vec x = digest (Array.to_list x)
  let vecs xs = digest (List.concat_map Array.to_list (Array.to_list xs))
  let scalar d = digest [ d ]

  let precomp (pc : S.P.precomp) =
    digest (pc.S.P.p_pre.Pc.det () :: Array.to_list pc.S.P.charpoly_f)

  let row show est = function
    | Ok (v, r) ->
      Printf.sprintf "ok %s %s next=%d" (show v) (render_report r)
        (Random.State.bits est)
    | Error e ->
      let tag, r = report_of_error e in
      Printf.sprintf "err %s %s next=%d" tag (render_report r)
        (Random.State.bits est)

  (* input and engine draw from separate seeded states; [rhs] is A·x for a
     random x, so it is consistent even when A is singular *)
  let input ~seed ~n ~rank =
    let st = Kp_util.Rng.make seed in
    let a =
      if rank = n then M.random_nonsingular st n else M.random_of_rank st n ~rank
    in
    let x = Array.init n (fun _ -> F.random st) in
    let rhs2 = Array.init 2 (fun _ -> M.matvec a (Array.init n (fun _ -> F.random st))) in
    (a, M.matvec a x, rhs2)

  let engine seed = Kp_util.Rng.make (1000 + seed)

  (* whether det(P) = 0 for an accepted precompute; [None] when refused *)
  let precompute_det_p ~seed ~n ~rank ?shards ~precond () =
    let a, _, _ = input ~seed ~n ~rank in
    match S.precompute ?shards ~precond (engine seed) a with
    | Ok (pc, _) -> Some (F.is_zero (pc.S.P.p_pre.Pc.det ()))
    | Error _ -> None

  (* every entry point on one input; [precond]/[shards] select the
     preconditioner and product variants *)
  let rows ~tag ~seed ~n ~rank ?shards ~precond ~bb_precond () =
    let a, b, rhs2 = input ~seed ~n ~rank in
    let bb = Bb.of_dense a in
    let case name f =
      let est = engine seed in
      (Printf.sprintf "%s seed=%d n=%d rank=%d %s" tag seed n rank name, f est)
    in
    [
      case "solver.solve" (fun est ->
          row vec est (S.solve ?shards ~precond est a b));
      case "solver.det" (fun est -> row scalar est (S.det ?shards ~precond est a));
      case "solver.det_once" (fun est ->
          row scalar est (S.det_once ?shards ~precond est a));
      case "solver.precompute" (fun est ->
          row precomp est (S.precompute ?shards ~precond est a));
      case "wiedemann.solve" (fun est -> row vec est (W.solve est bb b));
      case "wiedemann.solve_preconditioned" (fun est ->
          row vec est (W.solve_preconditioned ~precond:bb_precond est bb b));
      case "wiedemann.det" (fun est ->
          row scalar est (W.det ~precond:bb_precond est bb));
      case "block.solve" (fun est ->
          row vec est (BW.solve ?shards ~precond est a b));
      case "block.solve_batch" (fun est ->
          row vecs est (BW.solve_batch ?shards ~precond est a rhs2));
      case "block.det" (fun est -> row scalar est (BW.det ?shards ~precond est a));
      case "block.det_once" (fun est ->
          row scalar est (BW.det_once ?shards ~precond est a));
      case "block.rank" (fun est ->
          let r = BW.rank ?shards ~precond est a in
          Printf.sprintf "rank=%d next=%d" r (Random.State.bits est));
      case "rank.rank" (fun est ->
          let r = R.rank ~precond est a in
          Printf.sprintf "rank=%d next=%d" r (Random.State.bits est));
    ]
end

module R97 = Rows (Kp_field.Fields.Gf_97)
module Rntt = Rows (Kp_field.Fields.Gf_ntt)

let auto = Pc.Auto
let butterfly = Pc.Forced Pc.Sparse_butterfly

let all_rows () =
  List.concat
    [
      (* GF(97), n=12: |S| is clamped to q = 97 < 12·n², so every attempt
         runs at the ceiling; these seeds reject at least once *)
      R97.rows ~tag:"gf97" ~seed:8 ~n:12 ~rank:12 ~precond:auto ~bb_precond:auto ();
      R97.rows ~tag:"gf97" ~seed:18 ~n:12 ~rank:12 ~precond:auto ~bb_precond:auto ();
      R97.rows ~tag:"gf97" ~seed:19 ~n:12 ~rank:12 ~precond:auto ~bb_precond:auto ();
      (* singular, rank 10: the witness paths *)
      R97.rows ~tag:"gf97" ~seed:3 ~n:12 ~rank:10 ~precond:auto ~bb_precond:auto ();
      Rntt.rows ~tag:"ntt" ~seed:4 ~n:12 ~rank:10 ~precond:auto ~bb_precond:auto ();
      (* GF(998244353), n=16: default, sparse butterfly, sharded products *)
      Rntt.rows ~tag:"ntt" ~seed:5 ~n:16 ~rank:16 ~precond:auto ~bb_precond:auto ();
      Rntt.rows ~tag:"ntt-butterfly" ~seed:5 ~n:16 ~rank:16 ~precond:butterfly
        ~bb_precond:butterfly ();
      Rntt.rows ~tag:"ntt-shards2" ~seed:5 ~n:16 ~rank:16 ~shards:2 ~precond:auto
        ~bb_precond:auto ();
    ]

let expected =
  [
    ("gf97 seed=8 n=12 rank=12 solver.solve",
     "ok dd0ef169e8ed attempts=1 rej=[] card_s=97 next=732258821");
    ("gf97 seed=8 n=12 rank=12 solver.det",
     "ok 8613985ec49e attempts=2 rej=[low_degree] card_s=97 next=814120448");
    ("gf97 seed=8 n=12 rank=12 solver.det_once",
     "ok 8613985ec49e attempts=1 rej=[] card_s=97 next=155717258");
    ("gf97 seed=8 n=12 rank=12 solver.precompute",
     "ok 9b54aea5ba89 attempts=1 rej=[] card_s=97 next=155717258");
    ("gf97 seed=8 n=12 rank=12 wiedemann.solve",
     "ok dd0ef169e8ed attempts=1 rej=[] card_s=97 next=844521442");
    ("gf97 seed=8 n=12 rank=12 wiedemann.solve_preconditioned",
     "ok dd0ef169e8ed attempts=1 rej=[] card_s=97 next=66621160");
    ("gf97 seed=8 n=12 rank=12 wiedemann.det",
     "ok 8613985ec49e attempts=1 rej=[] card_s=97 next=947327139");
    ("gf97 seed=8 n=12 rank=12 block.solve",
     "ok dd0ef169e8ed attempts=1 rej=[] card_s=97 next=732258821");
    ("gf97 seed=8 n=12 rank=12 block.solve_batch",
     "ok 8cc8ec17b422 attempts=1 rej=[] card_s=97 next=770812642");
    ("gf97 seed=8 n=12 rank=12 block.det",
     "ok 8613985ec49e attempts=1 rej=[] card_s=97 next=62799577");
    ("gf97 seed=8 n=12 rank=12 block.det_once",
     "ok 8613985ec49e attempts=1 rej=[] card_s=97 next=155717258");
    ("gf97 seed=8 n=12 rank=12 block.rank",
     "rank=12 next=444972830");
    ("gf97 seed=8 n=12 rank=12 rank.rank",
     "rank=12 next=444972830");
    ("gf97 seed=18 n=12 rank=12 solver.solve",
     "ok 782474de6cb7 attempts=1 rej=[] card_s=97 next=1003525775");
    ("gf97 seed=18 n=12 rank=12 solver.det",
     "ok 45c48cce2e2d attempts=2 rej=[low_degree] card_s=97 next=604272426");
    ("gf97 seed=18 n=12 rank=12 solver.det_once",
     "ok 45c48cce2e2d attempts=1 rej=[] card_s=97 next=826608075");
    ("gf97 seed=18 n=12 rank=12 solver.precompute",
     "ok a94f7dfaf395 attempts=1 rej=[] card_s=97 next=826608075");
    ("gf97 seed=18 n=12 rank=12 wiedemann.solve",
     "ok 782474de6cb7 attempts=1 rej=[] card_s=97 next=886163636");
    ("gf97 seed=18 n=12 rank=12 wiedemann.solve_preconditioned",
     "ok 782474de6cb7 attempts=1 rej=[] card_s=97 next=578745665");
    ("gf97 seed=18 n=12 rank=12 wiedemann.det",
     "ok 45c48cce2e2d attempts=1 rej=[] card_s=97 next=733848424");
    ("gf97 seed=18 n=12 rank=12 block.solve",
     "ok 782474de6cb7 attempts=1 rej=[] card_s=97 next=1003525775");
    ("gf97 seed=18 n=12 rank=12 block.solve_batch",
     "ok d55cb14ad017 attempts=1 rej=[] card_s=97 next=775333572");
    ("gf97 seed=18 n=12 rank=12 block.det",
     "ok 45c48cce2e2d attempts=1 rej=[] card_s=97 next=269215918");
    ("gf97 seed=18 n=12 rank=12 block.det_once",
     "ok 45c48cce2e2d attempts=1 rej=[] card_s=97 next=826608075");
    ("gf97 seed=18 n=12 rank=12 block.rank",
     "rank=12 next=1011247606");
    ("gf97 seed=18 n=12 rank=12 rank.rank",
     "rank=12 next=1011247606");
    ("gf97 seed=19 n=12 rank=12 solver.solve",
     "ok b8de61823962 attempts=1 rej=[] card_s=97 next=13776812");
    ("gf97 seed=19 n=12 rank=12 solver.det",
     "ok a684eceee76f attempts=1 rej=[] card_s=97 next=603681221");
    ("gf97 seed=19 n=12 rank=12 solver.det_once",
     "ok a684eceee76f attempts=1 rej=[] card_s=97 next=566975926");
    ("gf97 seed=19 n=12 rank=12 solver.precompute",
     "ok 646fe7620154 attempts=1 rej=[] card_s=97 next=566975926");
    ("gf97 seed=19 n=12 rank=12 wiedemann.solve",
     "ok b8de61823962 attempts=1 rej=[] card_s=97 next=21614947");
    ("gf97 seed=19 n=12 rank=12 wiedemann.solve_preconditioned",
     "ok b8de61823962 attempts=1 rej=[] card_s=97 next=579393636");
    ("gf97 seed=19 n=12 rank=12 wiedemann.det",
     "ok a684eceee76f attempts=2 rej=[low_degree] card_s=97 next=717581909");
    ("gf97 seed=19 n=12 rank=12 block.solve",
     "ok b8de61823962 attempts=1 rej=[] card_s=97 next=13776812");
    ("gf97 seed=19 n=12 rank=12 block.solve_batch",
     "ok f8f3ec728da2 attempts=1 rej=[] card_s=97 next=486264691");
    ("gf97 seed=19 n=12 rank=12 block.det",
     "ok a684eceee76f attempts=1 rej=[] card_s=97 next=603681221");
    ("gf97 seed=19 n=12 rank=12 block.det_once",
     "ok a684eceee76f attempts=1 rej=[] card_s=97 next=566975926");
    ("gf97 seed=19 n=12 rank=12 block.rank",
     "rank=12 next=174954043");
    ("gf97 seed=19 n=12 rank=12 rank.rank",
     "rank=12 next=1041526284");
    ("gf97 seed=3 n=12 rank=10 solver.solve",
     "err singular(10) attempts=10 rej=[low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree] card_s=97 next=87392639");
    ("gf97 seed=3 n=12 rank=10 solver.det",
     "ok cfcd208495d5 attempts=10 rej=[low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree] card_s=97 next=297933135");
    ("gf97 seed=3 n=12 rank=10 solver.det_once",
     "ok cfcd208495d5 attempts=10 rej=[low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree] card_s=97 next=297933135");
    ("gf97 seed=3 n=12 rank=10 solver.precompute",
     "err singular(10) attempts=10 rej=[low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree] card_s=97 next=297933135");
    ("gf97 seed=3 n=12 rank=10 wiedemann.solve",
     "ok 3c2d8a4f9419 attempts=1 rej=[] card_s=97 next=445800665");
    ("gf97 seed=3 n=12 rank=10 wiedemann.solve_preconditioned",
     "ok a225f5600b37 attempts=1 rej=[] card_s=97 next=365911777");
    ("gf97 seed=3 n=12 rank=10 wiedemann.det",
     "ok cfcd208495d5 attempts=10 rej=[zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,low_degree,zero_constant_term] card_s=97 next=1058085788");
    ("gf97 seed=3 n=12 rank=10 block.solve",
     "err singular(10) attempts=10 rej=[low_degree,low_degree,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term] card_s=97 next=730176966");
    ("gf97 seed=3 n=12 rank=10 block.solve_batch",
     "err singular(10) attempts=10 rej=[low_degree,low_degree,low_degree,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term] card_s=97 next=1000028891");
    ("gf97 seed=3 n=12 rank=10 block.det",
     "ok cfcd208495d5 attempts=10 rej=[low_degree,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term] card_s=97 next=615540909");
    ("gf97 seed=3 n=12 rank=10 block.det_once",
     "ok cfcd208495d5 attempts=10 rej=[low_degree,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term] card_s=97 next=615540909");
    ("gf97 seed=3 n=12 rank=10 block.rank",
     "rank=10 next=812693738");
    ("gf97 seed=3 n=12 rank=10 rank.rank",
     "rank=10 next=369072675");
    ("ntt seed=4 n=12 rank=10 solver.solve",
     "err singular(10) attempts=10 rej=[low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree] card_s=1769472 next=642001710");
    ("ntt seed=4 n=12 rank=10 solver.det",
     "ok cfcd208495d5 attempts=10 rej=[low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree] card_s=1769472 next=284041395");
    ("ntt seed=4 n=12 rank=10 solver.det_once",
     "ok cfcd208495d5 attempts=10 rej=[low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree] card_s=1769472 next=284041395");
    ("ntt seed=4 n=12 rank=10 solver.precompute",
     "err singular(10) attempts=10 rej=[low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree,low_degree] card_s=1769472 next=284041395");
    ("ntt seed=4 n=12 rank=10 wiedemann.solve",
     "ok 77cc1fd284ac attempts=1 rej=[] card_s=1728 next=968164115");
    ("ntt seed=4 n=12 rank=10 wiedemann.solve_preconditioned",
     "ok 084c4297bcaa attempts=1 rej=[] card_s=1728 next=971003236");
    ("ntt seed=4 n=12 rank=10 wiedemann.det",
     "ok cfcd208495d5 attempts=10 rej=[zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term] card_s=1769472 next=208279760");
    ("ntt seed=4 n=12 rank=10 block.solve",
     "err singular(10) attempts=10 rej=[low_degree,low_degree,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term] card_s=1769472 next=242768334");
    ("ntt seed=4 n=12 rank=10 block.solve_batch",
     "err singular(10) attempts=10 rej=[low_degree,low_degree,low_degree,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term] card_s=1769472 next=819624714");
    ("ntt seed=4 n=12 rank=10 block.det",
     "ok cfcd208495d5 attempts=10 rej=[low_degree,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term] card_s=1769472 next=721247431");
    ("ntt seed=4 n=12 rank=10 block.det_once",
     "ok cfcd208495d5 attempts=10 rej=[low_degree,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term,zero_constant_term] card_s=1769472 next=721247431");
    ("ntt seed=4 n=12 rank=10 block.rank",
     "rank=10 next=506811399");
    ("ntt seed=4 n=12 rank=10 rank.rank",
     "rank=10 next=243230574");
    ("ntt seed=5 n=16 rank=16 solver.solve",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=503460429");
    ("ntt seed=5 n=16 rank=16 solver.det",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=395555767");
    ("ntt seed=5 n=16 rank=16 solver.det_once",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=552228349");
    ("ntt seed=5 n=16 rank=16 solver.precompute",
     "ok 22dfdc54554a attempts=1 rej=[] card_s=3072 next=552228349");
    ("ntt seed=5 n=16 rank=16 wiedemann.solve",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=104583402");
    ("ntt seed=5 n=16 rank=16 wiedemann.solve_preconditioned",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=793893114");
    ("ntt seed=5 n=16 rank=16 wiedemann.det",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=355166204");
    ("ntt seed=5 n=16 rank=16 block.solve",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=503460429");
    ("ntt seed=5 n=16 rank=16 block.solve_batch",
     "ok 8b8b886d402b attempts=1 rej=[] card_s=3072 next=710807962");
    ("ntt seed=5 n=16 rank=16 block.det",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=395555767");
    ("ntt seed=5 n=16 rank=16 block.det_once",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=552228349");
    ("ntt seed=5 n=16 rank=16 block.rank",
     "rank=16 next=714414339");
    ("ntt seed=5 n=16 rank=16 rank.rank",
     "rank=16 next=714414339");
    ("ntt-butterfly seed=5 n=16 rank=16 solver.solve",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=793893114");
    ("ntt-butterfly seed=5 n=16 rank=16 solver.det",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=694149926");
    ("ntt-butterfly seed=5 n=16 rank=16 solver.det_once",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=464474386");
    ("ntt-butterfly seed=5 n=16 rank=16 solver.precompute",
     "ok 8ebffd183b7a attempts=1 rej=[] card_s=3072 next=464474386");
    ("ntt-butterfly seed=5 n=16 rank=16 wiedemann.solve",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=104583402");
    ("ntt-butterfly seed=5 n=16 rank=16 wiedemann.solve_preconditioned",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=793893114");
    ("ntt-butterfly seed=5 n=16 rank=16 wiedemann.det",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=355166204");
    ("ntt-butterfly seed=5 n=16 rank=16 block.solve",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=793893114");
    ("ntt-butterfly seed=5 n=16 rank=16 block.solve_batch",
     "ok 8b8b886d402b attempts=1 rej=[] card_s=3072 next=145837075");
    ("ntt-butterfly seed=5 n=16 rank=16 block.det",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=694149926");
    ("ntt-butterfly seed=5 n=16 rank=16 block.det_once",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=464474386");
    ("ntt-butterfly seed=5 n=16 rank=16 block.rank",
     "rank=16 next=251512671");
    ("ntt-butterfly seed=5 n=16 rank=16 rank.rank",
     "rank=16 next=251512671");
    ("ntt-shards2 seed=5 n=16 rank=16 solver.solve",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=503460429");
    ("ntt-shards2 seed=5 n=16 rank=16 solver.det",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=395555767");
    ("ntt-shards2 seed=5 n=16 rank=16 solver.det_once",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=552228349");
    ("ntt-shards2 seed=5 n=16 rank=16 solver.precompute",
     "ok 22dfdc54554a attempts=1 rej=[] card_s=3072 next=552228349");
    ("ntt-shards2 seed=5 n=16 rank=16 wiedemann.solve",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=104583402");
    ("ntt-shards2 seed=5 n=16 rank=16 wiedemann.solve_preconditioned",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=793893114");
    ("ntt-shards2 seed=5 n=16 rank=16 wiedemann.det",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=355166204");
    ("ntt-shards2 seed=5 n=16 rank=16 block.solve",
     "ok f6b3eebbb104 attempts=1 rej=[] card_s=3072 next=503460429");
    ("ntt-shards2 seed=5 n=16 rank=16 block.solve_batch",
     "ok 8b8b886d402b attempts=1 rej=[] card_s=3072 next=710807962");
    ("ntt-shards2 seed=5 n=16 rank=16 block.det",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=395555767");
    ("ntt-shards2 seed=5 n=16 rank=16 block.det_once",
     "ok 592ab9c625e4 attempts=1 rej=[] card_s=3072 next=552228349");
    ("ntt-shards2 seed=5 n=16 rank=16 block.rank",
     "rank=16 next=714414339");
    ("ntt-shards2 seed=5 n=16 rank=16 rank.rank",
     "rank=16 next=714414339");
  ]

(* Solver.precompute has no det(P) gate: an accepted certificate is the
   full-degree charpoly f of Ã = A·P with f(0) ≠ 0, so det P ≠ 0 follows.
   Check it on every lockstep input whose precompute is accepted. *)
let test_precompute_det_p () =
  let zero_det_p =
    List.filter_map
      (fun (tag, r) -> if r = Some true then Some tag else None)
      [
        ("gf97 8", R97.precompute_det_p ~seed:8 ~n:12 ~rank:12 ~precond:auto ());
        ("gf97 18", R97.precompute_det_p ~seed:18 ~n:12 ~rank:12 ~precond:auto ());
        ("gf97 19", R97.precompute_det_p ~seed:19 ~n:12 ~rank:12 ~precond:auto ());
        ("ntt 5", Rntt.precompute_det_p ~seed:5 ~n:16 ~rank:16 ~precond:auto ());
        ("ntt-butterfly 5",
         Rntt.precompute_det_p ~seed:5 ~n:16 ~rank:16 ~precond:butterfly ());
        ("ntt-shards2 5",
         Rntt.precompute_det_p ~seed:5 ~n:16 ~rank:16 ~shards:2 ~precond:auto ());
      ]
  in
  Alcotest.(check (list string)) "accepted precomputes with det(P) = 0" []
    zero_det_p

let () =
  Alcotest.run "lockstep"
    [
      ( "draw stream",
        List.map
          (fun (k, v) ->
            Alcotest.test_case k `Quick (fun () ->
                match List.assoc_opt k expected with
                | Some e -> Alcotest.(check string) k e v
                | None -> Alcotest.failf "%s: no pinned value (got %S)" k v))
          (all_rows ()) );
      ( "precompute",
        [ Alcotest.test_case "accepted precompute has det(P) <> 0" `Quick
            test_precompute_det_p ] );
    ]
