(* Polynomial substrate tests: dense arithmetic, Karatsuba vs classical,
   Euclidean structure, interpolation, zero-test-free series kernels
   (Newton inverse, log/exp), and the NTT fast path. *)

module F = Kp_field.Fields.Gf_ntt
module Q = Kp_field.Rational
module P = Kp_poly.Dense.Make (F)
module PQ = Kp_poly.Dense.Make (Q)
module S = Kp_poly.Series.Make (F)
module SQ = Kp_poly.Series.Make (Q)
module Ntt = Kp_poly.Ntt

let ntt = Ntt.create F.p

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let poly = Alcotest.testable P.pp P.equal
let check_poly = Alcotest.check poly

let pol l = P.of_list (List.map F.of_int l)

let rand_poly st dmax =
  P.random st ~degree:(Random.State.int st (dmax + 2) - 1)

let test_degree_normalization () =
  check_int "trailing zeros trimmed" 1 (P.degree (pol [ 1; 2; 0; 0 ]));
  check_int "zero poly" (-1) (P.degree P.zero);
  check_bool "of_list zeros is zero" true (P.is_zero (pol [ 0; 0; 0 ]));
  check_int "coeff beyond degree" 0 (P.coeff (pol [ 1; 2 ]) 5)

let test_add_sub () =
  check_poly "add" (pol [ 4; 6 ]) (P.add (pol [ 1; 2 ]) (pol [ 3; 4 ]));
  check_poly "cancellation drops degree" (pol [ 1 ])
    (P.add (pol [ 0; 5 ]) (pol [ 1; -5 ]));
  check_poly "sub self" P.zero (P.sub (pol [ 1; 2; 3 ]) (pol [ 1; 2; 3 ]))

let test_mul_known () =
  (* (1+x)(1-x) = 1-x^2 *)
  check_poly "(1+x)(1-x)" (pol [ 1; 0; -1 ]) (P.mul (pol [ 1; 1 ]) (pol [ 1; -1 ]));
  check_poly "by zero" P.zero (P.mul (pol [ 1; 2 ]) P.zero);
  check_poly "by one" (pol [ 7; 8 ]) (P.mul (pol [ 7; 8 ]) P.one)

let test_karatsuba_vs_classical () =
  let st = Random.State.make [| 21 |] in
  for _ = 1 to 10 do
    let a = P.random st ~degree:(40 + Random.State.int st 60) in
    let b = P.random st ~degree:(40 + Random.State.int st 60) in
    check_poly "karatsuba = classical" (P.mul_classical a b) (P.mul a b)
  done

let test_divmod () =
  let st = Random.State.make [| 22 |] in
  for _ = 1 to 50 do
    let a = rand_poly st 30 in
    let b = P.random st ~degree:(Random.State.int st 15) in
    let q, r = P.divmod a b in
    check_poly "a = qb + r" a (P.add (P.mul q b) r);
    check_bool "deg r < deg b" true (P.degree r < P.degree b)
  done;
  Alcotest.check_raises "div by zero poly" Division_by_zero (fun () ->
      ignore (P.divmod P.one P.zero))

let test_gcd () =
  let a = pol [ -1; 0; 1 ] (* x^2-1 *) and b = pol [ 1; 1 ] (* x+1 *) in
  check_poly "gcd(x^2-1, x+1) = x+1" (pol [ 1; 1 ]) (P.gcd a b);
  check_poly "gcd with zero" (P.monic a) (P.gcd a P.zero);
  check_poly "gcd coprime" P.one (P.gcd (pol [ 1; 1 ]) (pol [ 2; 1 ]))

let test_gcd_common_factor () =
  let st = Random.State.make [| 23 |] in
  for _ = 1 to 20 do
    let g = P.random st ~degree:(1 + Random.State.int st 5) in
    let a = P.mul g (P.random st ~degree:(Random.State.int st 8)) in
    let b = P.mul g (P.random st ~degree:(Random.State.int st 8)) in
    let d = P.gcd a b in
    check_poly "g | gcd(ag', bg')" P.zero (P.rem d (P.gcd d g));
    check_bool "gcd divisible by g" true (P.is_zero (P.rem d g) || P.degree d >= P.degree g)
  done

let test_xgcd_bezout () =
  let st = Random.State.make [| 24 |] in
  for _ = 1 to 30 do
    let a = rand_poly st 12 and b = rand_poly st 12 in
    let g, s, t = P.xgcd a b in
    check_poly "s a + t b = g" g (P.add (P.mul s a) (P.mul t b));
    if not (P.is_zero g) then
      check_bool "monic" true (F.equal (P.leading g) F.one)
  done

let test_eval () =
  (* f = 2 + 3x + x^2 at x = 5: 2 + 15 + 25 = 42 *)
  check_int "horner" 42 (P.eval (pol [ 2; 3; 1 ]) (F.of_int 5));
  check_int "zero poly" 0 (P.eval P.zero (F.of_int 9))

let test_interpolate_roundtrip () =
  let st = Random.State.make [| 25 |] in
  for _ = 1 to 10 do
    let f = P.random st ~degree:(Random.State.int st 8) in
    let xs = Array.init 9 (fun i -> F.of_int (i + 1)) in
    let pts = Array.map (fun x -> (x, P.eval f x)) xs in
    check_poly "interpolation recovers" f (P.interpolate pts)
  done;
  check_bool "repeated abscissa rejected" true
    (try
       ignore (P.interpolate [| (F.one, F.one); (F.one, F.zero) |]);
       false
     with Invalid_argument _ -> true)

let test_derivative () =
  check_poly "d/dx (1 + 2x + 3x^2)" (pol [ 2; 6 ]) (P.derivative (pol [ 1; 2; 3 ]));
  check_poly "constant" P.zero (P.derivative (pol [ 5 ]));
  let st = Random.State.make [| 26 |] in
  for _ = 1 to 20 do
    let a = rand_poly st 10 and b = rand_poly st 10 in
    (* product rule *)
    check_poly "(ab)' = a'b + ab'"
      (P.derivative (P.mul a b))
      (P.add (P.mul (P.derivative a) b) (P.mul a (P.derivative b)))
  done

let test_reverse () =
  check_poly "reverse [1;2;3] at 2" (pol [ 3; 2; 1 ]) (P.reverse (pol [ 1; 2; 3 ]) 2);
  check_poly "reverse with padding" (pol [ 0; 0; 3; 2; 1 ]) (P.reverse (pol [ 1; 2; 3 ]) 4);
  check_poly "reverse zero" P.zero (P.reverse P.zero 3)

let test_rational_poly_gcd () =
  (* exact char-0 instance: gcd((x-1)(x-2), (x-1)(x-3)) = x-1 over Q *)
  let qol l = PQ.of_list (List.map Q.of_int l) in
  let f = PQ.mul (qol [ -1; 1 ]) (qol [ -2; 1 ]) in
  let g = PQ.mul (qol [ -1; 1 ]) (qol [ -3; 1 ]) in
  Alcotest.check (Alcotest.testable PQ.pp PQ.equal) "gcd" (qol [ -1; 1 ]) (PQ.gcd f g)

(* ---- series ---- *)

let series_eq n a b =
  Array.length a = n && Array.length b = n
  && Array.for_all2 (fun x y -> F.equal x y) a b

let test_series_inv () =
  let st = Random.State.make [| 30 |] in
  for n = 1 to 40 do
    let f = Array.init n (fun i -> if i = 0 then F.of_int 1 + Random.State.int st 100 else F.random st) in
    let g = S.inv f in
    check_bool (Printf.sprintf "f * f^-1 = 1 mod x^%d" n) true
      (series_eq n (S.mul f g) (S.one n))
  done

let test_series_inv_geometric () =
  (* 1/(1-x) = 1 + x + x^2 + ... *)
  let n = 16 in
  let f = S.of_array n [| F.one; F.neg F.one |] in
  let g = S.inv f in
  check_bool "geometric series" true
    (Array.for_all (fun c -> F.equal c F.one) g)

let test_series_log_exp_roundtrip () =
  let st = Random.State.make [| 31 |] in
  for _ = 1 to 10 do
    let n = 2 + Random.State.int st 40 in
    let f = Array.init n (fun i -> if i = 0 then F.zero else F.random st) in
    let e = S.exp f in
    check_bool "log(exp f) = f" true (series_eq n (S.log e) f)
  done

let test_series_exp_known () =
  (* exp over GF(p) viewed formally: exp(x) = sum x^k / k! *)
  let n = 8 in
  let f = S.of_array n [| F.zero; F.one |] in
  let e = S.exp f in
  let fact = ref F.one in
  Array.iteri
    (fun i c ->
      if i > 0 then fact := F.mul !fact (F.of_int i);
      check_bool (Printf.sprintf "coeff %d = 1/%d!" i i) true
        (F.equal c (F.inv !fact)))
    e

let test_series_derivative_integrate () =
  let st = Random.State.make [| 32 |] in
  for _ = 1 to 20 do
    let n = 1 + Random.State.int st 20 in
    let f = Array.init n (fun _ -> F.random st) in
    let back = S.integrate (S.derivative f) in
    (* integrate(derivative f) = f - f(0); compare from index 1 *)
    let ok = ref true in
    for i = 1 to n - 1 do
      if i < Array.length back && not (F.equal back.(i) f.(i)) then ok := false
    done;
    check_bool "∫ f' = f - f(0)" true !ok
  done

let test_series_log_multiplicative () =
  let st = Random.State.make [| 33 |] in
  for _ = 1 to 10 do
    let n = 2 + Random.State.int st 30 in
    let mk () = Array.init n (fun i -> if i = 0 then F.one else F.random st) in
    let f = mk () and g = mk () in
    check_bool "log(fg) = log f + log g" true
      (series_eq n (S.log (S.mul f g)) (S.add (S.log f) (S.log g)))
  done

let test_series_rational_exact () =
  (* over Q: log(1+x) = x - x^2/2 + x^3/3 - ... *)
  let n = 6 in
  let f = SQ.of_array n [| Q.one; Q.one |] in
  let l = SQ.log f in
  let expect =
    [| Q.zero; Q.one; Q.of_ints (-1) 2; Q.of_ints 1 3; Q.of_ints (-1) 4; Q.of_ints 1 5 |]
  in
  Array.iteri
    (fun i c -> check_bool (Printf.sprintf "log(1+x) coeff %d" i) true (Q.equal c expect.(i)))
    l

let test_series_mul_matches_dense () =
  let st = Random.State.make [| 34 |] in
  for _ = 1 to 20 do
    let da = Random.State.int st 60 and db = Random.State.int st 60 in
    let a = Array.init (da + 1) (fun _ -> F.random st) in
    let b = Array.init (db + 1) (fun _ -> F.random st) in
    let full = S.mul_full a b in
    let viaP = P.mul (P.of_coeffs a) (P.of_coeffs b) in
    let ok = ref true in
    Array.iteri
      (fun i c -> if not (F.equal c (P.coeff viaP i)) then ok := false)
      full;
    check_bool "series mul_full = dense mul" true !ok
  done

(* ---- NTT ---- *)

let test_ntt_roundtrip () =
  let st = Random.State.make [| 40 |] in
  let a = Array.init 64 (fun _ -> Random.State.int st F.p) in
  let b = Array.copy a in
  Ntt.transform ntt b ~inverse:false;
  Ntt.transform ntt b ~inverse:true;
  check_bool "roundtrip" true (a = b)

let test_ntt_convolution_matches () =
  let st = Random.State.make [| 41 |] in
  for _ = 1 to 10 do
    let la = 1 + Random.State.int st 100 and lb = 1 + Random.State.int st 100 in
    let a = Array.init la (fun _ -> Random.State.int st F.p) in
    let b = Array.init lb (fun _ -> Random.State.int st F.p) in
    let fast = Ntt.convolution ntt a b in
    let slow = S.mul_full a b in
    check_bool "ntt = karatsuba" true (fast = slow)
  done;
  check_bool "empty" true (Ntt.convolution ntt [||] [| 1 |] = [||])

let test_ntt_rejects_bad_length () =
  check_bool "non power of two" true
    (try Ntt.transform ntt (Array.make 12 0) ~inverse:false; false
     with Invalid_argument _ -> true)

let test_ntt_generic_matches_specialized () =
  (* the FIELD_CORE-generic transform (used for counting and tracing) must
     agree with the specialized int implementation *)
  let module NG = Kp_poly.Conv.Ntt_generic (F) (Kp_poly.Conv.Default_ntt_prime) in
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 10 do
    let la = 1 + Random.State.int st 200 and lb = 1 + Random.State.int st 200 in
    let a = Array.init la (fun _ -> F.random st) in
    let b = Array.init lb (fun _ -> F.random st) in
    check_bool "generic NTT = specialized NTT" true
      (NG.mul_full a b = Ntt.convolution ntt a b)
  done

let test_ntt_generic_over_counting () =
  (* ... and over the counting wrapper, where every butterfly is counted *)
  let module Cnt = Kp_field.Counting.Make (F) in
  let module NG = Kp_poly.Conv.Ntt_generic (Cnt) (Kp_poly.Conv.Default_ntt_prime) in
  let st = Random.State.make [| 43 |] in
  let a = Array.init 50 (fun _ -> F.random st) in
  let b = Array.init 60 (fun _ -> F.random st) in
  Cnt.reset ();
  let _, ops = Cnt.measure (fun () -> ignore (NG.mul_full a b)) in
  let total = Kp_field.Counting.total ops in
  (* 3 transforms of size 128 at ~(m/2) log m butterflies with 1 mul + 2 adds *)
  check_bool "counted a plausible butterfly volume" true
    (total > 3 * 64 * 7 && total < 3 * 64 * 7 * 6);
  check_bool "result correct" true (NG.mul_full a b = Ntt.convolution ntt a b)

let test_ntt_root_table_cap () =
  (* the per-length root-table cache is bounded: convolving at many
     distinct lengths (every product also touches all the levels below its
     transform size) must never retain more than the cap, and eviction
     must not change any product — each answer is checked against
     Karatsuba.  A fresh functor application gives a fresh empty cache. *)
  let module NG = Kp_poly.Conv.Ntt_generic (F) (Kp_poly.Conv.Default_ntt_prime) in
  let st = Random.State.make [| 44 |] in
  check_bool "fresh cache is empty" true (NG.root_tables_cached () = 0);
  for k = 1 to 12 do
    let l = 1 lsl k in
    let a = Array.init l (fun _ -> F.random st) in
    let b = Array.init (l - (l / 3)) (fun _ -> F.random st) in
    check_bool
      (Printf.sprintf "len-%d product survives eviction" l)
      true
      (NG.mul_full a b = S.mul_full a b);
    check_bool
      (Printf.sprintf "cache stays within cap after len %d" l)
      true
      (NG.root_tables_cached () <= 8)
  done;
  check_bool "cache retains the recent lengths" true
    (NG.root_tables_cached () > 0);
  (* revisiting small sizes after the big ones: still correct, still capped *)
  for k = 1 to 4 do
    let l = 1 lsl k in
    let a = Array.init l (fun _ -> F.random st) in
    let b = Array.init l (fun _ -> F.random st) in
    check_bool
      (Printf.sprintf "len-%d rebuild after eviction" l)
      true
      (NG.mul_full a b = S.mul_full a b)
  done;
  check_bool "still within cap" true (NG.root_tables_cached () <= 8)

(* the multiplier rule, one row per prime: the word NTT up to the 2-adic
   limit 2^v2(p-1), Karatsuba past it *)
let test_for_field_rule () =
  List.iter
    (fun (p, k) ->
      let module C = Kp_poly.Conv.For_field ((val Kp_field.Gfp.make p)) in
      let lbl what = Printf.sprintf "GF(%d) %s" p what in
      check_bool (lbl "2-adic limit") true (C.ntt_max_log2 = Some k);
      check_bool (lbl "NTT at the limit") true (C.uses_ntt (1 lsl k));
      check_bool (lbl "Karatsuba past the limit") false
        (C.uses_ntt ((1 lsl k) + 1)))
    [ (998_244_353, 23); (7_340_033, 20); (97, 5); (1_073_741_789, 2) ];
  let module C = Kp_poly.Conv.For_field (Kp_field.Fields.Gf2_16) in
  check_bool "generic representation: Karatsuba" true
    (C.ntt_max_log2 = None && not (C.uses_ntt 2))

(* the word route against Karatsuba at the edge lengths: empty, 1, 2^k±1,
   and past the prime's limit (the Karatsuba fallback) *)
let test_word_ntt_edges () =
  List.iter
    (fun p ->
      let module G = (val Kp_field.Gfp.make p) in
      let module C = Kp_poly.Conv.For_field (G) in
      let module K = Kp_poly.Conv.Karatsuba (G) in
      let st = Random.State.make [| p |] in
      let limit = 1 lsl Option.get C.ntt_max_log2 in
      let lengths =
        [ 0; 1; 2; 3 ]
        @ List.concat_map (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
            [ 2; 4; 5; 7; 9 ]
        @ [ limit - 1; limit; limit + 1; (2 * limit) + 3 ]
      in
      List.iter
        (fun la ->
          List.iter
            (fun lb ->
              if la <= 4096 && lb <= 4096 && la * lb <= 1 lsl 16 then begin
                let a = Array.init la (fun _ -> G.random st) in
                let b = Array.init lb (fun _ -> G.random st) in
                check_bool
                  (Printf.sprintf "GF(%d) %dx%d word route = Karatsuba" p la lb)
                  true
                  (C.mul_full a b = K.mul_full a b)
              end)
            [ 0; 1; la; la + 1; max 0 (la - 1) ])
        lengths)
    [ 998_244_353; 97; 1_073_741_789 ]

(* applying the functor builds no table and searches no root; the table
   then holds exactly the longest transform requested *)
let test_word_ntt_lazy_table () =
  let module C = Kp_poly.Conv.For_field ((val Kp_field.Gfp.make 7_340_033)) in
  check_int "no table at functor application" 0 (C.twiddles_held ());
  let prod la lb = ignore (C.mul_full (Array.make la 1) (Array.make lb 2)) in
  prod 1 1;
  check_int "length-1 product needs no table" 0 (C.twiddles_held ());
  prod 40 25;
  check_int "table = the transform of a length-64 product" 64
    (C.twiddles_held ());
  prod 3 3;
  check_int "a shorter product reuses it" 64 (C.twiddles_held ());
  prod 300 200;
  check_int "grown by doubling to 512" 512 (C.twiddles_held ());
  let e = Ntt.create 998_244_353 in
  check_int "a bare engine holds nothing" 0 (Ntt.table_size e);
  Ntt.transform e (Array.make 8 1) ~inverse:true;
  check_int "an inverse transform shares the table" 8 (Ntt.table_size e)

(* ---- qcheck ---- *)

let arb_poly =
  QCheck.make
    ~print:P.to_string
    QCheck.Gen.(
      map
        (fun (seed, d) -> P.random (Random.State.make [| seed |]) ~degree:(d - 1))
        (pair int (int_bound 20)))

let prop_mul_commutative =
  QCheck.Test.make ~name:"mul commutative" ~count:200 (QCheck.pair arb_poly arb_poly)
    (fun (a, b) -> P.equal (P.mul a b) (P.mul b a))

let prop_mul_degree =
  QCheck.Test.make ~name:"deg(ab) = deg a + deg b" ~count:200
    (QCheck.pair arb_poly arb_poly) (fun (a, b) ->
      if P.is_zero a || P.is_zero b then P.is_zero (P.mul a b)
      else P.degree (P.mul a b) = P.degree a + P.degree b)

let prop_distributive =
  QCheck.Test.make ~name:"a(b+c) = ab+ac" ~count:200
    (QCheck.triple arb_poly arb_poly arb_poly) (fun (a, b, c) ->
      P.equal (P.mul a (P.add b c)) (P.add (P.mul a b) (P.mul a c)))

let prop_eval_hom =
  QCheck.Test.make ~name:"eval is a ring hom" ~count:200
    (QCheck.triple arb_poly arb_poly QCheck.small_int) (fun (a, b, v) ->
      let v = F.of_int v in
      F.equal (P.eval (P.mul a b) v) (F.mul (P.eval a v) (P.eval b v))
      && F.equal (P.eval (P.add a b) v) (F.add (P.eval a v) (P.eval b v)))

let qtests = List.map (QCheck_alcotest.to_alcotest ~long:false)

let () =
  Alcotest.run "kp_poly"
    [
      ( "dense",
        [
          Alcotest.test_case "normalization" `Quick test_degree_normalization;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "karatsuba = classical" `Quick test_karatsuba_vs_classical;
          Alcotest.test_case "divmod invariant" `Quick test_divmod;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "gcd common factor" `Quick test_gcd_common_factor;
          Alcotest.test_case "xgcd Bezout" `Quick test_xgcd_bezout;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "interpolation roundtrip" `Quick test_interpolate_roundtrip;
          Alcotest.test_case "derivative" `Quick test_derivative;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "gcd over Q" `Quick test_rational_poly_gcd;
        ] );
      ( "series",
        [
          Alcotest.test_case "Newton inverse" `Quick test_series_inv;
          Alcotest.test_case "geometric series" `Quick test_series_inv_geometric;
          Alcotest.test_case "log∘exp = id" `Quick test_series_log_exp_roundtrip;
          Alcotest.test_case "exp(x) coefficients" `Quick test_series_exp_known;
          Alcotest.test_case "∫ f' = f - f(0)" `Quick test_series_derivative_integrate;
          Alcotest.test_case "log multiplicative" `Quick test_series_log_multiplicative;
          Alcotest.test_case "log(1+x) over Q" `Quick test_series_rational_exact;
          Alcotest.test_case "mul_full = dense mul" `Quick test_series_mul_matches_dense;
        ] );
      ( "ntt",
        [
          Alcotest.test_case "transform roundtrip" `Quick test_ntt_roundtrip;
          Alcotest.test_case "convolution matches" `Quick test_ntt_convolution_matches;
          Alcotest.test_case "rejects bad length" `Quick test_ntt_rejects_bad_length;
          Alcotest.test_case "generic = specialized" `Quick test_ntt_generic_matches_specialized;
          Alcotest.test_case "generic over counting" `Quick test_ntt_generic_over_counting;
          Alcotest.test_case "root-table cache capped" `Quick test_ntt_root_table_cap;
          Alcotest.test_case "multiplier rule per prime" `Quick test_for_field_rule;
          Alcotest.test_case "word route = Karatsuba at edges" `Quick test_word_ntt_edges;
          Alcotest.test_case "twiddle table lazy and bounded" `Quick test_word_ntt_lazy_table;
        ] );
      ( "properties",
        qtests [ prop_mul_commutative; prop_mul_degree; prop_distributive; prop_eval_hom ] );
    ]
