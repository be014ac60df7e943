(* Direct calls into single layers of kaltofen-pan, timed from outside the
   library, plus the benchmark's own reference elimination.  Driven by
   perfbench/run.py; every command prints one JSON line.

     probe refdet FILE...      det mod p of each matrix file, by the
                               benchmark's own elimination (not kp_matrix)
     probe dense SEED          layers the dense-theorem4 workload runs
     probe blackbox SEED       layers the blackbox-512 workload runs
     probe protocol FILE       kp_serve Protocol parse/render of each line

   Functor arguments are the ones bin/kp.ml instantiates: Gfp.make p with
   the Karatsuba multiplier; the NTT multiplier is timed beside it. *)

let p = 998_244_353

(* ---- reference arithmetic, independent of the library ---- *)

let read_ints path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun t -> t <> "")
  |> List.map int_of_string

let rec pow_mod a e =
  if e = 0 then 1
  else
    let h = pow_mod (a * a mod p) (e / 2) in
    if e land 1 = 1 then h * a mod p else h

(* Gaussian elimination mod p.  A row update adds (p − f)·x to each entry,
   which stays under 2⁶¹, and reduces once. *)
let ref_det n (m : int array array) =
  let det = ref 1 in
  (try
     for c = 0 to n - 1 do
       let piv = ref c in
       while !piv < n && m.(!piv).(c) = 0 do incr piv done;
       if !piv = n then (det := 0; raise Exit);
       if !piv <> c then begin
         let t = m.(c) in
         m.(c) <- m.(!piv);
         m.(!piv) <- t;
         det := (p - !det) mod p
       end;
       let rc = m.(c) in
       det := !det * rc.(c) mod p;
       let inv = pow_mod rc.(c) (p - 2) in
       for r = c + 1 to n - 1 do
         let rr = m.(r) in
         let f = rr.(c) * inv mod p in
         if f <> 0 then begin
           let nf = p - f in
           for k = c to n - 1 do
             Array.unsafe_set rr k
               ((Array.unsafe_get rr k + (nf * Array.unsafe_get rc k)) mod p)
           done
         end
       done
     done
   with Exit -> ());
  !det

let refdet files =
  let dets =
    List.map
      (fun path ->
        match read_ints path with
        | n :: rest ->
          let a = Array.of_list rest in
          ref_det n (Array.init n (fun i -> Array.sub a (i * n) n))
        | [] -> failwith (path ^ ": empty matrix file"))
      files
  in
  Printf.printf "{\"dets\":[%s]}\n"
    (String.concat "," (List.map string_of_int dets))

(* ---- timing ---- *)

let now () = Kp_obs.Clock.now_s ()

(* median seconds per call: batches of [k] calls (k grown until a batch
   lasts 2 ms), repeated until [budget] seconds and at least 3 batches *)
let per_call ?(budget = 0.5) f =
  ignore (Sys.opaque_identity (f ()));
  let rec calibrate k =
    let t = now () in
    for _ = 1 to k do ignore (Sys.opaque_identity (f ())) done;
    let d = now () -. t in
    if d >= 0.002 || k >= 1 lsl 20 then k else calibrate (k * 4)
  in
  let k = calibrate 1 in
  let start = now () in
  let samples = ref [] in
  while List.length !samples < 3 || now () -. start < budget do
    let t = now () in
    for _ = 1 to k do ignore (Sys.opaque_identity (f ())) done;
    samples := ((now () -. t) /. float_of_int k) :: !samples
  done;
  let a = Array.of_list !samples in
  Array.sort compare a;
  a.(Array.length a / 2)

let print_metrics kvs =
  print_endline
    ("{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%S:%.9g" k v) kvs)
    ^ "}")

module F = (val Kp_field.Gfp.make p)
module C = Kp_poly.Conv.Karatsuba_field (F)
module Ntt = Kp_poly.Conv.Ntt_field (F) (Kp_poly.Conv.Default_ntt_prime)

let random_vec st len = Array.init len (fun _ -> F.random st)

let nonzero st =
  let rec go () = let x = F.random st in if F.equal x F.zero then go () else x in
  go ()

(* ---- dense-theorem4 layers (n = 64; the inverse at n = 16) ---- *)

(* the Karatsuba multiplier, recording the longest product the Toeplitz
   charpoly asks for *)
module Rec = struct
  type elt = F.t

  let longest = ref (0, 0)

  let note a b =
    let la = Array.length a and lb = Array.length b in
    if la + lb > fst !longest + snd !longest then longest := (la, lb)

  let mul_full a b = note a b; C.mul_full a b
  let mul_full_pool pool a b = note a b; C.mul_full_pool pool a b
end

let dense seed =
  let st = Kp_util.Rng.make seed in
  let n = 64 in
  let module TC = Kp_structured.Toeplitz_charpoly.Make (F) (C) in
  let module TR = Kp_structured.Toeplitz_charpoly.Make (F) (Rec) in
  let module Lev = Kp_structured.Leverrier.Make (F) in
  let module GS = Kp_structured.Gohberg_semencul.Make (F) (C) in
  let module I = Kp_core.Inverse.Make (F) (C) in
  let d = random_vec st ((2 * n) - 1) in
  ignore (TR.charpoly ~n d);
  let la, lb = !Rec.longest in
  let ca = random_vec st la and cb = random_vec st lb in
  let s = random_vec st (n + 1) in
  let x = random_vec st n and y = random_vec st n and v = random_vec st n in
  x.(0) <- nonzero st;
  print_metrics
    [
      ("circuit.det_circuit_s",
        per_call ~budget:2.0 (fun () -> I.det_circuit ~n:16 ~charpoly:`Leverrier));
      ("structured.toeplitz_charpoly_s", per_call (fun () -> TC.charpoly ~n d));
      ("structured.leverrier_s", per_call (fun () -> Lev.newton_identities ~n s));
      ("structured.gs_apply_s", per_call (fun () -> GS.apply ~x ~y v));
      ("poly.conv_karatsuba_s", per_call (fun () -> C.mul_full ca cb));
      ("poly.conv_ntt_s", per_call (fun () -> Ntt.mul_full ca cb));
      ("poly.conv_len", float_of_int (la + lb - 1));
    ]

(* ---- blackbox-512 layers ---- *)

let blackbox seed =
  let st = Kp_util.Rng.make seed in
  let n = 512 in
  let module M = Kp_matrix.Dense.Make (F) in
  let module P = Kp_core.Pipeline.Make (F) (C) in
  let module Pc = Kp_precond.Precond.Make (F) (C) in
  let module BW = Kp_core.Block_wiedemann.Make (F) (C) in
  let module BM = Kp_seqgen.Berlekamp_massey.Make (F) in
  let module MBM = Kp_seqgen.Matrix_bm.Make (F) in
  let b = BW.auto_block_factor ~n ~pool:None in
  let a = M.random st n n in
  let w = M.random st n b in
  let v = random_vec st n in
  let build kind = Pc.build ~charpoly:P.charpoly_leverrier ~card_s:p ~n kind st in
  let bf = build Kp_precond.Precond.Sparse_butterfly in
  let seq = random_vec st (2 * n) in
  let sigma = (2 * ((n + b - 1) / b)) + 3 in
  let mseq = Array.init sigma (fun _ -> random_vec st (b * b)) in
  let matvec_s = per_call (fun () -> M.matvec a v) in
  print_metrics
    [
      ("kernel.matvec_s", matvec_s);
      ("kernel.matmul_s", per_call (fun () -> M.mul a w));
      ("kernel.matmul_width", float_of_int b);
      (* computed, not measured: n² multiply-adds and 8-byte words of A
         plus the two vectors per matvec *)
      ("kernel.matvec_gops", float_of_int (n * n) /. matvec_s /. 1e9);
      ("kernel.matvec_bytes", float_of_int (8 * ((n * n) + (2 * n))));
      ("precond.hd_build_s",
        per_call (fun () -> (build Kp_precond.Precond.Dense_hd).dense ()));
      ("precond.butterfly_apply_s", per_call (fun () -> bf.apply v));
      ("precond.ops_per_apply", float_of_int (Lazy.force bf.ops_per_apply));
      ("seqgen.bm_s", per_call (fun () -> BM.minimal_polynomial seq));
      ("seqgen.matrix_bm_s", per_call (fun () -> MBM.minimal_generator ~b mseq));
    ]

(* ---- kp_serve Protocol on the workload's request lines ---- *)

let protocol path =
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  let ls = lines [] in
  let module Pr = Kp_serve.Protocol in
  let parse l =
    match Pr.parse_request ~max_n:512 l with
    | Ok r -> r
    | Error e -> failwith ("probe protocol: " ^ e.Pr.detail)
  in
  let reqs = List.map parse ls in
  let nl = float_of_int (List.length ls) in
  print_metrics
    [
      ("serve.parse_us",
        1e6 *. per_call (fun () -> List.iter (fun l -> ignore (parse l)) ls) /. nl);
      ("serve.render_us",
        1e6
        *. per_call (fun () -> List.iter (fun r -> ignore (Pr.render_request r)) reqs)
        /. nl);
    ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "refdet" :: files -> refdet files
  | [ _; "dense"; seed ] -> dense (int_of_string seed)
  | [ _; "blackbox"; seed ] -> blackbox (int_of_string seed)
  | [ _; "protocol"; path ] -> protocol path
  | _ ->
    prerr_endline "usage: probe refdet FILE... | dense SEED | blackbox SEED | protocol FILE";
    exit 2
