module Pool = Kp_util.Pool

module type S = sig
  type elt

  val mul_full : elt array -> elt array -> elt array
  val mul_full_pool : Pool.t option -> elt array -> elt array -> elt array
end

(* Per-layer pool telemetry: one tick per product that actually engaged the
   pool (small products run sequentially regardless). *)
let c_pool_karatsuba = Kp_obs.Counter.make "pool.conv.karatsuba"
let c_pool_ntt = Kp_obs.Counter.make "pool.conv.ntt"

(* Which family produced each product: one tick per [mul_full] or
   [mul_full_pool] call, wherever it is routed. *)
let c_karatsuba = Kp_obs.Counter.make "conv.karatsuba"
let c_ntt = Kp_obs.Counter.make "conv.ntt"

module Karatsuba_k
    (F : Kp_field.Field_intf.FIELD_CORE)
    (K : Kp_kernel.Kernel_intf.KERNEL with type t = F.t) =
struct
  type elt = F.t

  module Ser = Series.Make_k (F) (K)

  let mul_full a b =
    Kp_obs.Counter.incr c_karatsuba;
    Ser.mul_full a b

  (* Below this operand length the region bookkeeping costs more than the
     leaf products; the recursion halves lengths, so forking stops well
     above the dense-leaf threshold. *)
  let fork_width = 256

  let mul_full_pool pool a b =
    match pool with
    | Some pool
      when Pool.size pool > 1
           && Array.length a >= fork_width
           && Array.length b >= fork_width ->
      Kp_obs.Counter.incr c_karatsuba;
      Kp_obs.Counter.incr c_pool_karatsuba;
      Ser.mul_full_fork ~fork:(Pool.region_run pool) ~fork_width a b
    | _ -> mul_full a b
end

module Karatsuba (F : Kp_field.Field_intf.FIELD_CORE) =
  Karatsuba_k (F) (Kp_kernel.Derived.Make (F))

module Karatsuba_field (F : Kp_field.Field_intf.FIELD) =
  Karatsuba_k (F) (Kp_kernel.Dispatch.Make (F))

module type NTT_PRIME = sig
  val p : int
  val root : int
  val max_log2 : int
end

module Default_ntt_prime = struct
  let p = 998_244_353
  let root = 3
  let max_log2 = 23
end

module Ntt_generic_k
    (F : Kp_field.Field_intf.FIELD_CORE)
    (K : Kp_kernel.Kernel_intf.KERNEL with type t = F.t)
    (P : NTT_PRIME) =
struct
  type elt = F.t

  module Fallback = Karatsuba_k (F) (K)

  (* integer plan arithmetic *)
  let pow_mod b e =
    let p = P.p in
    let rec go acc b e =
      if e = 0 then acc
      else go (if e land 1 = 1 then acc * b mod p else acc) (b * b mod p) (e lsr 1)
    in
    go 1 (b mod p) e

  let inv_mod a = pow_mod a (P.p - 2)

  (* cache of lifted root tables per transform length; guarded so pooled
     transforms from several domains cannot race the hashtable.  Bounded:
     a long-running process convolving at many distinct lengths would
     otherwise retain one O(len) table pair per length forever, so past
     [max_root_tables] lengths the least-recently-used table is dropped
     (callers holding its arrays keep them alive; eviction only forgets
     the cache's reference, results are unchanged). *)
  let max_root_tables = 8
  let root_tables : (int, int ref * F.t array * F.t array) Hashtbl.t =
    Hashtbl.create 8
  let root_tables_mutex = Mutex.create ()
  let root_stamp = ref 0

  let root_tables_cached () =
    Mutex.lock root_tables_mutex;
    let n = Hashtbl.length root_tables in
    Mutex.unlock root_tables_mutex;
    n

  let roots_for len =
    Mutex.lock root_tables_mutex;
    incr root_stamp;
    let r =
      match Hashtbl.find_opt root_tables len with
      | Some (stamp, fwd, bwd) ->
        stamp := !root_stamp;
        (fwd, bwd)
      | None ->
        (* forward and inverse roots for each butterfly level, lifted once *)
        let fwd = Array.make len F.one and bwd = Array.make len F.one in
        let w = pow_mod P.root ((P.p - 1) / len) in
        let wi = inv_mod w in
        let cur_f = ref 1 and cur_b = ref 1 in
        for i = 0 to len - 1 do
          fwd.(i) <- F.of_int !cur_f;
          bwd.(i) <- F.of_int !cur_b;
          cur_f := !cur_f * w mod P.p;
          cur_b := !cur_b * wi mod P.p
        done;
        if Hashtbl.length root_tables >= max_root_tables then begin
          let victim = ref None in
          Hashtbl.iter
            (fun l (stamp, _, _) ->
              match !victim with
              | Some (_, best) when best <= !stamp -> ()
              | _ -> victim := Some (l, !stamp))
            root_tables;
          match !victim with
          | Some (l, _) -> Hashtbl.remove root_tables l
          | None -> ()
        end;
        Hashtbl.replace root_tables len (ref !root_stamp, fwd, bwd);
        (fwd, bwd)
    in
    Mutex.unlock root_tables_mutex;
    r

  (* A transform shorter than this runs sequentially even with a pool: one
     butterfly level is ~n/2 multiplies, too little to amortize a region. *)
  let pool_width = 1 lsl 12

  (* One butterfly level is a data-parallel loop over n/2 independent
     (u, v) pairs, executed as three bulk kernel passes per block:
     v = a_hi ⊙ roots into a scratch slice, then a_hi = a_lo - v and
     a_lo = a_lo + v.  Block [blk] owns the scratch slice at [blk·half], so
     any partition of the blocks (or of the k-range inside the single
     topmost block) is race-free, and every pair is touched by exactly one
     chunk — values are identical to the sequential schedule. *)
  let transform ?pool (a : F.t array) ~inverse =
    let n = Array.length a in
    let pool =
      match pool with
      | Some p when n >= pool_width && Pool.size p > 1 -> Some p
      | _ -> None
    in
    if pool <> None then Kp_obs.Counter.incr c_pool_ntt;
    let j = ref 0 in
    for i = 1 to n - 1 do
      let bit = ref (n lsr 1) in
      while !j land !bit <> 0 do
        j := !j lxor !bit;
        bit := !bit lsr 1
      done;
      j := !j lor !bit;
      if i < !j then begin
        let t = a.(i) in
        a.(i) <- a.(!j);
        a.(!j) <- t
      end
    done;
    let vbuf = Array.make (n lsr 1) F.zero in
    let len = ref 2 in
    while !len <= n do
      let fwd, bwd = roots_for !len in
      let roots = if inverse then bwd else fwd in
      let half = !len lsr 1 in
      let nblocks = n / !len in
      let do_block blk =
        let i = blk * !len in
        let vo = blk * half in
        K.pointwise_mul_into ~x:a ~xoff:(i + half) ~y:roots ~yoff:0 ~dst:vbuf
          ~doff:vo ~len:half;
        K.sub_into ~x:a ~xoff:i ~y:vbuf ~yoff:vo ~dst:a ~doff:(i + half)
          ~len:half;
        K.add_into ~x:a ~xoff:i ~y:vbuf ~yoff:vo ~dst:a ~doff:i ~len:half
      in
      (match pool with
      | Some p when nblocks >= 2 ->
        Pool.parallel_for_chunked p ~lo:0 ~hi:nblocks
          ~chunk:(max 1 (nblocks / (4 * Pool.size p)))
          (fun bl bh ->
            for blk = bl to bh - 1 do
              do_block blk
            done)
      | Some p ->
        (* single block spanning the whole array: split the k-range *)
        Pool.parallel_for_chunked p ~lo:0 ~hi:half
          ~chunk:(max 1024 (half / (4 * Pool.size p)))
          (fun kl kh ->
            let w = kh - kl in
            K.pointwise_mul_into ~x:a ~xoff:(half + kl) ~y:roots ~yoff:kl
              ~dst:vbuf ~doff:kl ~len:w;
            K.sub_into ~x:a ~xoff:kl ~y:vbuf ~yoff:kl ~dst:a ~doff:(half + kl)
              ~len:w;
            K.add_into ~x:a ~xoff:kl ~y:vbuf ~yoff:kl ~dst:a ~doff:kl ~len:w)
      | None ->
        for blk = 0 to nblocks - 1 do
          do_block blk
        done);
      len := !len lsl 1
    done;
    if inverse then begin
      let ninv = F.of_int (inv_mod n) in
      match pool with
      | Some p ->
        Pool.parallel_for_chunked p ~lo:0 ~hi:n
          ~chunk:(max 1024 (n / (4 * Pool.size p)))
          (fun cl ch ->
            K.scale_into ~a:ninv ~x:a ~xoff:cl ~dst:a ~doff:cl ~len:(ch - cl))
      | None -> K.scale_into ~a:ninv ~x:a ~xoff:0 ~dst:a ~doff:0 ~len:n
    end

  let mul_full_pool pool a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then [||]
    else begin
      let out_len = la + lb - 1 in
      let size = ref 1 in
      while !size < out_len do
        size := !size lsl 1
      done;
      if !size > 1 lsl P.max_log2 then Fallback.mul_full_pool pool a b
      else begin
        Kp_obs.Counter.incr c_ntt;
        let pad v =
          Array.init !size (fun i -> if i < Array.length v then v.(i) else F.zero)
        in
        let fa = pad a and fb = pad b in
        transform ?pool fa ~inverse:false;
        transform ?pool fb ~inverse:false;
        (match pool with
        | Some p when !size >= pool_width && Pool.size p > 1 ->
          Pool.parallel_for_chunked p ~lo:0 ~hi:!size
            ~chunk:(max 1024 (!size / (4 * Pool.size p)))
            (fun cl ch ->
              K.pointwise_mul_into ~x:fa ~xoff:cl ~y:fb ~yoff:cl ~dst:fa
                ~doff:cl ~len:(ch - cl))
        | _ ->
          K.pointwise_mul_into ~x:fa ~xoff:0 ~y:fb ~yoff:0 ~dst:fa ~doff:0
            ~len:!size);
        transform ?pool fa ~inverse:true;
        Array.sub fa 0 out_len
      end
    end

  let mul_full a b = mul_full_pool None a b
end

module Ntt_generic (F : Kp_field.Field_intf.FIELD_CORE) (P : NTT_PRIME) =
  Ntt_generic_k (F) (Kp_kernel.Derived.Make (F)) (P)

(* The word route: [Some (engine, mul)] when the hint says elements are
   canonical GF(p) residues in an [int] ([a = int] in that branch), [mul]
   being the word NTT product on them. *)
let word_ntt : type a.
    a Kp_field.Field_intf.kernel_hint ->
    (Ntt.t * (Pool.t option -> a array -> a array -> a array)) option =
  function
  | Kp_field.Field_intf.Gfp_word { p } ->
    let e = Ntt.create p in
    Some (e, fun pool a b -> Ntt.convolution ?pool e a b)
  | _ -> None

module For_field (F : Kp_field.Field_intf.FIELD) = struct
  type elt = F.t

  module Fallback = Karatsuba_field (F)

  let word = word_ntt F.kernel_hint
  let ntt_max_log2 = Option.map (fun (e, _) -> Ntt.max_log2 e) word

  let uses_ntt len =
    match word with Some (e, _) -> Ntt.fits e len | None -> false

  let name =
    match ntt_max_log2 with
    | Some k ->
      Printf.sprintf
        "word NTT for products of length <= 2^%d (2-adic limit, v2(p-1) = \
         %d), Karatsuba beyond"
        k k
    | None -> "Karatsuba (no word-level NTT for this representation)"

  let twiddles_held () =
    match word with Some (e, _) -> Ntt.table_size e | None -> 0

  let mul_full_pool pool a b =
    match word with
    | Some (e, mul) when Ntt.fits e (Array.length a + Array.length b - 1) ->
      Kp_obs.Counter.incr c_ntt;
      mul pool a b
    | _ -> Fallback.mul_full_pool pool a b

  let mul_full a b = mul_full_pool None a b
end

module Ntt_field (F : Kp_field.Field_intf.FIELD) (P : NTT_PRIME) = struct
  module G = Ntt_generic_k (F) (Kp_kernel.Dispatch.Make (F)) (P)
  module W = For_field (F)

  type elt = F.t

  let mul_full_pool =
    if Option.is_some W.ntt_max_log2 then W.mul_full_pool else G.mul_full_pool

  let mul_full a b = mul_full_pool None a b
  let root_tables_cached = G.root_tables_cached
end
