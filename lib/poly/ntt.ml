module Pool = Kp_util.Pool

(* Shoup multiplication by a fixed twiddle w with quotient ws = ⌊w·2³⁰/p⌋:
   for x < 2³⁰, q = ⌊ws·x/2³⁰⌋ undershoots ⌊w·x/p⌋ by at most one, so
   w·x − q·p lies in [0, 2p) and one conditional subtraction reduces it.
   Every product stays below 2⁶⁰. *)
let shoup_bits = 30

let shoup p w = (w lsl shoup_bits) / p

let[@inline] mul_shoup p w ws x =
  let r = (w * x) - (((ws * x) lsr shoup_bits) * p) in
  if r >= p then r - p else r

let pow_mod p b e =
  let rec go acc b e =
    if e = 0 then acc
    else go (if e land 1 = 1 then acc * b mod p else acc) (b * b mod p) (e lsr 1)
  in
  go 1 (b mod p) e

let two_adicity p =
  let rec go k m = if m land 1 = 1 then k else go (k + 1) (m lsr 1) in
  go 0 (p - 1)

(* The twiddle table, level-indexed: for every level h = 1, 2, 4, … < size,
   [w.(h + j)] = ω_{2h}^j for 0 ≤ j < h, where ω_{2h} is a primitive
   2h-th root of unity, and [ws] holds the Shoup quotients.  A transform of
   length n ≤ size reads levels 1 … n/2, so one table serves every size;
   growing it to a larger size only appends levels. *)
type table = { size : int; omega : int; w : int array; ws : int array }

type t = {
  p : int;
  max_log2 : int;
  table : table Atomic.t;
  grow_lock : Mutex.t;
}

let empty = { size = 1; omega = 0; w = [||]; ws = [||] }

let create p =
  if p < 2 || p >= 1 lsl 30 then invalid_arg "Ntt.create: need 2 <= p < 2^30";
  { p; max_log2 = two_adicity p; table = Atomic.make empty;
    grow_lock = Mutex.create () }

let prime t = t.p
let max_log2 t = t.max_log2
let table_size t = Array.length (Atomic.get t.table).w

let transform_size len =
  let rec go s = if s >= len then s else go (s lsl 1) in
  go 1

let fits t len = transform_size len <= 1 lsl t.max_log2

(* ω of order 2^max_log2: g^((p−1)/2^k) for a quadratic non-residue g
   (Euler: g^((p−1)/2) = −1), so its order is exactly 2^k.  For k = 0 no
   root is needed: the only transform is the identity of length 1. *)
let primitive_root t =
  if t.max_log2 = 0 then 1
  else begin
    let rec qnr g = if pow_mod t.p g ((t.p - 1) / 2) = t.p - 1 then g else qnr (g + 1) in
    pow_mod t.p (qnr 2) ((t.p - 1) lsr t.max_log2)
  end

(* Readers take the published table with one atomic load and never lock;
   growth is serialised, copies the levels already built, appends the new
   ones and publishes the whole table at once.  A table is never mutated
   after publication, so a reader holding an older one stays correct. *)
let table_for t n =
  let tb = Atomic.get t.table in
  if tb.size >= n then tb
  else begin
    Mutex.lock t.grow_lock;
    let tb = Atomic.get t.table in
    let tb =
      if tb.size >= n then tb
      else begin
        let p = t.p in
        let omega = if tb.omega = 0 then primitive_root t else tb.omega in
        let w = Array.make n 0 and ws = Array.make n 0 in
        Array.blit tb.w 0 w 0 (Array.length tb.w);
        Array.blit tb.ws 0 ws 0 (Array.length tb.ws);
        let h = ref tb.size in
        while !h < n do
          (* ω_{2h} = ω^(2^k / 2h) *)
          let step = pow_mod p omega ((1 lsl t.max_log2) / (2 * !h)) in
          let cur = ref 1 in
          for j = 0 to !h - 1 do
            w.(!h + j) <- !cur;
            ws.(!h + j) <- shoup p !cur;
            cur := !cur * step mod p
          done;
          h := 2 * !h
        done;
        let tb = { size = n; omega; w; ws } in
        Atomic.set t.table tb;
        tb
      end
    in
    Mutex.unlock t.grow_lock;
    tb
  end

let c_pool_ntt = Kp_obs.Counter.make "pool.conv.ntt"

(* below this length a transform runs sequentially even with a pool *)
let pool_width = 1 lsl 12

let bit_reverse a n =
  let j = ref 0 in
  for i = 1 to n - 1 do
    let bit = ref (n lsr 1) in
    while !j land !bit <> 0 do
      j := !j lxor !bit;
      bit := !bit lsr 1
    done;
    j := !j lor !bit;
    if i < !j then begin
      let x = a.(i) in
      a.(i) <- a.(!j);
      a.(!j) <- x
    end
  done

(* One level of half-width h, restricted to blocks [bl, bh) and to
   butterfly offsets [jl, jh): the twiddle ω_{2h}^j is loaded once per j and
   swept across the blocks.  j = 0 has ω⁰ = 1, where both decimations are
   the plain (u, v) ← (u + v, u − v). *)
let unit_twiddle p a ~h ~bl ~bh =
  let len = 2 * h in
  let k = ref (bl * len) in
  for _ = bl to bh - 1 do
    let u = Array.unsafe_get a !k and v = Array.unsafe_get a (!k + h) in
    let s = u + v and d = u - v in
    Array.unsafe_set a !k (if s >= p then s - p else s);
    Array.unsafe_set a (!k + h) (if d < 0 then d + p else d);
    k := !k + len
  done

(* Decimation in time: (u, v) ← (u + ω·v, u − ω·v). *)
let dit_range p (tb : table) a ~h ~bl ~bh ~jl ~jh =
  let len = 2 * h in
  if jl = 0 then unit_twiddle p a ~h ~bl ~bh;
  for j = max jl 1 to jh - 1 do
    let w = Array.unsafe_get tb.w (h + j) and ws = Array.unsafe_get tb.ws (h + j) in
    let k = ref ((bl * len) + j) in
    for _ = bl to bh - 1 do
      let u = Array.unsafe_get a !k in
      let v = mul_shoup p w ws (Array.unsafe_get a (!k + h)) in
      let s = u + v and d = u - v in
      Array.unsafe_set a !k (if s >= p then s - p else s);
      Array.unsafe_set a (!k + h) (if d < 0 then d + p else d);
      k := !k + len
    done
  done

(* Decimation in frequency: (u, v) ← (u + v, ω·(u − v)). *)
let dif_range p (tb : table) a ~h ~bl ~bh ~jl ~jh =
  let len = 2 * h in
  if jl = 0 then unit_twiddle p a ~h ~bl ~bh;
  for j = max jl 1 to jh - 1 do
    let w = Array.unsafe_get tb.w (h + j) and ws = Array.unsafe_get tb.ws (h + j) in
    let k = ref ((bl * len) + j) in
    for _ = bl to bh - 1 do
      let u = Array.unsafe_get a !k and v = Array.unsafe_get a (!k + h) in
      let s = u + v and d = u - v in
      Array.unsafe_set a !k (if s >= p then s - p else s);
      Array.unsafe_set a (!k + h) (mul_shoup p w ws (if d < 0 then d + p else d));
      k := !k + len
    done
  done

(* Every butterfly of a level touches a disjoint index pair, so splitting a
   level by blocks (or, when one block spans the array, by j) cannot change
   any value. *)
let level range ?pool p tb a n h =
  let nblocks = n / (2 * h) in
  match pool with
  | Some pl when nblocks >= 2 ->
    Pool.parallel_for_chunked pl ~lo:0 ~hi:nblocks
      ~chunk:(max 1 (nblocks / (4 * Pool.size pl)))
      (fun bl bh -> range p tb a ~h ~bl ~bh ~jl:0 ~jh:h)
  | Some pl ->
    Pool.parallel_for_chunked pl ~lo:0 ~hi:h
      ~chunk:(max 1024 (h / (4 * Pool.size pl)))
      (fun jl jh -> range p tb a ~h ~bl:0 ~bh:1 ~jl ~jh)
  | None -> range p tb a ~h ~bl:0 ~bh:nblocks ~jl:0 ~jh:h

let engage ?pool n =
  match pool with
  | Some pl when n >= pool_width && Pool.size pl > 1 ->
    Kp_obs.Counter.incr c_pool_ntt;
    Some pl
  | _ -> None

let check_length t n =
  if n land (n - 1) <> 0 || n = 0 then
    invalid_arg "Ntt.transform: length not a power of two";
  if n > 1 lsl t.max_log2 then invalid_arg "Ntt.transform: length too large"

(* n divides p − 1, so n·((p − 1)/n) = −1 and n⁻¹ = p − (p − 1)/n *)
let inv_length p n = p - ((p - 1) / n)

(* natural order in, bit-reversed out *)
let dif ?pool t a =
  let n = Array.length a in
  let pool = engage ?pool n and tb = table_for t n in
  let h = ref (n / 2) in
  while !h >= 1 do
    level dif_range ?pool t.p tb a n !h;
    h := !h / 2
  done

(* bit-reversed in, natural order out: DIT(bitrev(x)) = DFT(x) *)
let dit ?pool t a =
  let n = Array.length a in
  let pool = engage ?pool n and tb = table_for t n in
  let h = ref 1 in
  while !h < n do
    level dit_range ?pool t.p tb a n !h;
    h := 2 * !h
  done

(* The inverse reuses the forward table: DFT⁻¹(a)_k = n⁻¹·DFT(a)_{−k mod n},
   so a forward pass, a reversal of a.(1 … n−1) and one scaling. *)
let transform ?pool t a ~inverse =
  let n = Array.length a in
  check_length t n;
  if n > 1 then begin
    bit_reverse a n;
    dit ?pool t a;
    if inverse then begin
      let p = t.p in
      for i = 1 to (n - 1) / 2 do
        let x = a.(i) in
        a.(i) <- a.(n - i);
        a.(n - i) <- x
      done;
      let ninv = inv_length p n in
      let ninv_s = shoup p ninv in
      for i = 0 to n - 1 do
        a.(i) <- mul_shoup p ninv ninv_s a.(i)
      done
    end
  end

(* No bit reversal anywhere: DIF leaves both spectra in the same
   bit-reversed order, the pointwise product (scaled by n⁻¹) keeps it, and
   DIT of that is n⁻¹·DFT(DFT(c)) = c_{−k mod n} in natural order. *)
let convolution ?pool t a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out_len = la + lb - 1 in
    let n = transform_size out_len in
    if n > 1 lsl t.max_log2 then invalid_arg "Ntt.convolution: product too long";
    let p = t.p in
    let fa = Array.make n 0 and fb = Array.make n 0 in
    Array.blit a 0 fa 0 la;
    Array.blit b 0 fb 0 lb;
    dif ?pool t fa;
    dif ?pool t fb;
    let ninv = inv_length p n in
    let ninv_s = shoup p ninv in
    for i = 0 to n - 1 do
      fa.(i) <- mul_shoup p ninv ninv_s (fa.(i) * fb.(i) mod p)
    done;
    dit ?pool t fa;
    Array.init out_len (fun k -> if k = 0 then fa.(0) else fa.(n - k))
  end
