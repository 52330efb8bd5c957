(* 32-bit words keep the SWAR popcount inside OCaml's 63-bit ints, and a
   power-of-two word count per row turns every row/word address into a
   shift. *)
type t = {
  data : int array;
  wshift : int;  (* log2 of the words per row *)
  bits : int;
}

let word_bits = 32

let create ~rows ~bits =
  if bits <= 0 || bits land (bits - 1) <> 0 then
    invalid_arg (Printf.sprintf "Slot_mask.create: %d bits" bits);
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  let wshift = log2 (max 1 (bits / word_bits)) in
  { data = Array.make (rows lsl wshift) 0; wshift; bits }

let words t = 1 lsl t.wshift

(* Rows are a few words: plain loops beat the [Array.fill]/[Array.blit]
   runtime calls. *)
let clear t r =
  let base = r lsl t.wshift in
  for k = 0 to words t - 1 do
    t.data.(base + k) <- 0
  done

let add t r b =
  let i = (r lsl t.wshift) + (b lsr 5) in
  t.data.(i) <- t.data.(i) lor (1 lsl (b land 31))

let remove t r b =
  let i = (r lsl t.wshift) + (b lsr 5) in
  t.data.(i) <- t.data.(i) land lnot (1 lsl (b land 31))

let mem t r b = (t.data.((r lsl t.wshift) + (b lsr 5)) lsr (b land 31)) land 1 = 1

let union t ~dst ~src =
  let d = dst lsl t.wshift and s = src lsl t.wshift in
  for k = 0 to words t - 1 do
    t.data.(d + k) <- t.data.(d + k) lor t.data.(s + k)
  done

let copy t ~dst ~src =
  let d = dst lsl t.wshift and s = src lsl t.wshift in
  for k = 0 to words t - 1 do
    t.data.(d + k) <- t.data.(s + k)
  done

let is_empty t r =
  let base = r lsl t.wshift in
  let k = ref (words t - 1) in
  while !k >= 0 && t.data.(base + !k) = 0 do
    decr k
  done;
  !k < 0

let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let cardinal t r =
  let base = r lsl t.wshift in
  let n = ref 0 in
  for k = 0 to words t - 1 do
    n := !n + popcount32 t.data.(base + k)
  done;
  !n

(* Bit index of a one-bit 32-bit word: multiplying by the de Bruijn
   constant 0x077CB531 puts a distinct 5-bit pattern in bits 27..31 for
   each of the 32 positions (the product fits in OCaml's 63 bits). *)
let debruijn_pos =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let bit_index low = debruijn_pos.(((low * 0x077CB531) lsr 27) land 31)

(* Isolate the lowest set bit and look its position up, instead of
   shifting through the word one bit at a time. *)
let pop_min t r =
  let base = r lsl t.wshift in
  let n = words t in
  let k = ref 0 in
  while !k < n && t.data.(base + !k) = 0 do
    incr k
  done;
  if !k = n then -1
  else begin
    let i = base + !k in
    let w = t.data.(i) in
    let low = w land -w in
    t.data.(i) <- w lxor low;
    (!k * word_bits) + bit_index low
  end

(* The bits of [a, b) that fall in word [k]. *)
let span_word k a b =
  let lo = Int.max a (k * word_bits) and hi = Int.min b ((k + 1) * word_bits) in
  if lo >= hi then 0 else ((1 lsl (hi - lo)) - 1) lsl (lo - (k * word_bits))

let inter_range t r ~lo ~len =
  let base = r lsl t.wshift in
  let hi = lo + len in
  for k = 0 to words t - 1 do
    let keep = span_word k lo (Int.min hi t.bits) lor span_word k 0 (hi - t.bits) in
    t.data.(base + k) <- t.data.(base + k) land keep
  done
