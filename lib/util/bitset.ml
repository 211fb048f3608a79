(* 32 bits per array cell: [lsr 5]/[land 31] index math stays shift-based
   (an OCaml [int] cannot hold a full 64-bit mask), and every set
   operation is a short word loop instead of the byte-wise folds the
   first version used — the placement inner loop of the CAFT engine calls
   [disjoint]/[cardinal_union] once per candidate processor, so constant
   factors here are schedule-throughput critical. *)
type t = { n : int; words : int array }

let bits = 32
let nwords n = (n + bits - 1) / bits

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative universe";
  { n; words = Array.make (nwords n) 0 }

let copy t = { n = t.n; words = Array.copy t.words }

let check t i fn =
  if i < 0 || i >= t.n then invalid_arg ("Bitset." ^ fn ^ ": out of universe")

let add t i =
  check t i "add";
  let w = i lsr 5 in
  t.words.(w) <- t.words.(w) lor (1 lsl (i land 31))

let mem t i =
  check t i "mem";
  t.words.(i lsr 5) land (1 lsl (i land 31)) <> 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let singleton n i =
  let t = create n in
  add t i;
  t

let same_universe a b fn =
  if a.n <> b.n then invalid_arg ("Bitset." ^ fn ^ ": universe mismatch")

let union_into ~into s =
  same_universe into s "union_into";
  let iw = into.words and sw = s.words in
  for i = 0 to Array.length iw - 1 do
    Array.unsafe_set iw i (Array.unsafe_get iw i lor Array.unsafe_get sw i)
  done

let union a b =
  same_universe a b "union";
  let r = copy a in
  union_into ~into:r b;
  r

(* Plain loops with a mutable cursor: without flambda, a local recursive
   [go] closes over the arrays and is allocated on every call. *)
let disjoint a b =
  same_universe a b "disjoint";
  let aw = a.words and bw = b.words in
  let n = Array.length aw in
  let i = ref 0 in
  while !i < n && Array.unsafe_get aw !i land Array.unsafe_get bw !i = 0 do
    incr i
  done;
  !i >= n

let subset a b =
  same_universe a b "subset";
  let aw = a.words and bw = b.words in
  let n = Array.length aw in
  let i = ref 0 in
  while
    !i < n && Array.unsafe_get aw !i land lnot (Array.unsafe_get bw !i) = 0
  do
    incr i
  done;
  !i >= n

(* 16-bit popcount table: two lookups per 32-bit word *)
let pop16 =
  let tbl = Bytes.make 65536 '\000' in
  for i = 1 to 65535 do
    Bytes.unsafe_set tbl i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get tbl (i lsr 1)) + (i land 1)))
  done;
  tbl

let popcount_word w =
  Char.code (Bytes.unsafe_get pop16 (w land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 16) land 0xffff))

let cardinal t =
  let w = t.words in
  let acc = ref 0 in
  for i = 0 to Array.length w - 1 do
    acc := !acc + popcount_word (Array.unsafe_get w i)
  done;
  !acc

let cardinal_union a b =
  same_universe a b "cardinal_union";
  let aw = a.words and bw = b.words in
  let acc = ref 0 in
  for i = 0 to Array.length aw - 1 do
    acc :=
      !acc + popcount_word (Array.unsafe_get aw i lor Array.unsafe_get bw i)
  done;
  !acc

let equal_singleton t i =
  check t i "equal_singleton";
  let w = i lsr 5 and bit = 1 lsl (i land 31) in
  let words = t.words in
  let n = Array.length words in
  let k = ref 0 in
  while !k < n && words.(!k) = (if !k = w then bit else 0) do
    incr k
  done;
  !k >= n

let iter f t =
  for i = 0 to t.n - 1 do
    if mem t i then f i
  done

let elements t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if mem t i then acc := i :: !acc
  done;
  !acc

let complement_elements t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if not (mem t i) then acc := i :: !acc
  done;
  !acc

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (elements t)))
