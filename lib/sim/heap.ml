(* Structure-of-arrays binary min-heap.

   Each logical field lives in its own flat array: the key (an int
   nanosecond timestamp), the tie-breaking sequence number and the value.
   Insertion allocates nothing beyond amortized array growth, and
   comparisons are plain int operations on immediate values. The int64
   API is a thin wrapper for callers (tests) that think in int64 keys; it
   requires each key to fit an OCaml int.

   Values are stored as [Obj.t] so the slot array is a uniform (never
   flat-float) array with a shared filler; a popped entry's slot is reset
   to the filler immediately, so the heap retains no reference to values
   it no longer contains. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : Obj.t array;
  mutable size : int;
}

let filler : Obj.t = Obj.repr 0

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.seqs in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nkeys = Array.make ncap 0
    and nseqs = Array.make ncap 0
    and nvals = Array.make ncap filler in
    Array.blit h.keys 0 nkeys 0 h.size;
    Array.blit h.seqs 0 nseqs 0 h.size;
    Array.blit h.vals 0 nvals 0 h.size;
    h.keys <- nkeys;
    h.seqs <- nseqs;
    h.vals <- nvals
  end

(* Hole-based sift: carry the moving entry in locals and shift blockers
   into the hole, writing each array once per level instead of swapping. *)

let set h i key seq v =
  h.keys.(i) <- key;
  h.seqs.(i) <- seq;
  h.vals.(i) <- v

let sift_up h i key seq v =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pkey = h.keys.(p) in
    if key < pkey || (key = pkey && seq < h.seqs.(p)) then begin
      set h !i pkey h.seqs.(p) h.vals.(p);
      i := p
    end
    else continue := false
  done;
  set h !i key seq v

let sift_down h key seq v =
  let size = h.size in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      (* smallest child *)
      let c =
        if r < size then begin
          let lkey = h.keys.(l) and rkey = h.keys.(r) in
          if rkey < lkey || (rkey = lkey && h.seqs.(r) < h.seqs.(l)) then r else l
        end
        else l
      in
      let ckey = h.keys.(c) in
      if ckey < key || (ckey = key && h.seqs.(c) < seq) then begin
        set h !i ckey h.seqs.(c) h.vals.(c);
        i := c
      end
      else continue := false
    end
  done;
  set h !i key seq v

let add_ns h ~key_ns ~seq value =
  grow h;
  let i = h.size in
  h.size <- i + 1;
  sift_up h i key_ns seq (Obj.repr value)

let add h ~key ~seq value =
  let key_ns = Int64.to_int key in
  if not (Int64.equal (Int64.of_int key_ns) key) then
    invalid_arg "Heap.add: key does not fit an int";
  add_ns h ~key_ns ~seq value

let pop_at_root h =
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    let key = h.keys.(last) and seq = h.seqs.(last) and v = h.vals.(last) in
    h.vals.(last) <- filler;
    sift_down h key seq v
  end
  else h.vals.(0) <- filler

let peek_key_ns h = h.keys.(0)
let peek_seq h = h.seqs.(0)

let peek_min h =
  if h.size = 0 then None
  else Some (Int64.of_int h.keys.(0), h.seqs.(0), (Obj.obj h.vals.(0) : 'a))

let pop_value h =
  let value : 'a = Obj.obj h.vals.(0) in
  pop_at_root h;
  value

let pop_min h =
  match peek_min h with
  | None -> None
  | some ->
    pop_at_root h;
    some

let clear h =
  h.keys <- [||];
  h.seqs <- [||];
  h.vals <- [||];
  h.size <- 0
