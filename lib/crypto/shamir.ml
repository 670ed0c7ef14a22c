type share = { index : int; value : Field.t }

let eval_poly coeffs x =
  (* Horner, highest coefficient first. *)
  Array.fold_left (fun acc c -> Field.add (Field.mul acc x) c) Field.zero coeffs

let deal rng ~secret ~threshold ~parties =
  assert (0 <= threshold && threshold < parties);
  let coeffs = Array.init (threshold + 1) (fun _ -> Field.random rng) in
  coeffs.(threshold) <- secret;
  (* constant term *)
  Array.init parties (fun i ->
      let index = i + 1 in
      { index; value = eval_poly coeffs (Field.of_int index) })

let lagrange_coefficient ~at ~indices i =
  let xi = Field.of_int i in
  List.fold_left
    (fun acc j ->
      if j = i then acc
      else
        let xj = Field.of_int j in
        Field.mul acc (Field.div (Field.sub at xj) (Field.sub xi xj)))
    Field.one indices

(* Lagrange interpolation at 0: secret = sum_i v_i * num_i / den_i with
   num_i = prod_{j<>i} (0 - x_j) and den_i = prod_{j<>i} (x_i - x_j).
   Dividing pairwise, as [lagrange_coefficient] does, costs k(k-1) Fermat
   inversions; here all k denominators are inverted with one inversion
   (Montgomery's batch trick: invert the running product, then peel one
   factor off per step), so a combine is O(k^2) multiplications. *)
let reconstruct shares =
  assert (shares <> []);
  let indices = List.map (fun s -> s.index) shares in
  let distinct = List.sort_uniq Int.compare indices in
  assert (List.length distinct = List.length indices);
  let xs = Array.of_list (List.map Field.of_int indices) in
  let vs = Array.of_list (List.map (fun s -> s.value) shares) in
  let k = Array.length xs in
  (* num.(i) from prefix and suffix products of the (0 - x_j). *)
  let num = Array.make k Field.one in
  let acc = ref Field.one in
  for i = 0 to k - 1 do
    num.(i) <- !acc;
    acc := Field.mul !acc (Field.neg xs.(i))
  done;
  acc := Field.one;
  for i = k - 1 downto 0 do
    num.(i) <- Field.mul num.(i) !acc;
    acc := Field.mul !acc (Field.neg xs.(i))
  done;
  let den =
    Array.init k (fun i ->
        let d = ref Field.one in
        for j = 0 to k - 1 do
          if j <> i then d := Field.mul !d (Field.sub xs.(i) xs.(j))
        done;
        !d)
  in
  (* prefix.(i) = den.(0) * ... * den.(i - 1) *)
  let prefix = Array.make k Field.one in
  for i = 1 to k - 1 do
    prefix.(i) <- Field.mul prefix.(i - 1) den.(i - 1)
  done;
  (* [inv_upto] is the inverse of den.(0) * ... * den.(i) at step i. *)
  let inv_upto = ref (Field.inv (Field.mul prefix.(k - 1) den.(k - 1))) in
  let sum = ref Field.zero in
  for i = k - 1 downto 0 do
    let inv_den = Field.mul !inv_upto prefix.(i) in
    inv_upto := Field.mul !inv_upto den.(i);
    sum := Field.add !sum (Field.mul (Field.mul num.(i) inv_den) vs.(i))
  done;
  !sum
