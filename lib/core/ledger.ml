type t = {
  blocks : (int, Bftblock.t) Hashtbl.t;
  mutable executed : int;
  mutable confirmed_count : int;
  mutable highest : int;
}

let create () = { blocks = Hashtbl.create 64; executed = 0; confirmed_count = 0; highest = 0 }

let confirm t (b : Bftblock.t) =
  if not (Hashtbl.mem t.blocks b.sn) then begin
    Hashtbl.add t.blocks b.sn b;
    t.confirmed_count <- t.confirmed_count + 1;
    if b.sn > t.highest then t.highest <- b.sn
  end

let is_confirmed t sn = Hashtbl.mem t.blocks sn
let get t sn = Hashtbl.find_opt t.blocks sn
let executed_up_to t = t.executed
let next_executable t = Hashtbl.find_opt t.blocks (t.executed + 1)

let mark_executed t sn =
  assert (sn = t.executed + 1);
  t.executed <- sn

let fast_forward t sn = if sn > t.executed then t.executed <- sn

let confirmed_count t = t.confirmed_count
let highest_confirmed t = t.highest

let blocks t =
  Hashtbl.fold (fun _ b acc -> b :: acc) t.blocks []
  |> List.sort (fun (a : Bftblock.t) (b : Bftblock.t) -> compare a.sn b.sn)

let executed_range t ~from_ =
  let rec go sn acc =
    if sn > t.executed then List.rev acc
    else
      match Hashtbl.find_opt t.blocks sn with
      | Some b -> go (sn + 1) ((sn, b) :: acc)
      | None -> go (sn + 1) acc
  in
  go (from_ + 1) []

let prune_below t sn =
  let victims = Hashtbl.fold (fun k _ acc -> if k <= sn then k :: acc else acc) t.blocks [] in
  List.iter (Hashtbl.remove t.blocks) victims

let agree l1 l2 =
  let upto = min l1.executed l2.executed in
  let rec go sn =
    sn > upto
    ||
    match (get l1 sn, get l2 sn) with
    | Some a, Some b -> Bftblock.equal_content a b && go (sn + 1)
    | _ -> go (sn + 1) (* pruned below a checkpoint: vacuously fine *)
  in
  go 1
