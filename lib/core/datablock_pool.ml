type verdict =
  | Accepted
  | Duplicate
  | Equivocation of Datablock.t

type entry = { db : Datablock.t; mutable linked : bool }

type t = {
  by_hash : entry Crypto.Hash.Table.t;
  by_slot : (int * int, Crypto.Hash.t) Hashtbl.t; (* (creator, counter) -> hash *)
  pending : Crypto.Hash.t Queue.t;                (* arrival order, lazily cleaned *)
  mutable evidence : (Net.Node_id.t * Datablock.t * Datablock.t) list;
  mutable generation : int;  (* bumped by [prune], the only removal *)
}

let create () =
  { by_hash = Crypto.Hash.Table.create 256;
    by_slot = Hashtbl.create 256;
    pending = Queue.create ();
    evidence = [];
    generation = 0 }

let find t h =
  Option.map (fun e -> e.db) (Crypto.Hash.Table.find_opt t.by_hash h)

let mem t h = Crypto.Hash.Table.mem t.by_hash h

let add t db =
  let h = Datablock.hash db in
  let slot = (db.Datablock.header.creator, db.Datablock.header.counter) in
  match Hashtbl.find_opt t.by_slot slot with
  | Some h0 when Crypto.Hash.equal h0 h -> Duplicate
  | Some h0 ->
    let first =
      match Crypto.Hash.Table.find_opt t.by_hash h0 with
      | Some e -> e.db
      | None -> db (* first copy pruned *)
    in
    t.evidence <- (db.Datablock.header.creator, first, db) :: t.evidence;
    (* Store the conflicting variant too — as punishable evidence and so
       that a BFTblock linking it (the leader confirms whichever variant
       it received, §4.3 remark) can still be resolved — but never expose
       it to this replica's own proposal path. *)
    if not (Crypto.Hash.Table.mem t.by_hash h) then
      Crypto.Hash.Table.add t.by_hash h { db; linked = true };
    Equivocation first
  | None ->
    Hashtbl.add t.by_slot slot h;
    Crypto.Hash.Table.add t.by_hash h { db; linked = false };
    Queue.push h t.pending;
    Accepted

let missing_links t links = List.filter (fun h -> not (mem t h)) links

let rec has_all_links t = function
  | [] -> true
  | h :: rest -> mem t h && has_all_links t rest

(* Between two prunes the pool only grows, so a link once present stays
   present and the cursor never needs to look behind [unseen] again. *)
type cursor = {
  links : Crypto.Hash.t list;
  mutable unseen : Crypto.Hash.t list;  (* suffix of [links] from the first link not yet seen *)
  mutable seen_in : int;                (* the generation [unseen] was computed in *)
}

let cursor t links = { links; unseen = links; seen_in = t.generation }

let rec first_missing t = function
  | h :: rest when mem t h -> first_missing t rest
  | l -> l

let cursor_complete t c =
  if c.seen_in <> t.generation then begin
    c.unseen <- c.links;
    c.seen_in <- t.generation
  end;
  match c.unseen with
  | [] -> true
  | h :: _ when not (mem t h) -> false
  | l ->
    c.unseen <- first_missing t l;
    c.unseen = []

let rec drop_linked_head t =
  match Queue.peek_opt t.pending with
  | Some h ->
    (match Crypto.Hash.Table.find_opt t.by_hash h with
     | Some e when not e.linked -> ()
     | Some _ | None ->
       ignore (Queue.pop t.pending);
       drop_linked_head t)
  | None -> ()

let pending t =
  (* The queue may hold hashes already linked via [mark_linked]; count
     precisely (the queue is small: unlinked backlog plus stragglers). *)
  drop_linked_head t;
  Queue.fold
    (fun acc h ->
      match Crypto.Hash.Table.find_opt t.by_hash h with
      | Some e when not e.linked -> acc + 1
      | Some _ | None -> acc)
    0 t.pending

let take_pending t ~max =
  let rec go acc n =
    if n = 0 then List.rev acc
    else begin
      drop_linked_head t;
      match Queue.pop t.pending with
      | exception Queue.Empty -> List.rev acc
      | h ->
        (match Crypto.Hash.Table.find_opt t.by_hash h with
         | Some e when not e.linked ->
           e.linked <- true;
           go (e.db :: acc) (n - 1)
         | Some _ | None -> go acc n)
    end
  in
  go [] max

let mark_linked t h =
  match Crypto.Hash.Table.find_opt t.by_hash h with
  | Some e -> e.linked <- true
  | None -> ()

let relink_pending t ~keep_linked ~also_executed =
  Crypto.Hash.Table.iter
    (fun h e ->
      if e.linked && (not (Crypto.Hash.Set.mem h keep_linked)) && not (also_executed h) then begin
        e.linked <- false;
        Queue.push h t.pending
      end)
    t.by_hash

let fold t ~init ~f =
  Crypto.Hash.Table.fold (fun _ e acc -> f acc e.db ~linked:e.linked) t.by_hash init

let equivocations t = List.rev t.evidence
let size t = Crypto.Hash.Table.length t.by_hash

let prune t ~keep =
  t.generation <- t.generation + 1;
  let victims = ref [] in
  Crypto.Hash.Table.iter
    (fun h e -> if not (keep e.db) then victims := (h, e.db) :: !victims)
    t.by_hash;
  List.iter
    (fun (h, db) ->
      Crypto.Hash.Table.remove t.by_hash h;
      Hashtbl.remove t.by_slot (db.Datablock.header.creator, db.Datablock.header.counter))
    !victims
