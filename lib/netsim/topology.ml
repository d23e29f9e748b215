module Int_tbl = Hashtbl.Make (Int)

(* A cached (group, src) distribution tree as dense tables indexed by
   node id: the child links to send on, in tree order, and a membership
   byte.  The tables cover every node that existed when the tree was
   built; adding a node invalidates every tree. *)
type tree = {
  children : Link.t array array;  (* [||] off the tree and at leaves *)
  member : Bytes.t;  (* '\001' for members of the group *)
}

(* A cached route toward one destination, as dense tables indexed by
   node id: [parent.(v)] is the next node from v toward the destination
   and [next_hop.(v)] the link from v to it ([-1] and [None] at the
   destination and at unreachable nodes).  The options are built once
   with the table, so a routed hop reads two arrays and allocates
   nothing.  The tables cover every node that existed when the route
   was built; adding a node or a link invalidates every route. *)
type route = {
  parent : int array;
  next_hop : Link.t option array;
}

type t = {
  engine : Engine.t;
  mutable nodes : Node.t array;
  mutable node_count : int;
  (* adjacency.(id) = (neighbor id, outgoing link) in insertion order *)
  mutable adjacency : (int * Link.t) list array;
  links : (int * int, Link.t) Hashtbl.t;
  groups : (int, unit Int_tbl.t) Hashtbl.t;  (* group -> member ids *)
  (* dst id -> its route ([no_route] until first used); [[||]] after an
     invalidation, regrown to the node count on the next lookup *)
  mutable routes : route array;
  (* (group, src) -> its tree *)
  tree_cache : (int * int, tree) Hashtbl.t;
  (* One-entry cache in front of [tree_cache]: every data packet of a
     session looks up the same (group, src) tree, so the hot path skips
     the tuple allocation and hashing of the table lookup entirely, and
     a hop then costs two array reads by node id.  [no_tree] marks the
     entry empty. *)
  mutable hot_group : int;
  mutable hot_src : int;
  mutable hot_tree : tree;
  (* Scratch for branch-point duplication ([forward_multicast]): clones
     park here between the clone pass and the send pass, so fanning out
     allocates no (link, packet) pair list per packet. *)
  mutable mc_scratch : Packet.t array;
}

let no_tree = { children = [||]; member = Bytes.empty }

let no_route = { parent = [||]; next_hop = [||] }

let create engine =
  {
    engine;
    nodes = Array.make 16 (Node.create ~id:(-1));
    node_count = 0;
    adjacency = Array.make 16 [];
    links = Hashtbl.create 64;
    groups = Hashtbl.create 8;
    routes = [||];
    tree_cache = Hashtbl.create 8;
    hot_group = -1;
    hot_src = -1;
    hot_tree = no_tree;
    mc_scratch = Array.make 8 Packet.dummy;
  }

let engine t = t.engine

let node t id =
  if id < 0 || id >= t.node_count then
    invalid_arg (Printf.sprintf "Topology.node: unknown id %d" id);
  t.nodes.(id)

let invalidate_routes t =
  t.routes <- [||];
  Hashtbl.reset t.tree_cache;
  t.hot_tree <- no_tree

let invalidate_group_trees t group =
  Hashtbl.to_seq_keys t.tree_cache
  |> Seq.filter (fun (g, _) -> g = group)
  |> List.of_seq
  |> List.iter (Hashtbl.remove t.tree_cache);
  if t.hot_group = group then t.hot_tree <- no_tree

(* BFS rooted at [root]: parent.(v) is the neighbor of v on the shortest
   path from v toward root (-1 for root itself and unreachable nodes).
   Deterministic: neighbors expand in insertion order. *)
let bfs t root =
  let parent = Array.make t.node_count (-1) in
  let visited = Array.make t.node_count false in
  let q = Queue.create () in
  visited.(root) <- true;
  Queue.push root q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, _link) ->
        if not visited.(v) then begin
          visited.(v) <- true;
          parent.(v) <- u;
          Queue.push v q
        end)
      (List.rev t.adjacency.(u))
  done;
  parent

let route_slow t dst_id =
  let parent = bfs t dst_id in
  let next_hop =
    Array.mapi
      (fun v next -> if next < 0 then None else Hashtbl.find_opt t.links (v, next))
      parent
  in
  let r = { parent; next_hop } in
  if Array.length t.routes < t.node_count then
    t.routes <- Array.make t.node_count no_route;
  t.routes.(dst_id) <- r;
  r

let route t dst_id =
  let routes = t.routes in
  if dst_id >= 0 && dst_id < Array.length routes then begin
    let r = Array.unsafe_get routes dst_id in
    if r != no_route then r else route_slow t dst_id
  end
  else route_slow t dst_id

let group_table t group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> g
  | None ->
      let g = Int_tbl.create 16 in
      Hashtbl.add t.groups group g;
      g

(* Tree = union over members of the shortest path src -> member.  We walk
   each member toward src using the BFS rooted at src (parent pointers go
   toward src) and record the forward links. *)
let build_tree t ~group ~src_id =
  let children = Int_tbl.create 32 in
  let parent = (route t src_id).parent in
  let on_tree = Int_tbl.create 32 in
  let add_edge u v =
    (* edge u -> v, u is closer to src *)
    match Hashtbl.find_opt t.links (u, v) with
    | None -> ()
    | Some link ->
        let existing = Option.value ~default:[] (Int_tbl.find_opt children u) in
        if not (List.memq link existing) then
          Int_tbl.replace children u (link :: existing)
  in
  let rec walk v =
    (* records path from v up to src (or an already-on-tree node) *)
    if v <> src_id && not (Int_tbl.mem on_tree v) then begin
      Int_tbl.replace on_tree v ();
      let u = parent.(v) in
      if u >= 0 then begin
        add_edge u v;
        walk u
      end
    end
  in
  (match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some g -> Int_tbl.iter (fun m () -> walk m) g);
  children

(* The dense form of [build_tree]'s result: each node's child list
   becomes an array in the same order, so send order is unchanged. *)
let dense_tree t ~group ~src_id =
  let children = Array.make t.node_count [||] in
  Int_tbl.iter
    (fun u links -> children.(u) <- Array.of_list links)
    (build_tree t ~group ~src_id);
  let member = Bytes.make t.node_count '\000' in
  (match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some g -> Int_tbl.iter (fun m () -> Bytes.set member m '\001') g);
  { children; member }

let tree_slow t ~group ~src_id =
  let key = (group, src_id) in
  let tr =
    match Hashtbl.find_opt t.tree_cache key with
    | Some tr -> tr
    | None ->
        let tr = dense_tree t ~group ~src_id in
        Hashtbl.add t.tree_cache key tr;
        tr
  in
  t.hot_group <- group;
  t.hot_src <- src_id;
  t.hot_tree <- tr;
  tr

let tree t ~group ~src_id =
  if t.hot_tree != no_tree && t.hot_group = group && t.hot_src = src_id then
    t.hot_tree
  else tree_slow t ~group ~src_id

let forward_multicast t ~at_id (p : Packet.t) ~group =
  let links = (tree t ~group ~src_id:p.src).children.(at_id) in
  let n = Array.length links in
  if n = 0 then
    (* Terminal point with no subscribers downstream: the packet's
       journey ends here, recycle its arena slot. *)
    Packet.release (Engine.arena t.engine) p
  else if n = 1 then Link.send (Array.unsafe_get links 0) p
  else begin
    (* Branch point: duplicate for every child beyond the first.  All
       clones are taken before any send — [Link.send] may drop and
       release [p] (down link, TTL, full queue), after which it must
       not be read again.  Clones park in [mc_scratch] between the two
       passes, so fanning out allocates no list.  Send order (first
       child, then the rest in tree order) is part of the deterministic
       event ordering. *)
    if n > Array.length t.mc_scratch then
      t.mc_scratch <- Array.make (max n (2 * Array.length t.mc_scratch)) Packet.dummy;
    let scratch = t.mc_scratch in
    let arena = Engine.arena t.engine in
    for i = 1 to n - 1 do
      Array.unsafe_set scratch i (Packet.clone arena p)
    done;
    Link.send (Array.unsafe_get links 0) p;
    for i = 1 to n - 1 do
      let q = Array.unsafe_get scratch i in
      Array.unsafe_set scratch i Packet.dummy;
      Link.send (Array.unsafe_get links i) q
    done
  end

let route_from t node_obj (p : Packet.t) ~local =
  let here = Node.id node_obj in
  match p.dst with
  | Packet.Unicast d when d = here ->
      if local then Node.deliver_local node_obj p;
      (* Handlers only borrow during delivery; the journey ends here. *)
      Packet.release (Engine.arena t.engine) p
  | Packet.Unicast d -> (
      match (route t d).next_hop.(here) with
      | Some link -> Link.send link p
      | None ->
          Logs.debug (fun m -> m "Topology: no route %d -> %d, dropping" here d);
          Packet.release (Engine.arena t.engine) p)
  | Packet.Multicast g ->
      (* Membership is read before local delivery and the children after
         it ([forward_multicast] looks the tree up again): a handler may
         join or leave, which invalidates the tree. *)
      if local && Bytes.get (tree t ~group:g ~src_id:p.src).member here = '\001'
      then Node.deliver_local node_obj p;
      forward_multicast t ~at_id:here p ~group:g

let install_hook t node_obj =
  Node.set_receive_hook node_obj (fun p -> route_from t node_obj p ~local:true)

let grow t =
  let cap = Array.length t.nodes in
  if t.node_count = cap then begin
    let nodes = Array.make (2 * cap) t.nodes.(0) in
    Array.blit t.nodes 0 nodes 0 t.node_count;
    t.nodes <- nodes;
    let adjacency = Array.make (2 * cap) [] in
    Array.blit t.adjacency 0 adjacency 0 t.node_count;
    t.adjacency <- adjacency
  end

let add_node t =
  grow t;
  let n = Node.create ~id:t.node_count in
  t.nodes.(t.node_count) <- n;
  t.adjacency.(t.node_count) <- [];
  t.node_count <- t.node_count + 1;
  install_hook t n;
  invalidate_routes t;
  n

let add_nodes t n = Array.init n (fun _ -> add_node t)

let connect t ?(queue_capacity = 50) ?queue_ab ?queue_ba ?loss_ab ?loss_ba
    ~bandwidth_bps ~delay_s a b =
  let ida = Node.id a and idb = Node.id b in
  if ida = idb then invalid_arg "Topology.connect: self-loop";
  if Hashtbl.mem t.links (ida, idb) then
    invalid_arg (Printf.sprintf "Topology.connect: %d and %d already connected" ida idb);
  let mk_queue q =
    match q with
    | Some q -> q
    | None -> Queue_disc.droptail ~capacity_pkts:queue_capacity
  in
  let mk src dst queue loss =
    Link.create t.engine
      ?loss
      ~bandwidth_bps ~delay_s ~queue:(mk_queue queue) ~src ~dst ()
  in
  let ab = mk a b queue_ab loss_ab in
  let ba = mk b a queue_ba loss_ba in
  Hashtbl.add t.links (ida, idb) ab;
  Hashtbl.add t.links (idb, ida) ba;
  t.adjacency.(ida) <- (idb, ab) :: t.adjacency.(ida);
  t.adjacency.(idb) <- (ida, ba) :: t.adjacency.(idb);
  invalidate_routes t;
  (ab, ba)

let link_between t a b = Hashtbl.find_opt t.links (Node.id a, Node.id b)

let join t ~group n =
  let g = group_table t group in
  if not (Int_tbl.mem g (Node.id n)) then begin
    Int_tbl.replace g (Node.id n) ();
    invalidate_group_trees t group
  end

let leave t ~group n =
  match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some g ->
      if Int_tbl.mem g (Node.id n) then begin
        Int_tbl.remove g (Node.id n);
        invalidate_group_trees t group
      end

let inject t (p : Packet.t) =
  Packet.guard "Topology.inject" p;
  let origin = node t p.src in
  (* The origin never receives its own packet. *)
  route_from t origin p ~local:false

let path t ~src ~dst =
  let src_id = Node.id src and dst_id = Node.id dst in
  if src_id = dst_id then Some [ src ]
  else begin
    let parent = (route t dst_id).parent in
    let rec walk v acc =
      if v = dst_id then Some (List.rev (dst_id :: acc))
      else begin
        let next = parent.(v) in
        if next < 0 then None else walk next (v :: acc)
      end
    in
    walk src_id [] |> Option.map (List.map (node t))
  end
