(* Shared test fixtures.

   [figure3] reconstructs the paper's running example (Fig. 3): five
   switches A..E; boxed vertices are flow entries with 8-bit headers.
   The expected rule-graph facts are spelled out in §V:
   - edge (b2, c2) exists; no edge (c1, e2);
   - a1 -> b1 -> c2 -> e1 is legal; a1 -> b1 -> c1 -> e1 is not;
   - the legal transitive closure adds (b2, e2);
   - the MLPC is {a1->b1->c2->e1, b2->(c2)->e2, b3->d1->e3, c1}. *)

module Cube = Hspace.Cube

type figure3 = {
  net : Openflow.Network.t;
  a1 : Openflow.Flow_entry.t;
  b1 : Openflow.Flow_entry.t;
  b2 : Openflow.Flow_entry.t;
  b3 : Openflow.Flow_entry.t;
  c1 : Openflow.Flow_entry.t;
  c2 : Openflow.Flow_entry.t;
  d1 : Openflow.Flow_entry.t;
  e1 : Openflow.Flow_entry.t;
  e2 : Openflow.Flow_entry.t;
  e3 : Openflow.Flow_entry.t;
}

(* Switch ids. *)
let sw_a = 0
let sw_b = 1
let sw_c = 2
let sw_d = 3
let sw_e = 4

let figure3 () =
  let topo = Openflow.Topology.create ~n_switches:5 in
  (* A-B, B-C, B-D, C-E, D-E. Port n of switch s leads to the n-th
     neighbour in insertion order. *)
  Openflow.Topology.add_link topo ~sw_a ~port_a:1 ~sw_b ~port_b:1;
  Openflow.Topology.add_link topo ~sw_a:sw_b ~port_a:2 ~sw_b:sw_c ~port_b:1;
  Openflow.Topology.add_link topo ~sw_a:sw_b ~port_a:3 ~sw_b:sw_d ~port_b:1;
  Openflow.Topology.add_link topo ~sw_a:sw_c ~port_a:2 ~sw_b:sw_e ~port_b:1;
  Openflow.Topology.add_link topo ~sw_a:sw_d ~port_a:2 ~sw_b:sw_e ~port_b:2;
  let net = Openflow.Network.create ~header_len:8 topo in
  let add ~switch ~priority ~match_ ?set_field action =
    Openflow.Network.add_entry net ~switch ~priority
      ~match_:(Cube.of_string match_)
      ?set_field:(Option.map Cube.of_string set_field)
      action
  in
  let out = Openflow.Flow_entry.(fun p -> Output p) in
  let a1 = add ~switch:sw_a ~priority:1 ~match_:"00101xxx" (out 1) in
  let b1 = add ~switch:sw_b ~priority:3 ~match_:"0010xxxx" (out 2) in
  let b2 = add ~switch:sw_b ~priority:2 ~match_:"0011xxxx" (out 2) in
  let b3 = add ~switch:sw_b ~priority:1 ~match_:"000xxxxx" (out 3) in
  let c1 = add ~switch:sw_c ~priority:2 ~match_:"00100xxx" (out 2) in
  let c2 = add ~switch:sw_c ~priority:1 ~match_:"001xxxxx" (out 2) in
  let d1 = add ~switch:sw_d ~priority:1 ~match_:"000xxxxx" ~set_field:"0111xxxx" (out 2) in
  (* E's entries deliver locally (modelled as Drop): they are the rule
     graph's sinks. *)
  let e1 = add ~switch:sw_e ~priority:3 ~match_:"0010xxxx" Openflow.Flow_entry.Drop in
  let e2 = add ~switch:sw_e ~priority:2 ~match_:"001xxxxx" Openflow.Flow_entry.Drop in
  let e3 = add ~switch:sw_e ~priority:1 ~match_:"0111xxxx" Openflow.Flow_entry.Drop in
  { net; a1; b1; b2; b3; c1; c2; d1; e1; e2; e3 }

(* A random loop-free network: switches in a line, each forwarding a
   few random prefix rules to the next switch; the last switch delivers
   (Drop). Policies always forward rightward, so the rule graph is a
   DAG. Useful for randomized comparisons against brute force. *)
let random_line_net rng ~n_switches ~rules_per_switch ~header_len =
  let topo = Openflow.Topology.create ~n_switches in
  for s = 0 to n_switches - 2 do
    Openflow.Topology.add_link topo ~sw_a:s ~port_a:2 ~sw_b:(s + 1) ~port_b:1
  done;
  let net = Openflow.Network.create ~header_len topo in
  let random_prefix_match () =
    let plen = Sdn_util.Prng.int rng (header_len + 1) in
    Cube.of_bits
      (Array.init header_len (fun k ->
           if k < plen then (if Sdn_util.Prng.bool rng then Cube.One else Cube.Zero)
           else Cube.Any))
  in
  for s = 0 to n_switches - 1 do
    let n_rules = 1 + Sdn_util.Prng.int rng rules_per_switch in
    for p = 1 to n_rules do
      let action =
        if s = n_switches - 1 then Openflow.Flow_entry.Drop
        else Openflow.Flow_entry.Output 2
      in
      ignore
        (Openflow.Network.add_entry net ~switch:s ~priority:p
           ~match_:(random_prefix_match ()) action)
    done
  done;
  net

(* A tiny 3-switch chain A -> B -> C with one forwarding rule per hop;
   handy for emulator unit tests. *)
type chain3 = {
  cnet : Openflow.Network.t;
  r_a : Openflow.Flow_entry.t;
  r_b : Openflow.Flow_entry.t;
  r_c : Openflow.Flow_entry.t;
}

let chain3 () =
  let topo = Openflow.Topology.create ~n_switches:3 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  Openflow.Topology.add_link topo ~sw_a:1 ~port_a:2 ~sw_b:2 ~port_b:1;
  let cnet = Openflow.Network.create ~header_len:8 topo in
  let match_ = Cube.of_string "1xxxxxxx" in
  let r_a =
    Openflow.Network.add_entry cnet ~switch:0 ~priority:1 ~match_
      (Openflow.Flow_entry.Output 1)
  in
  let r_b =
    Openflow.Network.add_entry cnet ~switch:1 ~priority:1 ~match_
      (Openflow.Flow_entry.Output 2)
  in
  let r_c =
    Openflow.Network.add_entry cnet ~switch:2 ~priority:1 ~match_
      Openflow.Flow_entry.Drop
  in
  { cnet; r_a; r_b; r_c }

(* Two rule graphs are the same graph up to vertex numbering: same
   vertex count, same base and closure edges (named by entry id), same
   input and output spaces per entry. *)
let same_rulegraph a b =
  let module RG = Rulegraph.Rule_graph in
  let edge_ids rg g =
    let acc = ref [] in
    Sdngraph.Digraph.iter_edges
      (fun u v ->
        acc :=
          ( (RG.vertex_entry rg u).Openflow.Flow_entry.id,
            (RG.vertex_entry rg v).Openflow.Flow_entry.id )
          :: !acc)
      g;
    List.sort compare !acc
  in
  RG.n_vertices a = RG.n_vertices b
  && edge_ids a (RG.base_graph a) = edge_ids b (RG.base_graph b)
  && edge_ids a (RG.graph a) = edge_ids b (RG.graph b)
  && List.for_all
       (fun v ->
         let va = RG.vertex_of_entry a (RG.vertex_entry b v).Openflow.Flow_entry.id in
         Hspace.Hs.equal_sets (RG.input a va) (RG.input b v)
         && Hspace.Hs.equal_sets (RG.output a va) (RG.output b v))
       (List.init (RG.n_vertices b) Fun.id)
