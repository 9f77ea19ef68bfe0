//! Datacenter topologies and routing.
//!
//! Node numbering: hosts occupy ids `0..hosts`, switches `hosts..hosts+switches`.
//! Ports are the index into a node's adjacency list. Two builders cover the
//! paper's evaluation and beyond:
//!
//! * [`Topology::leaf_spine`] — the two-tier topology of §4.1 (paper scale:
//!   4 spines ("cores"), 8 leaves ("aggregates"), 40 hosts per leaf, 10 Gbps
//!   host links, 40 Gbps fabric links); arbitrary spine/leaf/host counts.
//! * [`Topology::fat_tree`] — a k-ary fat-tree for **any even k ≥ 2**:
//!   `k³/4` hosts, `k²` pod switches plus `(k/2)²` cores. The paper's Fig. 7
//!   uses k=8 (128 hosts, 80 switches); k=16 (1024 hosts) and k=32
//!   (8192 hosts) build from the same code. Host ids fill pod by pod:
//!   host `h` lives in pod `h / (k/2)²` under edge switch
//!   `(h mod (k/2)²) / (k/2)`; switch ids are edges+aggs pod-major
//!   (`hosts + p*k + …`), cores last (`hosts + k² + c`).
//!
//! Routing tables are computed by per-destination BFS over the switch
//! graph, so **every** switch has a next-hop set toward **every** host —
//! a deflected packet that lands off the shortest path is simply routed
//! onward from wherever it is, which is exactly what deflection needs.
//!
//! [`Topology::partition`] derives the domain decomposition used by the
//! parallel engine (`--domains N`): structural zones (per-leaf, per-pod,
//! one per top-tier switch) assigned round-robin to domains.

use crate::link::LinkParams;
use vertigo_pkt::{NodeId, PortId};
use vertigo_simcore::SimDuration;

/// Flattened per-switch routing: the candidate output ports for every
/// `(switch, destination host)` pair, CSR-style.
///
/// The old representation was `Vec<Vec<Vec<u16>>>` — one nested table per
/// switch, deep-cloned into every `Switch` (80 switches × 128 hosts of
/// nested `Vec`s in the k=8 fat-tree) and costing two pointer chases per
/// forwarding decision. This layout stores all candidate lists in one
/// dense `ports` array with a prefix-offset index, is built once per
/// topology, and is shared across switches behind an `Arc`: a candidate
/// lookup is one multiply-add into `offsets` and one contiguous slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    /// `offsets[s * hosts + h] .. offsets[s * hosts + h + 1]` indexes the
    /// candidate ports of switch `s` (0-based, excluding hosts) toward
    /// host `h`. Length `switches * hosts + 1`.
    offsets: Vec<u32>,
    /// All candidate port lists, concatenated.
    ports: Vec<u16>,
    /// Number of hosts (row width).
    hosts: usize,
}

impl RouteTable {
    /// Candidate output ports on switch `switch_idx` (0-based, i.e.
    /// `node_id - hosts`) toward `dst_host`. Empty iff unreachable.
    #[inline]
    pub fn candidates(&self, switch_idx: usize, dst_host: usize) -> &[u16] {
        debug_assert!(dst_host < self.hosts, "unknown destination host");
        let row = switch_idx * self.hosts + dst_host;
        let (lo, hi) = (self.offsets[row] as usize, self.offsets[row + 1] as usize);
        &self.ports[lo..hi]
    }

    /// Number of hosts (columns per switch).
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Number of switches (rows).
    pub fn switches(&self) -> usize {
        (self.offsets.len() - 1)
            .checked_div(self.hosts)
            .unwrap_or(0)
    }

    /// Total candidate-port entries (diagnostic).
    pub fn total_entries(&self) -> usize {
        self.ports.len()
    }

    /// Builds a table from nested per-switch candidate lists:
    /// `nested[switch][host]` is the candidate port list. Intended for
    /// hand-crafted topologies in tests; production tables come from
    /// [`Topology::switch_routes`].
    pub fn from_nested(nested: &[Vec<Vec<u16>>]) -> Self {
        let hosts = nested.first().map_or(0, |per_host| per_host.len());
        let mut offsets = Vec::with_capacity(nested.len() * hosts + 1);
        let mut ports = Vec::new();
        offsets.push(0);
        for per_host in nested {
            assert_eq!(per_host.len(), hosts, "ragged route table");
            for cands in per_host {
                ports.extend_from_slice(cands);
                offsets.push(u32::try_from(ports.len()).expect("route table < 4G entries"));
            }
        }
        RouteTable {
            offsets,
            ports,
            hosts,
        }
    }
}

/// An immutable network topology: adjacency (ports) plus link parameters.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Human-readable name for reports.
    pub name: String,
    /// Number of hosts (node ids `0..hosts`).
    pub hosts: usize,
    /// Number of switches (node ids `hosts..hosts+switches`).
    pub switches: usize,
    /// Per-node ordered port list: `adj[node][port] = (peer, link)`.
    pub adj: Vec<Vec<(NodeId, LinkParams)>>,
}

impl Topology {
    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.hosts + self.switches
    }

    /// Whether `n` is a host.
    pub fn is_host(&self, n: NodeId) -> bool {
        n.index() < self.hosts
    }

    /// The switch a host hangs off (its single port's peer).
    pub fn access_switch(&self, host: NodeId) -> NodeId {
        debug_assert!(self.is_host(host));
        self.adj[host.index()][0].0
    }

    /// The port on `node` that faces `peer`, if adjacent.
    pub fn port_to(&self, node: NodeId, peer: NodeId) -> Option<PortId> {
        self.adj[node.index()]
            .iter()
            .position(|&(p, _)| p == peer)
            .map(|i| PortId(i as u16))
    }

    /// Aggregate host-facing capacity in bits per second (the load
    /// denominator used throughout the paper's "% aggregate network load").
    pub fn total_host_bw_bps(&self) -> u64 {
        (0..self.hosts).map(|h| self.adj[h][0].1.rate_bps()).sum()
    }

    /// Internal consistency check: symmetric adjacency with matching link
    /// parameters, exactly one port per host.
    pub fn validate(&self) -> Result<(), String> {
        if self.adj.len() != self.num_nodes() {
            return Err(format!(
                "adjacency rows {} != nodes {}",
                self.adj.len(),
                self.num_nodes()
            ));
        }
        for h in 0..self.hosts {
            if self.adj[h].len() != 1 {
                return Err(format!("host n{h} has {} ports, want 1", self.adj[h].len()));
            }
        }
        for (n, ports) in self.adj.iter().enumerate() {
            for &(peer, link) in ports {
                let back = self.adj[peer.index()]
                    .iter()
                    .find(|&&(p, _)| p.index() == n);
                match back {
                    None => return Err(format!("link n{n}->{peer} has no reverse")),
                    Some(&(_, l2)) if l2 != link => {
                        return Err(format!("asymmetric link params n{n}<->{peer}"))
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Builds a two-tier leaf-spine fabric. Hosts attach to leaves; every
    /// leaf connects to every spine.
    pub fn leaf_spine(
        spines: usize,
        leaves: usize,
        hosts_per_leaf: usize,
        host_link: LinkParams,
        fabric_link: LinkParams,
    ) -> Topology {
        assert!(spines >= 1 && leaves >= 2 && hosts_per_leaf >= 1);
        let hosts = leaves * hosts_per_leaf;
        let switches = leaves + spines;
        let leaf_id = |l: usize| NodeId((hosts + l) as u32);
        let spine_id = |s: usize| NodeId((hosts + leaves + s) as u32);

        let mut adj: Vec<Vec<(NodeId, LinkParams)>> = vec![Vec::new(); hosts + switches];
        for (h, nbrs) in adj.iter_mut().enumerate().take(hosts) {
            let l = h / hosts_per_leaf;
            nbrs.push((leaf_id(l), host_link));
        }
        for l in 0..leaves {
            let li = leaf_id(l).index();
            for h in 0..hosts_per_leaf {
                adj[li].push((NodeId((l * hosts_per_leaf + h) as u32), host_link));
            }
            for s in 0..spines {
                adj[li].push((spine_id(s), fabric_link));
            }
        }
        for s in 0..spines {
            let si = spine_id(s).index();
            for l in 0..leaves {
                adj[si].push((leaf_id(l), fabric_link));
            }
        }
        let t = Topology {
            name: format!("leaf-spine({spines}x{leaves}x{hosts_per_leaf})"),
            hosts,
            switches,
            adj,
        };
        debug_assert!(t.validate().is_ok());
        t
    }

    /// Builds a k-ary fat-tree (Al-Fares et al.): `k` pods of `k/2` edge and
    /// `k/2` aggregation switches, `(k/2)²` cores, `k³/4` hosts.
    pub fn fat_tree(k: usize, link: LinkParams) -> Topology {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree requires even k");
        let half = k / 2;
        let hosts = k * k * k / 4;
        let switches = k * k + half * half;
        let edge_id = |p: usize, e: usize| NodeId((hosts + p * k + e) as u32);
        let agg_id = |p: usize, a: usize| NodeId((hosts + p * k + half + a) as u32);
        let core_id = |c: usize| NodeId((hosts + k * k + c) as u32);

        let mut adj: Vec<Vec<(NodeId, LinkParams)>> = vec![Vec::new(); hosts + switches];
        let hosts_per_pod = half * half;
        for (h, nbrs) in adj.iter_mut().enumerate().take(hosts) {
            let p = h / hosts_per_pod;
            let e = (h % hosts_per_pod) / half;
            nbrs.push((edge_id(p, e), link));
        }
        for p in 0..k {
            for e in 0..half {
                let ei = edge_id(p, e).index();
                for j in 0..half {
                    let h = p * hosts_per_pod + e * half + j;
                    adj[ei].push((NodeId(h as u32), link));
                }
                for a in 0..half {
                    adj[ei].push((agg_id(p, a), link));
                }
            }
            for a in 0..half {
                let ai = agg_id(p, a).index();
                for e in 0..half {
                    adj[ai].push((edge_id(p, e), link));
                }
                for j in 0..half {
                    adj[ai].push((core_id(a * half + j), link));
                }
            }
        }
        for c in 0..half * half {
            let ci = core_id(c).index();
            let a = c / half;
            for p in 0..k {
                adj[ci].push((agg_id(p, a), link));
            }
        }
        let t = Topology {
            name: format!("fat-tree(k={k})"),
            hosts,
            switches,
            adj,
        };
        debug_assert!(t.validate().is_ok());
        t
    }

    /// Minimum one-way propagation delay over all links — the lookahead
    /// bound of the conservative parallel engine: no packet can cross
    /// from one node to another (and in particular from one domain to
    /// another) in less simulated time than this.
    pub fn min_prop_delay(&self) -> SimDuration {
        self.adj
            .iter()
            .flat_map(|ports| ports.iter().map(|&(_, l)| l.prop_delay()))
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The most domains [`Topology::partition`] deals nodes to: a node's
    /// domain is a `u16`.
    pub const MAX_DOMAINS: usize = u16::MAX as usize;

    /// Partitions the topology into `n` domains for the parallel engine,
    /// returning the domain of every node (indexed by node id).
    ///
    /// The rule is structural, so it needs no knowledge of which builder
    /// made the topology. Switches are layered by BFS depth from the
    /// hosts; removing the top layer splits the switch graph into
    /// *zones* — per-leaf groups on a leaf-spine (spines are the top
    /// layer), per-pod groups on a fat-tree (cores are the top layer).
    /// Each removed top-layer switch forms its own zone, hosts join their
    /// access switch's zone, and zones are dealt round-robin to domains.
    ///
    /// Which domain a node lands in affects only load balance, never
    /// results: the engine's cross-domain merge order is canonical.
    pub fn partition(&self, n: usize) -> Vec<u16> {
        assert!(
            (1..=Self::MAX_DOMAINS).contains(&n),
            "domain count out of range"
        );
        let nn = self.num_nodes();
        // Layer switches by BFS depth from the hosts' access switches.
        let mut depth = vec![u32::MAX; nn];
        let mut q = std::collections::VecDeque::new();
        for h in 0..self.hosts {
            let s = self.access_switch(NodeId(h as u32));
            if depth[s.index()] == u32::MAX {
                depth[s.index()] = 1;
                q.push_back(s);
            }
        }
        while let Some(u) = q.pop_front() {
            for &(v, _) in &self.adj[u.index()] {
                if !self.is_host(v) && depth[v.index()] == u32::MAX {
                    depth[v.index()] = depth[u.index()] + 1;
                    q.push_back(v);
                }
            }
        }
        let top = (self.hosts..nn)
            .filter_map(|s| (depth[s] != u32::MAX).then_some(depth[s]))
            .max()
            .unwrap_or(1);
        // With a single layer there is nothing to cut; keep every switch.
        let cut = if top > 1 { top } else { u32::MAX };

        // Zones = connected components of the switch graph below the cut,
        // enumerated in node-id order for determinism.
        let mut zone = vec![u16::MAX; nn];
        let mut zones: u16 = 0;
        for s in self.hosts..nn {
            if depth[s] == u32::MAX || depth[s] >= cut || zone[s] != u16::MAX {
                continue;
            }
            zone[s] = zones;
            q.push_back(NodeId(s as u32));
            while let Some(u) = q.pop_front() {
                for &(v, _) in &self.adj[u.index()] {
                    let vi = v.index();
                    if !self.is_host(v)
                        && depth[vi] != u32::MAX
                        && depth[vi] < cut
                        && zone[vi] == u16::MAX
                    {
                        zone[vi] = zones;
                        q.push_back(v);
                    }
                }
            }
            zones = zones.checked_add(1).expect("zone count overflow");
        }
        // Top-layer (and any unreachable) switches: one zone each.
        for z in zone.iter_mut().take(nn).skip(self.hosts) {
            if *z == u16::MAX {
                *z = zones;
                zones = zones.checked_add(1).expect("zone count overflow");
            }
        }
        // Hosts inherit their access switch's zone.
        for h in 0..self.hosts {
            zone[h] = zone[self.access_switch(NodeId(h as u32)).index()];
        }
        debug_assert!(
            zone.iter().all(|&z| z != u16::MAX),
            "partition must cover every node exactly once"
        );
        let out: Vec<u16> = zone.iter().map(|&z| z % n as u16).collect();
        debug_assert_eq!(out.len(), nn, "one domain entry per node");
        debug_assert!(
            out.iter().all(|&d| (d as usize) < n),
            "domain index out of range"
        );
        out
    }

    /// BFS distances (in switch hops) from `src_switch` to every switch.
    fn switch_dists(&self, src_switch: NodeId) -> Vec<u32> {
        let n = self.num_nodes();
        let mut dist = vec![u32::MAX; n];
        let mut q = std::collections::VecDeque::new();
        dist[src_switch.index()] = 0;
        q.push_back(src_switch);
        while let Some(u) = q.pop_front() {
            for &(v, _) in &self.adj[u.index()] {
                if self.is_host(v) {
                    continue;
                }
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Computes, for every switch, the candidate output ports toward every
    /// host: `candidates(switch - hosts, dst_host)` is the list of ports on
    /// shortest switch-level paths (or the host port at the access switch).
    ///
    /// The table is built once and meant to be shared across all switches
    /// via `Arc` — see [`RouteTable`] for the layout.
    pub fn switch_routes(&self) -> RouteTable {
        // Distances are shared by all hosts under one access switch.
        let mut dists_by_access: std::collections::HashMap<NodeId, Vec<u32>> =
            std::collections::HashMap::new();
        for h in 0..self.hosts {
            let a = self.access_switch(NodeId(h as u32));
            dists_by_access
                .entry(a)
                .or_insert_with(|| self.switch_dists(a));
        }
        let mut offsets = Vec::with_capacity(self.switches * self.hosts + 1);
        // Candidate lists are short (<= port count); ports-per-pair * pairs
        // is a fine upper-bound guess for typical fabrics.
        let mut ports: Vec<u16> = Vec::with_capacity(self.switches * self.hosts * 2);
        offsets.push(0);
        for s in 0..self.switches {
            let sw = NodeId((self.hosts + s) as u32);
            for h in 0..self.hosts {
                let host = NodeId(h as u32);
                let access = self.access_switch(host);
                if sw == access {
                    let p = self.port_to(sw, host).expect("host attached");
                    ports.push(p.0);
                } else {
                    let dist = &dists_by_access[&access];
                    let my_d = dist[sw.index()];
                    // my_d == MAX or 0: unreachable (disconnected) — leave
                    // the candidate list empty.
                    if my_d != u32::MAX && my_d != 0 {
                        for (pi, &(peer, _)) in self.adj[sw.index()].iter().enumerate() {
                            if self.is_host(peer) {
                                continue;
                            }
                            if dist[peer.index()] == my_d - 1 {
                                ports.push(pi as u16);
                            }
                        }
                    }
                }
                offsets.push(u32::try_from(ports.len()).expect("route table < 4G entries"));
            }
        }
        ports.shrink_to_fit();
        RouteTable {
            offsets,
            ports,
            hosts: self.hosts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls() -> Topology {
        Topology::leaf_spine(
            4,
            8,
            5,
            LinkParams::gbps(10, 500),
            LinkParams::gbps(40, 500),
        )
    }

    #[test]
    fn leaf_spine_shape() {
        let t = ls();
        assert_eq!(t.hosts, 40);
        assert_eq!(t.switches, 12);
        t.validate().unwrap();
        // Every leaf: 5 host ports + 4 spine ports.
        for l in 0..8 {
            assert_eq!(t.adj[40 + l].len(), 9);
        }
        // Every spine: 8 leaf ports.
        for s in 0..4 {
            assert_eq!(t.adj[48 + s].len(), 8);
        }
        assert_eq!(t.total_host_bw_bps(), 40 * 10_000_000_000);
    }

    #[test]
    fn paper_scale_leaf_spine() {
        let t = Topology::leaf_spine(
            4,
            8,
            40,
            LinkParams::gbps(10, 500),
            LinkParams::gbps(40, 500),
        );
        assert_eq!(t.hosts, 320, "paper: 320 servers");
        assert_eq!(t.switches, 12, "paper: 8 aggregates + 4 cores");
        t.validate().unwrap();
    }

    #[test]
    fn fat_tree_shape_k8() {
        let t = Topology::fat_tree(8, LinkParams::gbps(10, 500));
        assert_eq!(t.hosts, 128, "paper: 128 servers");
        assert_eq!(t.switches, 80, "paper: 80 switches");
        t.validate().unwrap();
        // Every switch in a fat-tree has exactly k ports.
        for s in 0..t.switches {
            assert_eq!(t.adj[t.hosts + s].len(), 8, "switch {s}");
        }
    }

    #[test]
    fn fat_tree_k4() {
        let t = Topology::fat_tree(4, LinkParams::gbps(10, 500));
        assert_eq!(t.hosts, 16);
        assert_eq!(t.switches, 20);
        t.validate().unwrap();
    }

    #[test]
    fn leaf_spine_routes() {
        let t = ls();
        let routes = t.switch_routes();
        assert_eq!(routes.hosts(), t.hosts);
        assert_eq!(routes.switches(), t.switches);
        // At the destination's own leaf: exactly the host port.
        let h0 = NodeId(0);
        let leaf0 = t.access_switch(h0);
        let r = routes.candidates(leaf0.index() - t.hosts, 0);
        assert_eq!(r.len(), 1);
        assert_eq!(t.adj[leaf0.index()][r[0] as usize].0, h0);
        // At another leaf: all 4 spines are candidates.
        let leaf1 = t.access_switch(NodeId(5));
        assert_ne!(leaf0, leaf1);
        let r = routes.candidates(leaf1.index() - t.hosts, 0);
        assert_eq!(r.len(), 4);
        for &p in r {
            let peer = t.adj[leaf1.index()][p as usize].0;
            assert!(peer.index() >= t.hosts + 8, "candidate must be a spine");
        }
        // At a spine: exactly the port down to leaf 0.
        let spine = NodeId((t.hosts + 8) as u32);
        let r = routes.candidates(spine.index() - t.hosts, 0);
        assert_eq!(r.len(), 1);
        assert_eq!(t.adj[spine.index()][r[0] as usize].0, leaf0);
    }

    #[test]
    fn fat_tree_routes_have_ecmp_fanout() {
        let t = Topology::fat_tree(4, LinkParams::gbps(10, 500));
        let routes = t.switch_routes();
        // From an edge switch in pod 0 to a host in pod 3: k/2 = 2 agg
        // candidates.
        let h_far = t.hosts - 1;
        let edge0 = t.access_switch(NodeId(0));
        let r = routes.candidates(edge0.index() - t.hosts, h_far);
        assert_eq!(r.len(), 2);
        // Every switch can reach every host.
        for s in 0..routes.switches() {
            for h in 0..routes.hosts() {
                assert!(
                    !routes.candidates(s, h).is_empty(),
                    "switch {s} has no route to host {h}"
                );
            }
        }
    }

    #[test]
    fn route_table_from_nested_matches_builder() {
        let t = ls();
        let csr = t.switch_routes();
        // Reconstruct the nested form through the public API and re-flatten.
        let nested: Vec<Vec<Vec<u16>>> = (0..csr.switches())
            .map(|s| {
                (0..csr.hosts())
                    .map(|h| csr.candidates(s, h).to_vec())
                    .collect()
            })
            .collect();
        assert_eq!(RouteTable::from_nested(&nested), csr);
        assert_eq!(
            csr.total_entries(),
            nested.iter().flatten().map(Vec::len).sum()
        );
    }

    #[test]
    fn min_prop_delay_is_the_smallest_link_latency() {
        let t = Topology::leaf_spine(
            2,
            2,
            2,
            LinkParams::gbps(10, 500),
            LinkParams::gbps(40, 700),
        );
        assert_eq!(t.min_prop_delay(), SimDuration::from_nanos(500));
    }

    #[test]
    fn partition_zones_follow_structure() {
        // Leaf-spine: each leaf (plus its hosts) is a zone, each spine its
        // own zone. With n = leaves, rack h/hpl lands in domain (h/hpl) % n.
        let t = Topology::leaf_spine(
            2,
            4,
            3,
            LinkParams::gbps(10, 500),
            LinkParams::gbps(40, 500),
        );
        let d = t.partition(4);
        assert_eq!(d.len(), t.num_nodes());
        for h in 0..t.hosts {
            assert_eq!(d[h], ((h / 3) % 4) as u16, "host {h} in its rack's domain");
            assert_eq!(d[h], d[t.access_switch(NodeId(h as u32)).index()]);
        }
        // Fat-tree: hosts of one pod share a domain with their pod switches.
        let t = Topology::fat_tree(4, LinkParams::gbps(10, 500));
        let d = t.partition(4);
        let hosts_per_pod = 4; // (k/2)^2
        for (h, &dom) in d.iter().enumerate().take(t.hosts) {
            let pod = h / hosts_per_pod;
            assert_eq!(dom, (pod % 4) as u16, "host {h} in its pod's domain");
        }
        // Every pod switch is in its pod's domain; cores are distributed.
        for p in 0..4 {
            for sw in 0..4 {
                let id = t.hosts + p * 4 + sw;
                assert_eq!(d[id], (p % 4) as u16, "pod switch {id}");
            }
        }
        // n = 1 puts everything in domain 0.
        assert!(t.partition(1).iter().all(|&x| x == 0));
    }

    #[test]
    fn fat_tree_scales_to_k16_and_k32() {
        for (k, hosts, switches) in [(16usize, 1024, 320), (32usize, 8192, 1280)] {
            let t = Topology::fat_tree(k, LinkParams::gbps(10, 500));
            assert_eq!(t.hosts, hosts, "k={k} host count");
            assert_eq!(t.switches, switches, "k={k} switch count");
            t.validate().unwrap_or_else(|e| panic!("k={k}: {e}"));
            // One zone per pod plus one per core.
            let d = t.partition(k);
            let hosts_per_pod = (k / 2) * (k / 2);
            for h in (0..t.hosts).step_by(hosts_per_pod / 2) {
                assert_eq!(d[h], ((h / hosts_per_pod) % k) as u16);
            }
        }
    }

    #[test]
    fn routes_always_make_progress() {
        // Walking greedily along any candidate port must reach the
        // destination within the network diameter — for every (switch, host)
        // pair in a k=4 fat-tree.
        let t = Topology::fat_tree(4, LinkParams::gbps(10, 500));
        let routes = t.switch_routes();
        for s in 0..t.switches {
            for h in 0..t.hosts {
                let mut cur = NodeId((t.hosts + s) as u32);
                let mut hops = 0;
                loop {
                    let r = routes.candidates(cur.index() - t.hosts, h);
                    let port = r[0] as usize; // deterministic first candidate
                    let next = t.adj[cur.index()][port].0;
                    hops += 1;
                    assert!(hops <= 6, "no progress from switch {s} to host {h}");
                    if next == NodeId(h as u32) {
                        break;
                    }
                    assert!(!t.is_host(next), "routed into a wrong host");
                    cur = next;
                }
            }
        }
    }
}
