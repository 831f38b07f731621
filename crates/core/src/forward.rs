//! The forwarding and recovery rules both engines share.
//!
//! PRESS's distribution decision rests on two pieces of per-node state:
//! which peers cache each file ([`CacheDirectory`]), and which peers
//! have stopped answering in time ([`PeerGuard`], one circuit breaker
//! per peer). The simulator and the live cluster both keep this state
//! and both ask it the same three questions:
//!
//! * which live peers cache this file (the forwarding candidates);
//! * may this forward go where the policy sent it, or must it be
//!   diverted around an open breaker ([`PeerGuard::admit`]);
//! * where does a forward that timed out go next
//!   ([`PeerGuard::reroute`]).
//!
//! The module is sans-IO: no clock, no I/O, no randomness. Time comes in
//! as `now_us` (microseconds on the caller's own monotone clock), and
//! membership as a live-node bitmask. Node bits are laid out here and
//! nowhere else, bounded by [`MAX_NODES`].

use std::ops::Deref;

use press_cluster::NodeId;
pub use press_collect::MAX_NODES;
use press_collect::{select_topology, Children, TreeView};
use press_trace::{FileCatalog, FileId};

use crate::overload::{CircuitBreaker, OverloadConfig};
use crate::policy::Decision;

/// `node`'s bit in a node mask.
fn bit(node: u16) -> u128 {
    debug_assert!((node as usize) < MAX_NODES, "node {node} beyond MAX_NODES");
    1u128 << node
}

/// The mask holding nodes `0..n`.
pub fn all_nodes(n: usize) -> u128 {
    u128::MAX.checked_shr((MAX_NODES - n) as u32).unwrap_or(0)
}

/// `mask` with `node` present (`member`) or absent.
pub fn with_member(mask: u128, node: u16, member: bool) -> u128 {
    if member {
        mask | bit(node)
    } else {
        mask & !bit(node)
    }
}

/// Whether `node` is in `mask`.
pub fn is_member(mask: u128, node: u16) -> bool {
    mask & bit(node) != 0
}

/// The nodes of a mask in ascending id order, held on the stack: the
/// candidate list of one distribution decision costs no allocation.
///
/// `press_collect::Children` is the same kind of list for tree relays,
/// but it holds bare `u16` ids; this one derefs to `&[NodeId]`, the type
/// of [`RequestView::cachers`](crate::policy::RequestView::cachers) that
/// [`decide`](crate::policy::decide) takes, and keeps the mask the probe
/// path samples from.
#[derive(Debug, Clone, Copy)]
pub struct NodeList {
    mask: u128,
    buf: [NodeId; MAX_NODES],
    len: usize,
}

impl NodeList {
    /// The members of `mask`, ascending.
    pub fn from_mask(mask: u128) -> NodeList {
        let mut list = NodeList {
            mask,
            buf: [NodeId(0); MAX_NODES],
            len: 0,
        };
        let mut rest = mask;
        while rest != 0 {
            list.buf[list.len] = NodeId(rest.trailing_zeros() as u16);
            list.len += 1;
            rest &= rest - 1;
        }
        list
    }

    /// The same nodes as a mask.
    pub fn mask(&self) -> u128 {
        self.mask
    }
}

impl Deref for NodeList {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        &self.buf[..self.len]
    }
}

/// The peers one broadcast hop from `me` goes to, in send order.
///
/// Flat (`tree_root` is `None`): every member but `me`, ascending — the
/// paper's broadcast. Tree: `me`'s children in the dissemination tree
/// rooted at `tree_root` over `members`, in the topology
/// [`select_topology`] picks for that many members. Each hop rebuilds
/// the tree from its own membership view, so a crash or rejoin between
/// hops re-routes the rest of the broadcast.
pub fn broadcast_targets(me: u16, tree_root: Option<u16>, members: u128) -> Children {
    match tree_root {
        Some(origin) => {
            let topology = select_topology(members.count_ones(), 0);
            // Every member id is below the highest member bit + 1.
            let nodes = (u128::BITS - members.leading_zeros()) as u16;
            TreeView::build(topology, origin, members, nodes).children(me)
        }
        None => NodeList::from_mask(with_member(members, me, false))
            .iter()
            .map(|n| n.0)
            .collect(),
    }
}

/// For each file, the set of nodes believed to cache it — the caching
/// information PRESS nodes broadcast on every insertion and eviction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheDirectory {
    holders: Vec<u128>,
}

impl CacheDirectory {
    /// A directory of `files` files, none cached anywhere.
    pub fn new(files: usize) -> CacheDirectory {
        CacheDirectory {
            holders: vec![0; files],
        }
    }

    /// The warm start both engines begin from: each file sits at a
    /// pseudo-random node (as a random first-touch would) if it fits in
    /// that node's `cache_bytes`. A multiplicative hash rather than
    /// `rank % n` keeps the placement realistically uneven: popular files
    /// can cluster on a node, which is exactly what load balancing must
    /// compensate for. Returns the directory and each node's files in
    /// insertion order, least to most popular, so the hottest end most
    /// recently used.
    pub fn warm_start(
        catalog: &FileCatalog,
        nodes: usize,
        cache_bytes: u64,
    ) -> (CacheDirectory, Vec<Vec<(FileId, u64)>>) {
        let mut directory = CacheDirectory::new(catalog.len());
        let mut placed: Vec<Vec<(FileId, u64)>> = vec![Vec::new(); nodes];
        let mut used = vec![0u64; nodes];
        for (file, size) in catalog.iter() {
            let node = ((file.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % nodes;
            if used[node] + size <= cache_bytes {
                used[node] += size;
                placed[node].push((file, size));
                directory.add(file, node as u16);
            }
        }
        for files in &mut placed {
            files.reverse();
        }
        (directory, placed)
    }

    /// `node` now caches `file`.
    pub fn add(&mut self, file: FileId, node: u16) {
        self.holders[file.0 as usize] |= bit(node);
    }

    /// `node` evicted `file`.
    pub fn evict(&mut self, file: FileId, node: u16) {
        self.holders[file.0 as usize] &= !bit(node);
    }

    /// `node` restarted with a cold cache: it holds nothing.
    pub fn forget_node(&mut self, node: u16) {
        let keep = !bit(node);
        for h in &mut self.holders {
            *h &= keep;
        }
    }

    /// `file` changed: every copy is stale. Returns the nodes that held
    /// one, ascending.
    pub fn invalidate(&mut self, file: FileId) -> NodeList {
        NodeList::from_mask(std::mem::take(&mut self.holders[file.0 as usize]))
    }

    /// Whether any node, live or not, is believed to cache `file`.
    pub fn cached_anywhere(&self, file: FileId) -> bool {
        self.holders[file.0 as usize] != 0
    }

    /// The nodes in `live` that cache `file`, ascending — the forwarding
    /// candidates, whatever stale caching information says about dead
    /// peers.
    pub fn live_cachers(&self, file: FileId, live: u128) -> NodeList {
        NodeList::from_mask(self.holders[file.0 as usize] & live)
    }
}

/// Where a forward whose peer missed its deadline goes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reroute {
    /// Re-forward to this peer (possibly the one that just failed, when
    /// it is the only admissible live peer: the message may have been
    /// lost rather than the node).
    To(NodeId),
    /// Serve the request at the initial node.
    Failover,
}

/// One node's circuit breakers toward every peer.
///
/// Empty when overload protection is disabled: every peer but the node
/// itself is then admissible and the breaker hooks are no-ops.
#[derive(Debug, Clone)]
pub struct PeerGuard {
    me: u16,
    breakers: Vec<CircuitBreaker>,
}

impl PeerGuard {
    /// Node `me`'s guard over a cluster of `nodes`.
    pub fn new(me: u16, nodes: usize, cfg: &OverloadConfig) -> PeerGuard {
        let breakers = if cfg.enabled {
            vec![CircuitBreaker::new(cfg.breaker); nodes]
        } else {
            Vec::new()
        };
        PeerGuard { me, breakers }
    }

    /// Whether a forward to `peer` is admissible at `now_us`. The node
    /// itself never is.
    pub fn allows(&self, peer: u16, now_us: u64) -> bool {
        peer != self.me
            && self
                .breakers
                .get(peer as usize)
                .is_none_or(|b| b.allow(now_us))
    }

    /// A forward to `peer` was sent (half-open probe accounting).
    pub fn on_send(&mut self, peer: u16, now_us: u64) {
        if let Some(b) = self.breakers.get_mut(peer as usize) {
            b.on_send(now_us);
        }
    }

    /// `peer` answered a forward in time: its breaker closes.
    pub fn on_success(&mut self, peer: u16) {
        if let Some(b) = self.breakers.get_mut(peer as usize) {
            b.record_success();
        }
    }

    /// `peer` missed a forward's deadline. Returns whether this miss
    /// opened its breaker (closed or half-open → open). A miss charged
    /// to the node itself (a request it already serves) is ignored.
    pub fn on_miss(&mut self, peer: u16, now_us: u64) -> bool {
        if peer == self.me {
            return false;
        }
        let Some(b) = self.breakers.get_mut(peer as usize) else {
            return false;
        };
        let was_open = b.is_open(now_us);
        b.record_failure(now_us);
        !was_open && b.is_open(now_us)
    }

    /// The breaker divert: a forward to a refused peer goes instead to
    /// the least-loaded admissible `(peer, load)` alternative (ties to
    /// the lower id), or is served locally when none is admissible.
    /// Any other decision passes through unchanged, so the result
    /// differs from `decision` exactly when the breaker diverted it.
    pub fn admit(
        &self,
        decision: Decision,
        alternatives: impl IntoIterator<Item = (NodeId, u32)>,
        now_us: u64,
    ) -> Decision {
        match decision {
            Decision::Forward(t) if !self.allows(t.0, now_us) => self
                .least_loaded(alternatives, now_us)
                .map_or(Decision::ServeLocal, Decision::Forward),
            d => d,
        }
    }

    /// Where the forward of a request that `failed` to answer goes on
    /// its next attempt. `attempt` counts the re-forwards made so far;
    /// `candidates` are the live cachers of the file with the loads this
    /// node believes they carry. The least-loaded admissible candidate
    /// other than `failed` wins; with none, a `failed` peer that still
    /// looks alive gets the request again; otherwise — or once
    /// `attempt >= max_retries` — the request fails over to local
    /// service.
    pub fn reroute(
        &self,
        failed: NodeId,
        attempt: u32,
        max_retries: u32,
        candidates: impl IntoIterator<Item = (NodeId, u32)>,
        failed_still_live: bool,
        now_us: u64,
    ) -> Reroute {
        if attempt >= max_retries {
            return Reroute::Failover;
        }
        let others = candidates.into_iter().filter(|&(c, _)| c != failed);
        self.least_loaded(others, now_us)
            .or_else(|| (failed_still_live && self.allows(failed.0, now_us)).then_some(failed))
            .map_or(Reroute::Failover, Reroute::To)
    }

    fn least_loaded(
        &self,
        peers: impl IntoIterator<Item = (NodeId, u32)>,
        now_us: u64,
    ) -> Option<NodeId> {
        peers
            .into_iter()
            .filter(|&(p, _)| self.allows(p.0, now_us))
            .min_by_key(|&(p, load)| (load, p.0))
            .map(|(p, _)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::BreakerConfig;

    fn protected(threshold: u32) -> OverloadConfig {
        OverloadConfig {
            breaker: BreakerConfig {
                failure_threshold: threshold,
                cooldown_micros: 100,
            },
            ..OverloadConfig::protective()
        }
    }

    fn peers(loads: &[(u16, u32)]) -> Vec<(NodeId, u32)> {
        loads.iter().map(|&(n, l)| (NodeId(n), l)).collect()
    }

    #[test]
    fn node_lists_are_ascending_and_round_trip() {
        let mask = with_member(with_member(all_nodes(0), 5, true), 127, true);
        let list = NodeList::from_mask(with_member(mask, 0, true));
        assert_eq!(&*list, &[NodeId(0), NodeId(5), NodeId(127)]);
        assert_eq!(list.mask(), with_member(mask, 0, true));
        assert!(NodeList::from_mask(0).is_empty());
        assert_eq!(NodeList::from_mask(all_nodes(MAX_NODES)).len(), MAX_NODES);
        assert_eq!(all_nodes(3), 0b111);
        assert!(is_member(all_nodes(3), 2) && !is_member(all_nodes(3), 3));
        assert!(!is_member(with_member(all_nodes(3), 1, false), 1));
    }

    #[test]
    fn directory_add_evict_and_live_filter() {
        let mut d = CacheDirectory::new(4);
        let f = FileId(2);
        assert!(!d.cached_anywhere(f));
        d.add(f, 3);
        d.add(f, 1);
        d.add(f, 1);
        assert!(d.cached_anywhere(f));
        assert_eq!(&*d.live_cachers(f, all_nodes(4)), &[NodeId(1), NodeId(3)]);
        // Dead peers drop out of the candidates, not out of the directory.
        let live = with_member(all_nodes(4), 3, false);
        assert_eq!(&*d.live_cachers(f, live), &[NodeId(1)]);
        d.evict(f, 1);
        assert_eq!(&*d.live_cachers(f, all_nodes(4)), &[NodeId(3)]);
        d.evict(f, 0); // evicting a non-holder is a no-op
        assert_eq!(&*d.live_cachers(f, all_nodes(4)), &[NodeId(3)]);
        assert!(d.live_cachers(FileId(0), all_nodes(4)).is_empty());
    }

    #[test]
    fn directory_forget_node_and_invalidate() {
        let mut d = CacheDirectory::new(3);
        for f in 0..3 {
            d.add(FileId(f), 0);
            d.add(FileId(f), 2);
        }
        d.forget_node(2);
        for f in 0..3 {
            assert_eq!(&*d.live_cachers(FileId(f), all_nodes(3)), &[NodeId(0)]);
        }
        d.add(FileId(1), 1);
        let held = d.invalidate(FileId(1));
        assert_eq!(&*held, &[NodeId(0), NodeId(1)]);
        assert!(!d.cached_anywhere(FileId(1)));
        assert!(d.cached_anywhere(FileId(0)), "other files untouched");
        assert!(d.invalidate(FileId(1)).is_empty());
    }

    #[test]
    fn disabled_guard_admits_every_peer_but_itself() {
        let mut g = PeerGuard::new(1, 4, &OverloadConfig::disabled());
        assert!(g.allows(0, 0) && g.allows(3, 0));
        assert!(!g.allows(1, 0), "never the calling node");
        for t in 0..10 {
            assert!(!g.on_miss(2, t), "no breakers, nothing opens");
        }
        assert!(g.allows(2, 10));
        let d = Decision::Forward(NodeId(2));
        assert_eq!(g.admit(d, peers(&[(0, 0)]), 10), d);
    }

    #[test]
    fn misses_open_the_breaker_once_and_success_closes_it() {
        let mut g = PeerGuard::new(0, 3, &protected(2));
        assert!(!g.on_miss(0, 0), "misses charged to self are ignored");
        assert!(!g.on_miss(1, 1));
        assert!(g.on_miss(1, 2), "second consecutive miss opens");
        assert!(!g.allows(1, 3));
        assert!(!g.on_miss(1, 4), "already open: no new transition");
        assert!(g.allows(1, 200), "cooldown over admits a probe");
        g.on_send(1, 200);
        assert!(!g.allows(1, 201), "one probe in flight");
        g.on_success(1);
        assert!(g.allows(1, 202));
    }

    #[test]
    fn admit_diverts_to_least_loaded_admissible_or_serves_locally() {
        let mut g = PeerGuard::new(0, 5, &protected(1));
        g.on_miss(2, 0);
        let alts = peers(&[(0, 0), (1, 9), (2, 1), (3, 4), (4, 4)]);
        // Admitted targets and local service pass through.
        let fwd3 = Decision::Forward(NodeId(3));
        assert_eq!(g.admit(fwd3, alts.clone(), 1), fwd3);
        assert_eq!(
            g.admit(Decision::ServeLocal, alts.clone(), 1),
            Decision::ServeLocal
        );
        // Refused: least loaded admissible, ties to the lower id, never
        // ourselves (load 0) nor the refused peer.
        let fwd2 = Decision::Forward(NodeId(2));
        assert_eq!(g.admit(fwd2, alts.clone(), 1), fwd3);
        // Nothing admissible: serve locally.
        assert_eq!(
            g.admit(fwd2, peers(&[(0, 0), (2, 1)]), 1),
            Decision::ServeLocal
        );
    }

    #[test]
    fn reroute_prefers_other_peers_then_retransmits_then_fails_over() {
        let g = PeerGuard::new(0, 4, &protected(3));
        let c = peers(&[(0, 0), (1, 5), (2, 3), (3, 3)]);
        assert_eq!(
            g.reroute(NodeId(2), 0, 3, c.clone(), true, 1),
            Reroute::To(NodeId(3))
        );
        assert_eq!(
            g.reroute(NodeId(3), 1, 3, c.clone(), true, 1),
            Reroute::To(NodeId(2))
        );
        // Out of retries: fail over whatever is available.
        assert_eq!(g.reroute(NodeId(2), 3, 3, c, true, 1), Reroute::Failover);
        // The failed peer is the only live cacher: retransmit while it
        // still looks alive, fail over once membership evicts it.
        let sole = peers(&[(0, 0), (2, 3)]);
        assert_eq!(
            g.reroute(NodeId(2), 0, 3, sole.clone(), true, 1),
            Reroute::To(NodeId(2))
        );
        assert_eq!(
            g.reroute(NodeId(2), 0, 3, sole, false, 1),
            Reroute::Failover
        );
        // Nobody else caches it at all.
        assert_eq!(
            g.reroute(NodeId(1), 0, 3, peers(&[(0, 0)]), false, 1),
            Reroute::Failover
        );
    }

    #[test]
    fn reroute_never_retransmits_through_an_open_breaker() {
        let mut g = PeerGuard::new(0, 3, &protected(1));
        assert!(g.on_miss(2, 0));
        let sole = peers(&[(2, 0)]);
        assert_eq!(g.reroute(NodeId(2), 0, 3, sole, true, 1), Reroute::Failover);
        let other = peers(&[(1, 7), (2, 0)]);
        assert_eq!(
            g.reroute(NodeId(1), 0, 3, other, true, 1),
            Reroute::To(NodeId(1))
        );
        // A failed peer equal to the caller (a request it serves) is
        // never a target either.
        assert_eq!(
            g.reroute(NodeId(0), 0, 3, peers(&[(0, 0)]), true, 1),
            Reroute::Failover
        );
    }
}
