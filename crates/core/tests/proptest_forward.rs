//! Property tests for the shared forwarding core: whatever the breaker
//! history, membership and caching state, the breaker divert (`admit`)
//! and the timeout re-route (`reroute`) only ever pick an admissible,
//! live, caching peer other than the calling node, pick the least
//! loaded one, and fail over exactly when nothing admissible is left or
//! the retries are spent.

use press_cluster::NodeId;
use press_core::forward::{all_nodes, is_member, with_member};
use press_core::{BreakerConfig, CacheDirectory, Decision, OverloadConfig, PeerGuard, Reroute};
use press_trace::FileId;
use proptest::collection::vec;
use proptest::prelude::*;

const FILE: FileId = FileId(0);

/// One generated cluster state, seen from node `me`.
struct World {
    me: u16,
    guard: PeerGuard,
    directory: CacheDirectory,
    live: u128,
    loads: Vec<u32>,
    now: u64,
}

/// Builds node `me`'s state over `n` nodes: a breaker history of
/// `(peer, missed?, dt)` outcomes (a success closes, misses open after
/// `threshold` in a row), caching and liveness bits, and loads.
#[allow(clippy::too_many_arguments)]
fn world(
    n: u16,
    me: u16,
    threshold: u32,
    history: &[(u16, bool, u64)],
    cached: u64,
    dead: u64,
    loads: Vec<u32>,
    now_offset: u64,
) -> World {
    let me = me % n;
    let cfg = OverloadConfig {
        breaker: BreakerConfig {
            failure_threshold: threshold,
            cooldown_micros: 1_000,
        },
        ..OverloadConfig::protective()
    };
    let mut guard = PeerGuard::new(me, n as usize, &cfg);
    let mut now = 0;
    for &(peer, missed, dt) in history {
        now += dt;
        let peer = peer % n;
        if missed {
            guard.on_miss(peer, now);
        } else if guard.allows(peer, now) {
            guard.on_send(peer, now);
            guard.on_success(peer);
        }
    }
    let mut directory = CacheDirectory::new(1);
    let mut live = all_nodes(n as usize);
    for i in 0..n {
        if is_member(u128::from(cached), i) {
            directory.add(FILE, i);
        }
        if is_member(u128::from(dead), i) && i != me {
            live = with_member(live, i, false);
        }
    }
    World {
        me,
        guard,
        directory,
        live,
        loads: loads.into_iter().take(n as usize).collect(),
        now: now + now_offset,
    }
}

impl World {
    fn candidates(&self) -> Vec<(NodeId, u32)> {
        self.directory
            .live_cachers(FILE, self.live)
            .iter()
            .map(|&c| (c, self.loads[c.0 as usize]))
            .collect()
    }

    /// Whether `p` is a legal forwarding target: admitted by the
    /// breaker, live, caching the file, and not the caller.
    fn legal(&self, p: NodeId) -> bool {
        p.0 != self.me
            && self.guard.allows(p.0, self.now)
            && is_member(self.live, p.0)
            && self.directory.live_cachers(FILE, self.live).contains(&p)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The divert keeps admitted decisions, and replaces a refused
    /// forward with the least-loaded legal cacher or local service.
    #[test]
    fn admit_only_picks_legal_least_loaded_peers(
        n in 2u16..12,
        me in 0u16..12,
        threshold in 1u32..4,
        history in vec((0u16..12, proptest::bool::ANY, 0u64..400), 0..40),
        cached in 0u64..4096,
        dead in 0u64..4096,
        loads in vec(0u32..6, 12),
        pick in 0usize..12,
        now_offset in 0u64..1_500,
    ) {
        let w = world(n, me, threshold, &history, cached, dead, loads, now_offset);
        let cands = w.candidates();
        // What `decide` may hand over: local service, or a remote cacher.
        let remote: Vec<NodeId> = cands.iter().map(|&(c, _)| c).filter(|c| c.0 != w.me).collect();
        let decision = if remote.is_empty() {
            Decision::ServeLocal
        } else {
            Decision::Forward(remote[pick % remote.len()])
        };
        let admitted = w.guard.admit(decision, cands.clone(), w.now);
        match (decision, admitted) {
            (_, Decision::ServeLocal) => {
                // Local service only when nothing legal was refused into.
                if let Decision::Forward(t) = decision {
                    prop_assert!(!w.guard.allows(t.0, w.now));
                    prop_assert!(cands.iter().all(|&(c, _)| !w.legal(c)));
                }
            }
            (Decision::Forward(t), Decision::Forward(p)) => {
                prop_assert!(w.legal(p), "illegal target {p:?}");
                if p != t {
                    prop_assert!(!w.guard.allows(t.0, w.now), "diverted an admitted forward");
                    let best = cands.iter().filter(|&&(c, _)| w.legal(c)).map(|&(c, l)| (l, c.0)).min();
                    prop_assert_eq!(best, Some((w.loads[p.0 as usize], p.0)));
                }
            }
            (Decision::ServeLocal, Decision::Forward(_)) => {
                prop_assert!(false, "local service was turned into a forward");
            }
        }
    }

    /// Re-routes go to the least-loaded legal peer other than the one that
    /// failed; the failed peer gets the request again only when it is the
    /// sole admissible live peer; failover happens exactly when retries
    /// are spent or no peer is admissible.
    #[test]
    fn reroute_fails_over_exactly_when_nothing_is_admissible(
        n in 2u16..12,
        me in 0u16..12,
        threshold in 1u32..4,
        history in vec((0u16..12, proptest::bool::ANY, 0u64..400), 0..40),
        cached in 0u64..4096,
        dead in 0u64..4096,
        loads in vec(0u32..6, 12),
        failed in 0u16..12,
        attempt in 0u32..5,
        max_retries in 0u32..5,
        now_offset in 0u64..1_500,
    ) {
        let w = world(n, me, threshold, &history, cached, dead, loads, now_offset);
        let failed = NodeId(failed % n);
        let failed_live = is_member(w.live, failed.0);
        let cands = w.candidates();
        let route = w.guard.reroute(failed, attempt, max_retries, cands.clone(), failed_live, w.now);
        let others: Vec<(u32, u16)> = cands
            .iter()
            .filter(|&&(c, _)| c != failed && w.legal(c))
            .map(|&(c, l)| (l, c.0))
            .collect();
        let retransmit = failed.0 != w.me && failed_live && w.guard.allows(failed.0, w.now);
        let admissible = !others.is_empty() || retransmit;
        prop_assert_eq!(route == Reroute::Failover, attempt >= max_retries || !admissible);
        if let Reroute::To(p) = route {
            prop_assert!(p.0 != w.me && w.guard.allows(p.0, w.now) && is_member(w.live, p.0));
            if p == failed {
                prop_assert!(others.is_empty(), "retransmitted while {others:?} was admissible");
            } else {
                prop_assert!(w.legal(p));
                prop_assert_eq!(others.iter().min().copied(), Some((w.loads[p.0 as usize], p.0)));
            }
        }
    }
}
