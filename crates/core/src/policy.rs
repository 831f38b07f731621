//! The locality-conscious request-distribution policy (Section 2.2).

use press_cluster::NodeId;

/// Tunables of the distribution policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyConfig {
    /// A node is overloaded when its open connections exceed this
    /// threshold (`T = 80` in the paper's experiments).
    pub overload_threshold: u32,
    /// Requests for files at least this large are always serviced locally
    /// by the initial node (512 KB in the paper's prototype).
    pub large_file_cutoff: u64,
}

impl PolicyConfig {
    /// The paper's values: `T = 80`, cutoff 512 KB.
    pub fn new() -> Self {
        PolicyConfig {
            overload_threshold: 80,
            large_file_cutoff: 512 * 1024,
        }
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig::new()
    }
}

/// What the initial node decides to do with a parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Service the request at the initial node (reading from disk and
    /// caching the file if it is not already cached there).
    ServeLocal,
    /// Forward the request to the given service node, which caches the
    /// file (or will read and cache it).
    Forward(NodeId),
}

/// Everything the initial node knows when it makes a decision.
#[derive(Debug, Clone, Copy)]
pub struct RequestView<'a> {
    /// The node that accepted the request.
    pub initial: NodeId,
    /// Size of the requested file in bytes.
    pub file_bytes: u64,
    /// Whether the initial node caches the file.
    pub cached_locally: bool,
    /// Whether this is the first request ever for the file (no node has
    /// cached it).
    pub first_request: bool,
    /// Nodes believed to cache the file (from caching-info broadcasts).
    pub cachers: &'a [NodeId],
    /// The initial node's *view* of every node's load, indexed by node.
    /// With piggy-backing or broadcast dissemination this view can lag
    /// reality; with no dissemination it is all zeros.
    pub loads: &'a [u32],
    /// Whether load information may be used (false for the NLB strategy).
    pub load_balancing: bool,
}

/// Decides where a request is serviced, following Section 2.2:
///
/// 1. large files (≥ cutoff) are always serviced locally;
/// 2. the initial node serves the first request for a file, and any file
///    it already caches;
/// 3. otherwise the least-loaded caching node is the candidate, and is
///    chosen unless it is overloaded while either the initial node or the
///    globally least-loaded node is not — in which case the initial node
///    serves (and thereby replicates) the file.
///
/// Under NLB (`load_balancing == false`) step 3 degenerates to "forward to
/// the lowest-numbered caching node", with no overload escape hatch.
///
/// # Example
///
/// ```
/// use press_core::{decide, Decision, PolicyConfig, RequestView};
/// use press_cluster::NodeId;
///
/// let cfg = PolicyConfig::default();
/// let view = RequestView {
///     initial: NodeId(0),
///     file_bytes: 10_000,
///     cached_locally: false,
///     first_request: false,
///     cachers: &[NodeId(2), NodeId(3)],
///     loads: &[10, 0, 50, 5],
///     load_balancing: true,
/// };
/// // Node 3 is the least-loaded cacher and not overloaded:
/// assert_eq!(decide(&cfg, &view), Decision::Forward(NodeId(3)));
/// ```
pub fn decide(cfg: &PolicyConfig, view: &RequestView<'_>) -> Decision {
    if view.file_bytes >= cfg.large_file_cutoff {
        return Decision::ServeLocal;
    }
    if view.first_request || view.cached_locally {
        return Decision::ServeLocal;
    }
    // Candidates are remote cachers; if only the initial node caches it we
    // would have hit `cached_locally`, and if nobody does, `first_request`
    // handling (or a lost broadcast) leaves us serving locally.
    let remote_cachers = view.cachers.iter().copied().filter(|&n| n != view.initial);
    if !view.load_balancing {
        return match remote_cachers.min_by_key(|n| n.0) {
            Some(n) => Decision::Forward(n),
            None => Decision::ServeLocal,
        };
    }
    let load = |n: NodeId| view.loads.get(n.0 as usize).copied().unwrap_or(0);
    let candidate = match remote_cachers.min_by_key(|&n| (load(n), n.0)) {
        Some(c) => c,
        None => return Decision::ServeLocal,
    };
    let overloaded = |n: NodeId| load(n) > cfg.overload_threshold;
    if !overloaded(candidate) {
        return Decision::Forward(candidate);
    }
    // Candidate is overloaded. Forward anyway only if the initial node and
    // the globally least-loaded node are overloaded too; otherwise serve
    // locally, replicating the popular file.
    let global_min = (0..view.loads.len() as u16)
        .map(NodeId)
        .min_by_key(|&n| (load(n), n.0))
        .unwrap_or(view.initial);
    if overloaded(view.initial) && overloaded(global_min) {
        Decision::Forward(candidate)
    } else {
        Decision::ServeLocal
    }
}

/// The power-of-two-choices variant of [`decide`]: the candidate set is
/// restricted to the probed cachers (`probed`, each with the load it
/// reported), whose loads are *fresh* rather
/// than a lagging broadcast view. Steps 1–2 of the policy are assumed to
/// have run already (probes are only issued for requests that would
/// otherwise forward), so this only re-runs step 3 over the sample.
///
/// The overload escape hatch compares the freshest numbers available:
/// the best probed load against the initial node's own (exact) load.
pub fn decide_probed(
    cfg: &PolicyConfig,
    initial: NodeId,
    own_load: u32,
    probed: &[(NodeId, u32)],
) -> Decision {
    let candidate = probed
        .iter()
        .copied()
        .filter(|&(n, _)| n != initial)
        .min_by_key(|&(n, load)| (load, n.0));
    let Some((node, load)) = candidate else {
        return Decision::ServeLocal;
    };
    if load <= cfg.overload_threshold || own_load > cfg.overload_threshold {
        Decision::Forward(node)
    } else {
        Decision::ServeLocal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_view<'a>(cachers: &'a [NodeId], loads: &'a [u32]) -> RequestView<'a> {
        RequestView {
            initial: NodeId(0),
            file_bytes: 8_192,
            cached_locally: false,
            first_request: false,
            cachers,
            loads,
            load_balancing: true,
        }
    }

    #[test]
    fn large_files_always_local() {
        let cfg = PolicyConfig::default();
        let cachers = [NodeId(1)];
        let loads = [0, 0];
        let mut v = base_view(&cachers, &loads);
        v.file_bytes = 512 * 1024;
        assert_eq!(decide(&cfg, &v), Decision::ServeLocal);
    }

    #[test]
    fn first_request_local() {
        let cfg = PolicyConfig::default();
        let mut v = base_view(&[], &[0, 0]);
        v.first_request = true;
        assert_eq!(decide(&cfg, &v), Decision::ServeLocal);
    }

    #[test]
    fn locally_cached_stays_local() {
        let cfg = PolicyConfig::default();
        let cachers = [NodeId(0), NodeId(1)];
        let loads = [99, 0];
        let mut v = base_view(&cachers, &loads);
        v.cached_locally = true;
        assert_eq!(decide(&cfg, &v), Decision::ServeLocal);
    }

    #[test]
    fn forwards_to_least_loaded_cacher() {
        let cfg = PolicyConfig::default();
        let cachers = [NodeId(1), NodeId(2), NodeId(3)];
        let loads = [0, 40, 10, 20];
        let v = base_view(&cachers, &loads);
        assert_eq!(decide(&cfg, &v), Decision::Forward(NodeId(2)));
    }

    #[test]
    fn overloaded_candidate_replicates_locally() {
        let cfg = PolicyConfig::default();
        let cachers = [NodeId(1)];
        // Candidate loaded over T=80, but the initial node is idle: the
        // initial node serves and replicates.
        let loads = [0, 81];
        let v = base_view(&cachers, &loads);
        assert_eq!(decide(&cfg, &v), Decision::ServeLocal);
    }

    #[test]
    fn forwards_when_everyone_overloaded() {
        let cfg = PolicyConfig::default();
        let cachers = [NodeId(1)];
        let loads = [90, 95, 85, 88];
        let v = base_view(&cachers, &loads);
        assert_eq!(decide(&cfg, &v), Decision::Forward(NodeId(1)));
    }

    #[test]
    fn nlb_ignores_load() {
        let cfg = PolicyConfig::default();
        let cachers = [NodeId(2), NodeId(1)];
        let loads = [0, 0, 1000];
        let mut v = base_view(&cachers, &loads);
        v.load_balancing = false;
        // Lowest-numbered remote cacher, regardless of load.
        assert_eq!(decide(&cfg, &v), Decision::Forward(NodeId(1)));
    }

    #[test]
    fn no_remote_cachers_serves_locally() {
        let cfg = PolicyConfig::default();
        let cachers = [NodeId(0)]; // only ourselves (stale broadcast)
        let loads = [0, 0];
        let v = base_view(&cachers, &loads);
        assert_eq!(decide(&cfg, &v), Decision::ServeLocal);
    }

    #[test]
    fn tie_broken_by_node_id() {
        let cfg = PolicyConfig::default();
        let cachers = [NodeId(3), NodeId(1)];
        let loads = [0, 7, 0, 7];
        let v = base_view(&cachers, &loads);
        assert_eq!(decide(&cfg, &v), Decision::Forward(NodeId(1)));
    }

    #[test]
    fn probed_picks_least_loaded_fresh_reply() {
        let cfg = PolicyConfig::default();
        let probed = [(NodeId(3), 12), (NodeId(1), 7)];
        assert_eq!(
            decide_probed(&cfg, NodeId(0), 5, &probed),
            Decision::Forward(NodeId(1))
        );
        // Ties break by node id, as in the full policy.
        assert_eq!(
            decide_probed(&cfg, NodeId(0), 5, &[(NodeId(3), 7), (NodeId(1), 7)]),
            Decision::Forward(NodeId(1))
        );
    }

    #[test]
    fn probed_overload_escape_matches_policy_shape() {
        let cfg = PolicyConfig::default();
        let probed = [(NodeId(2), 81)];
        // Probed peer overloaded, we are not: replicate locally.
        assert_eq!(
            decide_probed(&cfg, NodeId(0), 10, &probed),
            Decision::ServeLocal
        );
        // Everyone overloaded: forward anyway.
        assert_eq!(
            decide_probed(&cfg, NodeId(0), 90, &probed),
            Decision::Forward(NodeId(2))
        );
        // No usable replies (only ourselves): serve locally.
        assert_eq!(
            decide_probed(&cfg, NodeId(0), 10, &[(NodeId(0), 10)]),
            Decision::ServeLocal
        );
    }
}
