//! Integration tests: the live threaded PRESS cluster under real
//! concurrent load.

use std::sync::Arc;
use std::time::Duration;

use press_core::forward::{all_nodes, is_member};
use press_core::CacheDirectory;
use press_server::{
    file_contents, FileTransferMode, LiveCluster, LiveConfig, LiveError, ServerStats,
};
use press_trace::{FileCatalog, FileId};

const T: Duration = Duration::from_secs(20);

fn small_catalog(files: usize, bytes: u64) -> FileCatalog {
    FileCatalog::from_sizes(vec![bytes; files])
}

#[test]
fn traced_cluster_records_request_and_via_events() {
    use press_telem::{EventKind, LiveTracer};
    let tracer = LiveTracer::new();
    let cluster = LiveCluster::start_with_tracer(
        LiveConfig::default(),
        small_catalog(64, 1024),
        Some(Arc::clone(&tracer)),
    );
    for node in 0..cluster.nodes() {
        for f in [0u32, 9, 33, 57] {
            cluster.request(node, FileId(f), T).expect("request");
        }
    }
    let trace = cluster.shutdown_traced().expect("tracer was installed");
    assert!(!trace.events().is_empty());
    let kinds: Vec<EventKind> = trace.events().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::Arrive), "no arrivals traced");
    assert!(kinds.contains(&EventKind::Done), "no completions traced");
    assert!(
        kinds.contains(&EventKind::ViaPost),
        "no VIA descriptor posts traced"
    );
    // Requests were spread over every node, so spans come from several.
    assert!(trace.nodes().len() >= 2, "nodes: {:?}", trace.nodes());
    // Timestamps are monotonic wall-clock offsets from the tracer anchor.
    assert!(trace.events().windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
}

#[test]
fn untraced_cluster_returns_no_trace() {
    let cluster =
        LiveCluster::start_with_tracer(LiveConfig::default(), small_catalog(8, 256), None);
    cluster.request(0, FileId(3), T).expect("request");
    assert!(cluster.shutdown_traced().is_none());
}

#[test]
fn serves_correct_content_from_all_nodes() {
    let cluster = LiveCluster::start(LiveConfig::default(), small_catalog(64, 1024));
    for node in 0..cluster.nodes() {
        for f in [0u32, 7, 31, 63] {
            let data = cluster.request(node, FileId(f), T).expect("request");
            assert_eq!(
                data,
                file_contents(FileId(f), 1024),
                "file {f} via node {node}"
            );
        }
    }
    // With files hash-placed across 4 nodes, most of those requests were
    // forwarded and answered with intra-cluster file transfers.
    let stats = cluster.stats();
    assert!(
        ServerStats::get(&stats.forwarded) > 0,
        "no forwarding happened"
    );
    assert_eq!(
        ServerStats::get(&stats.forward_msgs),
        ServerStats::get(&stats.forwarded)
    );
    cluster.shutdown();
}

#[test]
fn concurrent_clients_hammering_all_nodes() {
    let cluster = Arc::new(LiveCluster::start(
        LiveConfig::default(),
        small_catalog(128, 2048),
    ));
    let mut handles = Vec::new();
    for c in 0..8 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..150u32 {
                let file = FileId((i * 13 + c * 29) % 128);
                let node = ((i + c) % 4) as usize;
                let data = cluster.request(node, file, T).expect("request");
                assert_eq!(
                    data,
                    file_contents(file, 2048),
                    "client {c} request {i} corrupt"
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    let stats = cluster.stats();
    assert_eq!(stats.completed(), 8 * 150);
    // Flow control must have cycled under this much traffic.
    assert!(ServerStats::get(&stats.flow_msgs) > 0);
    // Load dissemination through remote memory writes happened.
    assert!(ServerStats::get(&stats.rdma_load_writes) > 0);
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn cold_files_hit_disk_then_replicate() {
    // Caches too small for the whole catalog: some requests go to disk.
    let cfg = LiveConfig {
        cache_bytes: 8 * 1024, // 8 files of 1 KB per node
        disk_fixed: Duration::from_millis(1),
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, small_catalog(256, 1024));
    for f in 0..64u32 {
        let data = cluster.request(0, FileId(f), T).expect("request");
        assert_eq!(data, file_contents(FileId(f), 1024));
    }
    let stats = cluster.stats();
    assert!(
        ServerStats::get(&stats.disk_reads) > 0,
        "small caches must miss"
    );
    // Insertions broadcast caching information to the other nodes.
    assert!(ServerStats::get(&stats.caching_msgs) > 0);
    cluster.shutdown();
}

#[test]
fn load_tables_fill_in_via_rdma() {
    let cfg = LiveConfig {
        load_write_period: 1, // write on every event
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, small_catalog(64, 512));
    // Drive traffic through node 1 so its load gets written everywhere.
    for i in 0..40u32 {
        let _ = cluster.request(1, FileId(i % 64), T).expect("request");
    }
    // Some peer observed node 1's load table entry (the value itself is
    // racy — what matters is that remote memory writes landed).
    let observed: u64 = ServerStats::get(&cluster.stats().rdma_load_writes);
    assert!(observed > 0);
    let mut any_nonzero_row = false;
    for node in 0..cluster.nodes() {
        let table = cluster.load_table(node);
        assert_eq!(table.len(), cluster.nodes());
        if table.iter().any(|&v| v > 0) {
            any_nonzero_row = true;
        }
    }
    // Loads briefly spike during requests; at least the write machinery
    // must have deposited *something* at some point. (Zero rows can only
    // happen if every write carried load 0 — possible but then the
    // counter check above still validates the path.)
    let _ = any_nonzero_row;
    cluster.shutdown();
}

#[test]
fn unknown_file_is_rejected() {
    let cluster = LiveCluster::start(LiveConfig::default(), small_catalog(8, 256));
    assert_eq!(
        cluster.request(0, FileId(99), T),
        Err(LiveError::UnknownFile)
    );
    cluster.shutdown();
}

#[test]
fn shutdown_is_clean_and_quick() {
    let cluster = LiveCluster::start(LiveConfig::default(), small_catalog(32, 1024));
    let _ = cluster.request(0, FileId(1), T).expect("request");
    let start = std::time::Instant::now();
    cluster.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown hung: {:?}",
        start.elapsed()
    );
}

#[test]
fn mixed_file_sizes_transfer_intact() {
    let sizes: Vec<u64> = (0..48).map(|i| 64 + (i as u64 * 733) % 16_000).collect();
    let catalog = FileCatalog::from_sizes(sizes.clone());
    let cluster = LiveCluster::start(LiveConfig::default(), catalog);
    for (i, &len) in sizes.iter().enumerate() {
        let file = FileId(i as u32);
        let data = cluster
            .request(i % cluster.nodes(), file, T)
            .expect("request");
        assert_eq!(data.len(), len as usize);
        assert_eq!(data, file_contents(file, len as usize));
    }
    cluster.shutdown();
}

#[test]
fn eight_node_cluster_works() {
    let cfg = LiveConfig {
        nodes: 8,
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, small_catalog(200, 1500));
    for i in 0..100u32 {
        let node = (i % 8) as usize;
        let file = FileId((i * 7) % 200);
        let data = cluster.request(node, file, T).expect("request");
        assert_eq!(data, file_contents(file, 1500));
    }
    assert!(ServerStats::get(&cluster.stats().forwarded) > 20);
    cluster.shutdown();
}

#[test]
fn remote_write_mode_transfers_files_via_rings() {
    let cfg = LiveConfig {
        file_transfer: FileTransferMode::RemoteWrite,
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, small_catalog(96, 3000));
    for i in 0..300u32 {
        let file = FileId((i * 7) % 96);
        let node = (i % 4) as usize;
        let data = cluster.request(node, file, T).expect("request");
        assert_eq!(data, file_contents(file, 3000), "request {i}");
    }
    let stats = cluster.stats();
    assert!(ServerStats::get(&stats.forwarded) > 0);
    // Every forwarded file came back through a remote memory write, not a
    // regular message completion.
    assert_eq!(
        ServerStats::get(&stats.rdma_file_writes),
        ServerStats::get(&stats.file_msgs),
        "all file transfers should use RDMA in RemoteWrite mode"
    );
    assert!(ServerStats::get(&stats.rdma_file_writes) > 0);
    // Receive descriptors are header-sized in this mode: a message with a
    // payload would fail its post and show up here.
    assert_eq!(ServerStats::get(&stats.via_errors), 0);
    cluster.shutdown();
}

#[test]
fn remote_write_mode_survives_concurrency_and_ring_wrap() {
    // More requests than ring slots forces sequence-number wrap-around,
    // and concurrent clients interleave ring entries per pair.
    let cfg = LiveConfig {
        file_transfer: FileTransferMode::RemoteWrite,
        window: 4,
        credit_batch: 2,
        ..LiveConfig::default()
    };
    let cluster = Arc::new(LiveCluster::start(cfg, small_catalog(64, 4096)));
    let mut handles = Vec::new();
    for c in 0..6 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..120u32 {
                let file = FileId((i * 5 + c * 17) % 64);
                let data = cluster
                    .request(((i + c) % 4) as usize, file, T)
                    .expect("request");
                assert_eq!(data, file_contents(file, 4096), "client {c} req {i}");
            }
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    assert_eq!(ServerStats::get(&cluster.stats().via_errors), 0);
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("still shared"),
    }
}

#[test]
fn fast_path_cluster_serves_requests() {
    // V6: doorbell-coalesced sends staged in the slab pool, over the same
    // RemoteWrite file transfers V5 uses.
    let cfg = LiveConfig {
        file_transfer: FileTransferMode::RemoteWrite,
        doorbell_batch: 4,
        ..LiveConfig::default()
    };
    let cluster = Arc::new(LiveCluster::start(cfg, small_catalog(96, 3000)));
    let mut handles = Vec::new();
    for c in 0..6 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..120u32 {
                let file = FileId((i * 7 + c * 19) % 96);
                let data = cluster
                    .request(((i + c) % 4) as usize, file, T)
                    .expect("request");
                assert_eq!(data, file_contents(file, 3000), "client {c} req {i}");
            }
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    let stats = cluster.stats();
    assert_eq!(stats.completed(), 6 * 120);
    assert!(ServerStats::get(&stats.forwarded) > 0);
    // Fault-free run: no slab misuse, no failed posts.
    assert_eq!(ServerStats::get(&stats.via_errors), 0);
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("still shared"),
    }
}

#[test]
fn fast_path_traces_coalesced_doorbells() {
    use press_telem::{EventKind, LiveTracer};
    let tracer = LiveTracer::new();
    // A small window with batched credit returns makes the send thread
    // drain several queued messages back-to-back when credits arrive —
    // exactly the burst the doorbell exists to coalesce.
    let cfg = LiveConfig {
        window: 4,
        credit_batch: 4,
        doorbell_batch: 4,
        ..LiveConfig::default()
    };
    let cluster = Arc::new(LiveCluster::start_with_tracer(
        cfg,
        small_catalog(64, 2048),
        Some(Arc::clone(&tracer)),
    ));
    let mut handles = Vec::new();
    for c in 0..8u32 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..150u32 {
                let file = FileId((i * 13 + c * 29) % 64);
                cluster
                    .request(((i + c) % 4) as usize, file, T)
                    .expect("request");
            }
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    let cluster = match Arc::try_unwrap(cluster) {
        Ok(c) => c,
        Err(_) => panic!("still shared"),
    };
    let trace = cluster.shutdown_traced().expect("tracer was installed");
    // Batched posts carry the batch size in `b`; under this much traffic
    // at least one doorbell must have coalesced several descriptors.
    let coalesced = trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::ViaPost && e.b >= 2)
        .count();
    assert!(coalesced > 0, "no coalesced doorbell rings traced");
}

#[test]
fn fast_path_survives_window_pressure() {
    // Tiny windows force credit stalls — each stall must flush the
    // doorbell or the cluster deadlocks waiting on credits.
    let cfg = LiveConfig {
        window: 2,
        credit_batch: 1,
        doorbell_batch: 8,
        ..LiveConfig::default()
    };
    let cluster = Arc::new(LiveCluster::start(cfg, small_catalog(64, 4096)));
    let mut handles = Vec::new();
    for c in 0..6 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..80u32 {
                let file = FileId((i + c * 11) % 64);
                let data = cluster.request((c % 4) as usize, file, T).expect("request");
                assert_eq!(data.len(), 4096);
            }
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn fast_path_never_strands_a_partial_batch() {
    // One closed-loop client forwarding one request at a time never fills
    // an 8-descriptor batch: each Forward is posted only because the send
    // thread rings its doorbell before it sleeps. Nothing else may push a
    // stranded batch out: load-table writes are off, and the retry timer
    // is longer than the client's budget. A lost idle flush then shows up
    // as a timed-out request, with no timing assertion.
    let cfg = LiveConfig {
        file_transfer: FileTransferMode::RemoteWrite,
        doorbell_batch: 8,
        load_write_period: u32::MAX,
        retry_timeout: Duration::from_secs(60),
        ..LiveConfig::default()
    };
    let nodes = cfg.nodes;
    let catalog = small_catalog(64, 2048);
    let (directory, _) = CacheDirectory::warm_start(&catalog, nodes, cfg.cache_bytes);
    let cluster = LiveCluster::start(cfg, catalog);
    let requests = 300u32;
    for i in 0..requests {
        let file = FileId(i % 64);
        // Ask a node that does not cache the file, so it must forward.
        let cachers = directory.live_cachers(file, all_nodes(nodes)).mask();
        let node = (0..nodes)
            .find(|&n| !is_member(cachers, n as u16))
            .expect("a non-caching node");
        let data = cluster
            .request(node, file, Duration::from_secs(2))
            .unwrap_or_else(|e| panic!("request {i} for {file} at node {node}: {e}"));
        assert_eq!(data, file_contents(file, 2048), "request {i}");
    }
    let stats = cluster.stats();
    assert_eq!(ServerStats::get(&stats.forwarded), u64::from(requests));
    assert_eq!(ServerStats::get(&stats.retries), 0);
    cluster.shutdown();
}

#[test]
fn ring_pickup_does_not_wait_for_the_tick() {
    // One closed-loop client, every request forwarded: between requests
    // the origin's main thread is idle, so only the ring waker can tell
    // it that the file landed. Without it nothing else wakes that thread,
    // and every request waits out the main loop's full 1 ms retry tick.
    // With it the median is a few thread wake-ups: 0.1–0.8 ms on a
    // 2-vCPU host, debug builds and a busy host included. Comparing it
    // with the whole tick leaves room for a noisy host; without the
    // waker no request can finish under the tick.
    let cfg = LiveConfig {
        file_transfer: FileTransferMode::RemoteWrite,
        doorbell_batch: 1,
        ..LiveConfig::default()
    };
    let tick = Duration::from_millis(1);
    let nodes = cfg.nodes;
    let catalog = small_catalog(64, 2048);
    let (directory, _) = CacheDirectory::warm_start(&catalog, nodes, cfg.cache_bytes);
    let cluster = LiveCluster::start(cfg, catalog);
    let requests = 300u32;
    let mut latencies = Vec::with_capacity(requests as usize);
    for i in 0..requests {
        let file = FileId(i % 64);
        // Ask a node that does not cache the file, so it must forward.
        let cachers = directory.live_cachers(file, all_nodes(nodes)).mask();
        let node = (0..nodes)
            .find(|&n| !is_member(cachers, n as u16))
            .expect("a non-caching node");
        let start = std::time::Instant::now();
        let data = cluster
            .request(node, file, Duration::from_secs(2))
            .unwrap_or_else(|e| panic!("request {i} for {file} at node {node}: {e}"));
        latencies.push(start.elapsed());
        assert_eq!(data, file_contents(file, 2048), "request {i}");
    }
    let stats = cluster.stats();
    assert_eq!(ServerStats::get(&stats.forwarded), u64::from(requests));
    assert_eq!(
        ServerStats::get(&stats.rdma_file_writes),
        u64::from(requests)
    );
    latencies.sort_unstable();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < tick,
        "median forwarded request took {median:?}: ring pickups wait for the {tick:?} tick"
    );
    cluster.shutdown();
}

#[test]
fn window_pressure_does_not_deadlock() {
    // A tiny credit window with bursty traffic exercises queuing in the
    // send thread and the credit return path.
    let cfg = LiveConfig {
        window: 2,
        credit_batch: 1,
        ..LiveConfig::default()
    };
    let cluster = Arc::new(LiveCluster::start(cfg, small_catalog(64, 4096)));
    let mut handles = Vec::new();
    for c in 0..6 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for i in 0..80u32 {
                let file = FileId((i + c * 11) % 64);
                let data = cluster.request((c % 4) as usize, file, T).expect("request");
                assert_eq!(data.len(), 4096);
            }
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn tree_caching_and_sparse_loads_keep_cluster_consistent() {
    // 12 nodes: above FLAT_MAX_NODES, so caching broadcasts route over a
    // binomial tree (origin in the token's high bits, per-hop relays),
    // while load writes go to a random sample of 2 peers per period.
    let cfg = LiveConfig {
        nodes: 12,
        cache_bytes: 2 * 1024, // 2 files/node: most requests miss -> broadcasts
        disk_fixed: Duration::from_millis(1),
        load_write_period: 1,
        tree_caching: true,
        load_write_fanout: 2,
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::start(cfg, small_catalog(128, 1024));
    // Two passes: the first spreads cache insertions (tree broadcasts),
    // the second is served from caches found via the relayed state.
    for pass in 0..2 {
        for f in 0..64u32 {
            let node = ((f + pass) % 12) as usize;
            let data = cluster.request(node, FileId(f), T).expect("request");
            assert_eq!(data, file_contents(FileId(f), 1024), "file {f} pass {pass}");
        }
    }
    let stats = cluster.stats();
    assert!(
        ServerStats::get(&stats.caching_msgs) > 0,
        "tree broadcasts must still emit caching messages"
    );
    assert!(
        ServerStats::get(&stats.rdma_load_writes) > 0,
        "sparse fanout must still write load tables"
    );
    cluster.shutdown();
}
