//! The per-layer table every traced run prints, whatever its engine.
//!
//! Counts that only one engine produces read 0 on the other engine's
//! workloads: that layer is bypassed there. Probes run on every workload
//! with that workload's inputs.

use crate::probes::{self, ProbeInputs};
use crate::report::Metrics;
use crate::spans::Spans;

#[derive(Default)]
pub struct Layers {
    pub trace_build_ms: f64,
    pub trace_sample_ns: f64,
    pub sim_queue_ns_per_event: f64,
    pub net_msgs_per_req: f64,
    pub net_bytes_per_req: f64,
    pub net_load_msgs_per_req: f64,
    pub net_flow_msgs_per_req: f64,
    pub net_forward_msgs_per_req: f64,
    pub net_caching_msgs_per_req: f64,
    pub net_file_msgs_per_req: f64,
    pub cluster_cache_access_ns: f64,
    pub cluster_cache_hit_ratio: f64,
    pub core_decide_ns: f64,
    pub core_forward_fraction: f64,
    pub core_retries: f64,
    pub core_shed: f64,
    pub collect_tree_build_ns: f64,
    pub collect_sample_peers_ns: f64,
    pub via_send_recv_us_small: f64,
    pub via_send_recv_us_8k: f64,
    pub via_rdma_write_us_8k: f64,
    pub via_doorbell_partial_flush_us: f64,
    pub server_forwarded_per_req: f64,
    pub server_file_msgs_per_req: f64,
    pub server_flow_msgs_per_req: f64,
    pub server_caching_msgs_per_req: f64,
    pub server_rdma_load_writes_per_req: f64,
    pub server_disk_reads_per_req: f64,
    pub server_invalidations_per_req: f64,
    pub server_retries: f64,
    pub server_via_errors: f64,
    pub server_shed: f64,
    pub server_via_post_complete_us_p50: f64,
    pub server_via_post_complete_us_p99: f64,
    pub server_disk_read_us: f64,
    pub server_credit_stall_per_req: f64,
    pub telem_trace_overhead_ratio: f64,
    pub fail_ratio: f64,
}

impl Layers {
    /// Runs every probe on the workload's inputs, each in its own span.
    pub fn probe(&mut self, spans: &mut Spans, inp: &ProbeInputs) {
        spans.scope("probes", 0, |spans| {
            self.sim_queue_ns_per_event =
                spans.scope("sim.queue", 0, |_| probes::queue_ns_per_event(inp));
            self.cluster_cache_access_ns =
                spans.scope("cluster.cache", 0, |_| probes::cache_access_ns(inp));
            self.core_decide_ns = spans.scope("core.decide", 0, |_| probes::decide_ns(inp));
            self.collect_tree_build_ns =
                spans.scope("collect.tree_build", 0, |_| probes::tree_build_ns(inp));
            self.collect_sample_peers_ns =
                spans.scope("collect.sample_peers", 0, |_| probes::sample_peers_ns(inp));
            let via = spans.scope("via", 0, |_| probes::via_times(inp));
            self.via_send_recv_us_small = via.send_recv_small;
            self.via_send_recv_us_8k = via.send_recv_file;
            self.via_rdma_write_us_8k = via.rdma_write_file;
            self.via_doorbell_partial_flush_us = via.doorbell_partial_flush;
        });
    }

    pub fn into_metrics(self) -> Metrics {
        let rows: [(&'static str, &'static str, f64); 38] = [
            ("trace.build_ms", "ms", self.trace_build_ms),
            ("trace.sample_ns", "ns", self.trace_sample_ns),
            ("sim.queue_ns_per_event", "ns", self.sim_queue_ns_per_event),
            ("net.msgs_per_req", "msg/req", self.net_msgs_per_req),
            ("net.bytes_per_req", "B/req", self.net_bytes_per_req),
            (
                "net.load_msgs_per_req",
                "msg/req",
                self.net_load_msgs_per_req,
            ),
            (
                "net.flow_msgs_per_req",
                "msg/req",
                self.net_flow_msgs_per_req,
            ),
            (
                "net.forward_msgs_per_req",
                "msg/req",
                self.net_forward_msgs_per_req,
            ),
            (
                "net.caching_msgs_per_req",
                "msg/req",
                self.net_caching_msgs_per_req,
            ),
            (
                "net.file_msgs_per_req",
                "msg/req",
                self.net_file_msgs_per_req,
            ),
            (
                "cluster.cache_access_ns",
                "ns",
                self.cluster_cache_access_ns,
            ),
            (
                "cluster.cache_hit_ratio",
                "ratio",
                self.cluster_cache_hit_ratio,
            ),
            ("core.decide_ns", "ns", self.core_decide_ns),
            ("core.forward_fraction", "ratio", self.core_forward_fraction),
            ("core.retries", "count", self.core_retries),
            ("core.shed", "count", self.core_shed),
            ("collect.tree_build_ns", "ns", self.collect_tree_build_ns),
            (
                "collect.sample_peers_ns",
                "ns",
                self.collect_sample_peers_ns,
            ),
            ("via.send_recv_us_small", "us", self.via_send_recv_us_small),
            ("via.send_recv_us_8k", "us", self.via_send_recv_us_8k),
            ("via.rdma_write_us_8k", "us", self.via_rdma_write_us_8k),
            (
                "via.doorbell_partial_flush_us",
                "us",
                self.via_doorbell_partial_flush_us,
            ),
            (
                "server.forwarded_per_req",
                "1/req",
                self.server_forwarded_per_req,
            ),
            (
                "server.file_msgs_per_req",
                "msg/req",
                self.server_file_msgs_per_req,
            ),
            (
                "server.flow_msgs_per_req",
                "msg/req",
                self.server_flow_msgs_per_req,
            ),
            (
                "server.caching_msgs_per_req",
                "msg/req",
                self.server_caching_msgs_per_req,
            ),
            (
                "server.rdma_load_writes_per_req",
                "op/req",
                self.server_rdma_load_writes_per_req,
            ),
            (
                "server.disk_reads_per_req",
                "op/req",
                self.server_disk_reads_per_req,
            ),
            (
                "server.invalidations_per_req",
                "op/req",
                self.server_invalidations_per_req,
            ),
            ("server.retries", "count", self.server_retries),
            ("server.via_errors", "count", self.server_via_errors),
            ("server.shed", "count", self.server_shed),
            (
                "server.via_post_complete_us_p50",
                "us",
                self.server_via_post_complete_us_p50,
            ),
            (
                "server.via_post_complete_us_p99",
                "us",
                self.server_via_post_complete_us_p99,
            ),
            ("server.disk_read_us", "us", self.server_disk_read_us),
            (
                "server.credit_stall_per_req",
                "1/req",
                self.server_credit_stall_per_req,
            ),
            (
                "telem.trace_overhead_ratio",
                "ratio",
                self.telem_trace_overhead_ratio,
            ),
            ("fail_ratio", "ratio", self.fail_ratio),
        ];
        let mut m = Metrics::default();
        for (name, unit, value) in rows {
            m.push(name, unit, value);
        }
        m
    }
}
