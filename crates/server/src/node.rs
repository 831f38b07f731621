//! The per-node threads of the live server, mirroring Figure 2 of the
//! paper: a non-blocking main thread, helper threads for sending and
//! receiving intra-cluster messages, and a disk thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender, TryRecvError};
use press_cluster::{FileCache, NodeId};
use press_collect::{sample_peers, DetRng};
use press_core::forward::{broadcast_targets, is_member};
use press_core::{
    decide, decorrelated_jitter_micros, CacheDirectory, Decision, OverloadConfig, PeerGuard,
    PolicyConfig, RequestView, Reroute,
};
use press_telem::{EventKind, TraceHandle};
use press_trace::{FileCatalog, FileId};
use press_via::{
    Completion, CompletionKind, CompletionQueue, CreditWindow, Descriptor, Doorbell, MemHandle,
    Nic, RemoteBuffer, SlabPool, Vi, ViaError,
};
use std::collections::HashMap;

use crate::membership::Membership;
use crate::stats::ServerStats;
use crate::wire::{
    decode_ring_trailer, encode_ring_slot, file_contents, WireKind, WireMsg, HEADER_BYTES,
    RING_TRAILER_BYTES,
};

/// How file data travels back from the service node to the initial node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileTransferMode {
    /// Regular VIA send/receive: the receiver's posted descriptor
    /// completes and wakes the receive thread (versions V0–V2).
    Regular,
    /// Remote memory writes into per-pair circular buffers, discovered by
    /// the main thread polling sequence numbers (versions V3–V5). A ring
    /// write wakes an idle main thread ([`NodeEvent::RingWrite`]).
    RemoteWrite,
}

/// What a node sends back on a request's reply channel: the file bytes,
/// or an explicit rejection (backpressure made visible to the client
/// rather than silently queueing into an ever-deeper backlog).
#[derive(Debug)]
pub(crate) enum Reply {
    Data(Vec<u8>),
    Shed,
}

/// Events delivered to a node's main thread.
#[derive(Debug)]
pub(crate) enum NodeEvent {
    /// A client request arrived at this (initial) node.
    Client {
        file: FileId,
        reply: Sender<Reply>,
        /// The client's latency budget; overload protection sheds the
        /// request when the budget cannot cover the modeled service time.
        deadline: Option<Instant>,
    },
    /// A mid-run content update: every cached copy of `file` is stale and
    /// must be discarded (re-read from disk on next access).
    Invalidate { file: FileId },
    /// The receive thread decoded an intra-cluster message.
    Remote { from: usize, msg: WireMsg },
    /// The disk thread finished reading `file`.
    DiskDone { file: FileId },
    /// A remote write landed in one of this node's file rings: poll them.
    /// Coalesced through [`NodeCtx::ring_wake`], so at most one is queued
    /// per poll.
    RingWrite,
    /// Fault injection: this node crashes. In-flight state is lost and
    /// events are discarded until [`NodeEvent::Recover`].
    Crash,
    /// Fault injection: a crashed node rejoins with a cold cache.
    Recover,
    /// Stop the main loop.
    Shutdown,
}

/// Jobs for a node's send thread.
#[derive(Debug)]
pub(crate) enum SendJob {
    /// Transmit a message; `needs_credit` messages respect the window.
    Msg {
        to: usize,
        msg: WireMsg,
        needs_credit: bool,
    },
    /// Credits for the window toward `from`: a Flow's batch, or the
    /// refund of a message to `from` that failed in transport.
    Credits { from: usize, n: u32 },
    /// RDMA-write our current load into every peer's load table.
    RdmaLoad { load: u32 },
    /// A peer crashed or rejoined: restore its credit window to full and
    /// discard messages queued toward it (they would be stale on arrival).
    ResetPeer { peer: usize },
    /// Stop the send loop.
    Shutdown,
}

/// Everything a node's threads share.
pub(crate) struct NodeCtx {
    pub id: usize,
    pub nodes: usize,
    pub nic: Arc<Nic>,
    /// `vis[peer]` — the VI to each peer (None for self).
    pub vis: Vec<Option<Vi>>,
    /// Map from a VI's fabric id to the peer index (receive demux).
    pub vi_peers: HashMap<u64, usize>,
    /// Per-peer send region (window * slot_bytes).
    pub send_regions: Vec<Option<MemHandle>>,
    /// Per-peer region for flow-control sends (window small slots); flow
    /// messages bypass the credit window, so they get their own slots to
    /// avoid overwriting in-flight data messages.
    pub flow_regions: Vec<Option<MemHandle>>,
    /// This node's RDMA-writable load table (4 bytes per node).
    pub load_region: MemHandle,
    /// Every peer's load-table handle (for RDMA writes).
    pub peer_load_regions: Vec<MemHandle>,
    /// Scratch region for RDMA load writes.
    pub scratch_region: MemHandle,
    /// V6 fast path: the lock-free slab pool every outgoing message is
    /// staged in (None for V0–V5, which rotate through per-peer slots).
    pub send_pool: Option<Arc<SlabPool>>,
    /// Descriptors coalesced per doorbell ring; 1 disables the fast path.
    pub doorbell_batch: u32,
    /// How file data is transferred.
    pub file_mode: FileTransferMode,
    /// This node's inbound file rings, one per source peer
    /// (window slots of `ring_slot_bytes`); None in Regular mode.
    pub own_rings: Vec<Option<MemHandle>>,
    /// Every peer's inbound ring for data *we* send them.
    pub peer_rings: Vec<Option<MemHandle>>,
    /// Ring slot size: max payload + trailer.
    pub ring_slot_bytes: usize,
    /// Set while a [`NodeEvent::RingWrite`] is queued for the main loop:
    /// the ring wakers send one only when they flip it from clear, and the
    /// main loop clears it before each ring poll.
    pub ring_wake: Arc<AtomicBool>,
    pub window: u32,
    pub credit_batch: u32,
    /// Largest wire message: header plus the biggest file.
    pub slot_bytes: usize,
    /// Size of a posted receive descriptor and of a V6 slab slot; see
    /// [`msg_bytes_for`].
    pub msg_bytes: usize,
    pub stats: Arc<ServerStats>,
    pub shutdown: Arc<AtomicBool>,
    /// Cluster-wide view of which nodes are alive.
    pub membership: Arc<Membership>,
    /// This node's crash switch: while set, the receive thread drops all
    /// traffic on the floor (the node is unreachable, like a dead host).
    pub dead: Arc<AtomicBool>,
    /// Main-thread telemetry handle (wall-clock spans); None when tracing
    /// is off, leaving the hot path a single branch.
    pub trace: Option<TraceHandle>,
    /// Sparse load dissemination: RDMA-write the periodic load update to
    /// only this many sampled live peers (0 = all live peers).
    pub load_write_fanout: u32,
}

impl NodeCtx {
    /// Records one instant request-lifecycle event when tracing is on,
    /// returning its span id (0 when tracing is off) for causal chaining.
    fn trace_event(&self, kind: EventKind, req: u64, a: u64, b: u64) -> u32 {
        self.trace_event_in(kind, req, a, b, 0)
    }

    /// As [`NodeCtx::trace_event`], with an explicit causal parent — the
    /// receive side of a message stitches to the sender's span via the
    /// wire-carried `(token, parent_span)` context.
    fn trace_event_in(&self, kind: EventKind, req: u64, a: u64, b: u64, parent: u32) -> u32 {
        match &self.trace {
            Some(t) => t.instant_in(kind, req, a, b, parent),
            None => 0,
        }
    }
}

/// Per-node policy/runtime configuration shared by the main loop.
pub(crate) struct MainConfig {
    pub catalog: Arc<FileCatalog>,
    pub cache_bytes: u64,
    pub policy: PolicyConfig,
    /// Write the load table after this many main-loop events.
    pub load_write_period: u32,
    pub disk_tx: Sender<(FileId, u64)>,
    /// Base deadline for a forwarded request's reply; later attempts walk
    /// a decorrelated-jitter schedule in `[base, 8 * base]` before the
    /// request is re-routed or failed over.
    pub retry_timeout: Duration,
    /// Retries before a forwarded request falls back to local service.
    pub max_retries: u32,
    /// Overload protection: admission bound, deadline shedding, per-peer
    /// circuit breakers. Disabled leaves every path identical to pre-
    /// protection builds.
    pub overload: OverloadConfig,
    /// Seed of the retry-backoff jitter stream (the fault plan's seed, so
    /// both engines draw the same schedule for the same token).
    pub jitter_seed: u64,
    /// Fan caching broadcasts out along a collective tree over the
    /// membership bitmask instead of the flat per-peer loop.
    pub tree_caching: bool,
}

/// What to do when a disk read completes. Each waiter carries the trace
/// request id and causal parent span so the completion events stitch to
/// the request chain that queued the read.
enum DiskWaiter {
    ReplyLocal {
        reply: Sender<Reply>,
        treq: u64,
        parent: u32,
    },
    SendBack {
        to: usize,
        token: u64,
        parent: u32,
    },
}

/// One file's outstanding disk read plus everyone waiting on it.
struct DiskWait {
    /// Tracer nanoseconds when the read was queued (0 when tracing off).
    start_ns: u64,
    /// Trace request id / causal parent of the waiter that triggered the
    /// read (later waiters piggy-back on the same platter access).
    req: u64,
    parent: u32,
    waiters: Vec<DiskWaiter>,
}

/// A forwarded request awaiting its file data, with the recovery state
/// needed to re-route it if the service node stops answering.
struct Pending {
    reply: Sender<Reply>,
    file: FileId,
    /// The peer currently expected to answer.
    target: usize,
    /// How many times this request has been re-forwarded.
    attempt: u32,
    /// When to give up on `target` and retry elsewhere.
    deadline: Instant,
    /// Stable trace request id: retries mint fresh wire tokens, but the
    /// request's spans all carry the id assigned at client arrival.
    trace_req: u64,
}

/// The main thread: parses requests, decides locally-vs-forward, tracks
/// pending forwards, and never blocks on communication (helper threads do).
pub(crate) fn main_loop(
    ctx: Arc<NodeCtx>,
    cfg: MainConfig,
    events: Receiver<NodeEvent>,
    send_tx: Sender<SendJob>,
    prefill: Vec<(FileId, u64)>,
    directory: CacheDirectory,
) {
    let mut cache = FileCache::new(cfg.cache_bytes);
    for &(file, size) in &prefill {
        cache.insert(file, size);
    }
    let n = ctx.nodes;
    let mut m = Main {
        me: ctx.id as u16,
        cache,
        directory,
        pending: HashMap::new(),
        waiting_disk: HashMap::new(),
        guard: PeerGuard::new(ctx.id as u16, n, &cfg.overload),
        load: 0,
        loads: vec![0; n],
        next_token: (ctx.id as u64) << 48 | 1,
        t0: Instant::now(),
        crashed: false,
        ring_expected: vec![1; n],
        ring_returns: (0..n)
            .map(|_| CreditWindow::new(ctx.window, ctx.credit_batch))
            .collect(),
        ctx,
        cfg,
        send_tx,
    };
    let mut events_since_load_write = 0u32;
    // Retry deadlines are the only timed work: every arrival, ring writes
    // included, wakes the loop through the event channel.
    let tick = Duration::from_millis(1);
    loop {
        let event = match events.recv_timeout(tick) {
            Ok(ev) => Some(ev),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => None,
            Err(_) => break,
        };
        // A ring wake-up is not work of its own (the file it announces
        // completes a request counted at arrival), so it leaves the
        // load-write cadence alone.
        let got_event = !matches!(event, None | Some(NodeEvent::RingWrite));
        if let Some(event) = event {
            match event {
                NodeEvent::Shutdown => break,
                NodeEvent::Crash => m.crash(),
                NodeEvent::Recover => m.crashed = false,
                _ if m.crashed => {
                    // A dead host executes nothing. Client requests routed
                    // here before the membership change are lost (their
                    // reply channel drops).
                    if matches!(event, NodeEvent::Client { .. }) {
                        ServerStats::bump(&m.ctx.stats.requests_lost);
                    }
                }
                NodeEvent::Client {
                    file,
                    reply,
                    deadline,
                } => m.client(file, reply, deadline),
                NodeEvent::Invalidate { file } => {
                    // The old bytes are stale everywhere: drop our cached
                    // copy and forget who else held one (their copies are
                    // being dropped by the same broadcast).
                    if m.cache.remove(file) {
                        ServerStats::bump(&m.ctx.stats.invalidations);
                    }
                    m.directory.invalidate(file);
                }
                NodeEvent::Remote { from, msg } => m.remote(from, msg),
                NodeEvent::DiskDone { file } => m.disk_done(file),
                // The rings are polled below, as after every event.
                NodeEvent::RingWrite => {}
            }
        }
        // Poll the RMW file rings at the end of the main server loop, as
        // in the paper: consume every entry whose sequence number landed.
        if m.ctx.file_mode == FileTransferMode::RemoteWrite {
            // Clear the wake flag first: a write that lands after the poll
            // below finds it clear and queues a fresh RingWrite.
            // ordering: Acquire pairs with the waker's Release swap, so a
            // write whose wake was coalesced into this one is visible to
            // the poll.
            m.ctx.ring_wake.swap(false, Ordering::Acquire);
            m.poll_file_rings();
        }
        if !m.pending.is_empty() && !m.crashed {
            m.retry_expired();
        }
        // Periodic load dissemination through remote memory writes: no
        // receiver involvement, overwritable — the paper's ideal use.
        if got_event && !m.crashed {
            events_since_load_write += 1;
            if events_since_load_write >= m.cfg.load_write_period {
                events_since_load_write = 0;
                let _ = m.send_tx.send(SendJob::RdmaLoad { load: m.load });
            }
        }
    }
}

/// The main thread's state: the node's cache and caching directory, the
/// requests it has in flight, and the peer breakers and loads its
/// distribution decisions read.
struct Main {
    ctx: Arc<NodeCtx>,
    cfg: MainConfig,
    send_tx: Sender<SendJob>,
    me: u16,
    cache: FileCache,
    directory: CacheDirectory,
    /// Forwarded requests awaiting file data, by wire token.
    pending: HashMap<u64, Pending>,
    waiting_disk: HashMap<FileId, DiskWait>,
    /// Per-peer circuit breakers (inert when overload protection is off).
    guard: PeerGuard,
    /// Requests open at this node.
    load: u32,
    /// Peer loads as last observed; refreshed from the RDMA region.
    loads: Vec<u32>,
    next_token: u64,
    /// Breaker time origin: breaker time is micros since the loop started
    /// — monotonic, per-node, and never compared across nodes.
    t0: Instant,
    /// Set while fault injection has this node down: every event except
    /// Recover/Shutdown is discarded, like a host that stopped executing.
    crashed: bool,
    ring_expected: Vec<u64>,
    /// Receiver side of each source's credit window, for ring entries.
    ring_returns: Vec<CreditWindow<()>>,
}

impl Main {
    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Refreshes the peer loads from the RDMA-written load table.
    fn read_loads(&mut self) {
        let ctx = &self.ctx;
        if let Ok(bytes) = ctx.nic.read_region(ctx.load_region, 0, 4 * ctx.nodes) {
            for (i, chunk) in bytes.chunks_exact(4).enumerate() {
                self.loads[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
        }
        self.loads[ctx.id] = self.load;
    }

    fn crash(&mut self) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        // Everything in flight on this host is gone.
        let lost = self.pending.len()
            // press::allow(hash-iter): commutative sum —
            // the visit order cannot reach the total.
            + self.waiting_disk.values().map(|w| w.waiters.len()).sum::<usize>();
        ServerStats::add(&self.ctx.stats.requests_lost, lost as u64);
        self.pending.clear();
        self.waiting_disk.clear();
        // A restarted host comes back with a cold cache, and no longer
        // serves the files it used to hold.
        self.cache = FileCache::new(self.cfg.cache_bytes);
        self.directory.forget_node(self.me);
        self.load = 0;
    }

    /// A client request arrived: shed it, serve it here, or forward it.
    fn client(&mut self, file: FileId, reply: Sender<Reply>, deadline: Option<Instant>) {
        let ov = &self.cfg.overload;
        let admission_full =
            ov.enabled && ov.admission_limit > 0 && self.load >= ov.admission_limit;
        // A request whose remaining budget cannot cover even the modeled
        // service time is rejected now, while it is cheap, rather than
        // after consuming resources.
        let hopeless = !admission_full
            && ov.enabled
            && deadline.is_some_and(|dl| {
                let est = if self.cache.contains(file) {
                    Duration::ZERO
                } else {
                    Duration::from_micros(ov.service_estimate_micros)
                };
                Instant::now() + est > dl
            });
        if admission_full || hopeless {
            ServerStats::bump(if admission_full {
                &self.ctx.stats.shed_admission
            } else {
                &self.ctx.stats.shed_deadline
            });
            let _ = reply.send(Reply::Shed);
            return;
        }
        self.load += 1;
        let bytes = self.cfg.catalog.size(file);
        // Every admitted request gets a token: forwards use it on the
        // wire, and it keys the request's trace spans on every node it
        // touches.
        let treq = self.next_token;
        self.next_token += 1;
        let arrive_span = self
            .ctx
            .trace_event(EventKind::Arrive, treq, file.0 as u64, bytes);
        self.read_loads();
        // Crashed peers drop out of the candidate set the moment the
        // membership view changes, whatever the dissemination strategy
        // populated the directory with.
        let (_, live) = self.ctx.membership.snapshot();
        let cachers = self.directory.live_cachers(file, live as u128);
        let decision = decide(
            &self.cfg.policy,
            &RequestView {
                initial: NodeId(self.me),
                file_bytes: bytes,
                cached_locally: self.cache.contains(file),
                first_request: !self.directory.cached_anywhere(file),
                cachers: &cachers,
                loads: &self.loads,
                load_balancing: true,
            },
        );
        // The breaker says a peer stopped answering: steer to the best
        // admissible alternative cacher, or absorb the work locally rather
        // than feed a black hole.
        let alternatives = cachers.iter().map(|&c| (c, self.loads[c.0 as usize]));
        let admitted = self.guard.admit(decision, alternatives, self.now_us());
        if admitted != decision {
            ServerStats::bump(&self.ctx.stats.breaker_diverts);
        }
        let (forwarded, server) = match admitted {
            Decision::ServeLocal => (0, self.me),
            Decision::Forward(t) => (1, t.0),
        };
        let disp = self.ctx.trace_event_in(
            EventKind::Dispatch,
            treq,
            forwarded,
            server as u64,
            arrive_span,
        );
        if server == self.me {
            self.serve_local(file, reply, treq, disp);
        } else {
            ServerStats::bump(&self.ctx.stats.forwarded);
            // The token minted at arrival doubles as the first attempt's
            // wire token.
            let p = Pending {
                reply,
                file,
                target: server as usize,
                attempt: 0,
                deadline: Instant::now(),
                trace_req: treq,
            };
            self.send_forward(treq, p, disp);
        }
    }

    /// The receive thread decoded an intra-cluster message from `from`.
    fn remote(&mut self, from: usize, msg: WireMsg) {
        // Piggy-backed load keeps our view of the sender fresh even
        // between RDMA load writes.
        self.loads[from] = msg.sender_load;
        match msg.kind {
            WireKind::Forward => {
                let file = msg.file;
                // Stitch to the origin's ViaSend span via the message's
                // wire-carried causal context.
                let recv = self.ctx.trace_event_in(
                    EventKind::ViaRecv,
                    msg.token,
                    file.0 as u64,
                    from as u64,
                    msg.parent_span,
                );
                if self.cache.touch(file) {
                    let bytes = self.cfg.catalog.size(file);
                    let hit = self.ctx.trace_event_in(
                        EventKind::CacheHit,
                        msg.token,
                        file.0 as u64,
                        bytes,
                        recv,
                    );
                    self.send_file_back(from, msg.token, file, hit);
                } else {
                    let waiter = DiskWaiter::SendBack {
                        to: from,
                        token: msg.token,
                        parent: recv,
                    };
                    self.enqueue_disk(file, msg.token, recv, waiter);
                }
            }
            WireKind::FileData => {
                self.complete_forward(msg.token, from, msg.parent_span, msg.payload);
            }
            WireKind::Caching => {
                // Low byte: 0 = now caches, 1 = evicted. High bits:
                // origin+1 when tree-routed (0 = legacy flat send, where
                // the sender IS the origin).
                let action = msg.token & 0xFF;
                let origin_enc = msg.token >> 8;
                let origin = if origin_enc == 0 {
                    from
                } else {
                    (origin_enc - 1) as usize
                };
                if action == 0 {
                    self.directory.add(msg.file, origin as u16);
                } else {
                    self.directory.evict(msg.file, origin as u16);
                }
                if origin_enc != 0 {
                    let root = Some(origin as u16);
                    self.caching_fanout(msg.file, msg.token, msg.sender_load, root);
                }
            }
            // Flow is consumed by the receive thread.
            WireKind::Flow => {}
        }
    }

    /// The disk thread finished reading `file`.
    fn disk_done(&mut self, file: FileId) {
        let bytes = self.cfg.catalog.size(file);
        let wait = self.waiting_disk.remove(&file);
        // Charge the whole disk residency (enqueue to completion) as one
        // span on the request that caused the read; piggy-backed waiters
        // chain off it too.
        if let (Some(t), Some(w)) = (&self.ctx.trace, &wait) {
            t.span_in(
                w.start_ns,
                EventKind::DiskRead,
                w.req,
                file.0 as u64,
                bytes,
                w.parent,
            );
        }
        // Cache the file and broadcast the caching information (insertion
        // plus any evictions), as in Section 2.2.
        let evicted = self.cache.insert(file, bytes);
        self.directory.add(file, self.me);
        self.broadcast_caching(file, 0);
        for ev in evicted {
            self.directory.evict(ev, self.me);
            self.broadcast_caching(ev, 1);
        }
        for waiter in wait.map(|w| w.waiters).unwrap_or_default() {
            match waiter {
                DiskWaiter::ReplyLocal {
                    reply,
                    treq,
                    parent,
                } => self.reply_local(&reply, file, treq, parent),
                DiskWaiter::SendBack { to, token, parent } => {
                    self.send_file_back(to, token, file, parent)
                }
            }
        }
    }

    /// Replies to a client of this node with `file`'s bytes.
    fn reply_local(&mut self, reply: &Sender<Reply>, file: FileId, treq: u64, parent: u32) {
        let bytes = self.cfg.catalog.size(file);
        ServerStats::bump(&self.ctx.stats.served_local);
        let _ = reply.send(Reply::Data(file_contents(file, bytes as usize)));
        self.load = self.load.saturating_sub(1);
        self.ctx
            .trace_event_in(EventKind::Done, treq, file.0 as u64, bytes, parent);
    }

    /// Serves `file` at this node for `reply`: from the cache at once, or
    /// by queueing on a disk read. `parent` is the span the service chains
    /// from (the dispatch or failover decision).
    fn serve_local(&mut self, file: FileId, reply: Sender<Reply>, treq: u64, parent: u32) {
        if self.cache.touch(file) {
            let bytes = self.cfg.catalog.size(file);
            let hit =
                self.ctx
                    .trace_event_in(EventKind::CacheHit, treq, file.0 as u64, bytes, parent);
            self.reply_local(&reply, file, treq, hit);
        } else {
            let waiter = DiskWaiter::ReplyLocal {
                reply,
                treq,
                parent,
            };
            self.enqueue_disk(file, treq, parent, waiter);
        }
    }

    /// Queues a waiter on an in-flight (or newly issued) disk read. The
    /// first waiter for a file actually issues the read and owns the trace
    /// context the eventual `DiskRead` span is charged to; later waiters
    /// piggy-back on that read (and chain their own completion events off
    /// the same span).
    fn enqueue_disk(&mut self, file: FileId, treq: u64, parent: u32, waiter: DiskWaiter) {
        use std::collections::hash_map::Entry;
        match self.waiting_disk.entry(file) {
            Entry::Occupied(mut e) => e.get_mut().waiters.push(waiter),
            Entry::Vacant(e) => {
                e.insert(DiskWait {
                    start_ns: self.ctx.trace.as_ref().map(|t| t.now_ns()).unwrap_or(0),
                    req: treq,
                    parent,
                    waiters: vec![waiter],
                });
                ServerStats::bump(&self.ctx.stats.disk_reads);
                let _ = self.cfg.disk_tx.send((file, self.cfg.catalog.size(file)));
            }
        }
    }

    /// Sends pending request `p` to `p.target` under wire `token`. Its
    /// deadline comes in as the send time and leaves extended by the
    /// attempt's seeded decorrelated-jitter backoff (the simulator's
    /// `FaultPlan::backoff_micros`): attempt 0 waits the base timeout,
    /// later attempts walk a per-token schedule in `[base, 8 * base]`,
    /// which desynchronizes the retry storms a shared exponential
    /// schedule causes.
    fn send_forward(&mut self, token: u64, mut p: Pending, parent: u32) {
        let (file, target) = (p.file, p.target);
        let base = self.cfg.retry_timeout.as_micros() as u64;
        let backoff = decorrelated_jitter_micros(self.cfg.jitter_seed, token, base, p.attempt);
        p.deadline += Duration::from_micros(backoff);
        let bytes = self.cfg.catalog.size(file);
        let send_span = self.ctx.trace_event_in(
            EventKind::ViaSend,
            p.trace_req,
            bytes,
            target as u64,
            parent,
        );
        self.pending.insert(token, p);
        self.guard.on_send(target as u16, self.now_us());
        ServerStats::bump(&self.ctx.stats.forward_msgs);
        let msg = WireMsg::header(WireKind::Forward, file, token, self.load, send_span);
        self.send(target, msg);
    }

    /// A forward's file data arrived from `from` (by message or through a
    /// polled ring): the pending request completes, the peer's breaker
    /// closes, and the request leaves the load count. Data for a token no
    /// longer pending (a retried request whose first answer already won)
    /// falls through harmlessly.
    fn complete_forward(&mut self, token: u64, from: usize, parent: u32, payload: Vec<u8>) {
        let Some(p) = self.pending.remove(&token) else {
            return;
        };
        self.guard.on_success(p.target as u16);
        let bytes = payload.len() as u64;
        let recv =
            self.ctx
                .trace_event_in(EventKind::ViaRecv, p.trace_req, bytes, from as u64, parent);
        let _ = p.reply.send(Reply::Data(payload));
        // The forwarded request is no longer open on this node; without
        // this the load counter (and the admission bound fed by it)
        // ratchets upward forever.
        self.load = self.load.saturating_sub(1);
        self.ctx
            .trace_event_in(EventKind::Done, p.trace_req, bytes, 0, recv);
    }

    /// Forwarded requests whose service node stopped answering: retry
    /// against the next-best live cacher, retransmit to a target that
    /// still looks alive, or fall back to local service.
    fn retry_expired(&mut self) {
        let now = Instant::now();
        let mut expired: Vec<u64> = self
            .pending
            // press::allow(hash-iter): sorted below — tokens are
            // issued monotonically, so retries run in arrival order
            // regardless of hash order.
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&t, _)| t)
            .collect();
        if expired.is_empty() {
            return;
        }
        expired.sort_unstable();
        let now_us = self.now_us();
        let (_, live) = self.ctx.membership.snapshot();
        self.read_loads();
        for token in expired {
            let Some(p) = self.pending.remove(&token) else {
                continue;
            };
            // A missed deadline is the breaker's failure signal: enough of
            // them in a row opens the peer's breaker and new forwards
            // steer around it until a probe succeeds.
            let failed = NodeId(p.target as u16);
            self.guard.on_miss(failed.0, now_us);
            let cachers = self.directory.live_cachers(p.file, live as u128);
            let route = self.guard.reroute(
                failed,
                p.attempt,
                self.cfg.max_retries,
                cachers.iter().map(|&c| (c, self.loads[c.0 as usize])),
                is_member(live as u128, failed.0),
                now_us,
            );
            match route {
                Reroute::Failover => {
                    // Out of options elsewhere: serve from our own cache
                    // or disk so the client still gets an answer.
                    ServerStats::bump(&self.ctx.stats.failovers);
                    let fo = self.ctx.trace_event(
                        EventKind::Failover,
                        p.trace_req,
                        p.file.0 as u64,
                        p.attempt as u64,
                    );
                    self.serve_local(p.file, p.reply, p.trace_req, fo);
                }
                Reroute::To(target) => {
                    ServerStats::bump(&self.ctx.stats.retries);
                    let attempt = p.attempt + 1;
                    // The wire token changes on retry, but the trace
                    // request id stays stable so all attempts stitch into
                    // one causal chain.
                    let token = self.next_token;
                    self.next_token += 1;
                    let retry_span = self.ctx.trace_event(
                        EventKind::Retry,
                        p.trace_req,
                        attempt as u64,
                        target.0 as u64,
                    );
                    let p = Pending {
                        target: target.0 as usize,
                        attempt,
                        deadline: now,
                        ..p
                    };
                    self.send_forward(token, p, retry_span);
                }
            }
        }
    }

    /// Drains every inbound file ring: reads the sequence number at each
    /// slot's last bytes, and when the next expected number has landed,
    /// consumes the entry (completing the pending client request) and
    /// returns credits in batches. This is PRESS's version-3 receive path
    /// — no interrupts, no receive-thread involvement. A crashed node
    /// still advances sequence numbers (entries vanish into the dead host)
    /// so the rings stay aligned for recovery, but it returns no credits
    /// and completes nothing.
    fn poll_file_rings(&mut self) {
        for src in 0..self.ctx.nodes {
            let Some(ring) = self.ctx.own_rings[src] else {
                continue;
            };
            loop {
                let ctx = &self.ctx;
                let slot = ((self.ring_expected[src] - 1) % ctx.window as u64) as usize;
                let trailer_off =
                    slot * ctx.ring_slot_bytes + ctx.ring_slot_bytes - RING_TRAILER_BYTES;
                let Ok(trailer) = ctx.nic.read_region(ring, trailer_off, RING_TRAILER_BYTES) else {
                    break;
                };
                let Some((len, token, parent, seq)) = decode_ring_trailer(&trailer) else {
                    break;
                };
                if seq != self.ring_expected[src] {
                    break;
                }
                self.ring_expected[src] += 1;
                if self.crashed {
                    // Sequence advances, data is lost, no credits flow
                    // back: the sender sees a peer that stopped consuming.
                    self.ring_returns[src].reset();
                    continue;
                }
                let Ok(payload) = ctx.nic.read_region(ring, slot * ctx.ring_slot_bytes, len) else {
                    ServerStats::bump(&ctx.stats.via_errors);
                    continue;
                };
                // The ring trailer carried the remote sender's span id:
                // stitch the zero-copy arrival into the causal chain.
                self.complete_forward(token, src, parent, payload);
                if let Some(n) = self.ring_returns[src].consume() {
                    send_flow(&self.ctx, &self.send_tx, src, n);
                }
            }
        }
    }

    /// Queues `msg` for the send thread; it waits for a credit toward `to`.
    fn send(&self, to: usize, msg: WireMsg) {
        let _ = self.send_tx.send(SendJob::Msg {
            to,
            msg,
            needs_credit: true,
        });
    }

    fn send_file_back(&self, to: usize, token: u64, file: FileId, parent: u32) {
        let bytes = self.cfg.catalog.size(file);
        ServerStats::bump(&self.ctx.stats.file_msgs);
        // The send span becomes the wire-carried causal context, so the
        // origin's ViaRecv stitches straight onto this node's chain.
        let send_span =
            self.ctx
                .trace_event_in(EventKind::ViaSend, token, bytes, to as u64, parent);
        let mut msg = WireMsg::header(WireKind::FileData, file, token, self.load, send_span);
        msg.payload = file_contents(file, bytes as usize);
        self.send(to, msg);
    }

    fn broadcast_caching(&self, file: FileId, action: u64) {
        if self.cfg.tree_caching {
            // The origin rides in the token's high bits (action stays in
            // the low byte), so relays can rebuild the same tree: the wire
            // format is unchanged, legacy receivers see origin 0 == "the
            // sender".
            let token = action | ((self.ctx.id as u64 + 1) << 8);
            self.caching_fanout(file, token, self.load, Some(self.me));
        } else {
            self.caching_fanout(file, action, self.load, None);
        }
    }

    /// Sends one hop of a Caching broadcast ([`broadcast_targets`]) over
    /// the *current* membership snapshot: flat to every live peer, or to
    /// this node's children in the tree rooted at `tree_root`. The
    /// credit window applies per hop, exactly as for flat sends.
    fn caching_fanout(&self, file: FileId, token: u64, load: u32, tree_root: Option<u16>) {
        let ctx = &self.ctx;
        let (_, live) = ctx.membership.snapshot();
        let targets = broadcast_targets(self.me, tree_root, live as u128);
        if let Some(origin) = tree_root {
            if targets.is_empty() {
                return;
            }
            ctx.trace_event(EventKind::TreeRelay, 0, origin as u64, targets.len() as u64);
        }
        for c in targets {
            ServerStats::bump(&ctx.stats.caching_msgs);
            self.send(
                c as usize,
                WireMsg::header(WireKind::Caching, file, token, load, 0),
            );
        }
    }
}

/// Queues a Flow message returning `n` credits to `peer`.
fn send_flow(ctx: &NodeCtx, send_tx: &Sender<SendJob>, peer: usize, n: u32) {
    ServerStats::bump(&ctx.stats.flow_msgs);
    let _ = send_tx.send(SendJob::Msg {
        to: peer,
        msg: WireMsg::header(WireKind::Flow, FileId(0), n as u64, 0, 0),
        needs_credit: false,
    });
}

/// Flushes one peer's doorbell, surfacing failures as via_errors.
fn flush_bell(ctx: &NodeCtx, bell: &mut Option<Doorbell>) {
    if let Some(b) = bell {
        if b.flush().is_err() {
            ServerStats::bump(&ctx.stats.via_errors);
        }
    }
}

/// Stages one message on the V6 fast path: claim a slab slot, encode the
/// wire bytes straight into it, mark it in flight, and stage its
/// descriptor on the peer's doorbell. Flow messages (credit returns)
/// flush immediately so they are never delayed behind a partial batch.
/// The receive thread releases the slot when the send completion is
/// reaped ([`reap_slab`]).
fn slab_post(
    ctx: &NodeCtx,
    pool: &SlabPool,
    bell: &mut Doorbell,
    msg: &WireMsg,
    buf: &mut [u8],
) -> Result<(), ViaError> {
    let len = msg.encode(buf);
    let slot = pool.alloc()?;
    let desc = pool.descriptor(slot, len).and_then(|d| {
        ctx.nic
            .write_region(pool.handle(), slot.offset, &buf[..len])
            .map(|_| d)
    });
    let desc = match desc {
        Ok(d) => d,
        Err(e) => {
            let _ = pool.free(slot);
            return Err(e);
        }
    };
    // In flight *before* the doorbell: the batch threshold can flush the
    // staged list inside `post`, and the completion may race back to the
    // receive thread's reap before this thread runs again.
    let _ = pool.mark_in_flight(slot);
    if let Err(e) = bell.post(desc) {
        // Never reached the NIC; unwind the state machine and rejoin the
        // free list.
        let _ = pool.mark_complete(slot).and_then(|_| pool.free(slot));
        return Err(e);
    }
    if msg.kind == WireKind::Flow {
        bell.flush()?;
    }
    Ok(())
}

/// The send thread's posting state: one doorbell per peer (V6), the
/// rotating slot cursors of the classic regions and the file rings, and
/// the marshalling buffer.
struct Poster<'a> {
    ctx: &'a NodeCtx,
    bells: Vec<Option<Doorbell>>,
    next_slot: Vec<usize>,
    next_flow_slot: Vec<usize>,
    next_ring_seq: Vec<u64>,
    buf: Vec<u8>,
}

impl Poster<'_> {
    /// Puts `msg` on the wire toward `to`: file data by remote write in
    /// RemoteWrite mode; otherwise the V6 fast path when enabled (falling
    /// back to the classic slot regions if the pool is momentarily
    /// exhausted), the classic path if not. Returns `false` if the
    /// message was lost at post time. A lost ring write is not reported:
    /// the reader waits on its sequence number whatever the window does.
    fn dispatch(&mut self, to: usize, msg: &WireMsg) -> bool {
        let ctx = self.ctx;
        if ctx.file_mode == FileTransferMode::RemoteWrite && msg.kind == WireKind::FileData {
            // RDMA bypasses the doorbell; keep per-VI ordering.
            flush_bell(ctx, &mut self.bells[to]);
            self.rmw_file(to, msg);
            return true;
        }
        if let (Some(bell), Some(pool)) = (self.bells[to].as_mut(), ctx.send_pool.as_deref()) {
            match slab_post(ctx, pool, bell, msg, &mut self.buf) {
                Ok(()) => return true,
                // Completions lagging behind the posting rate: fall back
                // to the classic slot regions rather than dropping it.
                Err(ViaError::PoolExhausted) => {}
                Err(_) => {
                    ServerStats::bump(&ctx.stats.via_errors);
                    return false;
                }
            }
            // The classic path bypasses the doorbell; flush staged
            // traffic first so per-VI ordering is preserved.
            flush_bell(ctx, &mut self.bells[to]);
        }
        self.post_legacy(to, msg)
    }

    /// The classic (V0–V5) post path: marshal into the per-peer rotating
    /// slot region and post one descriptor per message.
    ///
    /// In-flight safety: data messages are bounded by the credit window
    /// (at most `window` unconsumed per peer, matching the `window` send
    /// slots); flow messages self-limit to window/batch outstanding and
    /// rotate through their own region.
    /// Post failures (unregistered regions, torn-down VIs) lose the
    /// message rather than killing the thread — the retry machinery in
    /// the main loop recovers, just like it does for lost wire messages.
    fn post_legacy(&mut self, peer: usize, msg: &WireMsg) -> bool {
        let ctx = self.ctx;
        let len = msg.encode(&mut self.buf);
        let (regions, cursor, slot_size) = if msg.kind == WireKind::Flow {
            (
                &ctx.flow_regions,
                &mut self.next_flow_slot[peer],
                HEADER_BYTES,
            )
        } else {
            (&ctx.send_regions, &mut self.next_slot[peer], ctx.slot_bytes)
        };
        let offset = *cursor * slot_size;
        *cursor = (*cursor + 1) % ctx.window as usize;
        let posted = regions[peer]
            .zip(ctx.vis[peer].as_ref())
            .is_some_and(|(region, vi)| {
                ctx.nic
                    .write_region(region, offset, &self.buf[..len])
                    .is_ok()
                    && vi.post_send(Descriptor::new(region, offset, len)).is_ok()
            });
        if !posted {
            ServerStats::bump(&ctx.stats.via_errors);
        }
        posted
    }

    /// Stages a file into the sender's send slot and remote-writes it
    /// into the peer's inbound ring: one RDMA covering payload and
    /// trailer, with the sequence number in the slot's last bytes
    /// (Section 3.4, version 3). The credit window bounds in-flight
    /// entries to the ring capacity, so a slot is never overwritten
    /// before the reader consumed it.
    fn rmw_file(&mut self, to: usize, msg: &WireMsg) {
        let ctx = self.ctx;
        let seq = self.next_ring_seq[to];
        self.next_ring_seq[to] += 1;
        let ring_slot = ((seq - 1) % ctx.window as u64) as usize;
        let slot_bytes = ctx.ring_slot_bytes;
        encode_ring_slot(
            &mut self.buf,
            slot_bytes,
            &msg.payload,
            msg.token,
            msg.parent_span,
            seq,
        );
        // Stage in our send region (the credit window keeps the slot live
        // until the reader consumed the previous occupant of the ring slot).
        let (Some(region), Some(peer_ring)) = (ctx.send_regions[to], ctx.peer_rings[to]) else {
            ServerStats::bump(&ctx.stats.via_errors);
            return;
        };
        let slot = self.next_slot[to];
        self.next_slot[to] = (slot + 1) % ctx.window as usize;
        let offset = slot * ctx.slot_bytes;
        if ctx
            .nic
            .write_region(region, offset, &self.buf[..slot_bytes])
            .is_err()
        {
            ServerStats::bump(&ctx.stats.via_errors);
            return;
        }
        ServerStats::bump(&ctx.stats.rdma_file_writes);
        let target = RemoteBuffer {
            region: peer_ring,
            offset: ring_slot * slot_bytes,
        };
        let posted = ctx.vis[to]
            .as_ref()
            .map(|vi| vi.rdma_write(Descriptor::new(region, offset, slot_bytes), target));
        if !matches!(posted, Some(Ok(()))) {
            ServerStats::bump(&ctx.stats.via_errors);
        }
    }

    /// Returns `n` credits to `peer`'s window and posts the messages they
    /// release, in FIFO order. A released message lost at post time
    /// refunds its credit the same way.
    fn grant(&mut self, window: &mut CreditWindow<WireMsg>, peer: usize, mut n: u32) {
        while n > 0 {
            let mut lost = 0;
            for msg in window.grant(n) {
                if !self.dispatch(peer, &msg) {
                    lost += 1;
                }
            }
            n = lost;
        }
    }
}

/// Releases the slab slot behind a completed fast-path send. RDMA and
/// classic-region completions name a different region and fall through
/// untouched.
fn reap_slab(ctx: &NodeCtx, c: &Completion) {
    let Some(pool) = &ctx.send_pool else {
        return;
    };
    if c.descriptor.region != pool.handle() {
        return;
    }
    let freed = pool
        .slot_at(c.descriptor.offset)
        .and_then(|slot| pool.mark_complete(slot).map(|_| slot))
        .and_then(|slot| pool.free(slot));
    if freed.is_err() {
        ServerStats::bump(&ctx.stats.via_errors);
    }
}

/// The send thread (Figure 2): marshals messages into registered send
/// buffers and posts descriptors, respecting the per-peer credit window.
pub(crate) fn send_loop(ctx: Arc<NodeCtx>, jobs: Receiver<SendJob>) {
    let n = ctx.nodes;
    let mut windows: Vec<CreditWindow<WireMsg>> = (0..n)
        .map(|_| CreditWindow::new(ctx.window, ctx.credit_batch))
        .collect();
    // Sparse load dissemination: deterministic per-node stream, so a
    // given (seed, fanout) config replays the same peer samples.
    let mut load_rng = DetRng::new(0x10AD_u64 ^ ctx.id as u64);

    // V6 fast path: one doorbell per peer coalescing descriptor posts,
    // fed from the shared slab pool. All None when doorbell_batch is 1,
    // leaving the V0–V5 path byte-for-byte untouched. No age limit: the
    // loop below rings every staged batch before it sleeps.
    let bells = (0..n)
        .map(|peer| {
            (ctx.doorbell_batch > 1)
                .then(|| ctx.vis[peer].clone())
                .flatten()
                .map(|vi| Doorbell::new(vi, ctx.doorbell_batch as usize, Duration::MAX))
        })
        .collect();
    let mut path = Poster {
        ctx: &ctx,
        bells,
        next_slot: vec![0; n],
        next_flow_slot: vec![0; n],
        next_ring_seq: vec![1; n],
        buf: vec![0; ctx.slot_bytes.max(ctx.ring_slot_bytes)],
    };

    loop {
        // Queued jobs are taken without blocking so a burst coalesces;
        // once the queue runs dry, staged batches are flushed before the
        // thread sleeps, so no partial batch waits on later traffic.
        let job = match jobs.try_recv() {
            Ok(j) => j,
            Err(TryRecvError::Empty) => {
                for bell in path.bells.iter_mut() {
                    flush_bell(&ctx, bell);
                }
                match jobs.recv() {
                    Ok(j) => j,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        match job {
            SendJob::Shutdown => break,
            // A Flow takes no credit. One lost at post time is not
            // re-sent: post-time failures (an unregistered region, a
            // torn-down engine) are not transient.
            SendJob::Msg {
                to,
                msg,
                needs_credit: false,
            } => {
                path.dispatch(to, &msg);
            }
            SendJob::Msg { to, msg, .. } => {
                let Some(msg) = windows[to].admit(msg) else {
                    // Credit stall: push staged traffic out now, or the
                    // peer can never consume it and return the credits
                    // this queue is waiting on.
                    flush_bell(&ctx, &mut path.bells[to]);
                    continue;
                };
                if !path.dispatch(to, &msg) {
                    path.grant(&mut windows[to], to, 1);
                }
            }
            // Returned, or refunded for a message lost in transport.
            SendJob::Credits { from, n } => path.grant(&mut windows[from], from, n),
            SendJob::RdmaLoad { load } => {
                if ctx
                    .nic
                    .write_region(ctx.scratch_region, 0, &load.to_le_bytes())
                    .is_err()
                {
                    ServerStats::bump(&ctx.stats.via_errors);
                    continue;
                }
                // Sparse mode: write the load to a random sample of live
                // peers instead of all of them (power-of-two-choices
                // reads tolerate stale views elsewhere). Fanout 0 keeps
                // the dense legacy behaviour.
                let (_, live) = ctx.membership.snapshot();
                let sparse_targets = (ctx.load_write_fanout > 0).then(|| {
                    sample_peers(
                        &mut load_rng,
                        ctx.id as u16,
                        live as u128,
                        ctx.nodes as u16,
                        ctx.load_write_fanout as usize,
                    )
                });
                for (peer, bell) in path.bells.iter_mut().enumerate() {
                    if peer == ctx.id || !is_member(live as u128, peer as u16) {
                        continue;
                    }
                    if let Some(ts) = &sparse_targets {
                        if !ts.contains(&(peer as u16)) {
                            continue;
                        }
                    }
                    // RDMA bypasses the doorbell; keep per-VI ordering.
                    flush_bell(&ctx, bell);
                    ServerStats::bump(&ctx.stats.rdma_load_writes);
                    let posted = ctx.vis[peer].as_ref().map(|vi| {
                        vi.rdma_write(
                            Descriptor::new(ctx.scratch_region, 0, 4),
                            RemoteBuffer {
                                region: ctx.peer_load_regions[peer],
                                offset: 4 * ctx.id,
                            },
                        )
                    });
                    if !matches!(posted, Some(Ok(()))) {
                        ServerStats::bump(&ctx.stats.via_errors);
                    }
                }
            }
            SendJob::ResetPeer { peer } => {
                // The peer lost (or never saw) everything in flight: a
                // fresh credit window against its freshly reposted
                // descriptors, and nothing stale queued toward it. Staged
                // batches are flushed (not dropped) so their slab slots
                // still complete and return to the pool.
                flush_bell(&ctx, &mut path.bells[peer]);
                windows[peer].reset();
            }
        }
    }
    // Drain whatever is still staged so no slab slot leaks its in-flight
    // mark across shutdown.
    for bell in path.bells.iter_mut() {
        flush_bell(&ctx, bell);
    }
}

/// The receive thread (Figure 2): waits on the completion queue, decodes
/// arrivals, reposts descriptors, handles flow control, and hands digests
/// to the main thread.
pub(crate) fn recv_loop(
    ctx: Arc<NodeCtx>,
    cq: CompletionQueue,
    main_tx: Sender<NodeEvent>,
    send_tx: Sender<SendJob>,
) {
    let mut returns: Vec<CreditWindow<()>> = (0..ctx.nodes)
        .map(|_| CreditWindow::new(ctx.window, ctx.credit_batch))
        .collect();
    loop {
        match cq.wait(Duration::from_millis(20)) {
            Err(_) => {
                // ordering: Acquire — pairs with shutdown's Release
                // store in `LiveCluster::shutdown`.
                if ctx.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            Ok(c) => {
                let Some(&peer) = ctx.vi_peers.get(&c.vi_id) else {
                    continue;
                };
                if c.status.is_err() {
                    // Injected transport failures and genuine VIA errors
                    // surface here; the message is gone, recovery is the
                    // sender's retry problem. Failed receive descriptors
                    // are consumed, so repost to keep the window intact;
                    // a failed send repairs flow control, and a failed
                    // fast-path send still releases its slot.
                    ServerStats::bump(&ctx.stats.via_errors);
                    if c.kind == CompletionKind::Recv {
                        repost_recv(&ctx, peer, &c);
                        continue;
                    }
                    if c.kind == CompletionKind::Send {
                        repair_lost_send(&ctx, &send_tx, peer, &c);
                    }
                    reap_slab(&ctx, &c);
                    continue;
                }
                // Send-side and RDMA completions need no further action —
                // except a fast-path send, whose slab slot the NIC owned
                // until this completion.
                if c.kind != CompletionKind::Recv {
                    reap_slab(&ctx, &c);
                    continue;
                }
                // ordering: Acquire — pairs with the Release stores in
                // crash/recover/hang so a flipped flag is seen before
                // any traffic sent after the transition.
                let dead = ctx.dead.load(Ordering::Acquire);
                let data = ctx
                    .nic
                    .read_region(c.descriptor.region, c.descriptor.offset, c.transferred)
                    .unwrap_or_default();
                // Repost the consumed descriptor immediately so the slot
                // can take another message (even while dead — a crashed
                // node must not exhaust its peers' descriptors when it
                // comes back).
                repost_recv(&ctx, peer, &c);
                if dead {
                    // Dead hosts receive nothing: no credits returned, no
                    // events forwarded. Senders time out and re-route.
                    returns[peer].reset();
                    continue;
                }
                if data.is_empty() && c.transferred > 0 {
                    ServerStats::bump(&ctx.stats.via_errors);
                    continue;
                }
                let Some(msg) = WireMsg::decode(&data) else {
                    continue; // malformed: drop, like a real server
                };
                if msg.kind == WireKind::Flow {
                    let _ = send_tx.send(SendJob::Credits {
                        from: peer,
                        n: msg.token as u32,
                    });
                    continue;
                }
                // Credit-consuming message: count toward a batch return.
                if let Some(n) = returns[peer].consume() {
                    send_flow(&ctx, &send_tx, peer, n);
                }
                let _ = main_tx.send(NodeEvent::Remote { from: peer, msg });
            }
        }
    }
}

/// Repairs flow control after a send to `peer` failed in transport
/// (DESIGN.md "Flow-control repair"): a lost Flow is re-sent with its
/// credits, and any other lost message refunds the credit it took. The
/// kind is read back from the source buffer, which the sender still
/// owns: a fast-path slab slot is freed only after this.
fn repair_lost_send(ctx: &NodeCtx, send_tx: &Sender<SendJob>, peer: usize, c: &Completion) {
    let header = ctx
        .nic
        .read_region(c.descriptor.region, c.descriptor.offset, HEADER_BYTES)
        .unwrap_or_default();
    match WireMsg::decode(&header) {
        // A Flow is a bare header, so its header decodes whole.
        Some(msg) if msg.kind == WireKind::Flow => {
            send_flow(ctx, send_tx, peer, msg.token as u32);
        }
        _ => {
            let _ = send_tx.send(SendJob::Credits { from: peer, n: 1 });
        }
    }
}

/// Reposts a consumed receive descriptor at full message size; a failure
/// costs one descriptor from the (slack-provisioned) pool, not the thread.
fn repost_recv(ctx: &NodeCtx, peer: usize, c: &Completion) {
    let posted = ctx.vis[peer].as_ref().map(|vi| {
        vi.post_recv(Descriptor::new(
            c.descriptor.region,
            c.descriptor.offset,
            ctx.msg_bytes,
        ))
    });
    if !matches!(posted, Some(Ok(()))) {
        ServerStats::bump(&ctx.stats.via_errors);
    }
}

/// The disk thread: sleeps for the modeled access time, then notifies the
/// main thread. Uses a scaled-down latency so tests stay fast while
/// preserving the "disk is slow" ordering.
pub(crate) fn disk_loop(
    jobs: Receiver<(FileId, u64)>,
    main_tx: Sender<NodeEvent>,
    fixed: Duration,
    bytes_per_sec: f64,
) {
    while let Ok((file, bytes)) = jobs.recv() {
        let transfer = Duration::from_secs_f64(bytes as f64 / bytes_per_sec);
        std::thread::sleep(fixed + transfer);
        if main_tx.send(NodeEvent::DiskDone { file }).is_err() {
            break;
        }
    }
}

/// Upper bound on wire size for a file of `bytes` (header + payload).
pub(crate) fn slot_bytes_for(max_file_bytes: u64) -> usize {
    HEADER_BYTES + max_file_bytes as usize
}

/// Largest message a receive descriptor or V6 slab slot must hold. In
/// RemoteWrite mode file data travels only by RDMA into the rings, so
/// every posted message is a bare header; Regular mode also carries files.
pub(crate) fn msg_bytes_for(mode: FileTransferMode, slot_bytes: usize) -> usize {
    match mode {
        FileTransferMode::Regular => slot_bytes,
        FileTransferMode::RemoteWrite => HEADER_BYTES,
    }
}

/// A waker for [`press_via::Nic::on_remote_write`] over a node's file
/// rings: the first write since the main loop's last poll queues one
/// [`NodeEvent::RingWrite`]; later ones ride on it.
pub(crate) fn ring_waker(
    pending: Arc<AtomicBool>,
    main_tx: Sender<NodeEvent>,
) -> impl Fn() + Clone + Send + Sync + 'static {
    move || {
        // ordering: Release pairs with the main loop's Acquire swap: the
        // ring bytes written before this wake are visible to the poll
        // that clears the flag.
        if !pending.swap(true, Ordering::Release) {
            let _ = main_tx.send(NodeEvent::RingWrite);
        }
    }
}
