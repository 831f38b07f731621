//! Property-based tests of the VIA fabric, the credit channel and the
//! sans-IO credit window under it.

use std::collections::VecDeque;
use std::time::Duration;

use press_via::{CreditChannel, CreditWindow, Descriptor, Fabric, Reliability, RemoteBuffer};
use proptest::collection::vec;
use proptest::prelude::*;

const T: Duration = Duration::from_secs(10);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary message sequences arrive complete, in order, and intact
    /// through the credit channel, for any legal window/batch combination.
    #[test]
    fn credit_channel_preserves_order_and_content(
        sizes in vec(1usize..512, 1..60),
        window_exp in 0u32..4,
        batch_exp in 0u32..3,
    ) {
        let window = 1u32 << (window_exp + batch_exp.min(window_exp + 2));
        let batch = 1u32 << batch_exp.min(window_exp + batch_exp);
        prop_assume!(batch <= window && window.is_multiple_of(batch));
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let (mut tx, mut rx) =
            CreditChannel::pair(&fabric, &a, &b, window, batch, 512).expect("pair");
        let sizes_clone = sizes.clone();
        let producer = std::thread::spawn(move || {
            for (i, &len) in sizes_clone.iter().enumerate() {
                let payload = vec![(i % 251) as u8; len];
                tx.send(&payload, T).expect("send");
            }
        });
        for (i, &len) in sizes.iter().enumerate() {
            let got = rx.recv(T).expect("recv");
            prop_assert_eq!(got.len(), len);
            prop_assert!(got.iter().all(|&byte| byte == (i % 251) as u8));
        }
        producer.join().expect("producer");
    }

    /// RDMA writes land exactly where directed, for arbitrary offsets and
    /// lengths within bounds.
    #[test]
    fn rdma_writes_land_exactly(
        region_len in 64usize..4096,
        writes in vec((0usize..4096, 1usize..256, 0u8..255), 1..20),
    ) {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        let (vi, _peer) = fabric
            .connect(&a, &b, Reliability::ReliableDelivery)
            .expect("connect");
        let mb = b.register(vec![0u8; region_len], true).expect("register");
        let mut shadow = vec![0u8; region_len];
        for &(offset, len, fill) in &writes {
            let ma = a.register(vec![fill; len], false).expect("register src");
            let in_bounds = offset + len <= region_len;
            vi.rdma_write(
                Descriptor::new(ma, 0, len),
                RemoteBuffer { region: mb, offset },
            )
            .expect("post");
            let c = vi.wait_send_completion(T).expect("completion");
            if in_bounds {
                prop_assert!(c.is_ok(), "in-bounds write failed: {:?}", c.status);
                shadow[offset..offset + len].fill(fill);
            } else {
                prop_assert!(!c.is_ok(), "out-of-bounds write succeeded");
            }
        }
        let got = b.read_region(mb, 0, region_len).expect("read");
        prop_assert_eq!(got, shadow);
    }

    /// Under unreliable delivery with drop injection, everything that
    /// does arrive is intact, and nothing arrives out of order.
    #[test]
    fn lossy_delivery_never_corrupts(
        drop_prob in 0.0f64..1.0,
        seed in 0u64..1000,
        count in 1usize..40,
    ) {
        let fabric = Fabric::new();
        let a = fabric.create_nic("a");
        let b = fabric.create_nic("b");
        a.set_fault(press_via::FaultConfig {
            drop_probability: drop_prob,
            fail_probability: 0.0,
            seed,
        });
        let (va, vb) = fabric
            .connect(&a, &b, Reliability::UnreliableDelivery)
            .expect("connect");
        // Each message i carries the byte i in a 16-byte payload.
        let ma = a.register((0..count).flat_map(|i| [i as u8; 16]).collect(), false)
            .expect("register");
        let mb = b.register(vec![0xFF; 16 * count], false).expect("register");
        for i in 0..count {
            vb.post_recv(Descriptor::new(mb, i * 16, 16)).expect("post recv");
        }
        for i in 0..count {
            va.post_send(Descriptor::new(ma, i * 16, 16)).expect("post send");
            // Unreliable sends always complete OK.
            let c = va.wait_send_completion(T).expect("send completion");
            prop_assert!(c.is_ok());
        }
        // Drain whatever arrived.
        let mut arrived = Vec::new();
        while let Some(c) = vb.poll_recv_completion() {
            prop_assert!(c.is_ok());
            let data = b
                .read_region(mb, c.descriptor.offset, 16)
                .expect("read arrived");
            prop_assert!(data.iter().all(|&x| x == data[0]), "torn message");
            arrived.push(data[0]);
        }
        // In-order: arrived sequence numbers strictly increase.
        for w in arrived.windows(2) {
            prop_assert!(w[0] < w[1], "reordered: {arrived:?}");
        }
        prop_assert!(arrived.len() <= count);
        if drop_prob == 0.0 {
            prop_assert_eq!(arrived.len(), count);
        }
    }
}

/// One operation on a credit window.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Send the next message.
    Admit,
    /// A credit return of `n`; may exceed the window, like a stale Flow
    /// arriving after a reset.
    Grant(u32),
    /// Peer repair: fresh connection.
    Reset,
    /// Peer evicted: drop what waits for it.
    DropStalled,
    /// The receiver consumed one message.
    Consume,
}

impl Op {
    /// Decodes a generated `(kind, n)` draw, weighted toward sends,
    /// grants and consumption.
    fn from_draw((kind, n): (u8, u32)) -> Op {
        match kind {
            0..=3 => Op::Admit,
            4..=6 => Op::Grant(n),
            7 => Op::Reset,
            8 => Op::DropStalled,
            _ => Op::Consume,
        }
    }
}

/// The plain reference: a credit counter and a queue, one message at a
/// time.
struct Reference {
    window: u32,
    credits: u32,
    queue: VecDeque<u32>,
    batch: u32,
    pending: u32,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `CreditWindow` matches the counter-and-queue reference on random
    /// operation sequences: credits never exceed the window (grants run
    /// up to twice the largest window, like stale returns after a
    /// reset), release is FIFO, nothing queues while a credit remains, a
    /// reset reports exactly what was queued, and credit returns add up
    /// to the messages consumed.
    #[test]
    fn credit_window_matches_reference(
        batch_exp in 0u32..3,
        window_exp in 0u32..4,
        draws in vec((0u8..12, 0u32..34), 1..200),
    ) {
        let batch = 1u32 << batch_exp;
        let window = batch << window_exp;
        let mut w = CreditWindow::new(window, batch);
        let mut r = Reference { window, credits: window, queue: VecDeque::new(), batch, pending: 0 };
        let mut next = 0u32;
        let (mut consumed, mut returned, mut discarded) = (0u32, 0u32, 0u32);
        for op in draws.into_iter().map(Op::from_draw) {
            match op {
                Op::Admit => {
                    let id = next;
                    next += 1;
                    let sent = w.admit(id);
                    if r.credits > 0 {
                        r.credits -= 1;
                        // Nothing queues while a credit remains.
                        prop_assert_eq!(sent, Some(id));
                    } else {
                        r.queue.push_back(id);
                        prop_assert_eq!(sent, None);
                    }
                }
                Op::Grant(n) => {
                    let released: Vec<u32> = w.grant(n).collect();
                    r.credits = (r.credits + n).min(r.window);
                    let mut want = Vec::new();
                    while r.credits > 0 {
                        let Some(id) = r.queue.pop_front() else { break };
                        r.credits -= 1;
                        want.push(id);
                    }
                    prop_assert_eq!(released, want);
                }
                Op::Reset => {
                    prop_assert_eq!(w.reset(), r.queue.len());
                    r.queue.clear();
                    r.credits = r.window;
                    discarded += r.pending;
                    r.pending = 0;
                }
                Op::DropStalled => {
                    prop_assert_eq!(w.drop_stalled(), r.queue.len());
                    r.queue.clear();
                }
                Op::Consume => {
                    consumed += 1;
                    r.pending += 1;
                    let due = (r.pending == r.batch).then(|| std::mem::take(&mut r.pending));
                    let got = w.consume();
                    prop_assert_eq!(got, due);
                    returned += got.unwrap_or(0);
                }
            }
            prop_assert!(w.credits() <= window, "{} credits over a window of {}", w.credits(), window);
            prop_assert_eq!(w.credits(), r.credits);
            prop_assert_eq!(w.stalled(), r.queue.len());
            prop_assert!(w.stalled() == 0 || w.credits() == 0, "queued while credits remain");
            prop_assert_eq!(returned + discarded + r.pending, consumed);
        }
    }
}
