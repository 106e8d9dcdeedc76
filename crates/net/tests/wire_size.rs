//! The simulator prices a message by what the TCP codec writes.
//!
//! `CongosNode::msg_size` counts the bytes `congos::wire` would put for a
//! message; `encode_frame` writes them behind the 17-byte frame header
//! (length, discriminant, sender, round). For arbitrary messages of every
//! variant, over clusters on both sides of a bitmap byte boundary and with
//! empty and non-empty sequences, the two agree exactly, and the frame
//! decodes back to the message. The `min_size` bounds the decoder checks
//! element counts against are pinned to the counted size of the smallest
//! element of each kind.

use std::sync::Arc;

use congos::messages::GossipLane;
use congos::wire::{self, min_size, ByteCount};
use congos::{CongosMsg, CongosNode, CongosRumorId, Fragment, GossipPayload, Rumor};
use congos_gossip::{GossipRumor, GossipWire, PushBatch, RumorId};
use congos_net::{encode_frame, Decoder, WireFrame};
use congos_sim::{IdSet, ProcessId, Protocol, Round};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The frame header in front of every message: `u32` body length,
/// discriminant, sender id, round.
const HEADER: u64 = 4 + 1 + 4 + 8;

/// A sequence length: empty a quarter of the time.
fn len(rng: &mut SmallRng) -> usize {
    rng.gen_range(0..4usize)
}

fn pid(rng: &mut SmallRng, n: usize) -> ProcessId {
    ProcessId::new(rng.gen_range(0..n))
}

fn idset(rng: &mut SmallRng, n: usize) -> IdSet {
    let members = rng.gen_range(0..=n);
    IdSet::from_iter(n, (0..members).map(|_| pid(rng, n)))
}

fn bytes(rng: &mut SmallRng) -> Vec<u8> {
    (0..rng.gen_range(0..48usize)).map(|_| rng.gen()).collect()
}

fn crid(rng: &mut SmallRng, n: usize) -> CongosRumorId {
    CongosRumorId {
        source: pid(rng, n),
        birth: Round(rng.gen()),
        seq: rng.gen(),
    }
}

fn rid(rng: &mut SmallRng, n: usize) -> RumorId {
    RumorId {
        origin: pid(rng, n),
        birth: Round(rng.gen()),
        seq: rng.gen(),
    }
}

fn fragments(rng: &mut SmallRng, n: usize) -> Vec<Fragment> {
    (0..len(rng))
        .map(|_| Fragment {
            rid: crid(rng, n),
            wid: rng.gen(),
            partition: rng.gen(),
            group: rng.gen(),
            k: rng.gen(),
            bytes: bytes(rng).into(),
            dest: idset(rng, n).into(),
            dline: rng.gen(),
        })
        .collect()
}

fn hits(rng: &mut SmallRng, n: usize) -> Vec<(ProcessId, CongosRumorId)> {
    (0..len(rng)).map(|_| (pid(rng, n), crid(rng, n))).collect()
}

fn payload(rng: &mut SmallRng, n: usize) -> GossipPayload {
    match rng.gen_range(0..4u8) {
        0 => GossipPayload::Fragments(fragments(rng, n)),
        1 => GossipPayload::ProxyMeta {
            failed_proxies: (0..len(rng)).map(|_| pid(rng, n)).collect(),
        },
        2 => GossipPayload::GdShare { hits: hits(rng, n) },
        _ => GossipPayload::Distribution {
            partition: rng.gen(),
            group: rng.gen(),
            hits: hits(rng, n),
        },
    }
}

fn lane(rng: &mut SmallRng) -> GossipLane {
    if rng.gen() {
        GossipLane::Group {
            dline: rng.gen(),
            ell: rng.gen(),
        }
    } else {
        GossipLane::All { dline: rng.gen() }
    }
}

fn push_batch(rng: &mut SmallRng, n: usize) -> Arc<PushBatch<GossipPayload>> {
    let pushed: Vec<_> = (0..len(rng))
        .map(|_| GossipRumor {
            id: rid(rng, n),
            payload: payload(rng, n),
            duration: rng.gen(),
            deadline: Round(rng.gen()),
            dest: idset(rng, n),
            best_effort: rng.gen(),
        })
        .collect();
    Arc::new(pushed.into())
}

/// One message of each variant, both gossip wires included.
fn messages(rng: &mut SmallRng, n: usize) -> Vec<CongosMsg> {
    vec![
        CongosMsg::Gossip {
            lane: lane(rng),
            wire: GossipWire::Push(push_batch(rng, n)),
        },
        CongosMsg::Gossip {
            lane: lane(rng),
            wire: GossipWire::Ack((0..len(rng)).map(|_| rid(rng, n)).collect()),
        },
        CongosMsg::ProxyRequest {
            dline: rng.gen(),
            ell: rng.gen(),
            fragments: fragments(rng, n),
        },
        CongosMsg::ProxyAck {
            dline: rng.gen(),
            ell: rng.gen(),
        },
        CongosMsg::Partials {
            dline: rng.gen(),
            ell: rng.gen(),
            fragments: fragments(rng, n),
        },
        CongosMsg::Shoot {
            rumor: Arc::new(Rumor {
                wid: rng.gen(),
                data: bytes(rng),
                deadline: rng.gen(),
                dest: idset(rng, n),
            }),
            rid: crid(rng, n),
            direct: rng.gen(),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `msg_size` is the frame's length less its header, and the frame
    /// decodes to the message.
    #[test]
    fn msg_size_is_what_the_encoder_writes(
        n in prop_oneof![Just(8usize), Just(9usize), Just(65usize)],
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for payload in messages(&mut rng, n) {
            let size = CongosNode::msg_size(&payload);
            let frame = WireFrame::Msg {
                src: ProcessId::new(n - 1),
                round: 0,
                payload,
            };
            let mut buf = Vec::new();
            encode_frame(&mut buf, &frame).expect("encodes");
            prop_assert_eq!(buf.len() as u64, HEADER + size, "{:?}", frame);
            let decoded = Decoder::new(n).decode(&buf).expect("decodes");
            prop_assert_eq!(decoded, Some((frame, buf.len())));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A push batch's rumors are counted once and the count is kept in the
    /// batch: metered again, and on the other kind of lane, the batch still
    /// prices as what the encoder writes.
    #[test]
    fn a_batch_is_priced_once_on_every_lane(
        n in prop_oneof![Just(8usize), Just(65usize)],
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let batch = push_batch(&mut rng, n);
        let group = GossipLane::Group { dline: rng.gen(), ell: rng.gen() };
        let all = GossipLane::All { dline: rng.gen() };
        for lane in [group, group, all, all] {
            let payload = CongosMsg::Gossip {
                lane,
                wire: GossipWire::Push(Arc::clone(&batch)),
            };
            let size = CongosNode::msg_size(&payload);
            let frame = WireFrame::Msg { src: ProcessId::new(0), round: 0, payload };
            let mut buf = Vec::new();
            encode_frame(&mut buf, &frame).expect("encodes");
            prop_assert_eq!(buf.len() as u64, HEADER + size, "{:?}", lane);
        }
    }
}

/// The bytes `put` writes, counted.
fn counted(put: impl FnOnce(&mut ByteCount)) -> usize {
    let mut count = ByteCount::default();
    put(&mut count);
    count.0
}

#[test]
fn min_sizes_are_the_smallest_elements() {
    let p = ProcessId::new(0);
    let crid = CongosRumorId {
        source: p,
        birth: Round(0),
        seq: 0,
    };
    let rid = RumorId {
        origin: p,
        birth: Round(0),
        seq: 0,
    };
    // No bytes and an id set over no processes: both take only their
    // prefix.
    let fragment = Fragment {
        rid: crid,
        wid: 0,
        partition: 0,
        group: 0,
        k: 0,
        bytes: Vec::new().into(),
        dest: IdSet::empty(0).into(),
        dline: 0,
    };
    assert_eq!(counted(|c| wire::put_crid(c, &crid)), min_size::CRID);
    assert_eq!(counted(|c| wire::put_rid(c, &rid)), min_size::RID);
    assert_eq!(
        counted(|c| wire::put_fragment(c, &fragment)),
        min_size::FRAGMENT
    );
    assert_eq!(counted(|c| wire::put_hit(c, &(p, crid))), min_size::HIT);
    assert_eq!(counted(|c| wire::put_pid(c, p)), min_size::PID);
}
