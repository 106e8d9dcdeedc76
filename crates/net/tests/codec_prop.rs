//! Property tests for the wire codec's hostile-input behavior.
//!
//! The contract of `Decoder::decode` is: *any* byte buffer — truncated,
//! bit-flipped, or outright random — yields a frame, "not a whole frame
//! yet", or an `io::Error`, never a panic and never an allocation beyond
//! the (capped) frame length. These tests drive that contract with
//! randomized corruption of a corpus of valid encodings covering every
//! `CongosMsg` variant.
//!
//! A node decodes with one long-lived decoder whose kept table holds the
//! gossip rumors its peers defined, so the corruption properties run
//! through one such decoder per test thread, warmed with definitions and
//! references from several peers: corrupt input meets warm tables, and
//! after every case the decoder must still decode the corpus exactly as a
//! fresh decoder does. A last property checks that streams written by
//! per-peer `Encoder`s, references included, decode to what was sent.

use std::cell::RefCell;
use std::io;
use std::sync::Arc;

use congos::messages::GossipLane;
use congos::{CongosMsg, CongosRumorId, Fragment, GossipPayload, Rumor};
use congos_gossip::{GossipRumor, GossipWire, RumorId};
use congos_net::{encode_frame, Decoder, Encoder, WireFrame};
use congos_sim::{IdSet, ProcessId, Round};
use proptest::prelude::*;

fn fragment(seq: u32) -> Fragment {
    Fragment {
        rid: CongosRumorId {
            source: ProcessId::new(seq as usize % 4),
            birth: Round(seq as u64),
            seq,
        },
        wid: 10 + seq as u64,
        partition: (seq % 3) as u16,
        group: (seq % 2) as u8,
        k: 2,
        bytes: vec![seq as u8; 24 + seq as usize % 8].into(),
        dest: IdSet::from_iter(8, [ProcessId::new(1), ProcessId::new(5)]).into(),
        dline: 64,
    }
}

fn rid(seq: u32) -> RumorId {
    RumorId {
        origin: ProcessId::new(seq as usize % 4),
        birth: Round(2),
        seq,
    }
}

fn gossip_rumor(payload: GossipPayload) -> GossipRumor<GossipPayload> {
    GossipRumor {
        id: rid(0),
        payload,
        duration: 8,
        deadline: Round(40),
        dest: IdSet::from_iter(8, [ProcessId::new(2)]),
        best_effort: false,
    }
}

/// Cluster size every corpus frame fits.
const N: usize = 8;

fn msg_frame(payload: CongosMsg) -> WireFrame {
    WireFrame::Msg {
        src: ProcessId::new(1),
        round: 6,
        payload,
    }
}

/// A corpus of valid frames touching every wire variant: both `WireFrame`s,
/// all five `CongosMsg`s, both `GossipWire`s, all four `GossipPayload`s.
fn corpus() -> Vec<Vec<u8>> {
    let frames = [
        WireFrame::EndOfRound {
            src: ProcessId::new(3),
            round: 12,
        },
        msg_frame(CongosMsg::Shoot {
            rumor: Arc::new(Rumor {
                wid: 7,
                data: b"confidential".to_vec(),
                deadline: 64,
                dest: IdSet::from_iter(8, [ProcessId::new(0), ProcessId::new(6)]),
            }),
            rid: CongosRumorId {
                source: ProcessId::new(2),
                birth: Round(3),
                seq: 1,
            },
            direct: true,
        }),
        msg_frame(CongosMsg::Gossip {
            lane: GossipLane::Group { dline: 64, ell: 1 },
            wire: GossipWire::Push(Arc::new(
                vec![gossip_rumor(GossipPayload::Fragments(vec![
                    fragment(0),
                    fragment(1),
                ]))]
                .into(),
            )),
        }),
        msg_frame(CongosMsg::Gossip {
            lane: GossipLane::All { dline: 64 },
            wire: GossipWire::Push(Arc::new(
                vec![
                    gossip_rumor(GossipPayload::ProxyMeta {
                        failed_proxies: vec![ProcessId::new(1), ProcessId::new(3)],
                    }),
                    gossip_rumor(GossipPayload::GdShare {
                        hits: vec![(
                            ProcessId::new(0),
                            CongosRumorId {
                                source: ProcessId::new(0),
                                birth: Round(1),
                                seq: 0,
                            },
                        )],
                    }),
                    gossip_rumor(GossipPayload::Distribution {
                        partition: 1,
                        group: 0,
                        hits: vec![],
                    }),
                ]
                .into(),
            )),
        }),
        msg_frame(CongosMsg::Gossip {
            lane: GossipLane::All { dline: 64 },
            wire: GossipWire::Ack(vec![rid(0), rid(1), rid(2)]),
        }),
        msg_frame(CongosMsg::ProxyRequest {
            dline: 64,
            ell: 2,
            fragments: vec![fragment(2)],
        }),
        msg_frame(CongosMsg::ProxyAck { dline: 64, ell: 2 }),
        msg_frame(CongosMsg::Partials {
            dline: 64,
            ell: 0,
            fragments: vec![fragment(3), fragment(4), fragment(5)],
        }),
    ];
    frames
        .iter()
        .map(|f| {
            let mut buf = Vec::new();
            encode_frame(&mut buf, f).expect("corpus frames encode");
            buf
        })
        .collect()
}

/// A decoded frame and the bytes it took, or "not a whole frame yet".
type Decoded = io::Result<Option<(WireFrame, usize)>>;

thread_local! {
    /// One decoder per test thread, kept across every case of a property.
    static WARM: RefCell<Decoder> = RefCell::new(warmed());
}

/// A decoder whose kept table holds the rumor pool (twin aside) from every
/// peer, each defined in round 5 and referred to in round 6.
fn warmed() -> Decoder {
    let pool = rumor_pool();
    let mut dec = Decoder::new(N);
    for src in 1..N {
        let mut enc = Encoder::new(N);
        for round in [5, 6] {
            let frame = push_frame(src, round, pool[..5].to_vec());
            let (got, _) = dec
                .decode(&told(&mut enc, &frame))
                .expect("decodes")
                .expect("a whole frame");
            assert_eq!(got, frame);
        }
    }
    dec
}

/// Decodes `buf` with this thread's long-lived decoder, then checks that the
/// decoder still decodes every corpus frame as a fresh decoder does.
fn decode_warm(buf: &[u8]) -> Decoded {
    WARM.with(|warm| {
        let mut warm = warm.borrow_mut();
        let res = warm.decode(buf);
        for frame in corpus() {
            let fresh = Decoder::new(N).decode(&frame).expect("corpus decodes");
            assert_eq!(warm.decode(&frame).expect("corpus decodes"), fresh);
        }
        res
    })
}

/// A push of `rumors` from `src` in `round`.
fn push_frame(src: usize, round: u64, rumors: Vec<GossipRumor<GossipPayload>>) -> WireFrame {
    WireFrame::Msg {
        src: ProcessId::new(src),
        round,
        payload: CongosMsg::Gossip {
            lane: GossipLane::All { dline: 64 },
            wire: GossipWire::Push(Arc::new(rumors.into())),
        },
    }
}

/// Encodes `frame` with every gossip rumor as a kept definition.
fn encoded(frame: &WireFrame) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame(&mut buf, frame).expect("encodes");
    buf
}

/// Encodes `frame` with its sender's `enc`, for node 0.
fn told(enc: &mut Encoder, frame: &WireFrame) -> Vec<u8> {
    let mut buf = Vec::new();
    enc.encode_frame(&mut buf, frame, ProcessId::new(0))
        .expect("encodes");
    buf
}

/// Six rumors, two of which share a `RumorId` with different contents.
fn rumor_pool() -> Vec<GossipRumor<GossipPayload>> {
    let mut pool: Vec<_> = (0..5)
        .map(|i| {
            let mut r = gossip_rumor(GossipPayload::Fragments(vec![fragment(i)]));
            r.id = rid(i);
            r
        })
        .collect();
    let mut twin = pool[0].clone();
    twin.payload = GossipPayload::ProxyMeta {
        failed_proxies: vec![ProcessId::new(7)],
    };
    pool.push(twin);
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No strict prefix of a valid encoding yields a frame: the decoder
    /// reports "not a whole frame yet" at every truncation point, and never
    /// panics.
    #[test]
    fn truncations_yield_no_frame(which in any::<usize>(), cut in any::<usize>()) {
        let corpus = corpus();
        let buf = &corpus[which % corpus.len()];
        let cut = cut % buf.len(); // 0..len, always a strict prefix
        let res = decode_warm(&buf[..cut]);
        prop_assert!(
            matches!(res, Ok(None)),
            "a {cut}-byte prefix of a {}-byte frame decoded to {res:?}",
            buf.len()
        );
    }

    /// A strict prefix of a valid body, framed with its own (shorter)
    /// length, is a whole frame that ends mid-field: it must be an error,
    /// never a frame.
    #[test]
    fn truncated_bodies_error_cleanly(which in any::<usize>(), cut in any::<usize>()) {
        let corpus = corpus();
        let buf = &corpus[which % corpus.len()];
        let body = &buf[4..4 + cut % (buf.len() - 4)];
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(body);
        let res = decode_warm(&framed);
        prop_assert!(res.is_err(), "a {}-byte body prefix decoded to {res:?}", body.len());
    }

    /// A single flipped bit anywhere in a valid encoding must decode to
    /// `Ok` or `Err` — never panic, never hang, never allocate past the
    /// frame cap. (Flips in payload bytes legitimately still decode; flips
    /// in discriminants, lengths and counts must be caught.)
    #[test]
    fn bit_flips_never_panic(
        which in any::<usize>(),
        byte in any::<usize>(),
        bit in 0u8..8,
    ) {
        let corpus = corpus();
        let mut buf = corpus[which % corpus.len()].clone();
        let i = byte % buf.len();
        buf[i] ^= 1 << bit;
        let _ = decode_warm(&buf); // Ok or Err, both fine
    }

    /// Multiple corruptions at once: random byte overwrites on top of a
    /// truncation. The decoder must stay panic-free on arbitrarily mangled
    /// frames.
    #[test]
    fn stacked_corruption_never_panics(
        which in any::<usize>(),
        cut in any::<usize>(),
        writes in prop::collection::vec((any::<usize>(), any::<u8>()), 0..8),
    ) {
        let corpus = corpus();
        let buf = &corpus[which % corpus.len()];
        let mut mangled = buf[..4 + cut % (buf.len() - 3)].to_vec(); // keep the length prefix
        for (pos, val) in writes {
            let i = pos % mangled.len();
            mangled[i] = val;
        }
        let _ = decode_warm(&mangled);
    }

    /// Pure noise: random byte strings (with a sane length prefix bolted
    /// on, so the decoder gets past the frame read) never panic.
    #[test]
    fn random_bytes_never_panic(body in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = Vec::with_capacity(4 + body.len());
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        let _ = decode_warm(&buf);
    }

    /// Corrupting only the outer length prefix: any 4-byte value either
    /// decodes (len unchanged), errors, awaits more bytes, or is rejected by
    /// the frame cap — and the rejection happens on the prefix alone, before
    /// the decoder waits for (or allocates) the claimed length.
    #[test]
    fn length_prefix_corruption_is_bounded(which in any::<usize>(), len in any::<u32>()) {
        let corpus = corpus();
        let mut buf = corpus[which % corpus.len()].clone();
        buf[..4].copy_from_slice(&len.to_le_bytes());
        let res = decode_warm(&buf);
        if len as usize > congos_net::codec::MAX_FRAME_LEN {
            let err = res.expect_err("oversized prefix must be refused");
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    /// A stream of pushes drawn from a small rumor pool — repeats within
    /// and across frames, the same rumor from several senders, one id with
    /// two contents — decodes through one warm decoder exactly as through
    /// a fresh decoder per frame, while the rounds advance.
    #[test]
    fn warm_stream_matches_fresh_decoders(
        frames in prop::collection::vec(
            (1usize..N, 0u64..2, prop::collection::vec(0usize..6, 0..5)),
            1..24,
        ),
    ) {
        let pool = rumor_pool();
        let mut warm = Decoder::new(N);
        let (mut round, mut rumors) = (0, 0);
        for (src, step, picks) in frames {
            round += step;
            rumors += picks.len() as u64;
            let bytes = encoded(&push_frame(src, round, picks.iter().map(|&i| pool[i].clone()).collect()));
            let fresh = Decoder::new(N).decode(&bytes).expect("decodes");
            prop_assert_eq!(warm.decode(&bytes).expect("decodes"), fresh);
        }
        prop_assert!(warm.stats().rumors_decoded <= rumors);
    }

    /// Pushes from several peers, each written by the peer's own `Encoder`
    /// — references, definitions kept and once, rumors whose deadlines pass
    /// — decode through one decoder to exactly the frames that were sent.
    #[test]
    fn encoded_streams_decode_to_what_was_sent(
        frames in prop::collection::vec(
            (1usize..N, 0u64..3, prop::collection::vec(0usize..5, 0..5)),
            1..32,
        ),
    ) {
        let pool: Vec<_> = rumor_pool()
            .into_iter()
            .take(5)
            .zip(0..)
            .map(|(mut r, i)| {
                r.deadline = Round(3 + 4 * i);
                r
            })
            .collect();
        let mut senders: Vec<Encoder> = (0..N).map(|_| Encoder::new(N)).collect();
        let mut dec = Decoder::new(N);
        let (mut round, mut rumors) = (0, 0);
        for (src, step, picks) in frames {
            round += step;
            rumors += picks.len() as u64;
            let frame = push_frame(src, round, picks.iter().map(|&i| pool[i].clone()).collect());
            let bytes = told(&mut senders[src], &frame);
            prop_assert_eq!(dec.decode(&bytes).expect("decodes"), Some((frame, bytes.len())));
        }
        let sent = senders.iter().fold(0, |sum, enc| {
            let stats = enc.stats();
            sum + stats.rumors_defined + stats.rumors_referenced
        });
        prop_assert_eq!(sent, rumors);
    }
}

/// FNV-1a, folded over `bytes` starting from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The wire format is pinned: the corpus, and one `Encoder` stream of
/// definitions, references and a redefinition under a reused id, hash to a
/// fixed digest. A moved digest is a changed wire format.
#[test]
fn the_encoded_bytes_are_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for buf in corpus() {
        h = fnv1a(h, &buf);
    }
    let pool = rumor_pool();
    let mut enc = Encoder::new(N);
    for (round, picks) in [(5, &[0, 1, 2][..]), (6, &[2, 1, 3]), (6, &[5, 4, 1])] {
        let frame = push_frame(1, round, picks.iter().map(|&i| pool[i].clone()).collect());
        h = fnv1a(h, &told(&mut enc, &frame));
    }
    let stats = enc.stats();
    assert_eq!((stats.rumors_defined, stats.rumors_referenced), (6, 3));
    assert_eq!(h, 0xb0bc_0ff1_2cb1_3c48, "wire digest {h:#018x}");
}

/// Sanity outside proptest: the corpus itself round-trips, so the
/// corruption tests above start from genuinely valid encodings.
#[test]
fn corpus_is_valid() {
    for buf in corpus() {
        let (frame, used) = Decoder::new(N)
            .decode(&buf)
            .expect("corpus decodes")
            .expect("a whole frame");
        assert_eq!(used, buf.len());
        let mut re = Vec::new();
        encode_frame(&mut re, &frame).expect("corpus re-encodes");
        assert_eq!(re, buf, "canonical encoding is stable");
    }
}
