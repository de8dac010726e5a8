//! Codec-equivalence and pool-reuse property tests (DESIGN.md §10).
//!
//! The zero-copy side of the `MuxBatch` codec is only a *performance*
//! plane: it must be observationally identical to encoding into a fresh
//! buffer and decoding with copied payloads. These properties pin that
//! down — byte-identical frames, identical decodes (shared-payload or
//! copied), and pools that stop allocating once warm.

use bytes::Bytes;
use proptest::prelude::*;
use urb_types::{
    encode_mux_frame_into, BufPool, Label, LabelSet, MuxBatch, MuxPool, Payload, Tag, TagAck,
    TopicId, WireMessage,
};

fn arb_payload() -> impl Strategy<Value = Payload> {
    proptest::collection::vec(any::<u8>(), 0..256).prop_map(Payload::from)
}

fn arb_labels() -> impl Strategy<Value = Option<LabelSet>> {
    proptest::option::of(
        proptest::collection::btree_set(any::<u64>(), 0..12)
            .prop_map(|s| LabelSet::from_iter(s.into_iter().map(Label))),
    )
}

fn arb_message() -> impl Strategy<Value = WireMessage> {
    prop_oneof![
        (any::<u128>(), arb_payload()).prop_map(|(t, p)| WireMessage::Msg {
            tag: Tag(t),
            payload: p,
        }),
        (any::<u128>(), any::<u128>(), arb_payload(), arb_labels()).prop_map(|(t, ta, p, ls)| {
            WireMessage::Ack {
                tag: Tag(t),
                tag_ack: TagAck(ta),
                payload: p,
                labels: ls,
            }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(l, s)| WireMessage::Heartbeat {
            label: Label(l),
            seq: s,
        }),
    ]
}

/// Topic-tagged entries grouped in ascending topic order — the shape of
/// every engine's mux outbox.
fn arb_entries(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(TopicId, WireMessage)>> {
    proptest::collection::vec((0u32..4, arb_message()), len).prop_map(|mut v| {
        v.sort_by_key(|(t, _)| *t);
        v.into_iter().map(|(t, m)| (TopicId(t), m)).collect()
    })
}

proptest! {
    /// Encoding into a pooled buffer (`MuxBatch::encode_into`, and the
    /// outbox-slice form `encode_mux_frame_into`) produces frames
    /// byte-identical to `encode()` into a fresh buffer.
    #[test]
    fn pooled_and_fresh_frames_are_byte_identical(entries in arb_entries(0..24)) {
        let mux = MuxBatch::from_entries(&entries);
        let fresh = mux.encode();

        let pool = BufPool::default();
        let mut pooled = pool.acquire();
        mux.encode_into(&mut pooled);
        prop_assert_eq!(&pooled[..], &fresh[..]);

        let mut from_slice = pool.acquire();
        encode_mux_frame_into(&entries, &mut from_slice);
        prop_assert_eq!(&from_slice[..], &fresh[..]);
    }

    /// Both decode paths accept the frame and agree on every message —
    /// shared-payload decoding changes storage, never values. All
    /// `WireMessage` variants round-trip (the generator covers MSG, ACK
    /// with and without labels, and heartbeats).
    #[test]
    fn shared_and_copying_decodes_agree(entries in arb_entries(0..24)) {
        let frame: Bytes = MuxBatch::from_entries(&entries).encode();

        let copied = MuxBatch::decode(&frame).unwrap();
        let shared = MuxBatch::decode_shared(&frame).unwrap();
        prop_assert_eq!(&copied, &shared);

        // The flat-entry decode form agrees too, and clears stale scratch.
        let mut out = vec![(TopicId(9), WireMessage::Heartbeat { label: Label(0), seq: 0 })];
        MuxBatch::decode_shared_into(&frame, &mut out).unwrap();
        prop_assert_eq!(&out[..], &entries[..]);
    }

    /// Malformed frames are rejected identically by both decode paths
    /// (same error taxonomy at the same cut).
    #[test]
    fn decode_paths_reject_identically(
        entries in arb_entries(1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let enc = MuxBatch::from_entries(&entries).encode();
        let cut = ((enc.len() - 1) as f64 * cut_frac) as usize;
        let prefix = Bytes::copy_from_slice(&enc[..cut]);
        prop_assert_eq!(
            MuxBatch::decode(&prefix).unwrap_err(),
            MuxBatch::decode_shared(&prefix).unwrap_err()
        );
    }

    /// Steady-state encode over a warm pool performs zero buffer
    /// allocations: after the first acquisition, every further frame is
    /// served from the recycled buffer.
    #[test]
    fn warm_pool_stops_creating_buffers(entries in arb_entries(1..16)) {
        let pool = BufPool::new(4);
        for _ in 0..32 {
            let mut frame = pool.acquire();
            encode_mux_frame_into(&entries, &mut frame);
        }
        let s = pool.stats();
        prop_assert_eq!(s.created, 1, "only the cold-start allocation");
        prop_assert_eq!(s.recycled, 31);
        prop_assert_eq!(s.discarded, 0);
    }
}

/// The payload of a MSG or ACK (heartbeats carry none).
fn payload_of(m: &WireMessage) -> Option<&Payload> {
    match m {
        WireMessage::Msg { payload, .. } | WireMessage::Ack { payload, .. } => Some(payload),
        WireMessage::Heartbeat { .. } => None,
    }
}

/// Shared-payload decoding really does share: the decoded payloads alias
/// the frame's storage (zero copies), while the copying path's do not.
#[test]
fn decode_shared_payloads_alias_the_frame() {
    let entries = vec![
        (
            TopicId(0),
            WireMessage::Msg {
                tag: Tag(1),
                payload: Payload::from("first payload"),
            },
        ),
        (
            TopicId(2),
            WireMessage::Ack {
                tag: Tag(1),
                tag_ack: TagAck(2),
                payload: Payload::from("second payload"),
                labels: Some(LabelSet::from_iter([Label(9)])),
            },
        ),
    ];
    let frame = MuxBatch::from_entries(&entries).encode();
    let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
    let mut shared = Vec::new();
    MuxBatch::decode_shared_into(&frame, &mut shared).unwrap();
    let copied = MuxBatch::decode(&frame).unwrap();
    let copied: Vec<&WireMessage> = copied.iter().map(|(_, m)| m).collect();
    assert_eq!(shared.len(), entries.len());
    for (((_, m), (_, original)), c) in shared.iter().zip(&entries).zip(copied) {
        let (payload, orig, c) = (
            payload_of(m).unwrap(),
            payload_of(original).unwrap(),
            payload_of(c).unwrap(),
        );
        assert_eq!(payload, orig, "values agree");
        assert_eq!(c, orig, "values agree");
        // Aliasing check: the shared payload's bytes live inside the
        // frame's address range; a copied payload's do not.
        let p = payload.as_slice().as_ptr() as usize;
        assert!(
            frame_range.contains(&p),
            "shared payload must alias the frame storage"
        );
        let cp = c.as_slice().as_ptr() as usize;
        assert!(
            !frame_range.contains(&cp),
            "copied payload must not alias the frame"
        );
    }
}

/// A `MuxPool`-backed decode loop reuses one vector for every frame.
#[test]
fn mux_pool_decode_loop_is_allocation_flat() {
    let pool = MuxPool::new(2);
    let entries: Vec<(TopicId, WireMessage)> = (0..8u128)
        .map(|i| {
            (
                TopicId((i / 4) as u32),
                WireMessage::Msg {
                    tag: Tag(i),
                    payload: Payload::from("p"),
                },
            )
        })
        .collect();
    let frame = MuxBatch::from_entries(&entries).encode();
    for _ in 0..50 {
        let mut decoded = pool.acquire();
        MuxBatch::decode_shared_into(&frame, &mut decoded).unwrap();
        assert_eq!(decoded.len(), 8);
        pool.release(decoded);
    }
    let s = pool.stats();
    assert_eq!(s.created, 1, "one vector serves the whole loop");
    assert_eq!(s.recycled, 49);
}
