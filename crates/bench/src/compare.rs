//! Deterministic A/B harness: the topic directory vs. the binary-search
//! dispatch it replaced (DESIGN.md §16), plus the zero-alloc gates of the
//! mux codec and mux ingress (DESIGN.md §10, §12).
//!
//! [`run_dispatch`] replays a seeded probe stream through both lookups,
//! asserts identical verdicts and times each side best-of-`trials`. The
//! `*_when_counted` tests in this module assert zero steady-state
//! allocations when the `count-allocs` feature installs the counting
//! allocator.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;
use urb_core::Algorithm;
use urb_engine::{TopicEngine, TopicState};
use urb_types::{FdSnapshot, RandomSource, SplitMix64, TopicId};

fn best_of<T>(trials: usize, mut pass: impl FnMut() -> T) -> (u64, T) {
    let mut best = u64::MAX;
    let mut last = pass(); // warm-up, also gives us a value to return
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        last = pass();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    (best, last)
}

// ------------------------------------------------------------------------
// Topic-dispatch A/B: directory vs. the old binary-search path
// ------------------------------------------------------------------------

/// One timed side of the topic-dispatch A/B.
#[derive(Clone, Copy, Debug)]
pub struct DispatchMeasure {
    /// Best-of-trials wall time for one whole-probe-stream pass, ns.
    pub ns_per_pass: u64,
    /// Order-sensitive fold of every verdict in the pass — equal
    /// checksums mean equal verdicts on every probe.
    pub checksum: u64,
}

/// What the topic-dispatch A/B measured. Produced by [`run_dispatch`].
///
/// The [`TopicDirectory`](urb_engine::TopicState) plane (DESIGN.md §16)
/// claims the one-probe lookup answers exactly what the old
/// `Vec::binary_search` + retired-`BTreeSet` pair answered — same slot
/// indices, same tombstone verdicts — and is not slower at any scale.
/// Both claims are executable here: a seeded probe stream (live ids,
/// retired ids, absent ids) runs through both lookups, verdict checksums
/// are compared, and both sides are timed best-of-trials.
#[derive(Clone, Debug)]
pub struct DispatchReport {
    /// Probe-stream seed.
    pub seed: u64,
    /// Topics created (every 17th retired and reaped before probing).
    pub topics: u32,
    /// Topics retired+reaped out of `topics`.
    pub retired: u32,
    /// Probes per pass.
    pub probes: usize,
    /// Every probe produced the same verdict on both paths.
    pub verdicts_identical: bool,
    /// The old path: `binary_search` on the sorted slot ids, then a
    /// `BTreeSet` probe for the tombstone.
    pub binary_search: DispatchMeasure,
    /// The new path: one [`TopicEngine::resolve`] directory probe.
    pub directory: DispatchMeasure,
}

impl DispatchReport {
    /// Binary-search-over-directory time ratio (> 1 ⇒ directory wins).
    pub fn speedup(&self) -> f64 {
        self.binary_search.ns_per_pass as f64 / self.directory.ns_per_pass.max(1) as f64
    }

    /// Human-readable rendering (the `urb bench` footer).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "topic dispatch A/B (seed {}): {} topics ({} retired), {} probes",
            self.seed, self.topics, self.retired, self.probes
        );
        let _ = writeln!(
            s,
            "  equivalence: verdicts identical = {}",
            self.verdicts_identical
        );
        let _ = writeln!(
            s,
            "  lookup: binary search {} ns/pass vs directory {} ns/pass → {:.2}× ",
            self.binary_search.ns_per_pass,
            self.directory.ns_per_pass,
            self.speedup()
        );
        s
    }
}

/// Encodes one lookup outcome as the comparable verdict scalar: the live
/// slot index, or a tombstone/absent sentinel.
const VERDICT_RETIRED: u64 = u64::MAX - 1;
const VERDICT_ABSENT: u64 = u64::MAX;

fn fold(checksum: u64, verdict: u64) -> u64 {
    checksum.rotate_left(7) ^ verdict
}

/// Runs the topic-dispatch A/B at `topics` live instances: builds one
/// engine, retires and reaps every 17th topic, then replays a seeded
/// probe stream through the directory (`TopicEngine::resolve`) and
/// through the pre-directory data structures (sorted slot-id vector +
/// retired set), timing both best-of-`trials`.
pub fn run_dispatch(seed: u64, topics: u32, trials: usize) -> DispatchReport {
    assert!(topics >= 2);
    let mut engine = TopicEngine::new(
        (0..topics)
            .map(|_| Algorithm::Majority.instantiate(3))
            .collect(),
        SplitMix64::new(seed ^ 0xD15_9A7C8),
    );
    let fd = FdSnapshot::none();
    let mut retired_ids: BTreeSet<u32> = BTreeSet::new();
    for id in (0..topics).step_by(17) {
        assert!(engine.retire_topic(TopicId(id)));
        retired_ids.insert(id);
    }
    let reaped = engine.reap_drained(&fd);
    assert_eq!(
        reaped,
        retired_ids.len(),
        "fresh instances are quiescent, so every retiree reaps at once"
    );
    // The old path's exact data structures: the ascending slot-id vector
    // `slot_index` binary-searched and the retired tombstone set.
    let slots: Vec<u32> = (0..topics).filter(|id| !retired_ids.contains(id)).collect();

    // Seeded probe stream: ~2/3 live hits, plus retired and absent ids.
    let mut rng = SplitMix64::new(seed ^ 0x70B1_CD15);
    let span = topics as u64 + (topics as u64 / 2).max(1);
    let probes: Vec<u32> = (0..1usize << 17)
        .map(|_| (rng.next_u64() % span) as u32)
        .collect();

    let binary_lookup = |id: u32| -> u64 {
        match slots.binary_search(&id) {
            Ok(i) => i as u64,
            Err(_) => {
                if retired_ids.contains(&id) {
                    VERDICT_RETIRED
                } else {
                    VERDICT_ABSENT
                }
            }
        }
    };
    let directory_lookup = |engine: &TopicEngine, id: u32| -> u64 {
        match engine.resolve(TopicId(id)) {
            TopicState::Live(i) | TopicState::Draining(i) => i as u64,
            TopicState::Retired => VERDICT_RETIRED,
            TopicState::Unknown => VERDICT_ABSENT,
        }
    };

    let verdicts_identical = probes
        .iter()
        .all(|&id| binary_lookup(id) == directory_lookup(&engine, id));

    let (binary_ns, binary_sum) = best_of(trials, || {
        probes
            .iter()
            .fold(0u64, |acc, &id| fold(acc, binary_lookup(black_box(id))))
    });
    let (dir_ns, dir_sum) = best_of(trials, || {
        probes.iter().fold(0u64, |acc, &id| {
            fold(acc, directory_lookup(black_box(&engine), black_box(id)))
        })
    });

    DispatchReport {
        seed,
        topics,
        retired: retired_ids.len() as u32,
        probes: probes.len(),
        verdicts_identical: verdicts_identical && binary_sum == dir_sum,
        binary_search: DispatchMeasure {
            ns_per_pass: binary_ns,
            checksum: binary_sum,
        },
        directory: DispatchMeasure {
            ns_per_pass: dir_ns,
            checksum: dir_sum,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_count::count_thread_allocations;
    use bytes::Bytes;
    use urb_types::{BufPool, Payload, Tag, WireMessage};

    #[test]
    fn mux_codec_is_allocation_free_in_steady_state_when_counted() {
        // The topic plane's zero-alloc claim (DESIGN.md §12): encoding a
        // multiplexed frame into a warm pooled buffer and decoding it
        // with shared payloads into warm scratch allocates nothing per
        // frame or per message. MSG-only corpus — ACK label sets own
        // their storage and legitimately allocate.
        use urb_types::{encode_mux_frame_into, MuxBatch};
        let mut rng = SplitMix64::new(41);
        let entries: Vec<(TopicId, WireMessage)> = (0..3u32)
            .flat_map(|t| {
                let tag = Tag(rng.next_u128());
                (0..8).map(move |i| {
                    (
                        TopicId(t),
                        WireMessage::Msg {
                            tag: Tag(tag.0 ^ i),
                            payload: Payload::from("steady-state payload"),
                        },
                    )
                })
            })
            .collect();
        let pool = BufPool::new(2);
        let mut scratch: Vec<(TopicId, WireMessage)> = Vec::new();
        // Warm-up: grow the pooled buffer and the scratch to capacity,
        // and materialize the frame bytes once.
        let frame = {
            let mut buf = pool.acquire();
            encode_mux_frame_into(&entries, &mut buf);
            let frame = Bytes::copy_from_slice(&buf);
            MuxBatch::decode_shared_into(&frame, &mut scratch).unwrap();
            frame
        };
        let (_, allocs) = count_thread_allocations(|| {
            for _ in 0..64 {
                let mut buf = pool.acquire();
                encode_mux_frame_into(black_box(&entries), &mut buf);
                black_box(&buf);
                drop(buf);
                MuxBatch::decode_shared_into(black_box(&frame), &mut scratch).unwrap();
                black_box(&scratch);
            }
        });
        if let Some(allocs) = allocs {
            assert_eq!(allocs, 0, "warm mux encode+decode must not allocate");
        }
    }

    /// The directory acceptance gate (ISSUE 10): `TopicEngine::resolve`
    /// must answer exactly what the old binary-search + tombstone-set
    /// pair answered on every probe AND must not be slower. At 64k
    /// topics the old path pays ~16 comparisons per probe; the directory
    /// pays one dense-array load, so best-of-5 timing is stable even on
    /// loaded CI machines.
    #[test]
    fn topic_dispatch_ab_harness() {
        let report = run_dispatch(11, 1 << 16, 5);
        assert!(
            report.verdicts_identical,
            "directory and binary-search verdicts must agree: {report:#?}"
        );
        assert_eq!(report.binary_search.checksum, report.directory.checksum);
        assert!(
            report.directory.ns_per_pass <= report.binary_search.ns_per_pass,
            "the directory path must not be slower: {:#?}",
            report
        );
        let text = report.render_text();
        assert!(text.contains("topic dispatch A/B"));
        assert!(text.contains("verdicts identical = true"));
    }

    #[test]
    fn dispatch_ab_covers_small_planes_too() {
        // The dense/sparse split and the retire pattern hold at tiny
        // scale as well; equivalence (not timing) is the claim here.
        for topics in [2u32, 17, 1_000] {
            let report = run_dispatch(5, topics, 1);
            assert!(report.verdicts_identical, "{topics} topics");
        }
    }

    /// The 100k-topic steady-state zero-alloc gate (ISSUE 10): with
    /// 100 000 live topics, receiving a multiplexed frame of duplicate
    /// MSGs (the steady-state ingress shape — payload views are
    /// refcounted, ACK replies carry no label set under Algorithm 1)
    /// allocates nothing once the scratch buffers are warm. The
    /// directory probe itself is allocation-free by construction; this
    /// pins the whole `receive_mux_frame` path around it.
    #[test]
    fn mux_ingress_at_100k_topics_is_allocation_free_when_counted() {
        use urb_engine::{MuxBuffers, StepInput};
        use urb_types::encode_mux_frame_into;
        let topics = 100_000u32;
        let mut engine = TopicEngine::new(
            (0..topics)
                .map(|_| Algorithm::Majority.instantiate(3))
                .collect(),
            SplitMix64::new(23),
        );
        let fd = FdSnapshot::none();
        let mut mux = MuxBuffers::new();
        // Broadcast once on a spread of topics (low, middle, top of the
        // dense range) to seed tags, then rebuild their MSGs as one
        // ascending multi-run frame.
        let mut entries: Vec<(TopicId, WireMessage)> = Vec::new();
        for &t in &[0u32, 49_999, 99_999] {
            let tag = engine
                .step_mux(
                    TopicId(t),
                    StepInput::Broadcast(Payload::from("steady")),
                    &fd,
                    &mut mux,
                )
                .expect("broadcast assigns a tag");
            for _ in 0..8 {
                entries.push((
                    TopicId(t),
                    WireMessage::Msg {
                        tag,
                        payload: Payload::from("steady"),
                    },
                ));
            }
        }
        let pool = BufPool::new(2);
        let frame = {
            let mut buf = pool.acquire();
            encode_mux_frame_into(&entries, &mut buf);
            Bytes::copy_from_slice(&buf)
        };
        // Warm-up: grow every scratch/outbox/state structure to its
        // steady-state capacity.
        for _ in 0..4 {
            mux.clear();
            engine
                .receive_mux_frame(&frame, &mut mux, |_, _| FdSnapshot::none())
                .expect("well-formed frame");
        }
        let (_, allocs) = count_thread_allocations(|| {
            for _ in 0..32 {
                mux.clear();
                engine
                    .receive_mux_frame(black_box(&frame), &mut mux, |_, _| FdSnapshot::none())
                    .expect("well-formed frame");
                black_box(&mux);
            }
        });
        if let Some(allocs) = allocs {
            assert_eq!(
                allocs, 0,
                "steady-state mux ingress at 100k topics must not allocate"
            );
        }
    }
}
