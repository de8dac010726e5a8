//! The **lockstep planes** (DESIGN.md §14, §16): runs executed by stepping
//! [`TopicEngine`]s directly in lockstep instead of through the event
//! queue.
//!
//! The discrete-event driver ([`crate::sim::run`]) prices every message
//! copy through the channel models. The lockstep planes do not care about
//! loss or delay, so they share one core: `n` engines with a static full
//! AΘ/AP* view (every process is correct), a perfect, lossless, instant
//! network that floods every emission to every process, a per-process
//! order-sensitive rolling delivery hash, and a Task-1 sweep of every
//! instance of every process. Around that core sit two arrival loops:
//!
//! * the **count loop** ([`soak`], DESIGN.md §14) broadcasts a fixed
//!   number of messages round-robin and asks whether resident protocol
//!   state stays bounded when messages keep coming forever: it sweeps
//!   Task 1 and the compactor on a fixed cadence and samples
//!   [`urb_types::ProcessStats::total`] as the run grows. One million
//!   messages take seconds this way, which is what makes the E20 plateau
//!   curve and the CI `soak-smoke` job affordable. Because compaction
//!   draws no randomness, a bounded-memory soak and an unbounded soak of
//!   the same config deliver **identically** at every process
//!   ([`SoakOutcome::delivery_hashes`]). With
//!   [`SoakConfig::snapshot_restart_at`] set, every engine is serialized,
//!   torn down and restored from bytes mid-run, and the outcome must be
//!   byte-identical to an undisturbed run;
//! * the **rate loop** ([`open_loop`], DESIGN.md §16) is driven by an
//!   *offered load* instead of a count. The BENCH grids are closed-loop:
//!   each run injects its workload as fast as the system absorbs it, so
//!   they measure protocol cost but can never see a saturation knee. An
//!   open-loop run schedules arrival `k` at simulated tick
//!   `k·1000 / rate` regardless of how the system is doing, queues it at
//!   its origin node's bounded-service ingress (each node serves at most
//!   [`OpenLoopConfig::service_per_tick`] arrivals per tick) and measures
//!   **delivery latency in ticks** — origin-delivery tick minus arrival
//!   tick, so queueing delay under overload is part of the number. Below
//!   the service capacity (`n × service_per_tick × 1000` per ktick)
//!   latencies sit at the protocol floor; past it the queues — and the
//!   p99/p999 tail — grow without bound. That crossover is the knee
//!   experiments E22/E23 chart.
//!
//! Every run is a pure function of its config: arrivals, service,
//! flooding and delivery all advance on simulated steps and ticks (never
//! wall clock), so outcomes — latency percentiles included — are exactly
//! reproducible and byte-compatible across machines. Each loop keeps its
//! own seed salt and detector label.

use std::collections::{HashMap, VecDeque};
use urb_core::Algorithm;
use urb_engine::{MuxBuffers, StepInput, TopicEngine};
use urb_types::snapshot::fnv1a;
use urb_types::{
    FdPair, FdSnapshot, FdView, Label, MemoryConfig, Payload, SplitMix64, Tag, TopicId, WireMessage,
};

// ---- the shared core ------------------------------------------------------

/// How an arrival loop builds its core.
struct CoreSpec {
    n: usize,
    topics: u32,
    algorithm: Algorithm,
    seed: u64,
    /// XORed into `seed` before the per-process RNG split.
    salt: u64,
    /// The single label of the static full detector view.
    label: u64,
    memory: Option<MemoryConfig>,
}

impl CoreSpec {
    /// Fresh engines, one per process, each on its own split of the
    /// salted seed.
    fn engines(&self) -> Vec<TopicEngine> {
        let seed_mix = SplitMix64::new(self.seed ^ self.salt);
        (0..self.n)
            .map(|i| {
                let mut e = TopicEngine::new(
                    (0..self.topics)
                        .map(|_| self.algorithm.instantiate(self.n))
                        .collect(),
                    seed_mix.split(i as u64),
                );
                if let Some(mem) = self.memory {
                    e.configure_memory(mem);
                }
                e
            })
            .collect()
    }
}

/// What an arrival loop hears from the core.
trait ArrivalLoop {
    /// `pid` URB-delivered `tag` (after the core counted and hashed it).
    fn on_deliver(&mut self, pid: usize, tag: Tag);
}

/// The lockstep core plus the arrival loop that drives it.
struct Lockstep<L> {
    spec: CoreSpec,
    engines: Vec<TopicEngine>,
    fd: FdSnapshot,
    mux: MuxBuffers,
    /// The instant lossless network: topic-tagged emissions awaiting
    /// flood delivery to every process.
    net: VecDeque<(TopicId, WireMessage)>,
    /// Per-process URB-delivery counts.
    delivered: Vec<u64>,
    /// Per-process order-sensitive rolling hashes over the delivery
    /// sequence.
    hashes: Vec<u64>,
    /// Per-link copies the network flooded.
    transmissions: u64,
    arrivals: L,
}

impl<L: ArrivalLoop> Lockstep<L> {
    fn new(spec: CoreSpec, arrivals: L) -> Self {
        assert!(spec.n >= 1);
        assert!(spec.topics >= 1);
        // Every process is correct and shares one static full view: both
        // detectors report a single label covering all n processes, which
        // satisfies AΘ (deliver once all n distinct ACKs carry it) and
        // AP* (prune once the ACK table matches the full view).
        let view = FdView::from_pairs([FdPair {
            label: Label(spec.label),
            number: spec.n as u32,
        }]);
        let fd = if spec.algorithm.needs_fd() {
            FdSnapshot::new(view.clone(), view)
        } else {
            FdSnapshot::none()
        };
        let n = spec.n;
        Lockstep {
            engines: spec.engines(),
            spec,
            fd,
            mux: MuxBuffers::new(),
            net: VecDeque::new(),
            delivered: vec![0; n],
            hashes: vec![0xCBF2_9CE4_8422_2325; n],
            transmissions: 0,
            arrivals,
        }
    }

    /// One step of `pid`'s `topic` instance; its effects wait in `mux`
    /// until [`Lockstep::drain`].
    fn step(&mut self, pid: usize, topic: TopicId, input: StepInput) -> Option<Tag> {
        self.engines[pid].step_mux(topic, input, &self.fd, &mut self.mux)
    }

    /// Drains `mux` after steps at `pid`: emissions to the network,
    /// deliveries to the counts, the hashes and the arrival loop.
    fn drain(&mut self, pid: usize) {
        self.net.extend(self.mux.outbox.drain(..));
        for (_, d) in self.mux.deliveries.drain(..) {
            self.delivered[pid] += 1;
            self.hashes[pid] ^= fnv1a(&d.tag.0.to_le_bytes());
            self.hashes[pid] = self.hashes[pid].wrapping_mul(0x1000_0000_01B3);
            self.arrivals.on_deliver(pid, d.tag);
        }
    }

    /// Delivers every queued emission to every process, instantly and
    /// losslessly, until the network is silent.
    fn flood(&mut self) {
        while let Some((topic, msg)) = self.net.pop_front() {
            self.transmissions += self.spec.n as u64;
            for pid in 0..self.spec.n {
                self.step(pid, topic, StepInput::Receive(msg.clone()));
                self.drain(pid);
            }
        }
    }

    /// One Task-1 sweep of every instance of every process, then a flood
    /// of what it emitted.
    fn sweep(&mut self) {
        for pid in 0..self.spec.n {
            self.engines[pid].tick_all(&self.fd, &mut self.mux);
            self.drain(pid);
        }
        self.flood();
    }
}

// ---- the count loop: soak runs ----------------------------------------------

/// Configuration of one soak run.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// System size `n` (every process is correct; a soak stresses memory,
    /// not fault tolerance).
    pub n: usize,
    /// Protocol under test.
    pub algorithm: Algorithm,
    /// Root seed.
    pub seed: u64,
    /// Total `URB_broadcast` invocations, round-robined across processes.
    pub messages: u64,
    /// Every `sweep_every` messages: one Task-1 sweep per process, one
    /// compaction sweep (bounded-memory mode only) and one state sample.
    pub sweep_every: u64,
    /// Bounded-memory mode; `None` runs the unbounded reference arm.
    pub memory: Option<MemoryConfig>,
    /// When set, after this many messages every engine is serialized to a
    /// snapshot, dropped, rebuilt fresh and restored — the crash-recovery
    /// arm. The outcome must equal an undisturbed run's.
    pub snapshot_restart_at: Option<u64>,
}

impl SoakConfig {
    /// A quiescent-algorithm soak of `messages` messages on 3 processes.
    pub fn new(messages: u64) -> Self {
        SoakConfig {
            n: 3,
            algorithm: Algorithm::Quiescent,
            seed: 1,
            messages,
            sweep_every: 32,
            memory: None,
            snapshot_restart_at: None,
        }
    }

    /// Switches on bounded-memory mode (builder style).
    pub fn memory(mut self, cfg: MemoryConfig) -> Self {
        self.memory = Some(cfg);
        self
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules the mid-run snapshot/restore (builder style).
    pub fn snapshot_restart_at(mut self, at: u64) -> Self {
        self.snapshot_restart_at = Some(at);
        self
    }
}

/// One state-residency sample along a soak.
#[derive(Clone, Copy, Debug)]
pub struct SoakSample {
    /// Messages broadcast so far when the sample was taken.
    pub messages: u64,
    /// Aggregate [`ProcessStats::total`] over every process.
    ///
    /// [`ProcessStats::total`]: urb_types::ProcessStats::total
    pub resident: usize,
}

/// Everything a soak run observed.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// Messages broadcast.
    pub messages: u64,
    /// Per-process URB-delivery counts.
    pub delivered: Vec<u64>,
    /// Per-process order-sensitive rolling hashes over the delivery
    /// sequence (tag order). Two runs delivered identically iff these
    /// match element-wise.
    pub delivery_hashes: Vec<u64>,
    /// Peak aggregate residency over all samples.
    pub peak_resident: usize,
    /// Aggregate residency after the final drain.
    pub final_resident: usize,
    /// Residency trajectory (one sample per sweep).
    pub samples: Vec<SoakSample>,
    /// Total state entries reclaimed by compaction (0 when unbounded).
    pub reclaimed: u64,
    /// Total tags tombstoned by compaction (0 when unbounded).
    pub tombstoned: u64,
    /// Every engine ended quiescent.
    pub quiescent: bool,
}

impl SoakOutcome {
    /// True when `other` delivered exactly the same tags in the same order
    /// at every process.
    pub fn same_deliveries(&self, other: &SoakOutcome) -> bool {
        self.delivered == other.delivered && self.delivery_hashes == other.delivery_hashes
    }
}

/// The count loop's own state: its config and the residency samples.
struct CountLoop {
    cfg: SoakConfig,
    samples: Vec<SoakSample>,
    peak: usize,
}

impl ArrivalLoop for CountLoop {
    fn on_deliver(&mut self, _pid: usize, _tag: Tag) {}
}

impl Lockstep<CountLoop> {
    fn resident(&self) -> usize {
        self.engines.iter().map(|e| e.stats().total()).sum()
    }

    /// One core sweep, then — in bounded-memory mode — one compaction
    /// sweep, then a sample.
    fn sample_sweep(&mut self, messages_so_far: u64) {
        self.sweep();
        if self.spec.memory.is_some() {
            for e in &mut self.engines {
                e.compact_all(&self.fd);
            }
        }
        let resident = self.resident();
        let soak = &mut self.arrivals;
        soak.peak = soak.peak.max(resident);
        soak.samples.push(SoakSample {
            messages: messages_so_far,
            resident,
        });
    }

    /// Serializes every engine, tears the fleet down and restores from
    /// bytes into freshly-built engines — the simulated crash+recovery.
    fn restart_from_snapshots(&mut self) {
        let snapshots: Vec<Vec<u8>> = self
            .engines
            .iter()
            .map(|e| {
                e.save_snapshot()
                    .expect("soak algorithms support snapshots")
            })
            .collect();
        let mut fresh = self.spec.engines();
        for (e, bytes) in fresh.iter_mut().zip(&snapshots) {
            e.restore_snapshot(bytes).expect("own snapshot restores");
        }
        self.engines = fresh;
    }

    fn run(mut self) -> SoakOutcome {
        let payload = Payload::from("soak");
        let (n, messages) = (self.spec.n as u64, self.arrivals.cfg.messages);
        for i in 0..messages {
            if self.arrivals.cfg.snapshot_restart_at == Some(i) {
                self.restart_from_snapshots();
            }
            let pid = (i % n) as usize;
            self.step(pid, TopicId::ZERO, StepInput::Broadcast(payload.clone()));
            self.drain(pid);
            self.flood();
            if (i + 1) % self.arrivals.cfg.sweep_every == 0 {
                self.sample_sweep(i + 1);
            }
        }
        // Drain: enough sweeps to clear every grace clock, so everything
        // stable at the end is also reclaimed (bounded mode).
        let grace = self.spec.memory.map_or(1, |m| m.grace_ticks + 2);
        for _ in 0..grace.max(2) {
            self.sample_sweep(messages);
        }
        let (mut reclaimed, mut tombstoned) = (0u64, 0u64);
        for e in &self.engines {
            reclaimed += e.counters().reclaimed;
            tombstoned += e.counters().tombstoned;
        }
        SoakOutcome {
            messages,
            quiescent: self.engines.iter().all(|e| e.is_quiescent()),
            final_resident: self.resident(),
            delivered: self.delivered,
            delivery_hashes: self.hashes,
            peak_resident: self.arrivals.peak,
            samples: self.arrivals.samples,
            reclaimed,
            tombstoned,
        }
    }
}

/// Executes one soak run. Pure function of the config.
pub fn soak(cfg: SoakConfig) -> SoakOutcome {
    assert!(cfg.sweep_every >= 1);
    let spec = CoreSpec {
        n: cfg.n,
        topics: 1,
        algorithm: cfg.algorithm,
        seed: cfg.seed,
        salt: 0x50AC_50AC_50AC_50AC,
        label: 0x50AC,
        memory: cfg.memory,
    };
    let arrivals = CountLoop {
        cfg,
        samples: Vec::new(),
        peak: 0,
    };
    Lockstep::new(spec, arrivals).run()
}

// ---- the rate loop: open-loop runs ------------------------------------------

/// Configuration of one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// System size `n` (every process is correct — the plane measures
    /// load, not fault tolerance).
    pub n: usize,
    /// Live topics per node; arrivals round-robin across them. Dispatch
    /// is O(1) (DESIGN.md §16), so outcomes are **identical** from 1 to
    /// 100k topics — experiment E22 pins exactly that.
    pub topics: u32,
    /// Protocol under test.
    pub algorithm: Algorithm,
    /// Root seed.
    pub seed: u64,
    /// Simulated horizon in ticks: arrivals are scheduled strictly below
    /// this tick; the run then drains to completion.
    pub ticks: u64,
    /// Offered load: arrivals per 1000 ticks, cluster-wide. Arrival `k`
    /// lands at tick `k·1000 / rate_per_ktick`.
    pub rate_per_ktick: u64,
    /// Ingress service budget: broadcasts one node invokes per tick.
    /// Cluster capacity is `n × service_per_tick` per tick.
    pub service_per_tick: u32,
    /// Task-1 sweep cadence in ticks (every instance of every node).
    pub sweep_every: u64,
}

impl OpenLoopConfig {
    /// A quiescent-algorithm run on 3 processes, one topic, moderate
    /// load: 256-tick horizon, 500 arrivals/ktick against a capacity of
    /// 3000/ktick.
    pub fn new(rate_per_ktick: u64) -> Self {
        OpenLoopConfig {
            n: 3,
            topics: 1,
            algorithm: Algorithm::Quiescent,
            seed: 1,
            ticks: 256,
            rate_per_ktick,
            service_per_tick: 1,
            sweep_every: 64,
        }
    }

    /// Sets the topic count (builder style).
    pub fn topics(mut self, topics: u32) -> Self {
        self.topics = topics.max(1);
        self
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything one open-loop run observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenLoopOutcome {
    /// Arrivals the generator scheduled (the offered work).
    pub offered: u64,
    /// Broadcasts actually invoked (equals `offered` — the drain phase
    /// serves every queued arrival).
    pub injected: u64,
    /// Broadcasts URB-delivered back at their origin (completions).
    pub completed: u64,
    /// Completions that happened within the horizon — the *achieved*
    /// throughput under load, which flattens at capacity while `offered`
    /// keeps climbing.
    pub completed_in_horizon: u64,
    /// Total URB deliveries across every process.
    pub deliveries: u64,
    /// Protocol transmissions: per-link copies the instant network
    /// flooded (each emission reaches all `n` processes).
    pub transmissions: u64,
    /// Median arrival→origin-delivery latency, in ticks.
    pub latency_p50: u64,
    /// 90th-percentile latency, in ticks.
    pub latency_p90: u64,
    /// 99th-percentile latency, in ticks.
    pub latency_p99: u64,
    /// 99.9th-percentile latency, in ticks — the tail the knee shows up
    /// in first.
    pub latency_p999: u64,
    /// Worst single latency, in ticks.
    pub latency_max: u64,
    /// Deepest any node's ingress queue got.
    pub peak_queue_depth: usize,
    /// Ticks the drain phase needed past the horizon.
    pub drain_ticks: u64,
    /// Per-process order-sensitive rolling delivery hashes (same scheme
    /// as the soak plane): two runs delivered identically iff equal.
    pub delivery_hashes: Vec<u64>,
}

impl OpenLoopOutcome {
    /// True when `other` delivered exactly the same tags in the same
    /// order at every process.
    pub fn same_deliveries(&self, other: &OpenLoopOutcome) -> bool {
        self.deliveries == other.deliveries && self.delivery_hashes == other.delivery_hashes
    }
}

/// Nearest-rank per-mille percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], per_mille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() as u64 - 1) * per_mille / 1000;
    sorted[idx as usize]
}

/// The rate loop's own state: ingress queues and the latency log.
struct RateLoop {
    cfg: OpenLoopConfig,
    /// Per-node ingress queues of pending arrivals (arrival index).
    queues: Vec<VecDeque<u64>>,
    /// In-flight broadcasts: tag → (arrival tick, origin pid).
    pending: HashMap<Tag, (u64, usize)>,
    latencies: Vec<u64>,
    completed: u64,
    completed_in_horizon: u64,
    peak_queue: usize,
    now: u64,
}

impl ArrivalLoop for RateLoop {
    /// A delivery back at its origin completes the broadcast.
    fn on_deliver(&mut self, pid: usize, tag: Tag) {
        if let Some(&(arrived, origin)) = self.pending.get(&tag) {
            if origin == pid {
                self.pending.remove(&tag);
                self.latencies.push(self.now - arrived);
                self.completed += 1;
                if self.now < self.cfg.ticks {
                    self.completed_in_horizon += 1;
                }
            }
        }
    }
}

impl Lockstep<RateLoop> {
    /// Each node serves up to its per-tick budget from its ingress queue.
    fn serve(&mut self, injected: &mut u64) {
        for pid in 0..self.spec.n {
            for _ in 0..self.arrivals.cfg.service_per_tick {
                let Some(arrival) = self.arrivals.queues[pid].pop_front() else {
                    break;
                };
                let cfg = &self.arrivals.cfg;
                let topic = TopicId((arrival % cfg.topics as u64) as u32);
                let arrived = arrival * 1000 / cfg.rate_per_ktick;
                let tag = self
                    .step(pid, topic, StepInput::Broadcast(Payload::from("load")))
                    .expect("urb_broadcast assigns a tag");
                self.arrivals.pending.insert(tag, (arrived, pid));
                *injected += 1;
                self.drain(pid);
            }
        }
        self.flood();
    }

    fn run(mut self) -> OpenLoopOutcome {
        let (n, ticks) = (self.spec.n as u64, self.arrivals.cfg.ticks);
        let (rate, sweep_every) = (
            self.arrivals.cfg.rate_per_ktick,
            self.arrivals.cfg.sweep_every,
        );
        let mut offered = 0u64;
        let mut injected = 0u64;
        let mut next_arrival = 0u64; // arrival index
        for t in 0..ticks {
            let rl = &mut self.arrivals;
            rl.now = t;
            // Arrivals scheduled for this tick enter their origin queue —
            // unconditionally: the generator never waits for the system.
            while next_arrival * 1000 / rate == t {
                let pid = (next_arrival % n) as usize;
                rl.queues[pid].push_back(next_arrival);
                rl.peak_queue = rl.peak_queue.max(rl.queues[pid].len());
                offered += 1;
                next_arrival += 1;
            }
            self.serve(&mut injected);
            if (t + 1) % sweep_every == 0 {
                self.sweep();
            }
        }
        // Drain: keep serving (no new arrivals) until every queued
        // arrival was injected and every broadcast completed. Bounded:
        // the backlog is finite and service makes progress every tick.
        let mut drain_ticks = 0u64;
        while self.arrivals.queues.iter().any(|q| !q.is_empty())
            || !self.arrivals.pending.is_empty()
        {
            self.arrivals.now = ticks + drain_ticks;
            self.serve(&mut injected);
            if (self.arrivals.now + 1).is_multiple_of(sweep_every) {
                self.sweep();
            }
            drain_ticks += 1;
            assert!(
                drain_ticks <= offered + sweep_every + 2,
                "open-loop drain did not converge (backlog stuck)"
            );
        }
        let rl = &mut self.arrivals;
        rl.latencies.sort_unstable();
        OpenLoopOutcome {
            offered,
            injected,
            completed: rl.completed,
            completed_in_horizon: rl.completed_in_horizon,
            deliveries: self.delivered.iter().sum(),
            transmissions: self.transmissions,
            latency_p50: percentile(&rl.latencies, 500),
            latency_p90: percentile(&rl.latencies, 900),
            latency_p99: percentile(&rl.latencies, 990),
            latency_p999: percentile(&rl.latencies, 999),
            latency_max: rl.latencies.last().copied().unwrap_or(0),
            peak_queue_depth: rl.peak_queue,
            drain_ticks,
            delivery_hashes: self.hashes,
        }
    }
}

/// Executes one open-loop run. Pure function of the config: every number
/// in the outcome derives from simulated ticks and counts, never wall
/// clock.
pub fn open_loop(cfg: OpenLoopConfig) -> OpenLoopOutcome {
    assert!(cfg.ticks >= 1);
    assert!(cfg.rate_per_ktick >= 1, "open loop needs an arrival rate");
    assert!(cfg.service_per_tick >= 1);
    assert!(cfg.sweep_every >= 1);
    let spec = CoreSpec {
        n: cfg.n,
        topics: cfg.topics,
        algorithm: cfg.algorithm,
        seed: cfg.seed,
        salt: 0x09E7_100D_09E7_100D,
        label: 0x09E7,
        memory: None,
    };
    let arrivals = RateLoop {
        queues: vec![VecDeque::new(); cfg.n],
        cfg,
        pending: HashMap::new(),
        latencies: Vec::new(),
        completed: 0,
        completed_in_horizon: 0,
        peak_queue: 0,
        now: 0,
    };
    Lockstep::new(spec, arrivals).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryConfig {
        MemoryConfig {
            ceiling: Some(600),
            ..MemoryConfig::default()
        }
    }

    // ---- count loop ---------------------------------------------------------

    /// The tier-1 soak: small enough for debug builds, same shape as the
    /// ignored 100k/1M tiers.
    #[test]
    fn compacted_soak_plateaus_and_delivers_identically() {
        let base = SoakConfig::new(2_000).seed(11);
        let unbounded = soak(base.clone());
        let bounded = soak(base.memory(mem()));
        assert!(
            bounded.same_deliveries(&unbounded),
            "compaction must not change deliveries"
        );
        for (pid, &count) in unbounded.delivered.iter().enumerate() {
            assert_eq!(count, 2_000, "process {pid} delivers every message");
        }
        assert!(bounded.quiescent);
        assert!(bounded.reclaimed > 0, "compaction actually ran");
        // The headline: unbounded residency grows with the message count;
        // bounded residency plateaus far below it.
        assert!(
            unbounded.final_resident >= 2_000,
            "unbounded run retains per-message state ({})",
            unbounded.final_resident
        );
        assert!(
            bounded.peak_resident < unbounded.final_resident / 4,
            "bounded peak {} should plateau well below unbounded final {}",
            bounded.peak_resident,
            unbounded.final_resident
        );
    }

    #[test]
    fn alg1_bounded_soak_quiesces_and_matches_unbounded_deliveries() {
        let base = SoakConfig {
            algorithm: Algorithm::Majority,
            ..SoakConfig::new(500).seed(13)
        };
        let unbounded = soak(base.clone());
        let bounded = soak(base.memory(mem()));
        assert!(bounded.same_deliveries(&unbounded));
        assert!(
            bounded.quiescent,
            "reclaiming fully-acked msgs silences Task 1 (D§14 deviation)"
        );
        assert!(!unbounded.quiescent, "Algorithm 1 never quiesces unbounded");
        assert!(bounded.peak_resident < unbounded.final_resident / 4);
    }

    #[test]
    fn mid_soak_snapshot_restart_is_invisible() {
        let base = SoakConfig::new(600).seed(17).memory(mem());
        let straight = soak(base.clone());
        let restarted = soak(base.snapshot_restart_at(300));
        assert!(restarted.same_deliveries(&straight));
        assert_eq!(restarted.final_resident, straight.final_resident);
        assert_eq!(restarted.reclaimed, straight.reclaimed);
    }

    #[test]
    fn soak_is_deterministic_per_seed() {
        let cfg = SoakConfig::new(300).seed(23).memory(mem());
        let a = soak(cfg.clone());
        let b = soak(cfg);
        assert!(a.same_deliveries(&b));
        assert_eq!(a.peak_resident, b.peak_resident);
        let c = soak(SoakConfig::new(300).seed(24).memory(mem()));
        assert_ne!(a.delivery_hashes, c.delivery_hashes, "seed moves the tags");
    }

    /// The CI `soak-smoke` tier — reduced to 100k messages, with the hard
    /// residency ceiling the job asserts on. `--ignored` only.
    #[test]
    #[ignore = "soak tier: run with --ignored (CI soak-smoke job)"]
    fn soak_100k_respects_hard_ceiling() {
        let out = soak(SoakConfig::new(100_000).seed(31).memory(mem()));
        assert!(out.quiescent);
        assert_eq!(out.delivered, vec![100_000; 3]);
        assert!(
            out.peak_resident < 2_000,
            "resident state {} must stay bounded regardless of message count",
            out.peak_resident
        );
    }

    /// The headline millionth-message soak: bounded residency plateaus
    /// while deliveries match the unbounded reference arm exactly.
    /// `--ignored` only (takes a few minutes in release).
    #[test]
    #[ignore = "soak tier: run with --ignored (million-message acceptance)"]
    fn soak_one_million_plateaus_with_identical_deliveries() {
        let base = SoakConfig::new(1_000_000).seed(41);
        let bounded = soak(base.clone().memory(mem()));
        assert!(bounded.quiescent);
        assert_eq!(bounded.delivered, vec![1_000_000; 3]);
        assert!(
            bounded.peak_resident < 2_000,
            "plateau: peak {} after a million messages",
            bounded.peak_resident
        );
        let unbounded = soak(base);
        assert!(bounded.same_deliveries(&unbounded));
        assert!(unbounded.final_resident >= 1_000_000);
    }

    // ---- rate loop ----------------------------------------------------------

    #[test]
    fn open_loop_is_deterministic_per_seed() {
        let a = open_loop(OpenLoopConfig::new(500).seed(7));
        let b = open_loop(OpenLoopConfig::new(500).seed(7));
        assert_eq!(a, b);
        let c = open_loop(OpenLoopConfig::new(500).seed(8));
        assert_ne!(a.delivery_hashes, c.delivery_hashes, "seed moves the tags");
    }

    #[test]
    fn below_capacity_latency_sits_at_the_floor() {
        // Capacity is 3 nodes × 1/tick = 3000/ktick; offer a sixth of it.
        let out = open_loop(OpenLoopConfig::new(500).seed(11));
        assert_eq!(out.offered, out.completed, "everything drains");
        assert_eq!(out.injected, out.offered);
        assert_eq!(
            out.latency_p999, 0,
            "below the knee, arrivals are served the tick they land"
        );
        assert!(out.peak_queue_depth <= 1);
        assert_eq!(out.drain_ticks, 0, "no backlog at the horizon");
    }

    #[test]
    fn past_capacity_the_tail_explodes_and_queues_grow() {
        let below = open_loop(OpenLoopConfig::new(2_000).seed(13));
        let above = open_loop(OpenLoopConfig::new(9_000).seed(13));
        // Offered load tripled past capacity; achieved throughput did not.
        assert!(above.offered > 2 * below.offered);
        assert!(
            above.completed_in_horizon < below.completed_in_horizon * 2,
            "achieved throughput saturates at capacity ({} vs {})",
            above.completed_in_horizon,
            below.completed_in_horizon
        );
        // The knee: the latency tail and the queues grow without bound.
        assert_eq!(below.latency_p99, 0, "below capacity: protocol floor");
        assert!(
            above.latency_p999 > 50,
            "past capacity, queueing dominates (p999 = {})",
            above.latency_p999
        );
        assert!(above.latency_p50 <= above.latency_p99);
        assert!(above.latency_p99 <= above.latency_p999);
        assert!(above.peak_queue_depth > 10 * below.peak_queue_depth.max(1));
        assert!(above.drain_ticks > 0, "the backlog outlived the horizon");
        assert_eq!(above.offered, above.completed, "the drain still finishes");
    }

    #[test]
    fn outcome_is_identical_from_one_topic_to_a_thousand() {
        // The O(1)-dispatch pin (experiment E22's tier-1 shape): topic
        // count changes *where* broadcasts land, but arrivals, service,
        // RNG draws and therefore latencies and delivery hashes are
        // byte-identical — per-message cost is flat in topic count.
        let one = open_loop(OpenLoopConfig::new(4_000).seed(17).topics(1));
        let thousand = open_loop(OpenLoopConfig::new(4_000).seed(17).topics(1_000));
        assert_eq!(one, thousand);
    }

    /// The 100k-topic tier of the E22 pin. `--ignored` only (builds
    /// 100k instances per node).
    #[test]
    #[ignore = "scale tier: run with --ignored (CI bench-smoke exercises e22 instead)"]
    fn outcome_is_identical_at_100k_topics() {
        let one = open_loop(OpenLoopConfig::new(4_000).seed(19).topics(1));
        let hundred_k = open_loop(OpenLoopConfig::new(4_000).seed(19).topics(100_000));
        assert_eq!(one, hundred_k);
    }
}
