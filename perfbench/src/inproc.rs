//! The in-process stack: `UrbCluster` with n = 3, Algorithm 2, 4 topics,
//! one router lane and 10 % loss, driven through its public handle.
//!
//! Load comes from one generator thread. `broadcast_on` is synchronous (it
//! waits for the node thread's reply), so a slow node also delays the
//! generator; the open loop therefore times every broadcast from its due
//! time and reports how late the generator ran.
//!
//! Deliveries reach `subscribe()` receivers only when a log accessor pumps
//! the cluster's delivery streams, and every accessor scans a whole
//! per-process log. A separate observer thread pumps every
//! [`PUMP_PERIOD`] through the cheapest accessor (the log of a topic that
//! carries nothing, which scans one process's log and copies nothing) and
//! stamps what the pump surfaced. Delivery times are therefore observed
//! with a granularity of one pump period plus one pump, and the pumping
//! stays off the generator's path.

use crate::host;
use crate::summary::{check_deliveries, Verdict};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_runtime::{workload_payload, ClusterConfig, TrafficStats, UrbCluster};
use urb_types::{Payload, RandomSource, SplitMix64, Tag, TopicId};

/// Processes.
pub const N: usize = 3;
/// Topics per node.
pub const TOPICS: u32 = 4;
/// Per-copy loss probability.
pub const LOSS: f64 = 0.1;
/// Open-loop rates, broadcasts per second. At `LOW_RATE` the 99th
/// percentile is set by the 20 ms retransmission tick. `HIGH_RATE` is
/// about 40 % of the closed-loop burst rate: at 6,000/s some runs on a
/// 2-vCPU host stalled with a growing backlog (median latency over
/// 250 ms) during slow spells of the host.
pub const LOW_RATE: f64 = 2000.0;
/// See [`LOW_RATE`].
pub const HIGH_RATE: f64 = 4000.0;
/// How long a phase waits for deliveries after its last broadcast. A
/// broadcast refused or not delivered everywhere by then is recorded with
/// this latency, so it misses any latency limit.
pub const GIVE_UP: Duration = Duration::from_secs(10);
/// Broadcasts the closed-loop client keeps in flight.
pub const WINDOW: usize = 256;
/// How often the observer pumps deliveries.
pub const PUMP_PERIOD: Duration = Duration::from_micros(500);
/// A topic no broadcast uses; reading its log only pumps.
const IDLE_TOPIC: TopicId = TopicId(u32::MAX);

/// A fresh cluster of the workload's shape.
pub fn spawn(seed: u64) -> UrbCluster {
    UrbCluster::spawn(
        ClusterConfig::new(N, Algorithm::Quiescent)
            .topics(TOPICS)
            .loss(LOSS)
            .seed(seed),
    )
}

/// `count` broadcasts `(pid, topic, payload)` drawn from `seed`, with the
/// payloads the socket stack carries too.
pub fn schedule(seed: u64, count: usize) -> Vec<(usize, TopicId, Payload)> {
    let mut rng = SplitMix64::new(seed ^ 0xB3_0C_A5_7E);
    (0..count)
        .map(|i| {
            let pid = (rng.next_u64() % N as u64) as usize;
            let topic = TopicId((rng.next_u64() % u64::from(TOPICS)) as u32);
            (pid, topic, workload_payload(pid, topic, i))
        })
        .collect()
}

/// Everything one phase observed.
pub struct Phase {
    /// `(topic, tag)` of each accepted broadcast, with its due time.
    pub sent: Vec<(u32, Tag, Instant)>,
    /// Broadcasts `broadcast_on` refused.
    pub refused: usize,
    /// Observed deliveries `(pid, topic, tag, observed at)`.
    pub seen: Vec<(usize, u32, Tag, Instant)>,
    /// When the first broadcast was due.
    pub start: Instant,
    /// Generator lateness per broadcast (call start minus due), µs.
    pub lateness_us: Vec<f64>,
    /// Duration of each `broadcast_on` call, µs.
    pub call_us: Vec<f64>,
    /// CPU share of the generator and observer threads in the process's
    /// CPU time over the phase.
    pub load_cpu_share: f64,
    /// Router counters at the end of the phase (cumulative over the
    /// cluster's life).
    pub traffic: TrafficStats,
    /// MSG and ACK messages routed during the phase.
    pub messages: u64,
    /// Whether the cluster fell silent after the phase (Algorithm 2's
    /// quiescence), when that was awaited.
    pub quiescent: Option<bool>,
}

impl Phase {
    /// URB verdict, counting refused broadcasts as failed ones.
    pub fn verdict(&self) -> Verdict {
        let sent: Vec<(u32, Tag)> = self.sent.iter().map(|&(t, tag, _)| (t, tag)).collect();
        let seen: Vec<(usize, u32, Tag)> = self
            .seen
            .iter()
            .map(|&(p, t, tag, _)| (p, t, tag))
            .collect();
        let mut v = check_deliveries(N, &sent, &seen);
        v.broadcasts += self.refused;
        v.failed += self.refused;
        v
    }

    /// When each tag was first seen at all `N` processes.
    fn completions(&self) -> HashMap<Tag, Instant> {
        let mut per_tag: HashMap<Tag, (usize, Instant)> = HashMap::new();
        for &(_, _, tag, at) in &self.seen {
            let e = per_tag.entry(tag).or_insert((0, at));
            e.0 += 1;
            e.1 = e.1.max(at);
        }
        per_tag
            .into_iter()
            .filter(|(_, (count, _))| *count >= N)
            .map(|(tag, (_, at))| (tag, at))
            .collect()
    }

    /// Latency of every broadcast from its due time to delivery at every
    /// process, in ms; refused or undelivered ones count as [`GIVE_UP`].
    pub fn latencies_ms(&self) -> Vec<f64> {
        let done = self.completions();
        let give_up = GIVE_UP.as_secs_f64() * 1e3;
        let mut out: Vec<f64> = self
            .sent
            .iter()
            .map(|(_, tag, due)| {
                done.get(tag).map_or(give_up, |at| {
                    at.saturating_duration_since(*due).as_secs_f64() * 1e3
                })
            })
            .collect();
        out.extend(std::iter::repeat_n(give_up, self.refused));
        out
    }

    /// Seconds from the first due time until the last broadcast was
    /// delivered everywhere.
    pub fn span_s(&self) -> f64 {
        let done = self.completions();
        let last = done.values().max().copied().unwrap_or(self.start);
        last.saturating_duration_since(self.start).as_secs_f64()
    }
}

/// How a phase offers its broadcasts.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Open loop: broadcast `i` is due `i / rate` seconds after the start.
    Open(f64),
    /// Closed loop of one client that keeps at most this many broadcasts
    /// not yet delivered everywhere, issuing the next as soon as one
    /// completes (and the previous `broadcast_on` returned).
    Window(usize),
}

/// Runs one phase on `cluster` under `load`. With `await_quiescence`,
/// the phase ends by waiting for the router to go silent.
pub fn run_phase(
    cluster: &UrbCluster,
    plan: &[(usize, TopicId, Payload)],
    load: Load,
    await_quiescence: bool,
) -> Phase {
    let before = cluster.traffic().protocol_messages;
    let subs: Vec<_> = (0..TOPICS).map(|t| cluster.subscribe(TopicId(t))).collect();
    let complete = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let cpu0 = host::process_cpu_s();
    let phase = std::thread::scope(|s| {
        let observer = s.spawn(|| {
            let cpu0 = host::thread_cpu_s();
            let mut seen = Vec::new();
            let mut counts: HashMap<Tag, usize> = HashMap::new();
            loop {
                let last = stop.load(Ordering::Acquire);
                let _ = cluster.delivery_log_on(0, IDLE_TOPIC);
                let now = Instant::now();
                for (t, rx) in subs.iter().enumerate() {
                    while let Ok((pid, d)) = rx.try_recv() {
                        let c = counts.entry(d.tag).or_insert(0);
                        *c += 1;
                        if *c == N {
                            complete.fetch_add(1, Ordering::Release);
                        }
                        seen.push((pid, t as u32, d.tag, now));
                    }
                }
                if last {
                    return (seen, host::thread_cpu_s() - cpu0);
                }
                std::thread::sleep(PUMP_PERIOD);
            }
        });

        let gen_cpu0 = host::thread_cpu_s();
        let start = Instant::now() + Duration::from_millis(5);
        let mut sent = Vec::with_capacity(plan.len());
        let mut refused = 0;
        let mut lateness_us = Vec::with_capacity(plan.len());
        let mut call_us = Vec::with_capacity(plan.len());
        for (i, (pid, topic, payload)) in plan.iter().enumerate() {
            let due = match load {
                Load::Open(rate) => start + Duration::from_secs_f64(i as f64 / rate),
                Load::Window(w) => {
                    while i >= w + complete.load(Ordering::Acquire) {
                        std::thread::sleep(PUMP_PERIOD / 4);
                    }
                    Instant::now().max(start)
                }
            };
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let called = Instant::now();
            lateness_us.push(called.saturating_duration_since(due).as_secs_f64() * 1e6);
            match cluster.broadcast_on(*pid, *topic, payload.clone()) {
                Some(tag) => sent.push((topic.0, tag, due)),
                None => refused += 1,
            }
            call_us.push(called.elapsed().as_secs_f64() * 1e6);
        }
        let gen_cpu = host::thread_cpu_s() - gen_cpu0;

        let deadline = Instant::now() + GIVE_UP;
        while complete.load(Ordering::Acquire) < sent.len() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        let (seen, obs_cpu) = observer.join().expect("observer thread panicked");
        let process_cpu = (host::process_cpu_s() - cpu0).max(1e-9);
        Phase {
            sent,
            refused,
            seen,
            start,
            lateness_us,
            call_us,
            load_cpu_share: (gen_cpu + obs_cpu) / process_cpu,
            traffic: TrafficStats::default(),
            messages: 0,
            quiescent: None,
        }
    });
    let quiescent =
        await_quiescence.then(|| cluster.await_quiescence(Duration::from_millis(200), GIVE_UP));
    let traffic = cluster.traffic();
    Phase {
        messages: traffic.protocol_messages - before,
        traffic,
        quiescent,
        ..phase
    }
}
