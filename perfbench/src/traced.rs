//! The traced run: the workload's traffic driven through the public layer
//! calls from this benchmark's own code, with a span around each call.
//!
//! * **Engine mesh** — three `TopicEngine`s (Algorithm 2, 4 topics) wired
//!   by a single-threaded router of this file with 10 % per-copy loss,
//!   fed the in-process workload's broadcast schedule. Spans:
//!   `TopicEngine::{step_mux, receive_mux_frame, tick_all}`,
//!   `MuxBuffers::take_mux_frame`, `MuxBatch::decode_shared_into`,
//!   `MembershipRegistry::snapshot`. It runs twice, spans off and on; the
//!   gap is the tracing overhead.
//! * **Protocol mesh** — `urb_engine::drive_step` per message kind over
//!   bare protocol instances with `OracleFd::{a_theta, a_p_star}` views,
//!   at n = 3 (Algorithm 2) and n = 16 (both algorithms, 3 crashes).
//! * **Stream framing** — the engine mesh's frames as one byte stream
//!   through `FrameReassembler::{push, next_frame}` in seeded chunks.
//! * **Real stacks** — a closed-loop burst on `UrbCluster` timing each
//!   `broadcast_on` and reading `traffic()`; one direct socket run whose
//!   reports go through `serde_json::from_str`; a simulator pass.
//!
//! Spans nest strictly, so a stack of open spans gives each span's self
//! time (its duration minus its children's). Aggregates are kept per
//! span name; the first [`DUMP_CAP`] spans are written to
//! `<target dir>/perfbench-spans.tsv` when the run ends.

use crate::summary::{check_deliveries, median, share, summarize, Bases};
use crate::{inproc, sim, tcp, Args, Report};
use bytes::{Bytes, BytesMut};
use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;
use urb_core::Algorithm;
use urb_engine::{drive_step, MuxBuffers, StepBuffers, StepInput, TopicEngine};
use urb_fd::{OracleConfig, OracleFd};
use urb_runtime::{transport::FrameReassembler, MembershipRegistry};
use urb_types::{
    encode_mux_frame_into, AnonProcess, BufPool, FdSnapshot, MuxBatch, Payload, RandomSource,
    SplitMix64, Tag, TopicId, WireKind, WireMessage,
};

/// Spans written out per run.
const DUMP_CAP: usize = 100_000;
/// Parent of a top-level span.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Per-name aggregate.
#[derive(Default)]
struct Agg {
    count: u64,
    total_ns: f64,
    self_ns: f64,
    durations: Vec<f32>,
}

/// In-memory span recorder. When off, `begin`/`end` do nothing but
/// return, so the same mesh code measures the untraced baseline.
struct Tracer {
    on: bool,
    t0: Instant,
    /// Open spans: (name, start, child time, dump index).
    stack: Vec<(&'static str, u64, u64, u32)>,
    aggs: Vec<(&'static str, Agg)>,
    dump: Vec<Span>,
    /// Identifier shared by the spans of one request (one broadcast, one
    /// received frame, one tick round).
    request: u64,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            stack: Vec::new(),
            aggs: Vec::new(),
            dump: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now_ns();
        let parent = self.stack.last().map_or(ROOT, |s| s.3);
        let idx = if self.dump.len() < DUMP_CAP {
            self.dump.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent,
                request: self.request,
            });
            (self.dump.len() - 1) as u32
        } else {
            ROOT
        };
        self.stack.push((name, start, 0, idx));
    }

    /// Closes the innermost span; returns its duration in ns (0 when off).
    fn end(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let now = self.now_ns();
        let (name, start, child, idx) = self.stack.pop().expect("end without begin");
        let dur = now - start;
        if let Some(top) = self.stack.last_mut() {
            top.2 += dur;
        }
        if let Some(s) = self.dump.get_mut(idx as usize) {
            s.end_ns = now;
        }
        let agg = match self.aggs.iter().position(|(n, _)| *n == name) {
            Some(i) => &mut self.aggs[i].1,
            None => {
                self.aggs.push((name, Agg::default()));
                &mut self.aggs.last_mut().expect("just pushed").1
            }
        };
        agg.count += 1;
        agg.total_ns += dur as f64;
        agg.self_ns += (dur - child) as f64;
        agg.durations.push(dur as f32);
        dur
    }

    fn agg(&self, name: &str) -> Option<&Agg> {
        self.aggs.iter().find(|(n, _)| *n == name).map(|(_, a)| a)
    }

    /// Median duration of `name`, ns (0 when never recorded).
    fn median_ns(&self, name: &str) -> f64 {
        self.agg(name).map_or(0.0, |a| {
            median(
                &a.durations
                    .iter()
                    .map(|&d| f64::from(d))
                    .collect::<Vec<_>>(),
            )
        })
    }

    /// Mean duration of `name`, ns.
    fn mean_ns(&self, name: &str) -> f64 {
        self.agg(name)
            .map_or(0.0, |a| a.total_ns / a.count.max(1) as f64)
    }

    fn count(&self, name: &str) -> u64 {
        self.agg(name).map_or(0, |a| a.count)
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.agg(name).map_or(0.0, |a| a.total_ns)
    }

    fn self_ns(&self, name: &str) -> f64 {
        self.agg(name).map_or(0.0, |a| a.self_ns)
    }

    /// Writes the dumped spans as TSV: name, start, end, parent, request.
    fn write(&self, path: &std::path::Path) {
        use std::fmt::Write as _;
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\trequest\n");
        for s in &self.dump {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

/// Uniform draw in [0, 1).
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Three topic engines joined by a lossy single-threaded router.
struct EngineMesh {
    engines: Vec<TopicEngine>,
    registry: MembershipRegistry,
    pool: BufPool,
    mux: MuxBuffers,
    decoded: Vec<(TopicId, WireMessage)>,
    queue: VecDeque<(usize, Bytes)>,
    loss: SplitMix64,
    /// Origin frames routed, their bytes and messages by kind.
    frames: u64,
    frame_bytes: u64,
    msgs: u64,
    acks: u64,
    /// Copies kept on / dropped from lossy links; fan-outs forwarded and
    /// re-encoded.
    kept: u64,
    dropped: u64,
    forwarded: u64,
    reencoded: u64,
    snapshots: u64,
    tick_msgs: Vec<f64>,
    pending_peak: usize,
    ack_entries_peak: usize,
    sent: Vec<(u32, Tag)>,
    seen: Vec<(usize, u32, Tag)>,
    /// Origin frames kept for the stream-framing pass.
    stream: Vec<Bytes>,
}

/// Broadcasts between two tick rounds: 20 ms of the high open-loop rate.
const BROADCASTS_PER_TICK: usize = 120;
/// Frames the router moves after each broadcast before the next one, so
/// frames queue up between ticks as they do under load.
const POPS_PER_BROADCAST: usize = 8;
/// Frames kept for the stream-framing pass.
const STREAM_CAP: usize = 20_000;

impl EngineMesh {
    fn new(seed: u64) -> Self {
        EngineMesh {
            engines: (0..inproc::N)
                .map(|pid| {
                    TopicEngine::new(
                        (0..inproc::TOPICS)
                            .map(|_| Algorithm::Quiescent.instantiate(inproc::N))
                            .collect(),
                        SplitMix64::new(seed ^ 0xB07B_0B00 ^ (pid as u64) << 32),
                    )
                })
                .collect(),
            registry: MembershipRegistry::new(
                inproc::N,
                seed,
                std::time::Duration::from_millis(200),
            ),
            pool: BufPool::default(),
            mux: MuxBuffers::new(),
            decoded: Vec::new(),
            queue: VecDeque::new(),
            loss: SplitMix64::new(seed ^ 0x1055),
            frames: 0,
            frame_bytes: 0,
            msgs: 0,
            acks: 0,
            kept: 0,
            dropped: 0,
            forwarded: 0,
            reencoded: 0,
            snapshots: 0,
            tick_msgs: Vec::new(),
            pending_peak: 0,
            ack_entries_peak: 0,
            sent: Vec::new(),
            seen: Vec::new(),
            stream: Vec::new(),
        }
    }

    fn snapshot(&mut self, pid: usize, tr: &mut Tracer) -> FdSnapshot {
        tr.begin("fd.snapshot");
        let s = self.registry.snapshot(pid, Instant::now());
        tr.end();
        self.snapshots += 1;
        s
    }

    /// Records the step's deliveries and routes its frame, if any.
    fn flush(&mut self, pid: usize, tr: &mut Tracer) {
        for (t, d) in self.mux.deliveries.drain(..) {
            self.seen.push((pid, t.0, d.tag));
        }
        tr.begin("codec.encode");
        let frame = self.mux.take_mux_frame(&self.pool);
        tr.end();
        if let Some(scratch) = frame {
            let frame = Bytes::copy_from_slice(&scratch);
            drop(scratch);
            self.route(pid, frame, tr);
        }
    }

    /// Fans one frame out to every process, dropping each copy on a link
    /// to another process with the workload's loss probability.
    fn route(&mut self, src: usize, frame: Bytes, tr: &mut Tracer) {
        tr.begin("codec.decode");
        MuxBatch::decode_shared_into(&frame, &mut self.decoded).expect("mesh frames decode");
        tr.end();
        self.frames += 1;
        self.frame_bytes += frame.len() as u64;
        for (_, m) in &self.decoded {
            match m.kind() {
                WireKind::Msg => self.msgs += 1,
                WireKind::Ack => self.acks += 1,
                WireKind::Heartbeat => {}
            }
        }
        if self.stream.len() < STREAM_CAP {
            self.stream.push(frame.clone());
        }
        for dest in 0..inproc::N {
            if dest == src {
                self.queue.push_back((dest, frame.clone()));
                continue;
            }
            let before = self.decoded.len();
            let survivors: Vec<(TopicId, WireMessage)> = self
                .decoded
                .iter()
                .filter(|_| unit(&mut self.loss) >= inproc::LOSS)
                .cloned()
                .collect();
            self.kept += survivors.len() as u64;
            self.dropped += (before - survivors.len()) as u64;
            if survivors.is_empty() {
                continue;
            }
            if survivors.len() == before {
                self.forwarded += 1;
                self.queue.push_back((dest, frame.clone()));
            } else {
                self.reencoded += 1;
                tr.begin("codec.reencode");
                let mut buf = BytesMut::new();
                encode_mux_frame_into(&survivors, &mut buf);
                tr.end();
                self.queue.push_back((dest, Bytes::copy_from_slice(&buf)));
            }
        }
    }

    fn broadcast(&mut self, pid: usize, topic: TopicId, payload: Payload, tr: &mut Tracer) {
        self.mux.clear();
        let snap = self.snapshot(pid, tr);
        tr.begin("engine.broadcast");
        let tag =
            self.engines[pid].step_mux(topic, StepInput::Broadcast(payload), &snap, &mut self.mux);
        tr.end();
        self.sent
            .push((topic.0, tag.expect("a broadcast is assigned a tag")));
        self.flush(pid, tr);
    }

    fn receive(&mut self, dest: usize, frame: Bytes, tr: &mut Tracer) {
        let EngineMesh {
            engines,
            registry,
            mux,
            snapshots,
            ..
        } = self;
        tr.begin("engine.ingress");
        engines[dest]
            .receive_mux_frame(&frame, mux, |_, _| {
                tr.begin("fd.snapshot");
                let s = registry.snapshot(dest, Instant::now());
                tr.end();
                *snapshots += 1;
                s
            })
            .expect("mesh frames address known topics");
        tr.end();
        self.flush(dest, tr);
    }

    /// Moves up to `max` queued frames.
    fn pump(&mut self, max: usize, tr: &mut Tracer) {
        for _ in 0..max {
            let Some((dest, frame)) = self.queue.pop_front() else {
                return;
            };
            tr.request += 1;
            self.receive(dest, frame, tr);
        }
    }

    /// One Task-1 sweep at every process.
    fn tick(&mut self, tr: &mut Tracer) {
        for pid in 0..inproc::N {
            tr.request += 1;
            let snap = self.snapshot(pid, tr);
            tr.begin("engine.tick");
            self.engines[pid].tick_all(&snap, &mut self.mux);
            tr.end();
            self.tick_msgs.push(self.mux.outbox.len() as f64);
            let stats = self.engines[pid].stats();
            self.pending_peak = self.pending_peak.max(stats.msg_set);
            self.ack_entries_peak = self.ack_entries_peak.max(stats.all_ack_entries);
            self.flush(pid, tr);
        }
    }

    fn quiet(&self) -> bool {
        self.queue.is_empty() && self.engines.iter().all(TopicEngine::is_quiescent)
    }
}

/// Runs the in-process schedule through the engine mesh until every
/// engine is quiescent. Returns the mesh and its wall seconds.
fn engine_mesh(seed: u64, broadcasts: usize, tr: &mut Tracer) -> (EngineMesh, f64) {
    let plan = inproc::schedule(seed ^ 0x7ACE, broadcasts);
    let t0 = Instant::now();
    let mut mesh = EngineMesh::new(seed);
    for (i, (pid, topic, payload)) in plan.into_iter().enumerate() {
        tr.request += 1;
        mesh.broadcast(pid, topic, payload, tr);
        mesh.pump(POPS_PER_BROADCAST, tr);
        if (i + 1) % BROADCASTS_PER_TICK == 0 {
            mesh.pump(usize::MAX, tr);
            mesh.tick(tr);
        }
    }
    for _ in 0..10_000 {
        mesh.pump(usize::MAX, tr);
        if mesh.quiet() {
            break;
        }
        mesh.tick(tr);
    }
    (mesh, t0.elapsed().as_secs_f64())
}

/// Span names of one protocol-mesh configuration: MSG, ACK, tick.
fn step_names(alg: usize, n: usize) -> [&'static str; 3] {
    match (alg, n) {
        (0, 16) => [
            "core.alg1.msg.n16",
            "core.alg1.ack.n16",
            "core.alg1.tick.n16",
        ],
        (1, 16) => [
            "core.alg2.msg.n16",
            "core.alg2.ack.n16",
            "core.alg2.tick.n16",
        ],
        (1, 3) => ["core.alg2.msg.n3", "core.alg2.ack.n3", "core.alg2.tick.n3"],
        _ => unreachable!("no protocol mesh configured for alg{} n{n}", alg + 1),
    }
}

/// Simulated time between two rounds (one tick interval).
const ROUND: u64 = 10;
/// Broadcasts per protocol-mesh run, as in the simulator workload.
const PROTO_BROADCASTS: usize = 4;
/// Round budget of a protocol-mesh run.
const PROTO_ROUNDS: u64 = 2_000;

/// Outcome of one protocol-mesh run.
struct ProtoRun {
    /// Broadcasts not delivered at every correct process.
    undelivered: usize,
    /// Σ tick ns over ticks with a non-empty MSG set, and Σ that set.
    tick_ns: u64,
    pending: u64,
}

/// `n` bare protocol instances of `ALGS[alg]` in lockstep rounds: every
/// round delivers the previous round's messages (10 % per-copy loss on
/// links to other processes), then ticks every live process. At n = 16,
/// three processes that broadcast nothing crash at time 50.
fn protocol_mesh(alg: usize, n: usize, seed: u64, tr: &mut Tracer) -> ProtoRun {
    let [msg_name, ack_name, tick_name] = step_names(alg, n);
    let mut rng = SplitMix64::new(seed ^ 0x9807);
    let mut crash_at: Vec<Option<u64>> = vec![None; n];
    if n == 16 {
        let mut victims: Vec<usize> = (PROTO_BROADCASTS..n).collect();
        for _ in 0..3 {
            let k = (rng.next_u64() % victims.len() as u64) as usize;
            crash_at[victims.swap_remove(k)] = Some(50);
        }
    }
    let oracle = OracleFd::new(crash_at.clone(), seed, OracleConfig::default());
    let mut procs: Vec<Box<dyn AnonProcess + Send>> =
        (0..n).map(|_| sim::ALGS[alg].instantiate(n)).collect();
    let mut rngs: Vec<SplitMix64> = (0..n)
        .map(|i| SplitMix64::new(seed ^ (i as u64) << 20))
        .collect();
    let mut delivered: Vec<BTreeSet<Tag>> = vec![BTreeSet::new(); n];
    let mut buf = StepBuffers::new();
    let mut inbox: VecDeque<(usize, WireMessage)> = VecDeque::new();
    let mut next: VecDeque<(usize, WireMessage)> = VecDeque::new();
    let mut tags = Vec::new();
    let (mut tick_ns, mut pending) = (0u64, 0u64);
    let alive = |i: usize, now: u64| crash_at[i].is_none_or(|t| now < t);

    let mut step = |i: usize,
                    input: StepInput,
                    now: u64,
                    name: &'static str,
                    procs: &mut Vec<Box<dyn AnonProcess + Send>>,
                    next: &mut VecDeque<(usize, WireMessage)>,
                    delivered: &mut Vec<BTreeSet<Tag>>,
                    tr: &mut Tracer|
     -> (Option<Tag>, u64) {
        tr.begin("fd.oracle");
        let a_theta = oracle.a_theta(i, now);
        tr.end();
        tr.begin("fd.oracle");
        let a_p_star = oracle.a_p_star(i, now);
        tr.end();
        let fd = FdSnapshot::new(a_theta, a_p_star);
        tr.begin(name);
        let tag = drive_step(procs[i].as_mut(), input, &fd, &mut rngs[i], &mut buf);
        let ns = tr.end();
        for m in buf.outbox.drain(..) {
            for d in 0..n {
                if d == i || unit(&mut rng) >= 0.1 {
                    next.push_back((d, m.clone()));
                }
            }
        }
        for d in buf.deliveries.drain(..) {
            delivered[i].insert(d.tag);
        }
        (tag, ns)
    };

    for b in 0..PROTO_BROADCASTS {
        let pid = b % n;
        let payload = Payload::from(format!("m{b}").as_str());
        let (tag, _) = step(
            pid,
            StepInput::Broadcast(payload),
            0,
            "core.broadcast",
            &mut procs,
            &mut next,
            &mut delivered,
            tr,
        );
        tags.push(tag.expect("a broadcast is assigned a tag"));
    }
    let correct: Vec<usize> = (0..n).filter(|&i| crash_at[i].is_none()).collect();
    for round in 1..=PROTO_ROUNDS {
        let now = round * ROUND;
        std::mem::swap(&mut inbox, &mut next);
        while let Some((d, m)) = inbox.pop_front() {
            if !alive(d, now) {
                continue;
            }
            tr.request += 1;
            let name = if m.kind() == WireKind::Msg {
                msg_name
            } else {
                ack_name
            };
            step(
                d,
                StepInput::Receive(m),
                now,
                name,
                &mut procs,
                &mut next,
                &mut delivered,
                tr,
            );
        }
        tr.request += 1;
        for i in 0..n {
            if !alive(i, now) {
                continue;
            }
            let msg_set = procs[i].stats().msg_set as u64;
            let (_, ns) = step(
                i,
                StepInput::Tick,
                now,
                tick_name,
                &mut procs,
                &mut next,
                &mut delivered,
                tr,
            );
            if msg_set > 0 {
                tick_ns += ns;
                pending += msg_set;
            }
        }
        let all_delivered = correct
            .iter()
            .all(|&i| tags.iter().all(|t| delivered[i].contains(t)));
        let silent = (0..n).all(|i| !alive(i, now) || procs[i].is_quiescent());
        if all_delivered && (alg == 0 || silent) {
            break;
        }
    }
    let undelivered = tags
        .iter()
        .filter(|t| !correct.iter().all(|&i| delivered[i].contains(t)))
        .count();
    ProtoRun {
        undelivered,
        tick_ns,
        pending,
    }
}

/// The traced run: every per-layer metric.
pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let seed = args.seed;
    // Engine mesh sized to the budget: the in-process burst's broadcasts.
    let broadcasts = 600 * args.seconds as usize;

    // Engine mesh, spans off then on: same seed, same work.
    let mut off = Tracer::new(false);
    let (mesh_off, secs_off) = engine_mesh(seed, broadcasts, &mut off);
    let mut tr = Tracer::new(true);
    let (mesh, secs_on) = engine_mesh(seed, broadcasts, &mut tr);
    for m in [&mesh_off, &mesh] {
        let v = check_deliveries(inproc::N, &m.sent, &m.seen);
        r.checked(v.broadcasts, v.failures());
    }
    let bases = Bases {
        broadcasts: mesh.sent.len() as u64,
        processes: inproc::N as u64,
    };
    let ingress_msgs =
        tr.count("fd.snapshot") - tr.count("engine.broadcast") - tr.count("engine.tick");
    r.metric(
        "engine.broadcast_ns",
        "ns",
        tr.median_ns("engine.broadcast"),
    );
    r.metric(
        "engine.ingress_ns_per_msg",
        "ns",
        tr.self_ns("engine.ingress") / ingress_msgs.max(1) as f64,
    );
    r.metric("engine.tick_ns", "ns", tr.median_ns("engine.tick"));
    r.metric(
        "engine.tick_msgs",
        "count",
        mesh.tick_msgs.iter().sum::<f64>() / mesh.tick_msgs.len().max(1) as f64,
    );
    r.metric(
        "codec.encode_ns_per_frame",
        "ns",
        tr.mean_ns("codec.encode"),
    );
    r.metric(
        "codec.decode_ns_per_frame",
        "ns",
        tr.mean_ns("codec.decode"),
    );
    r.metric(
        "codec.bytes_per_msg",
        "B",
        mesh.frame_bytes as f64 / (mesh.msgs + mesh.acks).max(1) as f64,
    );
    r.metric("fd.snapshot_ns", "ns", tr.median_ns("fd.snapshot"));
    r.metric(
        "fd.snapshots_per_delivery",
        "count",
        bases.per_delivery(mesh.snapshots as f64),
    );
    r.metric(
        "core.msgs_per_delivery",
        "count",
        bases.per_delivery(mesh.msgs as f64),
    );
    r.metric(
        "core.acks_per_delivery",
        "count",
        bases.per_delivery(mesh.acks as f64),
    );
    r.metric("core.pending_peak", "count", mesh.pending_peak as f64);
    r.metric(
        "core.ack_entries_peak",
        "count",
        mesh.ack_entries_peak as f64,
    );
    r.detail(
        "engine_mesh",
        format!(
            "{{\"broadcasts\": {}, \"frames\": {}, \"copies_kept\": {}, \"copies_dropped\": {}, \
             \"forwarded\": {}, \"reencoded\": {}, \"secs_spans_off\": {secs_off:.4}, \
             \"secs_spans_on\": {secs_on:.4}}}",
            bases.broadcasts, mesh.frames, mesh.kept, mesh.dropped, mesh.forwarded, mesh.reencoded
        ),
    );

    // Protocol mesh per algorithm and size.
    let mut proto = Vec::new();
    for (alg, n) in [(1, 3), (1, 16), (0, 16)] {
        let run = protocol_mesh(alg, n, seed, &mut tr);
        r.checked(PROTO_BROADCASTS, run.undelivered);
        let [msg, ack, _] = step_names(alg, n);
        let label = format!("core.alg{}", alg + 1);
        r.metric(&format!("{label}.msg_ns.n{n}"), "ns", tr.median_ns(msg));
        r.metric(&format!("{label}.ack_ns.n{n}"), "ns", tr.median_ns(ack));
        r.metric(
            &format!("{label}.tick_per_pending_ns.n{n}"),
            "ns",
            run.tick_ns as f64 / run.pending.max(1) as f64,
        );
        proto.push(((alg, n), run));
    }
    r.metric("fd.oracle_ns", "ns", tr.median_ns("fd.oracle"));

    // Stream framing over the engine mesh's frames.
    let mut wire = Vec::new();
    for f in &mesh.stream {
        urb_runtime::transport::write_stream_frame(f, &mut wire);
    }
    let mut chunk_rng = SplitMix64::new(seed ^ 0xC4A2);
    let mut reasm = FrameReassembler::new();
    let mut out = Vec::with_capacity(mesh.stream.len());
    let mut at = 0;
    while at < wire.len() {
        let len = (1 + chunk_rng.next_u64() % 16_384) as usize;
        let end = (at + len).min(wire.len());
        tr.begin("transport.push");
        reasm.push(&wire[at..end]);
        tr.end();
        at = end;
        loop {
            tr.begin("transport.next_frame");
            let next = reasm.next_frame();
            tr.end();
            match next {
                Ok(Some(f)) => out.push(f),
                _ => break,
            }
        }
    }
    r.checked(1, usize::from(out != mesh.stream));
    r.metric(
        "transport.reassemble_ns_per_frame",
        "ns",
        (tr.total_ns("transport.push") + tr.total_ns("transport.next_frame"))
            / out.len().max(1) as f64,
    );

    // Real in-process cluster: a closed-loop burst, each call timed.
    let plan = inproc::schedule(seed ^ 0xB0_57, broadcasts);
    let cluster = inproc::spawn(seed);
    let phase = inproc::run_phase(&cluster, &plan, inproc::Load::Window(inproc::WINDOW), true);
    cluster.shutdown();
    let v = phase.verdict();
    r.checked(
        v.broadcasts + 1,
        v.failures() + usize::from(phase.quiescent != Some(true)),
    );
    let calls = summarize(&mut phase.call_us.clone(), 99.0);
    r.metric("runtime.broadcast_call_us.p50", "us", calls.p50);
    r.metric("runtime.broadcast_call_us.p99", "us", calls.tail);
    let t = phase.traffic;
    let cluster = Bases {
        broadcasts: phase.sent.len() as u64,
        processes: inproc::N as u64,
    };
    let self_copies = t.protocol_messages + t.heartbeats;
    r.metric(
        "router.copies_per_delivery",
        "count",
        cluster.per_delivery(t.delivered_copies as f64),
    );
    r.metric(
        "router.msgs_per_frame",
        "count",
        t.protocol_messages as f64 / t.batches.max(1) as f64,
    );
    r.metric(
        "router.reencode_ratio",
        "ratio",
        share(t.reencoded_frames, t.forwarded_frames),
    );
    r.metric(
        "router.drop_ratio",
        "ratio",
        share(
            t.dropped_copies,
            t.delivered_copies - self_copies.min(t.delivered_copies),
        ),
    );

    // One direct socket run; its reports through the launcher's parser.
    let d = tcp::direct(&args.urb, seed);
    r.checked(d.attempted, d.failed);
    let frames: u64 = d.nets.iter().map(|n| n.frames_sent).sum();
    let bytes: u64 = d.nets.iter().map(|n| n.bytes_sent).sum();
    let dropped: u64 = d.nets.iter().map(|n| n.dropped).sum();
    r.metric(
        "transport.bytes_per_frame",
        "B",
        bytes as f64 / frames.max(1) as f64,
    );
    r.metric(
        "transport.frames_per_delivery",
        "count",
        frames as f64 / d.deliveries.max(1) as f64,
    );
    r.metric("transport.drop_ratio", "ratio", share(dropped, frames));
    let mut parse_s = Vec::new();
    for report in &d.reports {
        let t0 = Instant::now();
        let parsed = serde_json::from_str(report.trim());
        parse_s.push(t0.elapsed().as_secs_f64());
        r.checked(1, usize::from(parsed.is_err()));
    }
    let report_bytes =
        d.reports.iter().map(String::len).sum::<usize>() as f64 / d.reports.len().max(1) as f64;
    r.metric("cli.report_bytes", "B", report_bytes);
    r.metric(
        "cli.report_parse_s",
        "s",
        if parse_s.is_empty() {
            0.0
        } else {
            median(&parse_s)
        },
    );

    // Simulator: run time and the share the protocol steps explain.
    let seeds: Vec<u64> = (1..=2).collect();
    let sp = sim::pass(&seeds);
    let again = sim::pass(&seeds);
    r.checked(
        2 * sp.runs.len(),
        sp.failed() + again.failed() + sp.mismatches(&again),
    );
    let wall_s: f64 = sp.runs.iter().map(|r| r.wall_s).sum();
    r.metric(
        "sim.run_ms",
        "ms",
        wall_s * 1e3 / sp.runs.len().max(1) as f64,
    );
    let explained_ns: f64 = sp
        .runs
        .iter()
        .map(|run| {
            let [msg, ack, tick] = step_names(run.alg, sim::N);
            run.recv_msg as f64 * tr.mean_ns(msg)
                + run.recv_ack as f64 * tr.mean_ns(ack)
                + run.ticks as f64 * tr.mean_ns(tick)
        })
        .sum();
    r.metric(
        "sim.protocol_share",
        "ratio",
        explained_ns / (wall_s * 1e9).max(1.0),
    );

    r.metric(
        "tracing.overhead_share",
        "ratio",
        (secs_on - secs_off) / secs_off.max(1e-9),
    );
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| std::path::PathBuf::from(".bench_build"), Into::into);
    if std::fs::create_dir_all(&target).is_ok() {
        tr.write(&target.join("perfbench-spans.tsv"));
    }
    r
}
