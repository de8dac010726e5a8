//! One anonymous process's step cycle, and the threaded runtime's node
//! thread that drives it.
//!
//! In the paper a process does three things: it invokes `URB_broadcast`,
//! it handles each received `MSG`/`ACK`, and it runs the periodic Task-1
//! sweep. [`NodeCore`] is that cycle over [`urb_engine`]'s topic plane,
//! written once and called by both drivers: the node thread below
//! (channels to the in-process router) and the `urb node` daemon in
//! [`crate::daemon`] (TCP sockets). A driver owns only its I/O, its clock
//! for blocking, and its policy.
//!
//! The core owns one [`TopicEngine`] (one protocol instance per topic,
//! all sharing the node's RNG stream and counters). The failure-detector
//! snapshot is read from the [`MembershipRegistry`] immediately before
//! every protocol step — detectors observe processes, not topics, so one
//! snapshot serves a whole multi-topic sweep the same way the simulator
//! takes one per step. Everything one call emitted, across every topic,
//! leaves as **one** encoded multiplexed frame ([`NodeCore::take_frame`]),
//! produced through the zero-copy codec into a pooled buffer.

use crate::registry::MembershipRegistry;
use crate::{Command, NodeInput};
use bytes::Bytes;
use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_engine::{MuxBuffers, MuxIngressError, StepInput, TopicEngine};
use urb_types::snapshot::SnapshotError;
use urb_types::{BufPool, Delivery, Payload, SplitMix64, Tag, TopicControl, TopicId};

/// Applies one lifecycle control operation to a node's engine (DESIGN.md
/// §15). Returns `true` when the engine's state actually changed — the
/// gossip-forwarding predicate: a node re-gossips a control exactly when
/// applying it changed something, so the flood over an idempotent
/// operation terminates at the first node that already knew.
fn apply_control(engine: &mut TopicEngine, n: usize, ctl: TopicControl) -> bool {
    match ctl {
        TopicControl::Create {
            topic,
            algorithm,
            param,
        } => match Algorithm::from_wire(algorithm, param) {
            Some(alg) => engine.create_topic(topic, alg.instantiate(n)),
            // Unknown algorithm code (newer peer): refuse locally and do
            // not forward — never instantiate state we cannot run.
            None => false,
        },
        TopicControl::Retire { topic } => engine.retire_topic(topic),
        TopicControl::Subscribe { topic } => engine.subscribe(topic),
        TopicControl::Unsubscribe { topic } => engine.unsubscribe(topic),
    }
}

/// One process's step core: engine, mux buffers, detector handle and
/// tick deadline. Each step method appends its effects to the core's
/// buffers; the driver drains them with [`NodeCore::take_frame`] and
/// [`NodeCore::deliveries`] before the next call, because
/// [`NodeCore::receive`] and [`NodeCore::tick_if_due`] start from empty
/// buffers.
pub(crate) struct NodeCore {
    engine: TopicEngine,
    mux: MuxBuffers,
    control_scratch: Vec<TopicControl>,
    registry: Arc<MembershipRegistry>,
    pid: usize,
    n: usize,
    tick_interval: Duration,
    next_tick: Instant,
}

impl NodeCore {
    /// Process `pid` of `n`, serving `topics` instances of `algorithm`
    /// (at least one) on the node's own RNG stream, derived from
    /// `(seed, pid)` — so an in-process node and a daemon node with the
    /// same `(seed, pid)` draw identical tags, which the loopback-parity
    /// suite relies on. The first Task-1 sweep falls due one
    /// `tick_interval` from now.
    pub(crate) fn new(
        algorithm: Algorithm,
        n: usize,
        topics: u32,
        seed: u64,
        pid: usize,
        registry: Arc<MembershipRegistry>,
        tick_interval: Duration,
    ) -> Self {
        NodeCore {
            engine: TopicEngine::new(
                (0..topics.max(1))
                    .map(|_| algorithm.instantiate(n))
                    .collect(),
                SplitMix64::new(seed ^ 0xB07B_0B00 ^ (pid as u64) << 32),
            ),
            mux: MuxBuffers::new(),
            control_scratch: Vec::new(),
            registry,
            pid,
            n,
            tick_interval,
            next_tick: Instant::now() + tick_interval,
        }
    }

    /// The engine, for reports and recovery points.
    pub(crate) fn engine(&self) -> &TopicEngine {
        &self.engine
    }

    /// Restores the engine from a recovery point (DESIGN.md §14).
    pub(crate) fn restore_snapshot(&mut self, blob: &[u8]) -> Result<(), SnapshotError> {
        self.engine.restore_snapshot(blob)
    }

    /// `URB_broadcast(payload)` on `topic`. Broadcasts land only on live
    /// instances: a retired, draining or never-created topic answers
    /// `None` — a refused invocation (DESIGN.md §15) that the caller
    /// decides the meaning of.
    pub(crate) fn broadcast(&mut self, topic: TopicId, payload: Payload) -> Option<Tag> {
        if !self.engine.is_live(topic) {
            return None;
        }
        let snapshot = self.registry.snapshot(self.pid, Instant::now());
        let tag = self.engine.step_mux(
            topic,
            StepInput::Broadcast(payload),
            &snapshot,
            &mut self.mux,
        );
        Some(tag.expect("urb_broadcast assigns a tag"))
    }

    /// Applies one lifecycle control entered at this node. On change it
    /// rides the next frame so the rest of the cluster converges
    /// (idempotent flood — see `apply_control`). Returns whether it
    /// changed this node's state.
    pub(crate) fn control(&mut self, ctl: TopicControl) -> bool {
        let changed = apply_control(&mut self.engine, self.n, ctl);
        if changed {
            self.mux.controls.push(ctl);
        }
        changed
    }

    /// Handles one received frame: every `MSG`/`ACK` it carries steps its
    /// topic instance, then its control section is applied and whatever
    /// changed local state is queued to gossip onward on the next frame.
    /// A frame the codec rejects, or one naming a topic this node never
    /// knew, is refused whole before anything is stepped.
    pub(crate) fn receive(&mut self, frame: &Bytes) -> Result<(), MuxIngressError> {
        let (registry, pid) = (&self.registry, self.pid);
        self.engine
            .receive_mux_frame(frame, &mut self.mux, |_, _| {
                registry.snapshot(pid, Instant::now())
            })?;
        self.control_scratch.clear();
        self.control_scratch.append(&mut self.mux.controls);
        for &ctl in &self.control_scratch {
            if apply_control(&mut self.engine, self.n, ctl) {
                self.mux.controls.push(ctl);
            }
        }
        Ok(())
    }

    /// Time left until the next Task-1 sweep falls due.
    pub(crate) fn until_tick(&self) -> Duration {
        self.next_tick.saturating_duration_since(Instant::now())
    }

    /// Runs the Task-1 sweep of every instance, live and draining, if it
    /// is due. The sweep is also the reap point (the quiescence rule):
    /// draining instances free their state here. Returns whether it ran.
    pub(crate) fn tick_if_due(&mut self) -> bool {
        let now = Instant::now();
        if now < self.next_tick {
            return false;
        }
        let snapshot = self.registry.snapshot(self.pid, now);
        self.engine.tick_all(&snapshot, &mut self.mux);
        self.next_tick = Instant::now() + self.tick_interval;
        true
    }

    /// Seals what the last call emitted — messages of every topic plus
    /// pending controls — into one wire frame, or `None` when there is
    /// nothing to send.
    pub(crate) fn take_frame(&mut self, pool: &BufPool) -> Option<Bytes> {
        let scratch = self.mux.take_mux_frame(pool)?;
        // The pooled encode buffer goes back to the pool on drop.
        Some(Bytes::copy_from_slice(&scratch))
    }

    /// Drains what the last call URB-delivered, with its topic.
    pub(crate) fn deliveries(&mut self) -> std::vec::Drain<'_, (TopicId, Delivery)> {
        self.mux.deliveries.drain(..)
    }
}

/// Everything a node thread needs at spawn time.
pub(crate) struct NodeSetup {
    pub core: NodeCore,
    /// The node's index at the router (the core's `pid`).
    pub pid: usize,
    /// Funnelled inputs: network frames from the router and commands
    /// from the cluster handle share one FIFO (this is also what lets the
    /// node block on a single receive with a tick deadline).
    pub inputs: Receiver<NodeInput>,
    /// Crash-stop flag, raised by the cluster handle *before* it enqueues
    /// the wake-up command. Checked on every loop iteration so a crash
    /// halts the node within one step even when `inputs` holds a deep
    /// network backlog.
    pub stop: Arc<AtomicBool>,
    /// The router's ingress: `(sender pid, frame)`.
    pub egress: Sender<(usize, Bytes)>,
    pub deliveries: Sender<(TopicId, Delivery)>,
    /// Cluster-shared frame-buffer pool (encode scratch returns here).
    pub pool: BufPool,
}

/// Spawns one node thread.
pub(crate) fn spawn_node(setup: NodeSetup) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("urb-node-{}", setup.pid))
        .spawn(move || node_main(setup))
        .expect("spawn node thread")
}

fn node_main(setup: NodeSetup) {
    let NodeSetup {
        mut core,
        pid,
        inputs,
        stop,
        egress,
        deliveries,
        pool,
    } = setup;

    loop {
        // Crash-stop beats anything still queued: a crashed process
        // executes nothing further, regardless of input backlog.
        if stop.load(Ordering::Acquire) {
            return;
        }
        match inputs.recv_timeout(core.until_tick()) {
            Ok(NodeInput::Cmd(Command::Broadcast(topic, payload, reply))) => {
                let _ = reply.send(core.broadcast(topic, payload));
            }
            Ok(NodeInput::Cmd(Command::Control(ctl, reply))) => {
                let _ = reply.send(core.control(ctl));
            }
            Ok(NodeInput::Cmd(Command::Crash | Command::Shutdown)) => {
                // Crash-stop: drop everything on the floor and exit. (The
                // input sender side survives in the router/cluster, which
                // treat the closed channel as a dead destination.)
                return;
            }
            Ok(NodeInput::Net(frame)) => match core.receive(&frame) {
                // Frames come from the node's own zero-copy encode via
                // the router: undecodable bytes are a codec bug.
                Err(MuxIngressError::Codec(e)) => panic!("malformed frame from router: {e}"),
                // A topic this node does not know yet (its create has
                // not arrived): dropped like a lost message.
                Err(MuxIngressError::UnknownTopic(_)) | Ok(()) => {}
            },
            Err(RecvTimeoutError::Timeout) => {
                core.tick_if_due();
            }
            Err(RecvTimeoutError::Disconnected) => return, // cluster gone
        }

        if let Some(frame) = core.take_frame(&pool) {
            if egress.send((pid, frame)).is_err() {
                return; // router gone — cluster shutting down
            }
        }
        for d in core.deliveries() {
            let _ = deliveries.send(d);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The step core with no threads and no sockets: three cores joined
    //! by in-memory frame queues, every frame also fed back to its sender.

    use super::*;
    use std::collections::VecDeque;
    use urb_types::MuxBatch;

    const N: usize = 3;

    struct Net {
        cores: Vec<NodeCore>,
        queues: Vec<VecDeque<Bytes>>,
        pool: BufPool,
        delivered: Vec<Vec<(TopicId, Tag)>>,
        /// Per sender: how many controls its frames carried.
        controls_sent: Vec<usize>,
    }

    impl Net {
        fn new(algorithm: Algorithm) -> Self {
            let registry = Arc::new(MembershipRegistry::new(N, 7, Duration::from_secs(1)));
            Net {
                cores: (0..N)
                    .map(|pid| {
                        NodeCore::new(
                            algorithm,
                            N,
                            1,
                            7,
                            pid,
                            Arc::clone(&registry),
                            Duration::ZERO,
                        )
                    })
                    .collect(),
                queues: vec![VecDeque::new(); N],
                pool: BufPool::default(),
                delivered: vec![Vec::new(); N],
                controls_sent: vec![0; N],
            }
        }

        /// Drains what node `pid`'s last call produced: its frame goes to
        /// every queue, its own included.
        fn flush(&mut self, pid: usize) {
            let core = &mut self.cores[pid];
            self.delivered[pid].extend(core.deliveries().map(|(t, d)| (t, d.tag)));
            if let Some(frame) = core.take_frame(&self.pool) {
                let (mut entries, mut controls) = (Vec::new(), Vec::new());
                MuxBatch::decode_shared_with_controls_into(&frame, &mut entries, &mut controls)
                    .expect("own frame decodes");
                self.controls_sent[pid] += controls.len();
                for q in &mut self.queues {
                    q.push_back(frame.clone());
                }
            }
        }

        /// Delivers queued frames until every queue is empty.
        fn settle(&mut self) {
            for _ in 0..10_000 {
                let Some(pid) = (0..N).find(|&p| !self.queues[p].is_empty()) else {
                    return;
                };
                let frame = self.queues[pid].pop_front().expect("non-empty");
                self.cores[pid].receive(&frame).expect("valid frame");
                self.flush(pid);
            }
            panic!("traffic never settled");
        }

        fn broadcast(&mut self, pid: usize, topic: TopicId, text: &str) -> Option<Tag> {
            let tag = self.cores[pid].broadcast(topic, Payload::from(text));
            self.flush(pid);
            tag
        }

        fn delivered_everywhere(&self, topic: TopicId, tag: Tag) -> bool {
            self.delivered.iter().all(|d| d.contains(&(topic, tag)))
        }
    }

    #[test]
    fn broadcast_delivers_at_every_node() {
        let mut net = Net::new(Algorithm::Majority);
        let tag = net
            .broadcast(0, TopicId::ZERO, "hello")
            .expect("topic 0 is live");
        net.settle();
        assert!(net.delivered_everywhere(TopicId::ZERO, tag));
        assert!(net.delivered.iter().all(|d| d.len() == 1), "exactly once");
    }

    #[test]
    fn create_floods_once_per_node_and_ends() {
        let mut net = Net::new(Algorithm::Majority);
        let topic = TopicId(9);
        let (algorithm, param) = Algorithm::Majority.to_wire();
        assert!(net.cores[0].control(TopicControl::Create {
            topic,
            algorithm,
            param,
        }));
        net.flush(0);
        net.settle();
        assert!(net.cores.iter().all(|c| c.engine().is_live(topic)));
        assert_eq!(net.controls_sent, vec![1; N], "each node forwards once");
        assert!(net.queues.iter().all(VecDeque::is_empty), "flood ended");
        // The new topic carries traffic everywhere.
        let tag = net.broadcast(2, topic, "on the new topic").expect("live");
        net.settle();
        assert!(net.delivered_everywhere(topic, tag));
    }

    #[test]
    fn rejected_frame_is_an_error_and_the_next_frame_still_delivers() {
        let mut net = Net::new(Algorithm::Majority);
        assert!(matches!(
            net.cores[1].receive(&Bytes::copy_from_slice(&[0xFF; 7])),
            Err(MuxIngressError::Codec(_))
        ));
        assert!(net.cores[1].take_frame(&net.pool).is_none());
        let tag = net.broadcast(0, TopicId::ZERO, "after junk").expect("live");
        net.settle();
        assert!(net.delivered_everywhere(TopicId::ZERO, tag));
    }

    #[test]
    fn retired_topic_refuses_at_once_and_is_reaped_on_a_later_tick() {
        let mut net = Net::new(Algorithm::Quiescent);
        let tag = net.broadcast(0, TopicId::ZERO, "before").expect("live");
        net.settle();
        assert!(net.delivered_everywhere(TopicId::ZERO, tag));

        assert!(net.cores[0].control(TopicControl::Retire {
            topic: TopicId::ZERO
        }));
        assert_eq!(net.broadcast(0, TopicId::ZERO, "after"), None, "refused");
        assert!(
            net.cores[0].engine().has_instance(TopicId::ZERO),
            "draining"
        );
        for _ in 0..64 {
            if net.cores[0].engine().is_retired(TopicId::ZERO) {
                break;
            }
            for pid in 0..N {
                assert!(net.cores[pid].tick_if_due(), "zero interval: always due");
                net.flush(pid);
            }
            net.settle();
        }
        let engine = net.cores[0].engine();
        assert!(engine.is_retired(TopicId::ZERO), "reaped");
        assert_eq!(engine.counters().topics_reclaimed, 1);
    }
}
