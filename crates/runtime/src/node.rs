//! The per-process node thread — a thin adapter over [`urb_engine`]'s
//! topic plane.
//!
//! Each node owns one [`TopicEngine`] (one protocol instance per topic,
//! all sharing the node's RNG stream and counters) and loops over a
//! single funnelled input channel carrying both network frames and
//! control commands, plus a wall-clock tick deadline for Task-1 sweeps
//! (one node tick sweeps **every** topic instance). The failure-detector
//! snapshot is read from the shared
//! [`MembershipRegistry`](crate::MembershipRegistry) immediately before
//! every protocol step — detectors observe processes, not topics, so one
//! snapshot serves a whole multi-topic sweep the same way the simulator
//! takes one per step.
//!
//! Outbound traffic uses the **sharded wire plane** (DESIGN.md §12):
//! everything one step emitted — across every topic — is partitioned by
//! router lane (`lane = topic % lanes`) and leaves as one encoded
//! multiplexed frame per lane with traffic, produced through the
//! zero-copy codec into a pooled buffer and decoded on arrival with
//! shared payloads (`TopicEngine::receive_mux_frame`). Router and
//! channel costs scale with protocol steps and lanes, never with topic
//! count times messages.

use crate::registry::MembershipRegistry;
use crate::{Command, NodeInput};
use bytes::Bytes;
use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_engine::{MuxBuffers, StepInput, TopicEngine};
use urb_types::{encode_mux_frame_into, BufPool, Delivery, SplitMix64, TopicControl, TopicId};

/// Applies one lifecycle control operation to a node's engine (DESIGN.md
/// §15). Returns `true` when the engine's state actually changed — the
/// gossip-forwarding predicate: every driver (threaded node, daemon)
/// re-gossips a control exactly when applying it changed something, so
/// the flood over an idempotent operation terminates at the first node
/// that already knew.
pub(crate) fn apply_control(engine: &mut TopicEngine, n: usize, ctl: TopicControl) -> bool {
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

/// Drains the controls a received frame surfaced into `mux.controls`,
/// applies each, and pushes back exactly those that changed local state —
/// which [`MuxBuffers::take_mux_frame`] then rides on the next outgoing
/// frame (gossip onward). Returns how many controls changed state.
pub(crate) fn apply_surfaced_controls(
    engine: &mut TopicEngine,
    n: usize,
    mux: &mut MuxBuffers,
    scratch: &mut Vec<TopicControl>,
) -> usize {
    scratch.clear();
    scratch.append(&mut mux.controls);
    let mut changed = 0;
    for &ctl in scratch.iter() {
        if apply_control(engine, n, ctl) {
            mux.controls.push(ctl);
            changed += 1;
        }
    }
    changed
}

/// Builds one node's engine: `topics` instances of `algorithm` (at least
/// one) on the node's own RNG stream, derived from `(seed, pid)`. The
/// threaded node and the socket daemon both build through here, so an
/// in-process node and a daemon node with the same `(seed, pid)` draw
/// identical tags — what the loopback-parity suite relies on.
pub(crate) fn node_engine(
    algorithm: Algorithm,
    n: usize,
    topics: u32,
    seed: u64,
    pid: usize,
) -> TopicEngine {
    TopicEngine::new(
        (0..topics.max(1))
            .map(|_| algorithm.instantiate(n))
            .collect(),
        SplitMix64::new(seed ^ 0xB07B_0B00 ^ (pid as u64) << 32),
    )
}

/// Everything a node thread needs at spawn time.
pub(crate) struct NodeSetup {
    pub pid: usize,
    pub algorithm: Algorithm,
    pub n: usize,
    pub topics: u32,
    pub seed: u64,
    pub tick_interval: Duration,
    /// Funnelled inputs: network frames from the router lanes and
    /// commands from the cluster handle share one FIFO (this is also what
    /// lets the node block on a single receive with a tick deadline).
    pub inputs: Receiver<NodeInput>,
    /// Crash-stop flag, raised by the cluster handle *before* it enqueues
    /// the wake-up command. Checked on every loop iteration so a crash
    /// halts the node within one step even when `inputs` holds a deep
    /// network backlog.
    pub stop: Arc<AtomicBool>,
    /// One egress sender per router lane; a frame for topic `t` goes to
    /// lane `t % lanes`.
    pub egress: Vec<Sender<(usize, Bytes)>>,
    pub deliveries: Sender<(TopicId, Delivery)>,
    pub registry: Arc<MembershipRegistry>,
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
        pid,
        algorithm,
        n,
        topics,
        seed,
        tick_interval,
        inputs,
        stop,
        egress,
        deliveries,
        registry,
        pool,
    } = setup;
    let mut engine = node_engine(algorithm, n, topics, seed, pid);
    let mut mux = MuxBuffers::new();
    // Per-lane topic directory: precomputed `topic → lane` map plus
    // reusable per-lane egress partitions (DESIGN.md §16).
    let lanes = egress.len().max(1);
    let mut lane_dir = crate::lanes::LaneDirectory::new(lanes);
    let mut control_scratch: Vec<TopicControl> = Vec::new();
    let mut next_tick = Instant::now() + tick_interval;

    loop {
        // Crash-stop beats anything still queued: a crashed process
        // executes nothing further, regardless of input backlog.
        if stop.load(Ordering::Acquire) {
            return;
        }
        mux.clear();
        let timeout = next_tick.saturating_duration_since(Instant::now());
        match inputs.recv_timeout(timeout) {
            Ok(NodeInput::Cmd(Command::Broadcast(topic, payload, reply))) => {
                // Refused invocation (DESIGN.md §15): broadcasts land
                // only on live instances. A retired, draining or
                // never-created topic answers `None` instead of
                // panicking — the client decides what that means.
                if engine.is_live(topic) {
                    let snapshot = registry.snapshot(pid, Instant::now());
                    let tag =
                        engine.step_mux(topic, StepInput::Broadcast(payload), &snapshot, &mut mux);
                    let _ = reply.send(Some(tag.expect("urb_broadcast assigns a tag")));
                } else {
                    let _ = reply.send(None);
                }
            }
            Ok(NodeInput::Cmd(Command::Control(ctl, reply))) => {
                // Apply locally; on change, ride the control on the next
                // outgoing frame so the rest of the cluster converges
                // (idempotent flood — see `apply_control`).
                let changed = apply_control(&mut engine, n, ctl);
                if changed {
                    mux.controls.push(ctl);
                }
                let _ = reply.send(changed);
            }
            Ok(NodeInput::Cmd(Command::Crash | Command::Shutdown)) => {
                // Crash-stop: drop everything on the floor and exit. (The
                // input sender side survives in the router/cluster, which
                // treat the closed channel as a dead destination.)
                return;
            }
            Ok(NodeInput::Net(frame)) => {
                let registry = &registry;
                engine
                    .receive_mux_frame(&frame, &mut mux, |_, _| {
                        registry.snapshot(pid, Instant::now())
                    })
                    .expect("malformed frame from router — codec bug");
                // Lifecycle gossip: apply what the frame's control
                // section carried; whatever changed state is pushed back
                // into `mux.controls` and forwarded on the flush below.
                apply_surfaced_controls(&mut engine, n, &mut mux, &mut control_scratch);
            }
            Err(RecvTimeoutError::Timeout) => {
                let snapshot = registry.snapshot(pid, Instant::now());
                engine.tick_all(&snapshot, &mut mux);
                // Ticks are the reap points (the quiescence rule):
                // draining instances free their state here.
                engine.reap_drained(&snapshot);
                next_tick = Instant::now() + tick_interval;
            }
            Err(RecvTimeoutError::Disconnected) => return, // cluster gone
        }

        // Flush what the step produced: on a single-lane cluster the
        // whole mux outbox drains as one frame through the engine's own
        // zero-copy path; with several lanes it is partitioned by
        // `topic % lanes` and sealed as one frame per lane with traffic
        // (pooled scratch, refcounted bytes). Deliveries go up with
        // their topic tags either way.
        if lanes == 1 {
            if let Some(scratch) = mux.take_mux_frame(&pool) {
                let frame = Bytes::copy_from_slice(&scratch);
                drop(scratch); // encode buffer back to the pool
                if egress[0].send((pid, frame)).is_err() {
                    return; // router gone — cluster shutting down
                }
            }
        } else if !mux.outbox.is_empty() || !mux.controls.is_empty() {
            // One pass over the outbox and one over the controls: the
            // lane directory's precomputed map answers ownership per
            // entry (the old flush rescanned the control list per lane
            // and allocated a fresh Vec each time).
            lane_dir.partition(&mut mux.outbox, &mut mux.controls);
            for (lane, lane_tx) in egress.iter().enumerate() {
                let (outbox, lane_controls) = lane_dir.lane_parts_mut(lane);
                if outbox.is_empty() && lane_controls.is_empty() {
                    continue;
                }
                let mut scratch = pool.acquire();
                if lane_controls.is_empty() {
                    encode_mux_frame_into(outbox, &mut scratch);
                } else {
                    urb_types::encode_mux_frame_with_controls_into(
                        outbox,
                        lane_controls,
                        &mut scratch,
                    );
                }
                outbox.clear();
                lane_controls.clear();
                let frame = Bytes::copy_from_slice(&scratch);
                drop(scratch); // encode buffer back to the pool
                if lane_tx.send((pid, frame)).is_err() {
                    return; // router gone — cluster shutting down
                }
            }
        }
        for (topic, d) in mux.deliveries.drain(..) {
            let _ = deliveries.send((topic, d));
        }
    }
}
