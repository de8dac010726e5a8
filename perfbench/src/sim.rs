//! The simulator stack: `urb_sim::run` at n = 16, 10 % loss, 3 crashes and
//! 4 broadcasts, for both algorithms, configured exactly as `urb run`
//! configures it. Single-threaded and deterministic, so protocol and
//! detector cost dominate its wall time.

use std::time::Instant;
use urb_cli::args::RunArgs;
use urb_core::Algorithm;
use urb_sim::SimConfig;
use urb_types::WireKind;

/// Processes.
pub const N: usize = 16;
/// Both algorithms, in the order of the `runs_per_s.alg1`/`.alg2` metrics.
pub const ALGS: [Algorithm; 2] = [Algorithm::Majority, Algorithm::Quiescent];

/// The run `urb run --n 16 --alg <alg> --loss 0.1 --crashes 3 --msgs 4
/// --seed <seed>` performs.
pub fn config(alg: Algorithm, seed: u64) -> SimConfig {
    urb_cli::commands::build_config(&RunArgs {
        n: N,
        algorithm: alg,
        loss: 0.1,
        crashes: 3,
        msgs: 4,
        seed,
        ..RunArgs::default()
    })
}

/// One simulated run.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// Index into [`ALGS`].
    pub alg: usize,
    /// Wall seconds `urb_sim::run` took.
    pub wall_s: f64,
    /// All URB properties (and the detector audit) held.
    pub ok: bool,
    /// Protocol messages sent (simulated).
    pub sends: u64,
    /// `URB_deliver` events.
    pub deliveries: u64,
    /// MSG and ACK receptions, and Task-1 sweeps, over all processes.
    pub recv_msg: u64,
    /// See `recv_msg`.
    pub recv_ack: u64,
    /// See `recv_msg`.
    pub ticks: u64,
}

/// Runs one seed of one algorithm.
pub fn run(alg: usize, seed: u64) -> SimRun {
    let cfg = config(ALGS[alg], seed);
    let t0 = Instant::now();
    let out = urb_sim::run(cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    SimRun {
        alg,
        wall_s,
        ok: out.all_ok(),
        sends: out.metrics.protocol_sends(),
        deliveries: out.metrics.deliveries.len() as u64,
        recv_msg: out.metrics.received[WireKind::Msg.index()],
        recv_ack: out.metrics.received[WireKind::Ack.index()],
        ticks: out.counters.iter().map(|c| c.ticks).sum(),
    }
}

/// One pass over a seed range for both algorithms.
pub struct SimPass {
    /// Every run, algorithm-major.
    pub runs: Vec<SimRun>,
}

impl SimPass {
    /// Runs whose URB properties or detector audit failed.
    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|r| !r.ok).count()
    }

    /// Runs of `other` (the same seeds again) whose sends or deliveries
    /// differ from this pass: the simulator is deterministic, so any
    /// difference is a failure.
    pub fn mismatches(&self, other: &SimPass) -> usize {
        self.runs
            .iter()
            .zip(&other.runs)
            .filter(|(a, b)| (a.sends, a.deliveries) != (b.sends, b.deliveries))
            .count()
    }
}

/// Runs every seed for both algorithms.
pub fn pass(seeds: &[u64]) -> SimPass {
    SimPass {
        runs: (0..ALGS.len())
            .flat_map(|alg| seeds.iter().map(move |&seed| run(alg, seed)))
            .collect(),
    }
}
