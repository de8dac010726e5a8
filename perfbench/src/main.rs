//! Wall-clock benchmark of the anon-urb stacks. See `README.md` next to
//! this package for the workloads, the metrics and what each should move.
//!
//! ```text
//! perfbench --workload <inproc-q3|tcp-q3> --seed <n> --seconds <s>
//!           --trace <0|1> --urb <path to the urb binary>
//! ```
//!
//! Every run drives all three stacks, because every run reports every
//! end-to-end metric; the workload decides how many rounds a run has and
//! what `deliveries_per_s` measures. With `--trace 1` the run is the
//! traced per-layer run instead ([`traced`]). The last
//! line of standard output is the result object; the line before it holds
//! the details (host fingerprint, sample counts, generator lateness).

mod host;
mod inproc;
mod json;
mod sim;
mod summary;
mod tcp;
mod traced;

use std::path::PathBuf;
use summary::{median, summarize};

/// The stack a workload weights: it sets what `deliveries_per_s` measures
/// and how many rounds a run has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `UrbCluster`, open loop at two rates plus a closed-loop burst.
    Inproc,
    /// `urb cluster` and directly started `urb node`s on loopback.
    Tcp,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "inproc-q3" => Some(Workload::Inproc),
            "tcp-q3" => Some(Workload::Tcp),
            _ => None,
        }
    }
}

/// Command-line arguments.
pub struct Args {
    /// Which stack the run weights.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Scales the number of rounds.
    pub seconds: u64,
    /// Do the traced per-layer run instead.
    pub trace: bool,
    /// The `urb` binary the socket stack runs.
    pub urb: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut urb) = (None, 1, 10, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(Workload::parse(&w).ok_or(format!("unknown workload {w}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--urb" => urb = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let urb = urb.ok_or("--urb is required")?;
    if !urb.is_file() {
        return Err(format!("no urb binary at {}", urb.display()));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        urb,
    })
}

/// The end-to-end metrics every untraced run prints, in order; the
/// `end_to_end` list of `BENCHMARK.json` (a test keeps them equal).
///
/// Of the open-loop latencies only the 99th percentile at the high rate
/// is here. The medians at both rates and the 99th percentile at the low
/// rate are measured in every run but printed on the details line only:
/// on a shared 2-vCPU host their spread across ten runs (quartile
/// distance over median) reached 0.25–0.36, the largest bound a metric of
/// this list may have.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "deliveries_per_s",
    "lat_p99_ms.high",
    "msgs_per_broadcast",
    "wire_bytes_per_delivery",
    "expect_s",
    "exit_s",
    "runs_per_s.alg1",
    "runs_per_s.alg2",
    "peak_rss_mb",
];

/// The per-layer metrics every traced run prints, in order; the
/// `per_layer` list of `BENCHMARK.json`.
pub const PER_LAYER: [&str; 38] = [
    "engine.broadcast_ns",
    "engine.ingress_ns_per_msg",
    "engine.tick_ns",
    "engine.tick_msgs",
    "codec.encode_ns_per_frame",
    "codec.decode_ns_per_frame",
    "codec.bytes_per_msg",
    "fd.snapshot_ns",
    "fd.snapshots_per_delivery",
    "core.msgs_per_delivery",
    "core.acks_per_delivery",
    "core.pending_peak",
    "core.ack_entries_peak",
    "core.alg2.msg_ns.n3",
    "core.alg2.ack_ns.n3",
    "core.alg2.tick_per_pending_ns.n3",
    "core.alg2.msg_ns.n16",
    "core.alg2.ack_ns.n16",
    "core.alg2.tick_per_pending_ns.n16",
    "core.alg1.msg_ns.n16",
    "core.alg1.ack_ns.n16",
    "core.alg1.tick_per_pending_ns.n16",
    "fd.oracle_ns",
    "transport.reassemble_ns_per_frame",
    "runtime.broadcast_call_us.p50",
    "runtime.broadcast_call_us.p99",
    "router.copies_per_delivery",
    "router.msgs_per_frame",
    "router.reencode_ratio",
    "router.drop_ratio",
    "transport.bytes_per_frame",
    "transport.frames_per_delivery",
    "transport.drop_ratio",
    "cli.report_bytes",
    "cli.report_parse_s",
    "sim.run_ms",
    "sim.protocol_share",
    "tracing.overhead_share",
];

/// A run's result: metrics plus correctness counts and details.
#[derive(Default)]
pub struct Report {
    /// `(name, unit, value)` in print order.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Operations checked.
    pub attempted: usize,
    /// Operations that failed their check.
    pub failed: usize,
    /// `(key, JSON value)` pairs for the details line.
    pub details: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push((name.to_string(), unit, value));
    }

    /// Adds checked operations.
    pub fn checked(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Adds a details entry (its value already JSON).
    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_string(), json));
    }
}

/// `real` for a metric measured on threads or sockets on the wall clock;
/// `sim` for one measured where the network or the clock is simulated
/// (the simulator, or this benchmark's single-threaded meshes in the
/// traced run), even though the code it times is the real code.
fn tag(name: &str) -> &'static str {
    const SIMULATED: [&str; 8] = [
        "runs_per_s.",
        "sim.",
        "engine.",
        "codec.",
        "fd.",
        "core.",
        "tracing.",
        "transport.reassemble",
    ];
    if SIMULATED.iter().any(|p| name.starts_with(p)) {
        "sim"
    } else {
        "real"
    }
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Stands every stack up once: spawn and shut down an in-process
/// cluster, start one `urb node` until it listens, build a simulator
/// configuration. Seconds, or `None` when the node never listened.
fn setup_once(args: &Args, i: u64) -> Option<f64> {
    let t0 = std::time::Instant::now();
    inproc::spawn(args.seed ^ i).shutdown();
    tcp::node_ready(&args.urb, args.seed ^ i)?;
    std::hint::black_box(sim::config(sim::ALGS[1], args.seed ^ i));
    Some(t0.elapsed().as_secs_f64())
}

/// Seconds of each open-loop phase: at 2,000/s, 1,000 latencies, the
/// fewest that still leave 10 beyond the 99th percentile.
const OPEN_S: f64 = 0.5;
/// Broadcasts of the closed-loop burst per round.
const BURST: usize = 4_000;
/// Simulator seeds per algorithm per round: the fixed range `1..=2`.
const SIM_SEEDS: u64 = 2;

/// Rounds per run. Every round runs one chunk of every stack in turn, so a
/// slow spell of the host lands on a few chunks of each stack instead of
/// on all of one stack. inproc-q3 runs more rounds, so more in-process
/// samples. At `--seconds 10` a run takes 45–55 s: each of the two `urb
/// cluster` runs about 7.5 s, a round about 4.5 s (its in-process and
/// simulator chunks about 2.5 s, its direct socket run about 1.9 s).
fn rounds(args: &Args) -> u64 {
    match args.workload {
        Workload::Inproc => args.seconds.max(3),
        Workload::Tcp => (4 * args.seconds / 5).max(3),
    }
}

/// What the rounds of one run collect: one value per round (reported as
/// medians) for the in-process figures and the socket runs, totals for
/// the message count and the simulator.
#[derive(Default)]
struct Rounds {
    /// p50 and p99 latency at the low rate, then at the high rate, ms.
    lat: [Vec<f64>; 4],
    burst_per_s: Vec<f64>,
    /// Burst broadcasts and the MSG + ACK messages they needed.
    burst_msgs: (u64, u64),
    expect_s: Vec<f64>,
    tcp_per_s: Vec<f64>,
    wire: Vec<f64>,
    exit_s: Vec<f64>,
    /// Simulator runs and their wall seconds, per algorithm.
    sim: [(u64, f64); 2],
    late_us_max: f64,
    tail_pct_min: f64,
    load_cpu_share: Vec<f64>,
}

/// One round's in-process chunk: open loop at both rates, then the
/// windowed burst, each on a fresh cluster. (A cluster kept across rounds
/// grows its protocol state and slows down from round to round.)
fn inproc_chunk(args: &Args, round: u64, r: &mut Report, out: &mut Rounds) {
    let seed = args.seed.wrapping_mul(1_000).wrapping_add(round);
    let phase_on = |k: u64, plan: &[_], load, quiesce| {
        let cluster = inproc::spawn(seed ^ k);
        let phase = inproc::run_phase(&cluster, plan, load, quiesce);
        cluster.shutdown();
        phase
    };
    for (k, rate) in [inproc::LOW_RATE, inproc::HIGH_RATE]
        .into_iter()
        .enumerate()
    {
        let plan = inproc::schedule(seed ^ rate as u64, (rate * OPEN_S) as usize);
        let phase = phase_on(k as u64, &plan, inproc::Load::Open(rate), false);
        let v = phase.verdict();
        r.checked(v.broadcasts, v.failures());
        let t = summarize(&mut phase.latencies_ms(), 99.0);
        out.lat[2 * k].push(t.p50);
        out.lat[2 * k + 1].push(t.tail);
        out.tail_pct_min = out.tail_pct_min.min(t.tail_pct);
        out.late_us_max = phase
            .lateness_us
            .iter()
            .fold(out.late_us_max, |m, &x| m.max(x));
        out.load_cpu_share.push(phase.load_cpu_share);
    }
    let plan = inproc::schedule(seed ^ 0xB0_57, BURST);
    let phase = phase_on(2, &plan, inproc::Load::Window(inproc::WINDOW), true);
    let v = phase.verdict();
    r.checked(
        v.broadcasts + 1,
        v.failures() + usize::from(phase.quiescent != Some(true)),
    );
    out.burst_per_s
        .push(phase.sent.len() as f64 / phase.span_s().max(1e-9));
    out.burst_msgs.0 += phase.sent.len() as u64;
    out.burst_msgs.1 += phase.messages;
    out.load_cpu_share.push(phase.load_cpu_share);
}

/// The untraced run: every end-to-end metric.
fn measure(args: &Args) -> Report {
    let mut r = Report::default();
    let rounds = rounds(args);

    let setups: Vec<f64> = (0..SETUPS as u64)
        .filter_map(|i| setup_once(args, i))
        .collect();
    r.checked(SETUPS, SETUPS - setups.len());
    let setup_s = if setups.is_empty() {
        tcp::DEADLINE.as_secs_f64()
    } else {
        median(&setups)
    };

    let mut out = Rounds {
        tail_pct_min: 100.0,
        ..Rounds::default()
    };
    let seeds: Vec<u64> = (1..=SIM_SEEDS).collect();
    let mut first_sim: Option<sim::SimPass> = None;
    for round in 0..rounds {
        inproc_chunk(args, round, &mut r, &mut out);

        let d = tcp::direct(&args.urb, args.seed.wrapping_add(round));
        r.checked(d.attempted, d.failed);
        let bytes: u64 = d.nets.iter().map(|n| n.bytes_sent).sum();
        out.expect_s.push(d.expect_s);
        out.tcp_per_s
            .push(tcp::broadcasts() as f64 / d.expect_s.max(1e-9));
        out.wire.push(bytes as f64 / d.deliveries.max(1) as f64);
        // Two `urb cluster` runs, a third and two thirds into the run.
        if [1, 2].map(|k| k * rounds / 3).contains(&round) {
            let launch = tcp::launcher(&args.urb, args.seed.wrapping_add(round));
            r.checked(1, usize::from(!launch.ok));
            out.exit_s.push(launch.exit_s);
        }

        let sp = sim::pass(&seeds);
        let mismatches = first_sim.as_ref().map_or(0, |f| f.mismatches(&sp));
        r.checked(sp.runs.len(), sp.failed() + mismatches);
        for run in &sp.runs {
            out.sim[run.alg].0 += 1;
            out.sim[run.alg].1 += run.wall_s;
        }
        first_sim.get_or_insert(sp);
    }

    let bases = summary::Bases {
        broadcasts: out.burst_msgs.0,
        processes: inproc::N as u64,
    };
    let deliveries_per_s = match args.workload {
        Workload::Inproc => &out.burst_per_s,
        Workload::Tcp => &out.tcp_per_s,
    };
    let runs_per_s = |alg: usize| out.sim[alg].0 as f64 / out.sim[alg].1.max(1e-9);
    r.metric("setup_s", "s", setup_s);
    r.metric("deliveries_per_s", "1/s", median(deliveries_per_s));
    r.metric("lat_p99_ms.high", "ms", median(&out.lat[3]));
    r.metric(
        "msgs_per_broadcast",
        "count",
        bases.per_broadcast(out.burst_msgs.1 as f64),
    );
    r.metric("wire_bytes_per_delivery", "B", median(&out.wire));
    r.metric("expect_s", "s", median(&out.expect_s));
    r.metric("exit_s", "s", median(&out.exit_s));
    r.metric("runs_per_s.alg1", "1/s", runs_per_s(0));
    r.metric("runs_per_s.alg2", "1/s", runs_per_s(1));
    r.metric("peak_rss_mb", "MB", host::peak_rss_mb());
    r.detail(
        "samples",
        format!(
            "{{\"rounds\": {}, \"setups\": {}, \"open_loop_rates_per_s\": [{}, {}], \
             \"open_loop_broadcasts_per_round\": [{}, {}], \"latency_tail_pct_min\": {}, \
             \"burst_broadcasts\": {}, \"direct_runs\": {}, \"sim_runs\": {}, \
             \"generator_late_us_max\": {:.1}, \"load_cpu_share_median\": {:.4}, \
             \"pump_period_us\": {}, \"tcp_deliveries_per_s\": {:.1}, \
             \"lat_p50_ms.low\": {:.4}, \"lat_p99_ms.low\": {:.4}, \
             \"lat_p50_ms.high\": {:.4}}}",
            rounds,
            setups.len(),
            inproc::LOW_RATE,
            inproc::HIGH_RATE,
            (inproc::LOW_RATE * OPEN_S) as usize,
            (inproc::HIGH_RATE * OPEN_S) as usize,
            out.tail_pct_min,
            out.burst_msgs.0,
            out.expect_s.len(),
            out.sim[0].0 + out.sim[1].0,
            out.late_us_max,
            median(&out.load_cpu_share),
            inproc::PUMP_PERIOD.as_micros(),
            median(&out.tcp_per_s),
            median(&out.lat[0]),
            median(&out.lat[1]),
            median(&out.lat[2]),
        ),
    );
    r
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = if args.trace {
        traced::run(&args)
    } else {
        measure(&args)
    };
    let printed: Vec<&str> = report.metrics.iter().map(|m| m.0.as_str()).collect();
    let listed: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(
        printed, listed,
        "printed metrics differ from BENCHMARK.json"
    );
    report.detail("host", host::fingerprint());
    let tags: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, _, _)| format!("\"{name}\": \"{}\"", tag(name)))
        .collect();
    report.detail("tags", format!("{{{}}}", tags.join(", ")));
    let details: Vec<String> = report
        .details
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{{}}}", details.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod docs {
    use super::*;
    use json::Json;

    fn read(rel: &str) -> String {
        let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn names<'a>(v: &'a Json, key: &str) -> Vec<&'a str> {
        v.get(key)
            .and_then(Json::arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| m.get("name").and_then(Json::str).expect("a name"))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_harness_prints() {
        let v = json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(names(&v, "end_to_end"), END_TO_END);
        assert_eq!(names(&v, "per_layer"), PER_LAYER);
        for w in names(&v, "workloads") {
            assert!(Workload::parse(w).is_some(), "workload {w} is not accepted");
        }
    }

    #[test]
    fn readme_documents_every_metric_and_workload() {
        let readme = read("README.md");
        let v = json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README misses {name}"
            );
            let row = readme
                .lines()
                .find(|l| l.starts_with('|') && l.contains(&format!("`{name}`")))
                .unwrap_or_else(|| panic!("{name} has no table row"));
            assert!(
                row.contains(&format!("| {} |", tag(name))),
                "README tags {name} differently from the harness"
            );
        }
        for w in names(&v, "workloads") {
            assert!(
                readme.contains(&format!("**{w}**")),
                "README misses workload {w}"
            );
        }
    }
}
