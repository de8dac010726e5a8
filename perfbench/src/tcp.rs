//! The socket stack: `urb` processes on loopback, as users run them.
//!
//! Two passes share one workload (3 nodes, Algorithm 2, 4 topics, 2000
//! broadcasts per node and topic, so 24,000 broadcasts):
//!
//! * the **launcher** pass runs `urb cluster --local 3 …` and times it
//!   until it returns (`exit_s`). The launcher reads its children's
//!   reports one after another and parses each with `serde_json`, so this
//!   is where the report parse sits on the user's path;
//! * the **direct** pass starts the same three `urb node`s itself and
//!   drains their standard output concurrently. A node prints its report
//!   once it has met `--expect` and lingered [`LINGER`], so the first
//!   byte of a report, minus the linger, is when that node met its
//!   expectation (`expect_s`, the latest node).
//!
//! Every pass reserves fresh loopback ports, creates no files, and kills
//! and reaps its processes (the whole process group, so a launcher's
//! children too) if they are alive at [`DEADLINE`]; such a pass fails.

use crate::json::{self, Json};
use crate::summary::check_deliveries;
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use urb_types::TopicId;

/// Nodes.
pub const NODES: usize = 3;
/// Topics per node.
pub const TOPICS: u32 = 4;
/// Broadcasts per node and topic. At this size the launcher's report
/// parse still dominates its wall time; do not shrink it below that.
pub const MSGS: usize = 2000;
/// `urb node`'s default linger after meeting `--expect`.
pub const LINGER: Duration = Duration::from_millis(500);
/// Longest a pass may take before its processes are killed.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// Broadcasts one run of the workload performs.
pub fn broadcasts() -> usize {
    NODES * TOPICS as usize * MSGS
}

/// Reserves `n` loopback ports: bind ephemeral listeners, record their
/// addresses, release them for the processes about to listen there.
pub fn reserve_ports(n: usize) -> Result<Vec<String>, String> {
    let listeners = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot reserve a loopback port: {e}"))?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())
}

/// How one process ended.
pub struct Ended {
    /// Exit status, or `None` when it was killed at the deadline (or
    /// could not be started).
    pub status: Option<ExitStatus>,
    /// When its exit was observed.
    pub ended_at: Instant,
    /// When the first byte of its standard output arrived.
    pub first_byte: Option<Instant>,
    /// Its standard output.
    pub stdout: Vec<u8>,
}

impl Ended {
    /// Exited on its own with status 0.
    pub fn ok(&self) -> bool {
        self.status.is_some_and(|s| s.success())
    }
}

/// Runs `urb args…` in its own process group until it exits or
/// `deadline` passes; at the deadline the whole group is killed and the
/// process reaped.
pub fn run_to_end(urb: &Path, args: &[String], deadline: Instant) -> Ended {
    let spawned = Command::new(urb)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .process_group(0)
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: cannot start {}: {e}", urb.display());
            return Ended {
                status: None,
                ended_at: Instant::now(),
                first_byte: None,
                stdout: Vec::new(),
            };
        }
    };
    let pid = child.id();
    let mut out = child.stdout.take().expect("stdout is piped");
    std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut first = None;
            let mut buf = Vec::new();
            let mut chunk = [0u8; 64 * 1024];
            loop {
                match out.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(k) => {
                        first.get_or_insert_with(Instant::now);
                        buf.extend_from_slice(&chunk[..k]);
                    }
                }
            }
            (first, buf)
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = s.spawn(move || {
            let status = child.wait();
            let _ = tx.send(Instant::now());
            status
        });
        let timeout = deadline.saturating_duration_since(Instant::now());
        // The group is killed only while its leader is unreaped, so the
        // group id cannot have been reused. A launcher reaps its own
        // children before it exits, so a clean exit leaves no group.
        let (killed, ended_at) = match rx.recv_timeout(timeout) {
            Ok(at) => (false, at),
            Err(_) => {
                kill_group(pid);
                (true, rx.recv().unwrap_or_else(|_| Instant::now()))
            }
        };
        let status = waiter.join().expect("waiter thread panicked").ok();
        let (first_byte, stdout) = reader.join().expect("reader thread panicked");
        Ended {
            status: if killed { None } else { status },
            ended_at,
            first_byte,
            stdout,
        }
    })
}

/// Sends SIGKILL to every process of group `pgid` (no-op when empty).
fn kill_group(pgid: u32) {
    let _ = Command::new("kill")
        .args(["-KILL", "--", &format!("-{pgid}")])
        .stderr(Stdio::null())
        .status();
}

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// One launcher pass.
pub struct LauncherRun {
    /// Seconds from spawn until `urb cluster` returned.
    pub exit_s: f64,
    /// Exit 0 and `"verdict": true`.
    pub ok: bool,
}

/// Runs `urb cluster --local 3 --alg quiescent --topics 4 --msgs 2000`.
pub fn launcher(urb: &Path, seed: u64) -> LauncherRun {
    let t0 = Instant::now();
    let ended = run_to_end(
        urb,
        &args(&[
            "cluster",
            "--local",
            &NODES.to_string(),
            "--alg",
            "quiescent",
            "--topics",
            &TOPICS.to_string(),
            "--msgs",
            &MSGS.to_string(),
            "--seed",
            &seed.to_string(),
            "--json",
        ]),
        t0 + DEADLINE,
    );
    let verdict = std::str::from_utf8(&ended.stdout)
        .ok()
        .and_then(|t| json::parse(t.trim()).ok())
        .and_then(|v| v.get("data")?.get("verdict")?.bool());
    LauncherRun {
        exit_s: ended.ended_at.duration_since(t0).as_secs_f64(),
        ok: ended.ok() && verdict == Some(true),
    }
}

/// Socket counters one node reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeNet {
    /// Frames written to sockets.
    pub frames_sent: u64,
    /// Bytes written, length prefixes included.
    pub bytes_sent: u64,
    /// Frames dropped because a peer's writer queue was full.
    pub dropped: u64,
}

/// One direct pass.
pub struct DirectRun {
    /// Seconds until the last node met `--expect`.
    pub expect_s: f64,
    /// Broadcasts and nodes checked.
    pub attempted: usize,
    /// Broadcasts not delivered exactly once everywhere, plus nodes that
    /// did not exit 0 with a complete, readable report.
    pub failed: usize,
    /// `URB_deliver` events summed over the nodes' reports.
    pub deliveries: u64,
    /// Per-node socket counters.
    pub nets: Vec<NodeNet>,
    /// The nodes' raw reports.
    pub reports: Vec<String>,
}

/// Starts the workload's three `urb node`s directly and checks each
/// node's per-topic delivery sets against `expected_payloads`.
pub fn direct(urb: &Path, seed: u64) -> DirectRun {
    let addrs = match reserve_ports(NODES) {
        Ok(a) => a.join(","),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return DirectRun {
                expect_s: DEADLINE.as_secs_f64(),
                attempted: broadcasts() + NODES,
                failed: broadcasts() + NODES,
                deliveries: 0,
                nets: Vec::new(),
                reports: Vec::new(),
            };
        }
    };
    let t0 = Instant::now();
    let ended: Vec<Ended> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..NODES)
            .map(|id| {
                let a = args(&[
                    "node",
                    "--id",
                    &id.to_string(),
                    "--addrs",
                    &addrs,
                    "--alg",
                    "quiescent",
                    "--topics",
                    &TOPICS.to_string(),
                    "--msgs",
                    &MSGS.to_string(),
                    "--seed",
                    &seed.to_string(),
                    "--expect",
                    &(NODES * MSGS).to_string(),
                    "--json",
                ]);
                s.spawn(move || run_to_end(urb, &a, t0 + DEADLINE))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node runner panicked"))
            .collect()
    });

    let sent: Vec<(u32, String)> = (0..TOPICS)
        .flat_map(|t| {
            urb_runtime::expected_payloads(NODES, TopicId(t), MSGS)
                .into_iter()
                .map(move |p| (t, p))
        })
        .collect();
    let mut seen: Vec<(usize, u32, String)> = Vec::new();
    let mut bad_nodes = 0;
    let mut nets = Vec::new();
    let mut reports = Vec::new();
    let mut expect_at = Duration::ZERO;
    for (id, e) in ended.iter().enumerate() {
        let text = String::from_utf8_lossy(&e.stdout).into_owned();
        let parsed = json::parse(text.trim()).ok();
        let data = parsed.as_ref().and_then(|v| v.get("data"));
        let complete = data.and_then(|d| d.get("complete")?.bool()) == Some(true);
        if !(e.ok() && complete) {
            bad_nodes += 1;
        }
        if let Some(d) = data {
            for row in d.get("per_topic").and_then(Json::arr).unwrap_or(&[]) {
                let topic = row
                    .get("topic")
                    .and_then(Json::num)
                    .map_or(u32::MAX, |t| t as u32);
                for p in row.get("payloads").and_then(Json::arr).unwrap_or(&[]) {
                    if let Some(p) = p.str() {
                        seen.push((id, topic, p.to_string()));
                    }
                }
            }
            let net = |k: &str| d.get("net").and_then(|n| n.get(k)?.num()).unwrap_or(0.0) as u64;
            nets.push(NodeNet {
                frames_sent: net("frames_sent"),
                bytes_sent: net("bytes_sent"),
                dropped: net("dropped_backpressure"),
            });
        }
        let printed = e.first_byte.unwrap_or(e.ended_at);
        expect_at = expect_at.max(printed.duration_since(t0).saturating_sub(LINGER));
        reports.push(text);
    }
    let verdict = check_deliveries(NODES, &sent, &seen);
    DirectRun {
        expect_s: expect_at.as_secs_f64(),
        attempted: sent.len() + NODES,
        failed: verdict.failures() + bad_nodes,
        deliveries: seen.len() as u64,
        nets,
        reports,
    }
}

/// Seconds from spawning one `urb node` of the workload's shape until it
/// accepts connections on its port (process start plus mesh start). The
/// node is then killed and reaped. `None` when it never listened.
pub fn node_ready(urb: &Path, seed: u64) -> Option<f64> {
    let addrs = reserve_ports(NODES).ok()?;
    let t0 = Instant::now();
    let mut child = Command::new(urb)
        .args([
            "node",
            "--id",
            "0",
            "--addrs",
            &addrs.join(","),
            "--alg",
            "quiescent",
            "--topics",
            &TOPICS.to_string(),
            "--msgs",
            "0",
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    let deadline = t0 + Duration::from_secs(10);
    let ready = loop {
        if std::net::TcpStream::connect(&addrs[0]).is_ok() {
            break Some(t0.elapsed().as_secs_f64());
        }
        if Instant::now() >= deadline || child.try_wait().ok().flatten().is_some() {
            break None;
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    let _ = child.kill();
    let _ = child.wait();
    ready
}
