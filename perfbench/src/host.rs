//! What the host and this process report about themselves: the
//! fingerprint printed with every result, peak memory and CPU time.

use std::process::Command;

/// Linux `USER_HZ`: the unit of the CPU times in `/proc/*/stat`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `nproc`, CPU model, rustc version and git revision as a JSON object.
/// A checkout that is not a git repository reports its revision as
/// `"unknown"`.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let output = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        escape(&cpu),
        escape(&output("rustc", &["--version"])),
        escape(&output("git", &["rev-parse", "HEAD"])),
    )
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// This process's peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) from a `/proc/.../stat` file.
fn stat_cpu_s(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / CLOCK_TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// CPU seconds the whole process (every thread) has used.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}
