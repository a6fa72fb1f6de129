//! The hardware/run fingerprint stamped on every results file, and the
//! process's peak memory. A number counts only with the machine it was
//! recorded on; `compare` refuses to set two machines side by side.

use std::process::Command;

use stmbench7_core::JsonValue;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    read_trimmed("/proc/cpuinfo")
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how a run was made. The hardware fields (`nproc`, `cpu`,
/// `kernel`, `rustc`) decide comparability; commit and sizes describe.
pub fn fingerprint(seed: u64, seconds: f64, quick: bool) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unknown = || "unknown".to_string();
    JsonValue::obj(vec![
        ("nproc", JsonValue::num(nproc as f64)),
        ("cpu", JsonValue::str(cpu_model())),
        (
            "kernel",
            JsonValue::str(read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            JsonValue::str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "commit",
            JsonValue::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        // Decimal string: seeds are full-width and must round-trip.
        ("seed", JsonValue::str(seed.to_string())),
        ("seconds_per_workload", JsonValue::num(seconds)),
        ("quick", JsonValue::Bool(quick)),
    ])
}

/// The fields two fingerprints must share for their numbers to be
/// comparable: the machine, the toolchain and the sizing.
const COMPARABLE_KEYS: [&str; 6] = [
    "nproc",
    "cpu",
    "kernel",
    "rustc",
    "seconds_per_workload",
    "quick",
];

/// Why two fingerprints are not comparable, if they are not.
pub fn mismatch(a: &JsonValue, b: &JsonValue) -> Option<String> {
    COMPARABLE_KEYS.into_iter().find_map(|key| {
        let (x, y) = (a.get(key), b.get(key));
        (x != y).then(|| format!("{key}: {x:?} vs {y:?}"))
    })
}

/// Resets the kernel's peak-resident-set mark of this process to its
/// current resident set, so the next [`peak_rss_mib`] reports the peak
/// since now. Where the kernel refuses, the mark stays the process-wide
/// peak — still a valid, only coarser, reading.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process — its peak resident set since the last
/// [`reset_peak_rss`] — in MiB.
pub fn peak_rss_mib() -> f64 {
    read_trimmed("/proc/self/status")
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU time of this process so far, in microseconds
/// (`utime` + `stime` of `/proc/self/stat`, at the usual 100 Hz tick).
pub fn cpu_time_us() -> f64 {
    read_trimmed("/proc/self/stat")
        .and_then(|text| {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th overall.
            let rest = text.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) * 10_000.0)
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_memory_and_cpu_time() {
        assert!(peak_rss_mib() > 0.5);
        let before = cpu_time_us();
        let mut x = 0u64;
        while cpu_time_us() - before < 20_000.0 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time_us() > before);
    }

    #[test]
    fn fingerprints_differ_by_hardware_not_by_commit_or_seed() {
        let a = fingerprint(7, 10.0, false);
        let b = fingerprint(8, 10.0, false);
        assert_eq!(mismatch(&a, &b), None);
        let JsonValue::Obj(mut pairs) = b.clone() else {
            unreachable!()
        };
        pairs[0].1 = JsonValue::num(999.0);
        let other_box = JsonValue::Obj(pairs);
        assert!(mismatch(&a, &other_box).unwrap().starts_with("nproc"));
        assert!(mismatch(&a, &fingerprint(7, 1.0, true)).is_some());
    }
}
