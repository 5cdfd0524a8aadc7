//! Process and machine facts, and the order statistics the report uses.

use overlay_scenarios::scaling::MachineInfo;
use overlay_scenarios::Json;

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of this process, every thread included
/// (threads that have exited too). Linux reports them in clock ticks of
/// 1/100 s.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fields after it are fixed.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / 100.0,
        _ => 0.0,
    }
}

/// The commit the checkout was built from, read from `.git` in the working
/// directory without running git; `unknown` when it is not a git checkout.
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// The machine facts every result carries, as one JSON object.
pub fn machine_json(backend: &str, workload: &str, seed: u64, note: &str) -> Json {
    let m = MachineInfo::capture();
    Json::obj(vec![
        ("cores", Json::UInt(m.available_parallelism as u64)),
        (
            "rayon_num_threads",
            m.rayon_env.map_or(Json::Null, Json::Str),
        ),
        ("workers", Json::UInt(m.workers as u64)),
        ("os", Json::Str(m.os.into())),
        ("arch", Json::Str(m.arch.into())),
        ("backend", Json::Str(backend.into())),
        ("git_commit", Json::Str(git_commit())),
        ("workload", Json::Str(workload.into())),
        ("seed", Json::UInt(seed)),
        ("note", Json::Str(note.into())),
    ])
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples above it, as
/// `(value, percentile, samples)`: with `n` samples, the `(n - 10)`-th of
/// them in ascending order, at percentile `100 (n - 10) / n`. `None` with
/// ten samples or fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64, usize)> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 10;
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0, 100)));
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn process_facts_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
