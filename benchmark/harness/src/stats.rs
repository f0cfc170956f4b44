//! Order statistics and the three `/proc` readers the metrics need.

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Equal slices a stage is cut into (of its envelopes, in submission order).
pub const SLICES: usize = 20;

/// Indices of the slices a stage's figures are taken from: of the slices
/// between the first and the last (which fill and drain the window), the
/// half with the lowest `cost` (a slice's duration, or its mean latency).
///
/// Why the quiet half and not the whole stage or its median slice: the
/// machine is shared, and for seconds to minutes at a time its other
/// tenants slow every slice down by 30-50 % (NOISE.md has the slice
/// times). That only ever slows a slice, so the quiet slices say what the
/// code can do and the others what the neighbours allowed; a run gives the
/// same figure as long as half of a stage was left alone. A change to the
/// code moves every slice, the quiet ones too; one that slows less than
/// half of a stage shows in the whole-stage figures printed beside these.
pub fn quiet_slices(cost: &[f64]) -> Vec<usize> {
    let mut inner: Vec<usize> = (1..cost.len().saturating_sub(1)).collect();
    inner.sort_by(|&a, &b| cost[a].total_cmp(&cost[b]));
    inner.truncate(inner.len() / 2);
    inner
}

/// Value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Kernel clock ticks per second: `USER_HZ` is 100 on every Linux
/// architecture Rust supports.
const TICKS_PER_S: f64 = 100.0;

/// Process user + system CPU time in microseconds (`/proc/self/stat`).
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 1e6 / TICKS_PER_S
}

/// Time the calling thread has spent on a CPU, in microseconds
/// (`/proc/thread-self/schedstat`, nanosecond resolution).
pub fn thread_cpu_us() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|f| f.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
        / 1e3
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0)
        / 1024.0
}
