//! Host fingerprint and process counters read from `/proc`.

use std::fs;

/// Jiffies of the aggregate `cpu` line of `/proc/stat`: (steal, total).
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice
    let total = v.iter().take(8).sum();
    Some((*v.get(7)?, total))
}

/// Share of CPU time the hypervisor stole between `start` and now.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> Self {
        Self(cpu_jiffies())
    }

    pub fn share(&self) -> Option<f64> {
        let (s0, t0) = self.0?;
        let (s1, t1) = cpu_jiffies()?;
        (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn commit_id() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

/// One JSON object describing where and how a result was measured.
pub fn fingerprint_json(steal: Option<f64>, trace_counters: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "{{\"nproc\": {nproc}, \"rayon_threads\": {}, \"kernel_backend\": \"{}\", \
         \"trace_counters\": {trace_counters}, \"commit\": \"{}\", \"steal_share\": {}}}",
        rayon::current_num_threads(),
        ckks_math::kernel::active_backend().name(),
        commit_id(),
        steal.map_or("null".into(), |s| format!("{s:.4}")),
    )
}
