//! Host fingerprint and process counters read from `/proc`.

use ccheck_service::json::Json;

/// What a timing depends on besides the code: timings are comparable
/// only between records with the same `fingerprint`.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub sse4_2: bool,
    pub avx2: bool,
    pub rustc: String,
    pub git_rev: String,
    pub profile: &'static str,
    pub fingerprint: String,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        #[cfg(target_arch = "x86_64")]
        let (sse4_2, avx2) = (
            std::arch::is_x86_feature_detected!("sse4.2"),
            std::arch::is_x86_feature_detected!("avx2"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (sse4_2, avx2) = (false, false);
        let rustc = env!("SVCBENCH_RUSTC").to_string();
        let git_rev = git_rev().unwrap_or_else(|| "none".into());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let fingerprint = ccheck_hashing::sha256_hex(
            format!("{nproc}|{cpu_model}|{sse4_2}|{avx2}|{rustc}|{profile}").as_bytes(),
        )[..16]
            .to_string();
        Host {
            nproc,
            cpu_model,
            sse4_2,
            avx2,
            rustc,
            git_rev,
            profile,
            fingerprint,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("fingerprint", Json::from(self.fingerprint.as_str())),
            ("nproc", Json::from(self.nproc as u64)),
            ("cpu_model", Json::from(self.cpu_model.as_str())),
            ("sse4_2", Json::from(self.sse4_2)),
            ("avx2", Json::from(self.avx2)),
            ("rustc", Json::from(self.rustc.as_str())),
            ("git_rev", Json::from(self.git_rev.as_str())),
            ("profile", Json::from(self.profile)),
        ])
    }
}

/// The commit checked out in the current directory, read from `.git`
/// directly; `None` outside a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

/// User plus system CPU time of this process, in seconds. Linux reports
/// it in `/proc/self/stat` in ticks of `USER_HZ`, which is 100.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}
