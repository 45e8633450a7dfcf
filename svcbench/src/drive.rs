//! The closed-loop service pass: start an in-process `ccheck-service`
//! world, drive it with `ServiceClient` connections that each wait for
//! their receipt before submitting the next job, and judge every
//! receipt.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccheck_service::{
    run_service_world, JobSpec, Receipt, ServiceClient, ServiceConfig, ServiceSummary, Verdict,
};

use crate::host::cpu_seconds;
use crate::workload::{expected_output_elems, Workload, BACKEND, MAX_INFLIGHT, PES};

/// One job as its client saw it.
pub struct JobRecord {
    pub index: u64,
    pub spec: JobSpec,
    /// Submitted after the warm-up, so it counts in the timed window.
    pub in_window: bool,
    /// Submit and receipt times, in seconds since the pass started.
    pub submit_s: f64,
    pub done_s: f64,
    pub outcome: Result<Receipt, String>,
    /// Why the correctness gate refused this job, if it did.
    pub failure: Option<String>,
}

impl JobRecord {
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.submit_s) * 1e3
    }

    pub fn receipt(&self) -> Option<&Receipt> {
        self.outcome.as_ref().ok()
    }
}

/// Everything one pass measured.
pub struct Pass {
    /// When the closed loop started; job times are relative to it.
    pub started: Instant,
    /// Seconds from spawning a world until its address is announced
    /// and the first client has connected, once per set-up.
    pub setup_s: Vec<f64>,
    /// Every job run, in index order.
    pub jobs: Vec<JobRecord>,
    /// From the first window submission to the last window receipt.
    pub window_s: f64,
    /// Process CPU time (user + system) over the same window.
    pub window_cpu_s: f64,
    /// The world's whole-service byte total (jobs plus control plane).
    pub world_bytes: u64,
}

impl Pass {
    pub fn window_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.in_window)
    }

    pub fn failures(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.failure.is_some())
    }

    /// Receipts of jobs `0..count`, which every pass must have run.
    pub fn prefix(&self, count: u64) -> Result<Vec<&Receipt>, String> {
        (0..count)
            .map(|i| {
                self.jobs
                    .get(i as usize)
                    .filter(|j| j.index == i)
                    .and_then(JobRecord::receipt)
                    .ok_or_else(|| format!("job {i} of the exact-counter prefix has no receipt"))
            })
            .collect()
    }
}

/// A running world.
struct World {
    handle: JoinHandle<Vec<ServiceSummary>>,
    addr: String,
}

fn start_world() -> Result<(World, ServiceClient, f64), String> {
    let t = Instant::now();
    let (tx, rx) = mpsc::channel();
    let cfg = ServiceConfig {
        announce: Some(tx),
        max_inflight: MAX_INFLIGHT,
        ..ServiceConfig::default()
    };
    let handle = std::thread::spawn(move || run_service_world(BACKEND, PES, &cfg));
    let addr = match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(addr) => addr.to_string(),
        Err(e) => {
            let why = match handle.join() {
                Err(_) => "the world panicked".to_string(),
                Ok(_) => e.to_string(),
            };
            return Err(format!("service world did not announce its address: {why}"));
        }
    };
    let client = ServiceClient::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    Ok((World { handle, addr }, client, t.elapsed().as_secs_f64()))
}

fn stop_world(world: World) -> Result<Vec<ServiceSummary>, String> {
    ServiceClient::connect(&world.addr)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("shutdown: {e}"))?;
    world
        .handle
        .join()
        .map_err(|_| "the service world panicked".to_string())
}

/// Run one pass: `setups` world set-ups (all but the last shut down at
/// once), then a warm-up and a `seconds`-long closed-loop window on the
/// last world.
pub fn run_pass(w: &Workload, seed: u64, seconds: f64, setups: usize) -> Result<Pass, String> {
    let mut setup_s = Vec::new();
    let mut live = None;
    for k in 0..setups.max(1) {
        let (world, client, secs) = start_world()?;
        setup_s.push(secs);
        if k + 1 < setups {
            drop(client);
            stop_world(world)?;
        } else {
            live = Some((world, client));
        }
    }
    let (world, first_client) = live.expect("at least one set-up");

    let warm = Duration::from_secs_f64((seconds * 0.1).clamp(0.2, 2.0));
    let start = Instant::now();
    let warm_end = start + warm;
    let stop = warm_end + Duration::from_secs_f64(seconds);
    let next = AtomicU64::new(0);
    let window_open: OnceLock<(Instant, f64)> = OnceLock::new();
    let mut first_client = Some(first_client);

    let mut jobs: Vec<JobRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients)
            .map(|_| {
                let client = first_client.take();
                let (next, window_open, addr) = (&next, &window_open, &world.addr);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut client = match client.map_or_else(|| ServiceClient::connect(addr), Ok) {
                        Ok(c) => c,
                        Err(e) => {
                            mine.push(JobRecord {
                                index: u64::MAX,
                                spec: w.spec(seed, 0),
                                in_window: true,
                                submit_s: 0.0,
                                done_s: 0.0,
                                outcome: Err(format!("connect: {e}")),
                                failure: None,
                            });
                            return mine;
                        }
                    };
                    loop {
                        // Read the clock before taking an index, so every
                        // index taken is also run: the run's jobs are
                        // exactly 0..k.
                        let now = Instant::now();
                        if now >= stop {
                            return mine;
                        }
                        let in_window = now >= warm_end;
                        if in_window {
                            window_open.get_or_init(|| (Instant::now(), cpu_seconds()));
                        }
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let spec = w.spec(seed, index);
                        let submit = Instant::now();
                        let outcome = client.run(&spec).map_err(|e| e.to_string());
                        let done = Instant::now();
                        let failed = outcome.is_err();
                        mine.push(JobRecord {
                            index,
                            spec,
                            in_window,
                            submit_s: (submit - start).as_secs_f64(),
                            done_s: (done - start).as_secs_f64(),
                            outcome,
                            failure: None,
                        });
                        if failed {
                            // The connection may be gone; stop this client
                            // rather than flood the record with errors.
                            return mine;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let cpu_end = cpu_seconds();
    drop(first_client);
    let summaries = stop_world(world)?;

    jobs.sort_by_key(|j| j.index);
    judge_all(&mut jobs);
    let (t0, cpu0) = window_open
        .get()
        .copied()
        .ok_or("no job was submitted in the timed window")?;
    let t0_s = (t0 - start).as_secs_f64();
    let last_s = jobs
        .iter()
        .filter(|j| j.in_window)
        .map(|j| j.done_s)
        .fold(t0_s, f64::max);
    Ok(Pass {
        started: start,
        setup_s,
        jobs,
        window_s: last_s - t0_s,
        window_cpu_s: cpu_end - cpu0,
        world_bytes: summaries[0].stats.as_ref().map_or(0, |s| s.total_bytes()),
    })
}

/// The correctness gate for one receipt: clean jobs must verify with
/// the output size their dataset implies; fault-injected jobs must not
/// verify.
pub fn judge(
    spec: &JobSpec,
    outcome: &Result<Receipt, String>,
    expected_elems: Option<u64>,
) -> Result<(), String> {
    let receipt = outcome.as_ref().map_err(|e| format!("client error: {e}"))?;
    if spec.fault.is_some() {
        if receipt.verdict == Verdict::Verified {
            return Err("fault-injected job came back verified".into());
        }
        return Ok(());
    }
    if receipt.verdict != Verdict::Verified {
        return Err(format!("clean job came back {}", receipt.verdict.name()));
    }
    match expected_elems {
        Some(expected) if receipt.output_elems != expected => Err(format!(
            "output_elems {} but the dataset has {expected}",
            receipt.output_elems
        )),
        _ => Ok(()),
    }
}

/// Judge every job, deriving the expected output sizes of clean jobs
/// on one thread per PE (reduce jobs need their dataset regenerated).
fn judge_all(jobs: &mut [JobRecord]) {
    let per_thread = jobs.len().div_ceil(PES).max(1);
    std::thread::scope(|scope| {
        for part in jobs.chunks_mut(per_thread) {
            scope.spawn(move || {
                for job in part {
                    let expected = (job.spec.fault.is_none() && job.outcome.is_ok())
                        .then(|| expected_output_elems(&job.spec));
                    job.failure = judge(&job.spec, &job.outcome, expected).err();
                }
            });
        }
    });
}
