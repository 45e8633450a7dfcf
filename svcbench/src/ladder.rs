//! The traced ladder: on a dedicated 2-PE world with the benchmark's
//! backend, call each crate's public functions on the workload's own
//! specs and inputs, one span per call. Spans are recorded here, in the
//! benchmark, around the calls; the program itself is not instrumented.

use std::hint::black_box;
use std::time::Instant;

use ccheck::config::SumCheckConfig;
use ccheck::permutation::{PermCheckConfig, PermChecker};
use ccheck::sketch::Sketch;
use ccheck::sort::{check_boundaries, check_sorted};
use ccheck::zip::{ZipCheckConfig, ZipChecker};
use ccheck::SumChecker;
use ccheck_dataflow::{reduce_by_key, reduce_by_key_chunked, sort, sort_chunked, zip, zip_chunked};
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_net::Comm;
use ccheck_service::{execute_job, JobOp, JobSpec, Receipt};
use ccheck_workloads::{local_range, uniform_ints_iter, zipf_valued_pairs_iter};

use crate::workload::{mix, Workload, BACKEND, PES, VALUE_MAX};

/// One timed call.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// PE that made the call; `None` for the benchmark's own thread.
    pub pe: Option<usize>,
    /// Index of the job whose spec the call ran on; `None` for calls on
    /// a probe spec or with no spec.
    pub job: Option<u64>,
    /// Repetition of the job sequence (the exact counters use rep 0).
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same lane.
    pub parent: Option<usize>,
    /// Items the call processed (elements, words, calls or appends).
    pub work: u64,
    /// This PE's bytes, messages and latency rounds sent by the call.
    pub bytes: u64,
    pub msgs: u64,
    pub rounds: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans of one lane (one PE, or the benchmark's thread).
pub struct Tracer {
    epoch: Instant,
    pe: Option<usize>,
    rep: u32,
    pub spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, pe: Option<usize>) -> Tracer {
        Tracer {
            epoch,
            pe,
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name`; returns its result and the span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: Option<u64>,
        work: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, usize) {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            pe: self.pe,
            job,
            rep: self.rep,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            work,
            bytes: 0,
            msgs: 0,
            rounds: 0,
        });
        self.stack.push(id);
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.stack.pop();
        (out, id)
    }

    /// [`Tracer::span`] around a call on `comm`, also recording what
    /// this PE sent during it (its own counters, so the figure is exact
    /// without a barrier).
    fn comm_span<T>(
        &mut self,
        comm: &mut Comm,
        name: &'static str,
        job: Option<u64>,
        work: u64,
        f: impl FnOnce(&mut Comm) -> T,
    ) -> T {
        let before = own_counters(comm);
        let (out, id) = self.span(name, job, work, |_| f(comm));
        let after = own_counters(comm);
        let span = &mut self.spans[id];
        span.bytes = after.0 - before.0;
        span.msgs = after.1 - before.1;
        span.rounds = after.2 - before.2;
        out
    }
}

fn own_counters(comm: &Comm) -> (u64, u64, u64) {
    let row = comm.stats().snapshot().per_pe()[comm.rank()];
    (row.bytes_sent, row.msgs_sent, row.rounds)
}

/// What the ladder world returns: every PE's spans, and rank 0's
/// standalone receipts of the prefix jobs.
pub struct Ladder {
    pub spans: Vec<SpanRec>,
    pub receipts: Vec<Receipt>,
    pub reps: u32,
}

/// Repetitions of the job prefix, so that a ladder replays about two
/// million elements per PE pair even for small jobs.
fn reps(w: &Workload) -> u32 {
    (2_000_000 / (w.prefix_jobs * w.n).max(1)).clamp(1, 200) as u32
}

pub fn run_ladder(w: &Workload, seed: u64) -> Ladder {
    let epoch = Instant::now();
    let reps = reps(w);
    let (per_pe, _) = ccheck_net::run_with_stats_on(BACKEND, PES, |comm| {
        ladder_pe(comm, w, seed, reps, Tracer::new(epoch, Some(comm.rank())))
    });
    let mut spans = Vec::new();
    for pe_spans in per_pe {
        // Parent indices are per lane; rebase them onto the merged list.
        let base = spans.len();
        spans.extend(pe_spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    // `execute_job` reports the communication of its whole world, so
    // each call gets a fresh one: that is the standalone run a service
    // receipt must equal. A few repetitions give its median.
    let mut receipts = Vec::new();
    for rep in 0..reps.min(4) {
        for i in 0..w.prefix_jobs {
            let spec = w.spec(seed, i);
            let per_pe = ccheck_net::run_on(BACKEND, PES, |comm| {
                let start = epoch.elapsed().as_nanos() as u64;
                let receipt = execute_job(comm, i, &spec);
                (receipt, start, epoch.elapsed().as_nanos() as u64)
            });
            for (rank, (receipt, start_ns, end_ns)) in per_pe.into_iter().enumerate() {
                spans.push(SpanRec {
                    name: "service.execute_job",
                    pe: Some(rank),
                    job: Some(i),
                    rep,
                    start_ns,
                    end_ns,
                    parent: None,
                    work: 1,
                    bytes: 0,
                    msgs: 0,
                    rounds: 0,
                });
                if rep == 0 && rank == 0 {
                    receipts.push(receipt);
                }
            }
        }
    }
    Ladder {
        spans,
        receipts,
        reps,
    }
}

fn ladder_pe(comm: &mut Comm, w: &Workload, seed: u64, reps: u32, mut tr: Tracer) -> Vec<SpanRec> {
    for rep in 0..reps {
        tr.rep = rep;
        for i in 0..w.prefix_jobs {
            let spec = w.spec(seed, i);
            tr.span("job", Some(i), 1, |tr| {
                op_and_check(comm, tr, &spec, Some(i));
                local_layers(comm, tr, &spec, Some(i));
            });
        }
    }
    tr.rep = 0;
    // The mix lacks these ops; time them on the first spec's shape so
    // every layer has a number (each is predicted flat here).
    for op in [JobOp::Reduce, JobOp::Sort, JobOp::Zip] {
        if !w.ops.contains(&op) {
            let spec = JobSpec {
                op,
                ..w.spec(seed, 0)
            };
            tr.span("probe", None, 1, |tr| op_and_check(comm, tr, &spec, None));
        }
    }
    net_layers(comm, &mut tr, w);
    tr.spans
}

fn sum_cfg(spec: &JobSpec) -> SumCheckConfig {
    SumCheckConfig::new(
        spec.iterations as usize,
        spec.buckets as usize,
        spec.log2_rhat,
        HasherKind::Tab64,
    )
}

fn perm_checker(spec: &JobSpec) -> PermChecker {
    let mut cfg = PermCheckConfig::hash_sum(HasherKind::Tab64, 32);
    cfg.iterations = spec.iterations as usize;
    PermChecker::new(cfg, mix(spec.seed))
}

fn zip_checker(spec: &JobSpec) -> ZipChecker {
    ZipChecker::new(
        ZipCheckConfig {
            hasher: HasherKind::Tab64,
            iterations: spec.iterations as usize,
        },
        mix(spec.seed),
    )
}

/// The job's operation and its check, called the way the service's
/// executor calls them (one-shot jobs on materialized input, chunked
/// jobs on the lazy generator), without the injected fault.
fn op_and_check(comm: &mut Comm, tr: &mut Tracer, spec: &JobSpec, job: Option<u64>) {
    let range = local_range(spec.n as usize, comm.rank(), comm.size());
    let local = range.len() as u64;
    let chunk = spec.chunk as usize;
    let add = |a: u64, b: u64| a.wrapping_add(b);
    match spec.op {
        JobOp::Reduce => {
            let input = zipf_valued_pairs_iter(spec.seed, spec.keys, VALUE_MAX, range);
            let hasher = Hasher::new(HasherKind::Tab64, spec.seed ^ 0x7061_7274);
            let checker = SumChecker::new(sum_cfg(spec), mix(spec.seed));
            if chunk == 0 {
                let (data, _) = tr.span("workloads.gen", job, local, |_| input.collect::<Vec<_>>());
                let out = tr.comm_span(comm, "dataflow.reduce", job, local, |c| {
                    reduce_by_key(c, data.clone(), &hasher, add)
                });
                tr.comm_span(comm, "core.check", job, local, |c| {
                    checker.check_distributed(c, &data, &out)
                });
            } else {
                tr.span("workloads.gen", job, local, |_| {
                    black_box(input.clone().fold(0, |a, (k, v)| a ^ k ^ v))
                });
                let out = tr.comm_span(comm, "dataflow.reduce", job, local, |c| {
                    reduce_by_key_chunked(c, input.clone(), &hasher, chunk, add)
                });
                tr.comm_span(comm, "core.check", job, local, |c| {
                    checker.check_distributed_stream(c, input, out.iter().copied())
                });
            }
        }
        JobOp::Sort => {
            let input = uniform_ints_iter(spec.seed, spec.keys.max(2), range);
            let perm = perm_checker(spec);
            if chunk == 0 {
                let (data, _) = tr.span("workloads.gen", job, local, |_| input.collect::<Vec<_>>());
                let out =
                    tr.comm_span(comm, "dataflow.sort", job, local, |c| sort(c, data.clone()));
                tr.comm_span(comm, "core.check", job, local, |c| {
                    check_sorted(c, &data, &out, &perm)
                });
            } else {
                tr.span("workloads.gen", job, local, |_| {
                    black_box(input.clone().fold(0, |a, x| a ^ x))
                });
                let out = tr.comm_span(comm, "dataflow.sort", job, local, |c| {
                    sort_chunked(c, input.clone(), chunk)
                });
                tr.comm_span(comm, "core.check", job, local, |c| {
                    let is_perm = perm.check_stream(c, input, out.iter().copied());
                    let local_ok = out.windows(2).all(|w| w[0] <= w[1]);
                    let boundaries_ok = check_boundaries(c, &out);
                    c.all_agree(local_ok) && boundaries_ok && is_perm
                });
            }
        }
        JobOp::Zip => {
            let b_iter = uniform_ints_iter(spec.seed ^ 0xB0B, u64::MAX, range.clone());
            let (a, _) = tr.span("workloads.gen", job, local, |_| {
                let a: Vec<u64> = uniform_ints_iter(spec.seed ^ 0xA11CE, u64::MAX, range).collect();
                black_box(b_iter.clone().fold(0, |acc, x| acc ^ x));
                a
            });
            let out = tr.comm_span(comm, "dataflow.zip", job, local, |c| {
                if chunk == 0 {
                    zip(c, a.clone(), b_iter.clone().collect())
                } else {
                    zip_chunked(c, a.clone(), (local, b_iter.clone()), chunk)
                }
            });
            let checker = zip_checker(spec);
            tr.comm_span(comm, "core.check", job, local, |c| {
                checker.check_stream(
                    c,
                    (local, a.iter().copied()),
                    (local, b_iter),
                    (out.len() as u64, out.iter().copied()),
                )
            });
        }
    }
}

/// Per-PE layers with no communication, on this spec's share: hashing
/// the job keys, and each checker's sketch fold.
fn local_layers(comm: &Comm, tr: &mut Tracer, spec: &JobSpec, job: Option<u64>) {
    let range = local_range(spec.n as usize, comm.rank(), comm.size());
    let start = range.start as u64;
    let pairs: Vec<(u64, u64)> =
        zipf_valued_pairs_iter(spec.seed, spec.keys.max(1), VALUE_MAX, range.clone()).collect();
    let words = pairs.len() as u64;
    for (name, kind) in [
        ("hashing.tab64", HasherKind::Tab64),
        ("hashing.crc32c", HasherKind::Crc32c),
    ] {
        let hasher = Hasher::new(kind, spec.seed);
        tr.span(name, job, words, |_| {
            black_box(
                pairs
                    .iter()
                    .fold(0, |a, &(k, _)| a ^ hasher.hash(black_box(k))),
            )
        });
    }

    let sum = SumChecker::new(sum_cfg(spec), mix(spec.seed));
    let full_range: Vec<(u64, u64)> = pairs.iter().map(|&(k, v)| (k, mix(k ^ v))).collect();
    for (name, input) in [
        ("core.sum_fold", &pairs),
        ("core.sum_fold_full_range", &full_range),
    ] {
        tr.span(name, job, words, |_| {
            let mut sketch = sum.sketch();
            sketch.update_iter(input.iter().copied());
            black_box(sketch.table()[0])
        });
    }

    let ints: Vec<u64> = uniform_ints_iter(spec.seed, spec.keys.max(2), range.clone()).collect();
    let perm = perm_checker(spec);
    tr.span("core.perm_fold", job, words, |_| {
        let mut sketch = perm.sketch();
        sketch.update_iter(ints.iter().copied());
        black_box(sketch.count())
    });

    let lane: Vec<u64> = uniform_ints_iter(spec.seed ^ 0xA11CE, u64::MAX, range).collect();
    let zipc = zip_checker(spec);
    tr.span("core.zip_fold", job, words, |_| {
        let mut sketch = zipc.sketch(0, start);
        sketch.update_iter(lane.iter().copied());
        black_box(sketch.count())
    });
}

/// Collectives on the benchmark's backend: the 8-byte allreduce every
/// check and digest ends with, and an all-to-all at the size of one
/// chunk of the reduce exchange.
fn net_layers(comm: &mut Comm, tr: &mut Tracer, w: &Workload) {
    const CALLS: u64 = 2_000;
    tr.comm_span(comm, "net.allreduce", None, CALLS, |c| {
        for i in 0..CALLS {
            black_box(c.allreduce(i, u64::wrapping_add));
        }
    });

    let per_dest = (w.chunk as usize / PES).max(1);
    let message: Vec<(u64, u64)> = (0..per_dest as u64).map(|i| (i, mix(i))).collect();
    let msg_bytes = (per_dest * 16) as u64;
    let calls = ((32 << 20) / msg_bytes).clamp(16, 4_096);
    tr.comm_span(comm, "net.all_to_all", None, calls, |c| {
        for _ in 0..calls {
            black_box(c.all_to_all(vec![message.clone(); PES]));
        }
    });
}
