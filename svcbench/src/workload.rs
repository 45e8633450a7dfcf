//! The benchmark's workloads: each is a deterministic sequence of
//! [`JobSpec`]s derived from the `--seed` argument. The service only
//! ever sees the generated specs.

use ccheck_net::Backend;
use ccheck_service::json::Json;
use ccheck_service::{JobOp, JobSpec};
use ccheck_workloads::zipf_valued_pairs_iter;

/// Values the service's reduce jobs generate lie in `1..=2^20`.
pub const VALUE_MAX: u64 = 1 << 20;

/// PEs of every world the benchmark starts (the host has two cores).
pub const PES: usize = 2;

/// Concurrently executing jobs per world.
pub const MAX_INFLIGHT: usize = 2;

/// Transport of every world: in-process channels.
pub const BACKEND: Backend = Backend::Local;

/// One closed-loop traffic mix.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Client connections, each waiting for its receipt before it
    /// submits the next job.
    pub clients: usize,
    pub n: u64,
    pub keys: u64,
    /// Round-robin operation mix.
    pub ops: &'static [JobOp],
    /// Chunk size of the chunked jobs.
    pub chunk: u64,
    /// Alternate one-shot and chunked jobs; otherwise every job is
    /// chunked.
    pub alternate_oneshot: bool,
    /// Length of the job prefix over which the exact counters are
    /// taken, and the number of jobs the traced ladder replays. A
    /// whole number of periods of the mix.
    pub prefix_jobs: u64,
}

impl Workload {
    /// All workloads, by their `--workload` names.
    pub fn all() -> [Workload; 2] {
        [
            // The `service_throughput` mix resized to a 2-core host: the
            // only workload that runs sort and zip with their
            // permutation and zip checkers.
            Workload {
                name: "mixed_local",
                clients: 2,
                n: 50_000,
                keys: 5_000,
                ops: &[JobOp::Reduce, JobOp::Sort, JobOp::Zip],
                chunk: 4096,
                alternate_oneshot: true,
                prefix_jobs: 12,
            },
            // Hashing, the sum-sketch fold, input generation and the
            // chunked exchange do nearly all the work; per-job service
            // overhead is below 1%.
            Workload {
                name: "reduce_big",
                clients: 1,
                n: 2_000_000,
                keys: 100_000,
                ops: &[JobOp::Reduce],
                chunk: 65_536,
                alternate_oneshot: false,
                prefix_jobs: 4,
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// The same mix at a size that runs in well under a second per job,
    /// for the benchmark's self-tests.
    #[cfg(test)]
    pub fn tiny(mut self) -> Workload {
        self.n = (self.n / 50).max(1_000);
        self.keys = (self.keys / 50).max(16);
        self.chunk = self.chunk.min(256);
        self
    }

    /// Spec of job `i` under workload seed `seed`.
    pub fn spec(&self, seed: u64, i: u64) -> JobSpec {
        let op = self.ops[(i % self.ops.len() as u64) as usize];
        let chunk = if self.alternate_oneshot && i.is_multiple_of(2) {
            0
        } else {
            self.chunk
        };
        JobSpec {
            op,
            n: self.n,
            keys: self.keys,
            seed: mix(seed ^ mix(i)),
            chunk,
            ..JobSpec::default()
        }
    }

    /// Workload descriptor for the run record.
    pub fn describe(&self, seed: u64) -> Json {
        let chunks = if self.alternate_oneshot {
            vec![0, self.chunk]
        } else {
            vec![self.chunk]
        };
        let ops = self.ops.iter().map(|op| Json::from(op.name())).collect();
        Json::obj([
            ("name", Json::from(self.name)),
            ("seed", Json::from(seed)),
            ("backend", Json::from(format!("{BACKEND:?}").as_str())),
            ("pes", Json::from(PES as u64)),
            ("max_inflight", Json::from(MAX_INFLIGHT as u64)),
            ("clients", Json::from(self.clients as u64)),
            ("n", Json::from(self.n)),
            ("keys", Json::from(self.keys)),
            ("value_max", Json::from(VALUE_MAX)),
            ("op_mix", Json::Arr(ops)),
            (
                "chunk_sizes",
                Json::Arr(chunks.into_iter().map(Json::from).collect()),
            ),
            ("fault_share", Json::from(0u64)),
            ("prefix_jobs", Json::from(self.prefix_jobs)),
        ])
    }
}

/// Splitmix64 finalizer, for per-job seeds.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The output size a correct run of `spec` must report, derived from
/// the dataset rather than from the service: `n` for sort and zip, the
/// number of distinct keys for reduce.
pub fn expected_output_elems(spec: &JobSpec) -> u64 {
    match spec.op {
        JobOp::Sort | JobOp::Zip => spec.n,
        JobOp::Reduce => {
            // Keys are drawn from 1..=keys.
            let mut seen = vec![0u64; (spec.keys as usize + 64) / 64 + 1];
            let mut distinct = 0;
            for (k, _) in
                zipf_valued_pairs_iter(spec.seed, spec.keys, VALUE_MAX, 0..spec.n as usize)
            {
                let (word, bit) = ((k / 64) as usize, 1u64 << (k % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    distinct += 1;
                }
            }
            distinct
        }
    }
}
