//! Ablation study: the iterations-vs-buckets trade-off of §4.
//!
//! At a fixed message budget `b` the checker designer chooses between
//! many iterations of few buckets (more local work, stronger per-bit
//! accuracy from the modulus) and few iterations of many buckets (less
//! local work). §4: "in practice, keeping local work low might be more
//! important than these solutions to minimize δ admit, and one might
//! prefer to trade a reduced number of iterations for a larger value of
//! d". This binary quantifies that trade-off: for shapes filling the
//! same ~2048-bit table it measures condensing throughput alongside the
//! achieved δ, and contrasts the δ-optimal configuration from Table 2's
//! optimizer.
//!
//! Also ablates the bucket-index mapping (power-of-two mask vs
//! fast-range for general d) and the hash family.
//!
//! ```text
//! cargo run -p ccheck-bench --bin ablation --release [CCHECK_N=500000]
//! ```

use ccheck::config::SumCheckConfig;
use ccheck::params::optimize;
use ccheck::sketch::Sketch;
use ccheck::SumChecker;
use ccheck_bench::{env_param, time_min_secs};
use ccheck_hashing::HasherKind;
use ccheck_workloads::{uniform_ints, zipf_pairs};

fn measure_ns_per_elem(cfg: SumCheckConfig, pairs: &[(u64, u64)], reps: usize) -> f64 {
    let checker = SumChecker::new(cfg, 7);
    let secs = time_min_secs(reps, || {
        let mut sketch = checker.sketch();
        sketch.update_iter(pairs.iter().copied());
        std::hint::black_box(sketch.table());
    });
    secs * 1e9 / pairs.len() as f64
}

fn main() {
    let n = env_param("CCHECK_N", 500_000);
    let reps = env_param("CCHECK_REPS", 10);
    let keys = zipf_pairs(42, 1_000_000, 0..n);
    let values = uniform_ints(43, 1 << 32, 0..n);
    let pairs: Vec<(u64, u64)> = keys
        .into_iter()
        .zip(values)
        .map(|((k, _), v)| (k, v))
        .collect();

    println!("Ablation 1: iterations × buckets at a ~2048-bit table ({n} elements)\n");
    println!(
        "{:>18} {:>8} {:>12} {:>14}",
        "Configuration", "bits", "δ", "ns/element"
    );
    // Shapes with its·d·(m+1) ≈ 2048, m = 15.
    let shapes: Vec<(usize, usize)> = vec![(1, 128), (2, 64), (4, 32), (8, 16), (16, 8), (32, 4)];
    for (its, d) in shapes {
        let cfg = SumCheckConfig::new(its, d, 15, HasherKind::Crc32c);
        println!(
            "{:>18} {:>8} {:>12.1e} {:>14.1}",
            cfg.label(),
            cfg.table_bits(),
            cfg.failure_bound(),
            measure_ns_per_elem(cfg, &pairs, reps),
        );
    }
    let opt = optimize(2048, 1e-10).expect("feasible");
    let opt_cfg = SumCheckConfig::new(
        opt.iterations,
        opt.buckets,
        opt.log2_rhat,
        HasherKind::Crc32c,
    );
    println!(
        "{:>18} {:>8} {:>12.1e} {:>14.1}   ← Table 2 optimizer (δ target 1e-10)",
        opt_cfg.label(),
        opt_cfg.table_bits(),
        opt_cfg.failure_bound(),
        measure_ns_per_elem(opt_cfg, &pairs, reps),
    );

    println!("\nAblation 2: bucket-index mapping (power-of-two mask vs fast-range)\n");
    for (label, d) in [("pow2 mask", 128usize), ("fast-range", 124)] {
        let cfg = SumCheckConfig::new(3, d, 10, HasherKind::Crc32c);
        println!(
            "  d = {d:>4} ({label:<10}) δ = {:>8.1e}  {:>6.1} ns/element",
            cfg.failure_bound(),
            measure_ns_per_elem(cfg, &pairs, reps),
        );
    }

    println!("\nAblation 3: hash family at 5×16 m5\n");
    for hasher in [HasherKind::Crc32c, HasherKind::Tab32, HasherKind::Tab64] {
        let cfg = SumCheckConfig::new(5, 16, 5, hasher);
        println!(
            "  {:<6} {:>6.1} ns/element",
            hasher.label(),
            measure_ns_per_elem(cfg, &pairs, reps),
        );
    }
    println!(
        "\nReading: fewer iterations × more buckets wins on local work at equal \
         table size, at the cost of a weaker δ than the numeric optimum — the \
         §4 trade-off, quantified."
    );
}
