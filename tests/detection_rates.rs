//! Statistical validation of the theoretical failure bounds — a
//! miniature of the Fig. 3 / Fig. 5 experiments with assertion-grade
//! tolerances: the measured false-accept rate must stay below δ with
//! Chernoff slack, and weak configurations must show the *predicted*
//! non-trivial failure rates (confirming the bounds are tight, not just
//! satisfied vacuously).
//!
//! Every trial runs through the distributed check the service runs, on
//! a two-PE world with the input and the output split across the PEs,
//! so the δ guarantee is measured on that path.

use ccheck::config::SumCheckConfig;
use ccheck::permutation::PermCheckConfig;
use ccheck::{PermChecker, SumChecker};
use ccheck_hashing::HasherKind;
use ccheck_manip::{PermManipulator, SumManipulator};
use ccheck_net::{run, Comm};
use ccheck_workloads::{local_range, uniform_ints, zipf_valued_pairs};
use std::collections::HashMap;

/// Run `trials` once on a two-PE world and return its result, which
/// every PE must agree on.
fn on_two_pes<R: Send + PartialEq + std::fmt::Debug>(trials: impl Fn(&mut Comm) -> R + Sync) -> R {
    let mut results = run(2, trials);
    assert_eq!(results[0], results[1], "PEs disagree");
    results.swap_remove(0)
}

/// This PE's contiguous block of `v` (the input distribution).
fn block<'a, T>(v: &'a [T], comm: &Comm) -> &'a [T] {
    &v[local_range(v.len(), comm.rank(), comm.size())]
}

/// This PE's round-robin share of `v` (the output distribution).
fn strided<'a, T: Copy>(v: &'a [T], comm: &Comm) -> impl Iterator<Item = T> + 'a {
    let (rank, p) = (comm.rank(), comm.size());
    v.iter().copied().skip(rank).step_by(p)
}

/// Sum-check this PE's shares of `input` and `asserted`.
fn sum_accepts(
    comm: &mut Comm,
    checker: &SumChecker,
    input: &[(u64, u64)],
    asserted: &[(u64, u64)],
) -> bool {
    let shard = strided(asserted, comm);
    checker.check_distributed_stream(comm, block(input, comm).iter().copied(), shard)
}

/// Permutation-check this PE's shares of `input` and `output`.
fn perm_accepts(comm: &mut Comm, checker: &PermChecker, input: &[u64], output: &[u64]) -> bool {
    let shard = strided(output, comm);
    checker.check_stream(comm, block(input, comm).iter().copied(), shard)
}

fn aggregate(input: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut m: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in input {
        *m.entry(k).or_insert(0) = m.get(&k).copied().unwrap_or(0).wrapping_add(v);
    }
    let mut out: Vec<(u64, u64)> = m.into_iter().collect();
    out.sort_unstable();
    out
}

/// Measured false-accept rate of `cfg` under `manip` over `trials`
/// effective manipulations.
fn sum_false_accept_rate(cfg: SumCheckConfig, manip: SumManipulator, trials: u64) -> f64 {
    let input = zipf_valued_pairs(1, 50_000, 1 << 32, 0..5_000);
    let correct = aggregate(&input);
    let failures = on_two_pes(|comm| {
        let mut failures = 0u64;
        let mut effective = 0u64;
        let mut seed = 0u64;
        while effective < trials {
            let mut bad = input.clone();
            let s = seed;
            seed += 1;
            assert!(seed < 100 * trials, "manipulator starved");
            if !manip.apply(&mut bad, s) {
                continue;
            }
            effective += 1;
            if sum_accepts(comm, &SumChecker::new(cfg, s ^ 0xD157), &bad, &correct) {
                failures += 1;
            }
        }
        failures
    });
    failures as f64 / trials as f64
}

#[test]
fn sum_checker_meets_delta_bounds() {
    // (config, trials): weak configs with measurable δ.
    let cases = [
        (SumCheckConfig::new(1, 2, 31, HasherKind::Tab32), 400u64), // δ = 0.5
        (SumCheckConfig::new(1, 4, 31, HasherKind::Tab32), 400),    // δ = 0.25
        (SumCheckConfig::new(4, 4, 3, HasherKind::Tab32), 600),     // δ ≈ 0.02
    ];
    for (cfg, trials) in cases {
        let delta = cfg.failure_bound();
        for manip in [SumManipulator::RandKey, SumManipulator::SwitchValues] {
            let rate = sum_false_accept_rate(cfg, manip, trials);
            // Chernoff-ish slack: allow 1.6·δ + 4·sqrt(δ/trials).
            let bound = 1.6 * delta + 4.0 * (delta / trials as f64).sqrt();
            assert!(
                rate <= bound,
                "{} under {:?}: rate {rate} > bound {bound} (δ={delta})",
                cfg.label(),
                manip
            );
        }
    }
}

#[test]
fn weak_sum_config_failure_rate_is_nontrivial() {
    // d=2, huge r̂: a random key reassignment escapes iff both keys land
    // in the same bucket — probability ≈ 1/2. The bound must be *tight*.
    let cfg = SumCheckConfig::new(1, 2, 31, HasherKind::Tab32);
    let rate = sum_false_accept_rate(cfg, SumManipulator::RandKey, 400);
    assert!(
        (0.35..=0.62).contains(&rate),
        "rate {rate} should be ≈ 0.5 for d=2"
    );
}

#[test]
fn perm_checker_meets_delta_bounds() {
    let input = uniform_ints(2, 100_000_000, 0..5_000);
    for log_h in [1u32, 2, 4] {
        let delta = (0.5f64).powi(log_h as i32);
        let trials = 400u64;
        for manip in [PermManipulator::Randomize, PermManipulator::Reset] {
            let failures = on_two_pes(|comm| {
                let mut failures = 0u64;
                let mut effective = 0u64;
                let mut seed = 0u64;
                while effective < trials {
                    let mut bad = input.clone();
                    let s = seed;
                    seed += 1;
                    if !manip.apply(&mut bad, s) {
                        continue;
                    }
                    effective += 1;
                    let cfg = PermCheckConfig::hash_sum(HasherKind::Tab32, log_h);
                    if perm_accepts(comm, &PermChecker::new(cfg, s ^ 0x9E37), &input, &bad) {
                        failures += 1;
                    }
                }
                failures
            });
            let rate = failures as f64 / trials as f64;
            let bound = 1.6 * delta + 4.0 * (delta / trials as f64).sqrt();
            assert!(
                rate <= bound,
                "Tab{log_h} under {manip:?}: rate {rate} > {bound}"
            );
        }
    }
}

#[test]
fn perm_iterations_square_the_failure_probability() {
    // One hash bit (δ=1/2) vs four independent bits (δ=1/16): the
    // measured ratio must drop by roughly 8×.
    let input = uniform_ints(3, 1 << 30, 0..2_000);
    let measure = |iterations: usize, trials: u64| -> f64 {
        let cfg = PermCheckConfig {
            method: ccheck::PermMethod::HashSum {
                hasher: HasherKind::Tab32,
                log_h: 1,
            },
            iterations,
        };
        let failures = on_two_pes(|comm| {
            let mut failures = 0;
            for s in 0..trials {
                let mut bad = input.clone();
                if !PermManipulator::Randomize.apply(&mut bad, s) {
                    continue;
                }
                if perm_accepts(comm, &PermChecker::new(cfg, s), &input, &bad) {
                    failures += 1;
                }
            }
            failures
        });
        failures as f64 / trials as f64
    };
    let single = measure(1, 600);
    let quad = measure(4, 600);
    assert!(single > 0.35, "single-bit rate {single} ≉ 0.5");
    assert!(quad < 0.18, "4-iteration rate {quad} should be ≈ 1/16");
}

#[test]
fn one_sidedness_over_many_seeds() {
    // The defining property: correct results are never rejected.
    let input = zipf_valued_pairs(4, 10_000, 1 << 32, 0..3_000);
    let correct = aggregate(&input);
    let rejected = on_two_pes(|comm| {
        let cfg = SumCheckConfig::new(2, 4, 4, HasherKind::Crc32c);
        (0..300u64)
            .filter(|&seed| !sum_accepts(comm, &SumChecker::new(cfg, seed), &input, &correct))
            .collect::<Vec<_>>()
    });
    assert!(
        rejected.is_empty(),
        "correct result rejected at seeds {rejected:?}"
    );
}
