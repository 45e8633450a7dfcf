//! Sort checking (§5, Theorem 7) and the derived Merge checker
//! (§6.5.2, Corollary 13).
//!
//! A sequence is a sorted version of another iff it is (a) a permutation
//! of it, (b) locally sorted on every PE, and (c) ordered across PE
//! boundaries. The permutation part is probabilistic (Theorem 6); parts
//! (b) and (c) are deterministic.

use std::borrow::Borrow;

use ccheck_net::Comm;

use crate::permutation::PermChecker;

/// Deterministic cross-PE boundary check: every PE's maximum must not
/// exceed any later PE's minimum.
///
/// The paper exchanges boundaries with direct neighbors (O(1) volume);
/// we gather the per-PE `(min, max)` summaries instead (O(p) volume,
/// still independent of n) because it handles empty PEs without a chain
/// of forwarding rounds. Every PE returns the same verdict.
pub fn check_boundaries(comm: &mut Comm, data: &[u64]) -> bool {
    boundaries_agree(comm, data.first().copied().zip(data.last().copied()))
}

/// [`check_boundaries`] over this PE's `(first, last)` summary (`None`
/// for an empty share).
fn boundaries_agree(comm: &mut Comm, summary: Option<(u64, u64)>) -> bool {
    let all: Vec<Option<(u64, u64)>> = comm.allgather(summary);
    let mut prev_max: Option<u64> = None;
    for (min, max) in all.into_iter().flatten() {
        if let Some(pm) = prev_max {
            if min < pm {
                return false;
            }
        }
        prev_max = Some(max);
    }
    true
}

/// Distributed sort check (Theorem 7): `output` must be a globally
/// sorted permutation of `input`. Both sides are streamed once (slices,
/// `Vec`s and lazy iterators alike); every PE returns the same verdict.
///
/// One-sided error: correct results are always accepted; an unsorted or
/// non-permutation output is accepted with probability at most the
/// permutation checker's failure bound.
pub fn check_sorted<I, O>(comm: &mut Comm, input: I, output: O, perm: &PermChecker) -> bool
where
    I: IntoIterator,
    I::Item: Borrow<u64>,
    O: IntoIterator,
    O::Item: Borrow<u64>,
{
    // One pass over the output feeds the fingerprint and tracks local
    // order and this PE's (first, last) boundary summary.
    let mut span: Option<(u64, u64)> = None;
    let mut local_ok = true;
    let output = output.into_iter().map(|x| {
        let x = *x.borrow();
        match &mut span {
            None => span = Some((x, x)),
            Some((_, last)) => {
                local_ok &= *last <= x;
                *last = x;
            }
        }
        x
    });
    let input = input.into_iter().map(|x| *x.borrow());
    let is_perm = perm.check_stream(comm, input, output);
    let boundaries_ok = boundaries_agree(comm, span);
    comm.all_agree(local_ok) && boundaries_ok && is_perm
}

/// Merge checker (Corollary 13): `output` must be a globally sorted
/// permutation of the concatenation of `s1` and `s2`.
pub fn check_merge(
    comm: &mut Comm,
    s1: &[u64],
    s2: &[u64],
    output: &[u64],
    perm: &PermChecker,
) -> bool {
    check_sorted(comm, s1.iter().chain(s2), output, perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::PermCheckConfig;
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;

    fn perm_cfg() -> PermCheckConfig {
        PermCheckConfig::hash_sum(HasherKind::Tab64, 32)
    }

    #[test]
    fn accepts_correctly_sorted() {
        let verdicts = run(4, |comm| {
            let rank = comm.rank() as u64;
            // Input: interleaved; output: contiguous sorted blocks.
            let input: Vec<u64> = (0..250u64).map(|i| i * 4 + rank).collect();
            let output: Vec<u64> = (rank * 250..(rank + 1) * 250).collect();
            let perm = PermChecker::new(perm_cfg(), 7);
            check_sorted(comm, &input, &output, &perm)
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn rejects_locally_unsorted() {
        let verdicts = run(2, |comm| {
            let rank = comm.rank() as u64;
            let input: Vec<u64> = (rank * 100..(rank + 1) * 100).collect();
            let mut output = input.clone();
            if rank == 1 {
                output.swap(10, 20);
            }
            let perm = PermChecker::new(perm_cfg(), 7);
            check_sorted(comm, &input, &output, &perm)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_boundary_violation() {
        let verdicts = run(2, |comm| {
            let rank = comm.rank() as u64;
            // Each PE locally sorted, but PE 0 holds larger values.
            let input: Vec<u64> = (rank * 100..(rank + 1) * 100).collect();
            let output: Vec<u64> = ((1 - rank) * 100..(2 - rank) * 100).collect();
            let perm = PermChecker::new(perm_cfg(), 7);
            check_sorted(comm, &input, &output, &perm)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_sorted_but_not_permutation() {
        let verdicts = run(2, |comm| {
            let rank = comm.rank() as u64;
            let input: Vec<u64> = (rank * 100..(rank + 1) * 100).collect();
            // Sorted output with one value replaced.
            let mut output = input.clone();
            if rank == 0 {
                output[50] = 51; // duplicate instead of 50 — still sorted
            }
            let perm = PermChecker::new(perm_cfg(), 7);
            check_sorted(comm, &input, &output, &perm)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn accepts_with_empty_pes() {
        let verdicts = run(4, |comm| {
            let rank = comm.rank() as u64;
            let input: Vec<u64> = if rank == 0 {
                (0..100).collect()
            } else {
                vec![]
            };
            // All data ends up on PE 3 after "sorting".
            let output: Vec<u64> = if rank == 3 {
                (0..100).collect()
            } else {
                vec![]
            };
            let perm = PermChecker::new(perm_cfg(), 7);
            check_sorted(comm, &input, &output, &perm)
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn boundary_check_with_interleaved_empties() {
        let verdicts = run(5, |comm| {
            let rank = comm.rank();
            // PEs 1 and 3 empty; 0 < 2 < 4 ranges ascending → OK.
            let data: Vec<u64> = match rank {
                0 => (0..10).collect(),
                2 => (10..20).collect(),
                4 => (20..30).collect(),
                _ => vec![],
            };
            check_boundaries(comm, &data)
        });
        assert!(verdicts.iter().all(|&v| v));

        let verdicts = run(5, |comm| {
            let rank = comm.rank();
            // Violation between PE 0 and PE 4 with empties in between.
            let data: Vec<u64> = match rank {
                0 => (100..110).collect(),
                4 => (0..10).collect(),
                _ => vec![],
            };
            check_boundaries(comm, &data)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn boundary_equal_values_allowed() {
        let verdicts = run(3, |comm| {
            // All PEs hold the same value — ties across boundaries are
            // legal in a sorted sequence.
            check_boundaries(comm, &[7u64, 7, 7])
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn merge_checker_accepts_and_rejects() {
        for corrupt in [false, true] {
            let verdicts = run(2, |comm| {
                let rank = comm.rank() as u64;
                // s1 = evens, s2 = odds, both globally sorted.
                let s1: Vec<u64> = (0..100u64).map(|i| 2 * (rank * 100 + i)).collect();
                let s2: Vec<u64> = (0..100u64).map(|i| 2 * (rank * 100 + i) + 1).collect();
                // Correct merge: contiguous ranges.
                let mut output: Vec<u64> = (rank * 200..(rank + 1) * 200).collect();
                if corrupt && rank == 1 {
                    output[5] += 1; // breaks the permutation property
                }
                let perm = PermChecker::new(perm_cfg(), 3);
                check_merge(comm, &s1, &s2, &output, &perm)
            });
            assert!(verdicts.iter().all(|&v| v != corrupt), "corrupt={corrupt}");
        }
    }
}
