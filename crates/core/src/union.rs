//! Union checking (§6.5.1, Corollary 12): `S` is the multiset union of
//! `S₁` and `S₂` iff `S` is a permutation of their concatenation — a
//! direct application of the permutation checker iterating over two
//! input sets.

use ccheck_net::Comm;

use crate::permutation::PermChecker;

/// Check `output = S₁ ⊎ S₂` (multiset union). All three sequences are
/// distributed arbitrarily; every PE returns the same verdict.
pub fn check_union(
    comm: &mut Comm,
    s1: &[u64],
    s2: &[u64],
    output: &[u64],
    perm: &PermChecker,
) -> bool {
    perm.check_stream(comm, s1.iter().chain(s2).copied(), output.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::PermCheckConfig;
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;

    fn checker() -> PermChecker {
        PermChecker::new(PermCheckConfig::hash_sum(HasherKind::Tab64, 32), 21)
    }

    #[test]
    fn accepts_correct_union() {
        let verdicts = run(3, |comm| {
            let rank = comm.rank() as u64;
            let s1: Vec<u64> = (0..40).map(|i| rank * 40 + i).collect();
            let s2: Vec<u64> = (0..20).map(|i| 500 + rank * 20 + i).collect();
            // Union redistributed arbitrarily: rank r takes every 3rd.
            let output: Vec<u64> = (0..120u64)
                .chain(500..560)
                .filter(|x| x % 3 == rank)
                .collect();
            check_union(comm, &s1, &s2, &output, &checker())
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn rejects_dropped_element() {
        let verdicts = run(2, |comm| {
            let rank = comm.rank() as u64;
            let s1: Vec<u64> = (0..40).map(|i| rank * 40 + i).collect();
            let s2: Vec<u64> = (0..20).map(|i| 500 + rank * 20 + i).collect();
            let mut output: Vec<u64> = if rank == 0 {
                (0..80u64).chain(500..540).collect()
            } else {
                Vec::new()
            };
            if rank == 0 {
                output.pop(); // lose one element
            }
            check_union(comm, &s1, &s2, &output, &checker())
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_element_moved_between_multiplicities() {
        let verdicts = run(1, |comm| {
            // s1 = {1,1,2}, s2 = {3}; output {1,2,2,3} — same length,
            // multiplicities shifted.
            check_union(comm, &[1, 1, 2], &[3], &[1, 2, 2, 3], &checker())
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn union_with_empty_side() {
        let verdicts = run(2, |comm| {
            let rank = comm.rank() as u64;
            let s1: Vec<u64> = (0..10).map(|i| rank * 10 + i).collect();
            let output: Vec<u64> = (0..20u64).filter(|x| x % 2 == rank).collect();
            check_union(comm, &s1, &[], &output, &checker())
        });
        assert!(verdicts.iter().all(|&v| v));
    }
}
