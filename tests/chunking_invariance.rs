//! Chunking invariance of the sketch-backed checkers: for **any**
//! random partition of the input into chunks, folding the chunks
//! through fresh sketches and merging produces (a) the same digest and
//! (b) the same accept/reject verdict as the one-shot digest comparison
//! — and the distributed check fed pre-merged chunk sketches
//! reproduces the one-shot fold's verdict *and its exact communication
//! volume* on both transports ([`ccheck_net::testing::run_both`] asserts
//! local ≡ TCP byte-for-byte on every run below).

use ccheck::config::SumCheckConfig;
use ccheck::permutation::PermCheckConfig;
use ccheck::sketch::{check_stream, digest_chunked, Sketch};
use ccheck::{PermChecker, SumChecker, XorCheckConfig, XorChecker, ZipCheckConfig, ZipChecker};
use ccheck_hashing::HasherKind;
use ccheck_net::testing::run_both_with_stats;
use proptest::prelude::*;

/// Split `data` into chunks whose lengths cycle through `sizes` — an
/// arbitrary (proptest-chosen) partition of the input.
fn partition<'a, T>(data: &'a [T], sizes: &'a [usize]) -> Vec<&'a [T]> {
    assert!(sizes.iter().all(|&s| s > 0));
    let mut chunks = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while start < data.len() {
        let len = sizes[i % sizes.len()].min(data.len() - start);
        chunks.push(&data[start..start + len]);
        start += len;
        i += 1;
    }
    chunks
}

/// Fold a partition through per-chunk sketches and merge them.
fn fold_partition<S, T: Copy>(make: impl Fn() -> S, chunks: &[&[T]]) -> S
where
    S: Sketch<Item = T>,
{
    let mut acc = make();
    for chunk in chunks {
        let mut sk = make();
        sk.update_iter(chunk.iter().copied());
        acc.merge(sk);
    }
    acc
}

/// Round-robin shard of `data` for PE `rank` of `p` (arbitrary split of
/// a distributed multiset).
fn shard<T: Copy>(data: &[T], rank: usize, p: usize) -> Vec<T> {
    data.iter().copied().skip(rank).step_by(p).collect()
}

proptest! {
    // run_both spawns real TCP loopback worlds per case; keep the case
    // count in the same budget as the other cross-crate properties.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SumChecker: digest and verdict are chunking-invariant, and the
    /// streaming distributed path moves exactly the bytes of the slice
    /// path on both transports.
    #[test]
    fn sum_checker_chunking_invariant(
        pairs in prop::collection::vec((0u64..500, 0u64..1_000_000), 1..200),
        sizes in prop::collection::vec(1usize..40, 1..6),
        seed: u64,
        corrupt: bool,
    ) {
        let checker = SumChecker::new(
            SumCheckConfig::new(4, 8, 5, HasherKind::Tab64), seed);
        // Digest invariance for the raw partition.
        let chunks = partition(&pairs, &sizes);
        let merged = fold_partition(|| checker.sketch(), &chunks).finalize();
        let mut one_shot = checker.sketch();
        one_shot.update_iter(pairs.iter().copied());
        prop_assert_eq!(&merged, &one_shot.finalize());

        // Verdict invariance vs the one-shot digest comparison.
        let mut asserted: Vec<(u64, u64)> = {
            let mut m = std::collections::HashMap::new();
            for &(k, v) in &pairs {
                *m.entry(k).or_insert(0u64) = m.get(&k).copied().unwrap_or(0).wrapping_add(v);
            }
            let mut out: Vec<(u64, u64)> = m.into_iter().collect();
            out.sort_unstable();
            out
        };
        if corrupt {
            asserted[0].1 = asserted[0].1.wrapping_add(1);
        }
        let digest = |side: &[(u64, u64)], chunk| {
            digest_chunked(|| checker.sketch(), side.iter().copied(), chunk)
        };
        let one_shot_verdict = digest(&pairs, usize::MAX) == digest(&asserted, usize::MAX);
        for &chunk in &[1usize, sizes[0]] {
            let chunked_verdict = digest(&pairs, chunk) == digest(&asserted, chunk);
            prop_assert_eq!(chunked_verdict, one_shot_verdict);
        }

        // Distributed: pre-merged chunk sketches vs the one-shot fold,
        // both transports, same bytes.
        let cfg = SumCheckConfig::new(4, 8, 5, HasherKind::Tab64);
        let run_variant = |chunked: bool| {
            let pairs = pairs.clone();
            let asserted = asserted.clone();
            let sizes = sizes.clone();
            run_both_with_stats(2, move |comm| {
                let input = shard(&pairs, comm.rank(), 2);
                let out = if comm.rank() == 0 { asserted.clone() } else { Vec::new() };
                let checker = SumChecker::new(cfg, seed);
                if chunked {
                    let chunks = partition(&input, &sizes);
                    let folded = fold_partition(|| checker.sketch(), &chunks);
                    check_stream(comm, folded, checker.sketch(), [], out.iter().copied())
                } else {
                    checker.check_distributed(comm, &input, &out)
                }
            })
        };
        let (one_shot_verdicts, one_shot_stats) = run_variant(false);
        let (chunked_verdicts, chunked_stats) = run_variant(true);
        prop_assert_eq!(&one_shot_verdicts, &chunked_verdicts);
        prop_assert!(one_shot_verdicts.iter().all(|&v| v == one_shot_verdict));
        prop_assert_eq!(one_shot_stats.per_pe(), chunked_stats.per_pe());
    }

    /// XorChecker: same contract.
    #[test]
    fn xor_checker_chunking_invariant(
        pairs in prop::collection::vec((0u64..500, 0u64..u64::MAX), 1..200),
        sizes in prop::collection::vec(1usize..40, 1..6),
        seed: u64,
        corrupt: bool,
    ) {
        let checker = XorChecker::new(XorCheckConfig::new(4, 16, HasherKind::Tab64), seed);
        let chunks = partition(&pairs, &sizes);
        let merged = fold_partition(|| checker.sketch(), &chunks).finalize();
        let mut one_shot = checker.sketch();
        one_shot.update_iter(pairs.iter().copied());
        prop_assert_eq!(&merged, &one_shot.finalize());

        let mut asserted: Vec<(u64, u64)> = {
            let mut m = std::collections::HashMap::new();
            for &(k, v) in &pairs {
                *m.entry(k).or_insert(0u64) ^= v;
            }
            let mut out: Vec<(u64, u64)> = m.into_iter().collect();
            out.sort_unstable();
            out
        };
        if corrupt {
            asserted[0].1 ^= 0x100;
        }
        let digest = |side: &[(u64, u64)], chunk| {
            digest_chunked(|| checker.sketch(), side.iter().copied(), chunk)
        };
        let one_shot_verdict = digest(&pairs, usize::MAX) == digest(&asserted, usize::MAX);
        let chunked_verdict = digest(&pairs, sizes[0]) == digest(&asserted, sizes[0]);
        prop_assert_eq!(chunked_verdict, one_shot_verdict);

        let run_variant = |chunked: bool| {
            let pairs = pairs.clone();
            let asserted = asserted.clone();
            let sizes = sizes.clone();
            run_both_with_stats(2, move |comm| {
                let input = shard(&pairs, comm.rank(), 2);
                let out = if comm.rank() == 0 { asserted.clone() } else { Vec::new() };
                let checker = XorChecker::new(
                    XorCheckConfig::new(4, 16, HasherKind::Tab64), seed);
                let folded = if chunked {
                    fold_partition(|| checker.sketch(), &partition(&input, &sizes))
                } else {
                    let mut sketch = checker.sketch();
                    sketch.update_iter(input.iter().copied());
                    sketch
                };
                check_stream(comm, folded, checker.sketch(), [], out.iter().copied())
            })
        };
        let (one_shot_verdicts, one_shot_stats) = run_variant(false);
        let (chunked_verdicts, chunked_stats) = run_variant(true);
        prop_assert_eq!(&one_shot_verdicts, &chunked_verdicts);
        prop_assert!(one_shot_verdicts.iter().all(|&v| v == one_shot_verdict));
        prop_assert_eq!(one_shot_stats.per_pe(), chunked_stats.per_pe());
    }

    /// PermChecker (all three fingerprint methods): same contract.
    #[test]
    fn perm_checker_chunking_invariant(
        data in prop::collection::vec(0u64..1_000_000, 1..200),
        sizes in prop::collection::vec(1usize..40, 1..6),
        seed: u64,
        corrupt: bool,
    ) {
        use ccheck::permutation::PermMethod;
        let mut output: Vec<u64> = data.iter().rev().copied().collect();
        if corrupt {
            output[0] ^= 0x40;
        }
        for method in [
            PermMethod::HashSum { hasher: HasherKind::Tab64, log_h: 32 },
            PermMethod::PolyField,
            PermMethod::PolyGf64,
        ] {
            let cfg = PermCheckConfig { method, iterations: 2 };
            let checker = PermChecker::new(cfg, seed);
            let chunks = partition(&data, &sizes);
            let merged = fold_partition(|| checker.sketch(), &chunks).finalize();
            let mut one_shot = checker.sketch();
            one_shot.update_iter(data.iter().copied());
            prop_assert_eq!(&merged, &one_shot.finalize());

            let digest = |side: &[u64], chunk| {
                digest_chunked(|| checker.sketch(), side.iter().copied(), chunk)
            };
            let one_shot_verdict = digest(&data, usize::MAX) == digest(&output, usize::MAX);
            let chunked_verdict = digest(&data, sizes[0]) == digest(&output, sizes[0]);
            prop_assert_eq!(chunked_verdict, one_shot_verdict);

            let run_variant = |chunked: bool| {
                let data = data.clone();
                let output = output.clone();
                let sizes = sizes.clone();
                run_both_with_stats(2, move |comm| {
                    let input = shard(&data, comm.rank(), 2);
                    let out = shard(&output, comm.rank(), 2);
                    let checker = PermChecker::new(cfg, seed);
                    if chunked {
                        let chunks = partition(&input, &sizes);
                        let folded = fold_partition(|| checker.sketch(), &chunks);
                        check_stream(comm, folded, checker.sketch(), [], out.iter().copied())
                    } else {
                        checker.check_stream(comm, input.iter().copied(), out.iter().copied())
                    }
                })
            };
            let (one_shot_verdicts, one_shot_stats) = run_variant(false);
            let (chunked_verdicts, chunked_stats) = run_variant(true);
            prop_assert_eq!(&one_shot_verdicts, &chunked_verdicts);
            prop_assert!(one_shot_verdicts.iter().all(|&v| v == one_shot_verdict));
            prop_assert_eq!(one_shot_stats.per_pe(), chunked_stats.per_pe());
        }
    }

    /// ZipChecker: adjacent-chunk folds merge to the one-shot digest, and
    /// the distributed check gives the same verdict and volume whether
    /// the sequences are split evenly, unevenly or all on one PE.
    #[test]
    fn zip_checker_chunking_invariant(
        s1 in prop::collection::vec(0u64..1_000_000, 1..150),
        sizes in prop::collection::vec(1usize..40, 1..6),
        seed: u64,
        corrupt: bool,
    ) {
        let s2: Vec<u64> = s1.iter().map(|&x| x ^ 0xABCD).collect();
        let mut zipped: Vec<(u64, u64)> =
            s1.iter().copied().zip(s2.iter().copied()).collect();
        if corrupt {
            zipped[0].1 ^= 1;
        }
        let checker = ZipChecker::new(ZipCheckConfig::default(), seed);

        // Digest invariance over adjacent chunks.
        let mut one_shot = checker.sketch(0, 0);
        one_shot.update_iter(s1.iter().copied());
        let mut acc = checker.sketch(0, 0);
        for chunk in partition(&s1, &sizes) {
            let mut sk = checker.sketch(0, acc.next_index());
            sk.update_iter(chunk.iter().copied());
            acc.merge(sk);
        }
        prop_assert_eq!(&acc.finalize(), &one_shot.finalize());

        // Distributed: contiguous shares (zip is position-sensitive).
        let run_variant = |skewed: bool| {
            let s1 = s1.clone();
            let s2 = s2.clone();
            let zipped = zipped.clone();
            run_both_with_stats(2, move |comm| {
                let (mid1, mid2, midz) = if skewed {
                    (s1.len(), s2.len(), zipped.len()) // all on PE 0
                } else {
                    // Deliberately different splits per sequence.
                    (s1.len() / 2, s2.len() / 3, 2 * zipped.len() / 3)
                };
                let (a, b, z) = if comm.rank() == 0 {
                    (&s1[..mid1], &s2[..mid2], &zipped[..midz])
                } else {
                    (&s1[mid1..], &s2[mid2..], &zipped[midz..])
                };
                let checker = ZipChecker::new(ZipCheckConfig::default(), seed);
                checker.check_stream(
                    comm,
                    (a.len() as u64, a.iter().copied()),
                    (b.len() as u64, b.iter().copied()),
                    (z.len() as u64, z.iter().copied()),
                )
            })
        };
        let (split_verdicts, split_stats) = run_variant(false);
        let (skewed_verdicts, skewed_stats) = run_variant(true);
        prop_assert_eq!(&split_verdicts, &skewed_verdicts);
        prop_assert!(split_verdicts.iter().all(|&v| v != corrupt));
        prop_assert_eq!(split_stats.per_pe(), skewed_stats.per_pe());
    }
}
