//! The sum-aggregation checker (§4 of the paper: Algorithm 1, Theorem 1,
//! Lemmata 2–3).
//!
//! To check `SELECT key, SUM(value) GROUP BY key`, the checker applies a
//! naïve sum reduction to a *condensed* version of both the operation's
//! input and its asserted output: a random hash function maps the
//! unbounded key space onto `d` buckets, and per-bucket sums are kept in
//! the residue ring ℤ/rℤ for a random modulus `r ∈ (r̂, 2r̂]`. If the
//! aggregation was correct, both condensed tables agree for *every* hash
//! function and modulus; if it was wrong, they disagree with probability
//! at least `1 − (1/r̂ + 1/d)` per iteration (Lemma 2).
//!
//! Engineering details from §7.1, reproduced here:
//!
//! * all iterations share **one** hash evaluation whose bits are
//!   partitioned into per-iteration bucket indices
//!   ([`ccheck_hashing::PartitionedHash`]),
//! * bucket accumulators are 64-bit and added **without** modulo; the
//!   expensive reduction runs only when an addition would overflow
//!   (detected via `overflowing_add`),
//! * the input-side and output-side tables of all iterations travel in a
//!   **single** reduction message, so the whole check costs one tree
//!   reduction plus one broadcast: `O((n/p + β·d·w·its) + α·log p)`.

use ccheck_hashing::field::addmod;
use ccheck_hashing::{Mt19937_64, PartitionedHash};
use ccheck_net::Comm;

use crate::config::SumCheckConfig;
use crate::sketch::{agree_tables, check_stream, Collective, Sketch};

/// How bucket indices are derived from the partitioned hash value.
#[derive(Debug, Clone, Copy)]
enum BucketMap {
    /// `d` is a power of two: mask the low bits — zero bias.
    Pow2 { mask: u64 },
    /// General `d`: fast-range map `(v · d) >> bits` over a wider group;
    /// bias ≤ d/2^bits (kept ≤ 2^−12 by construction).
    FastRange { d: u64, bits: u32 },
}

impl BucketMap {
    #[inline]
    fn map(&self, v: u64) -> usize {
        match *self {
            BucketMap::Pow2 { mask } => (v & mask) as usize,
            BucketMap::FastRange { d, bits } => ((v * d) >> bits) as usize,
        }
    }
}

/// A configured instance of the sum-aggregation checker.
///
/// Construction fixes the random hash function and the per-iteration
/// moduli from `seed`; in an SPMD run every PE must construct the checker
/// with the same `(config, seed)` so their condensed tables are
/// compatible.
#[derive(Debug, Clone)]
pub struct SumChecker {
    cfg: SumCheckConfig,
    hash: PartitionedHash,
    /// Modulus of each iteration, drawn uniformly from `(r̂, 2r̂]`.
    moduli: Vec<u64>,
    bucket_map: BucketMap,
}

impl SumChecker {
    /// Instantiate from a configuration and a shared seed.
    pub fn new(cfg: SumCheckConfig, seed: u64) -> Self {
        let d = cfg.buckets as u64;
        let needed_bits = 64 - (d - 1).leading_zeros(); // ⌈log₂ d⌉
        let width = cfg.hasher.output_bits();
        let (bits, bucket_map) = if d.is_power_of_two() {
            (needed_bits.max(1), BucketMap::Pow2 { mask: d - 1 })
        } else {
            // Widen the group so the fast-range bias stays ≤ 2^−12.
            let bits = (needed_bits + 12).min(width);
            (bits, BucketMap::FastRange { d, bits })
        };
        let hash = PartitionedHash::new(cfg.hasher, seed, cfg.iterations, bits);
        // Moduli from an MT19937-64 stream over the same seed (domain-
        // separated) — identical on every PE.
        let mut rng = Mt19937_64::new(seed ^ 0x6D6F_6475_6C75_7321);
        let rhat = cfg.rhat();
        let moduli = (0..cfg.iterations)
            .map(|_| rhat + 1 + rng.next() % rhat)
            .collect();
        Self {
            cfg,
            hash,
            moduli,
            bucket_map,
        }
    }

    /// The configuration this checker was built with.
    pub fn config(&self) -> &SumCheckConfig {
        &self.cfg
    }

    /// The per-iteration moduli (each in `(r̂, 2r̂]`).
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Length of one condensed table: `iterations · buckets` u64 slots.
    pub fn table_len(&self) -> usize {
        self.cfg.iterations * self.cfg.buckets
    }

    /// Add one already-reduced residue (`< r_i`) into a bucket with lazy
    /// overflow handling (§7.1's jump-on-overflow trick).
    #[inline]
    fn bucket_add(slot: &mut u64, add: u64, r: u64) {
        let (sum, overflow) = slot.overflowing_add(add);
        *slot = if overflow {
            // Rare path: reduce both operands, then add in ℤ/rℤ.
            addmod(*slot % r, add % r, r)
        } else {
            sum
        };
    }

    /// The shared bucket loop of every sketch update (the one place the
    /// `cRed` inner loop of Algorithm 1 lives): hash `key` once, then add
    /// a per-iteration residue into each iteration's bucket. `residue_for`
    /// maps the iteration's modulus to the value to add — the identity
    /// for unsigned values, the positive-residue embedding for signed
    /// ones.
    #[inline]
    fn fold_into(
        &self,
        table: &mut [u64],
        idx_scratch: &mut [u64],
        key: u64,
        residue_for: impl Fn(u64) -> u64,
    ) {
        self.hash.hash_all(key, idx_scratch);
        // Iterate per-iteration table segments in lockstep with the
        // hash groups and moduli: one bounds check per segment.
        for ((segment, &hv), &r) in table
            .chunks_exact_mut(self.cfg.buckets)
            .zip(idx_scratch.iter())
            .zip(&self.moduli)
        {
            Self::bucket_add(&mut segment[self.bucket_map.map(hv)], residue_for(r), r);
        }
    }

    /// The positive residue (`< r`) representing signed `value` in ℤ/rℤ.
    #[inline]
    fn signed_residue(value: i64, r: u64) -> u64 {
        if value >= 0 {
            value as u64
        } else {
            let neg = (value.unsigned_abs()) % r;
            if neg == 0 {
                0
            } else {
                r - neg
            }
        }
    }

    /// A fresh, empty streaming sketch for this checker (see
    /// [`crate::sketch::Sketch`]). Feed items with `update`, combine
    /// partial sketches with `merge`; the finalized digest is identical
    /// for every chunking of the same multiset.
    pub fn sketch(&self) -> SumSketch<'_> {
        SumSketch {
            checker: self,
            table: vec![0u64; self.table_len()],
            idx_scratch: vec![0u64; self.cfg.iterations],
        }
    }

    /// Distributed check of a sum aggregation (Algorithm 1).
    ///
    /// `input` is this PE's share of the operation's input; `asserted` is
    /// this PE's share of the asserted output (any distribution, but the
    /// shards must be **disjoint**: each key's aggregate appears exactly
    /// once globally — a replicated output would be double-counted; use
    /// an empty shard on all but one PE for replicated results). Both
    /// condensed tables travel in one tree reduction; the verdict is
    /// broadcast so **every** PE returns the same boolean.
    ///
    /// One-sided error: a correct result is always accepted; an incorrect
    /// one is (erroneously) accepted with probability at most
    /// [`SumCheckConfig::failure_bound`].
    pub fn check_distributed(
        &self,
        comm: &mut Comm,
        input: &[(u64, u64)],
        asserted: &[(u64, u64)],
    ) -> bool {
        self.check_distributed_stream(comm, input.iter().copied(), asserted.iter().copied())
    }

    /// Streaming form of [`SumChecker::check_distributed`]: each PE folds
    /// its input and asserted-output streams into constant-size sketches
    /// ([`crate::sketch::check_stream`]), then both tables travel in one
    /// tree reduction. Local memory is O(its · d) instead of O(n/p).
    ///
    /// Count aggregation (the "Count Agg." row of Table 1) is this check
    /// with every input value mapped to 1; signed streams (median, float
    /// sums) fold through [`SumSketch::update_signed`] and
    /// [`Collective::agree`].
    pub fn check_distributed_stream<I, J>(&self, comm: &mut Comm, input: I, asserted: J) -> bool
    where
        I: IntoIterator<Item = (u64, u64)>,
        J: IntoIterator<Item = (u64, u64)>,
    {
        check_stream(comm, self.sketch(), self.sketch(), input, asserted)
    }
}

/// Streaming sketch of the sum-aggregation checker: the `its × d`
/// condensed table, fed one pair at a time. Obtained from
/// [`SumChecker::sketch`]; see [`crate::sketch`] for the contract.
///
/// Memory is O(its · d) regardless of how many items are folded in, and
/// any chunking of the input yields a bit-identical
/// [`Sketch::finalize`] digest.
#[derive(Clone)]
pub struct SumSketch<'a> {
    checker: &'a SumChecker,
    table: Vec<u64>,
    idx_scratch: Vec<u64>,
}

impl SumSketch<'_> {
    /// Fold a signed pair (the median checker's ±1 streams): the value
    /// enters as its positive residue in each iteration's ℤ/rᵢℤ.
    pub fn update_signed(&mut self, (key, value): (u64, i64)) {
        self.checker
            .fold_into(&mut self.table, &mut self.idx_scratch, key, |r| {
                SumChecker::signed_residue(value, r)
            });
    }

    /// The raw (unfinalized) condensed table — bucket sums with lazy
    /// modulo reduction, as communicated nowhere; finalize before
    /// comparing.
    pub fn table(&self) -> &[u64] {
        &self.table
    }
}

impl Sketch for SumSketch<'_> {
    type Item = (u64, u64);
    /// The finalized condensed table: canonical residues `< rᵢ`.
    type Digest = Vec<u64>;

    fn update(&mut self, (key, value): (u64, u64)) {
        self.checker
            .fold_into(&mut self.table, &mut self.idx_scratch, key, |_| value);
    }

    /// The hot fold: the table and scratch borrows are split once, so the
    /// loop runs over plain slices.
    fn update_iter<I: IntoIterator<Item = (u64, u64)>>(&mut self, items: I) {
        let (checker, table, idx_scratch) = (
            self.checker,
            self.table.as_mut_slice(),
            self.idx_scratch.as_mut_slice(),
        );
        for (key, value) in items {
            checker.fold_into(table, idx_scratch, key, |_| value);
        }
    }

    fn merge(&mut self, other: Self) {
        assert!(
            std::ptr::eq(self.checker, other.checker),
            "cannot merge sketches of different checker instances"
        );
        let d = self.checker.cfg.buckets;
        for ((i, slot), &add) in self.table.iter_mut().enumerate().zip(&other.table) {
            let r = self.checker.moduli[i / d];
            SumChecker::bucket_add(slot, add, r);
        }
    }

    /// Reduce every bucket to its canonical residue (`< rᵢ`).
    fn finalize(self) -> Vec<u64> {
        let mut table = self.table;
        for (segment, &r) in table
            .chunks_exact_mut(self.checker.cfg.buckets)
            .zip(&self.checker.moduli)
        {
            for slot in segment {
                *slot %= r;
            }
        }
        table
    }
}

impl Collective for SumSketch<'_> {
    /// Algorithm 1's communication: the input and output tables of all
    /// iterations travel in **one** tree reduction (added in ℤ/rᵢℤ),
    /// then the root's verdict is broadcast.
    fn agree(comm: &mut Comm, input: Self, output: Self) -> bool {
        assert!(
            std::ptr::eq(input.checker, output.checker),
            "sketches must come from one checker instance"
        );
        let checker = input.checker;
        let d = checker.cfg.buckets;
        agree_tables(comm, input.finalize(), output.finalize(), |slot, x, y| {
            addmod(x, y, checker.moduli[slot / d])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{digest_chunked, digests_agree};
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;
    use std::collections::HashMap;

    fn cfg(its: usize, d: usize, m: u32) -> SumCheckConfig {
        SumCheckConfig::new(its, d, m, HasherKind::Tab64)
    }

    fn aggregate(input: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut map: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in input {
            *map.entry(k).or_insert(0) = map.get(&k).copied().unwrap_or(0).wrapping_add(v);
        }
        let mut out: Vec<(u64, u64)> = map.into_iter().collect();
        out.sort_unstable();
        out
    }

    fn example_input(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i % 37, i * 13 + 1)).collect()
    }

    /// The p = 1 check: compare the two finalized digests.
    fn agree(checker: &SumChecker, input: &[(u64, u64)], asserted: &[(u64, u64)]) -> bool {
        digests_agree(
            checker.sketch(),
            checker.sketch(),
            input.iter().copied(),
            asserted.iter().copied(),
        )
    }

    /// Fold signed pairs into a fresh sketch.
    fn signed<'a>(checker: &'a SumChecker, pairs: &[(u64, i64)]) -> SumSketch<'a> {
        let mut sketch = checker.sketch();
        for &pair in pairs {
            sketch.update_signed(pair);
        }
        sketch
    }

    #[test]
    fn accepts_correct_result_always() {
        // One-sided error: across many seeds, a correct result must
        // never be rejected.
        let input = example_input(500);
        let output = aggregate(&input);
        for seed in 0..50 {
            let checker = SumChecker::new(cfg(4, 8, 5), seed);
            assert!(agree(&checker, &input, &output), "seed {seed}");
        }
    }

    #[test]
    fn rejects_single_value_corruption_with_high_probability() {
        let input = example_input(500);
        let output = aggregate(&input);
        let mut rejected = 0;
        let trials = 200;
        for seed in 0..trials {
            let checker = SumChecker::new(cfg(4, 8, 5), seed);
            let mut bad = output.clone();
            bad[7].1 += 1;
            if !agree(&checker, &input, &bad) {
                rejected += 1;
            }
        }
        // δ = (1/32 + 1/8)^4 ≈ 6e-4; in 200 trials expect ≈ 0 accepts.
        assert!(rejected >= trials - 2, "rejected only {rejected}/{trials}");
    }

    #[test]
    fn rejects_missing_key() {
        let input = example_input(500);
        let output = aggregate(&input);
        let checker = SumChecker::new(cfg(4, 8, 5), 42);
        let mut bad = output.clone();
        bad.remove(3); // "forget" a key entirely
        assert!(!agree(&checker, &input, &bad));
    }

    #[test]
    fn rejects_extra_key() {
        let input = example_input(500);
        let mut bad = aggregate(&input);
        bad.push((999_999, 1));
        let checker = SumChecker::new(cfg(4, 8, 5), 42);
        assert!(!agree(&checker, &input, &bad));
    }

    #[test]
    fn zero_value_insertion_is_invisible() {
        // x ⊕ 0 = x: adding a neutral element cannot be detected (and is
        // not an error for sum aggregation semantics).
        let input = example_input(100);
        let mut output = aggregate(&input);
        output.push((123_456, 0));
        let checker = SumChecker::new(cfg(4, 8, 5), 1);
        assert!(agree(&checker, &input, &output));
    }

    #[test]
    fn empty_input_empty_output_accepted() {
        let checker = SumChecker::new(cfg(2, 4, 5), 9);
        assert!(agree(&checker, &[], &[]));
    }

    #[test]
    fn single_iteration_two_buckets_sometimes_misses() {
        // With d=2, r̂ large: swap-keys manipulation escapes whenever both
        // keys hash to the same bucket (prob ≈ 1/2). Statistically check
        // the failure rate is in the right ballpark, confirming the
        // checker is no stronger than theory predicts (sanity against
        // accidentally comparing raw data).
        let input: Vec<(u64, u64)> = (0..100).map(|i| (i, 10 + i)).collect();
        let output = aggregate(&input);
        let mut accepted_bad = 0;
        let trials = 400;
        for seed in 0..trials {
            let checker = SumChecker::new(cfg(1, 2, 20), seed);
            let mut bad = output.clone();
            // Swap the values of two keys (IncDec-like, modulus-immune).
            let (v5, v9) = (bad[5].1, bad[9].1);
            bad[5].1 = v9;
            bad[9].1 = v5;
            if agree(&checker, &input, &bad) {
                accepted_bad += 1;
            }
        }
        let rate = accepted_bad as f64 / trials as f64;
        assert!(
            (0.35..0.65).contains(&rate),
            "false-accept rate {rate} should be ≈ 1/2 for d=2"
        );
    }

    #[test]
    fn overflow_lazy_modulo_correct() {
        // Values near u64::MAX force the overflow path; the result must
        // equal a naive residue computation.
        let c = cfg(2, 4, 5);
        let checker = SumChecker::new(c, 3);
        let input: Vec<(u64, u64)> = (0..64).map(|i| (i % 4, u64::MAX - i)).collect();
        let mut sketch = checker.sketch();
        sketch.update_iter(input.iter().copied());
        let table = sketch.finalize();
        // Naive recomputation in u128.
        let mut expected = vec![0u128; checker.table_len()];
        let mut idx = vec![0u64; 2];
        for &(k, v) in &input {
            checker.hash.hash_all(k, &mut idx);
            for i in 0..2 {
                let bucket = checker.bucket_map.map(idx[i]);
                let r = checker.moduli[i] as u128;
                let slot = &mut expected[i * 4 + bucket];
                *slot = (*slot + v as u128) % r;
            }
        }
        let expected: Vec<u64> = expected.into_iter().map(|x| x as u64).collect();
        assert_eq!(table, expected);
    }

    #[test]
    fn signed_condense_matches_integer_semantics() {
        // +1/−1 per key must cancel exactly.
        let checker = SumChecker::new(cfg(3, 8, 6), 11);
        let pairs: Vec<(u64, i64)> = (0..50)
            .flat_map(|k| [(k, 1i64), (k, 1), (k, -1), (k, -1)])
            .collect();
        let table = signed(&checker, &pairs).finalize();
        assert!(table.iter().all(|&x| x == 0), "non-zero residue: {table:?}");
    }

    #[test]
    fn signed_detects_imbalance() {
        let checker = SumChecker::new(cfg(4, 8, 6), 11);
        let pairs: Vec<(u64, i64)> = vec![(1, 1), (1, 1), (1, -1)]; // sum = 1
        let table = signed(&checker, &pairs).finalize();
        assert!(table.iter().any(|&x| x != 0));
    }

    #[test]
    fn non_power_of_two_buckets() {
        // d = 37 (a Table 2 optimum) exercises the fast-range path.
        let c = SumCheckConfig::new(3, 37, 8, HasherKind::Tab64);
        let checker = SumChecker::new(c, 5);
        let input = example_input(1000);
        let output = aggregate(&input);
        assert!(agree(&checker, &input, &output));
        let mut bad = output.clone();
        bad[0].1 ^= 0x10;
        assert!(!agree(&checker, &input, &bad));
    }

    #[test]
    fn moduli_in_half_open_interval() {
        for m in [3u32, 5, 15, 31] {
            let c = cfg(16, 4, m);
            let checker = SumChecker::new(c, 77);
            let rhat = 1u64 << m;
            for &r in checker.moduli() {
                assert!(r > rhat && r <= 2 * rhat, "m={m}: r={r}");
            }
        }
    }

    #[test]
    fn distributed_matches_local_semantics() {
        // 4 PEs, each holding a share of input and output; the
        // distributed verdict must equal the local all-data verdict.
        for corrupt in [false, true] {
            let verdicts = run(4, |comm| {
                let rank = comm.rank() as u64;
                let input: Vec<(u64, u64)> = (0..250u64)
                    .map(|i| ((rank * 250 + i) % 37, i + 1))
                    .collect();
                // Correct global aggregation computed redundantly per PE
                // (cheap here; it is the checker under test, not the op).
                let all_input: Vec<(u64, u64)> = (0..4u64)
                    .flat_map(|r| (0..250u64).map(move |i| ((r * 250 + i) % 37, i + 1)))
                    .collect();
                let full = aggregate(&all_input);
                // Distribute output shards round-robin.
                let mut shard: Vec<(u64, u64)> =
                    full.iter().copied().skip(comm.rank()).step_by(4).collect();
                if corrupt && comm.rank() == 2 && !shard.is_empty() {
                    shard[0].1 += 5;
                }
                let checker = SumChecker::new(cfg(6, 16, 9), 1234);
                checker.check_distributed(comm, &input, &shard)
            });
            assert!(
                verdicts.iter().all(|&v| v != corrupt),
                "corrupt={corrupt}: {verdicts:?}"
            );
            // All PEs agree on the verdict.
            assert!(verdicts.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn distributed_signed_zero_target() {
        let verdicts = run(3, |comm| {
            let rank = comm.rank() as u64;
            // Balanced ±1 pairs across PEs: (k, +1) on this PE, (k, −1)
            // on the next — global per-key sums are all zero.
            let pairs: Vec<(u64, i64)> = (0..60)
                .map(|i| (i, if (i + rank).is_multiple_of(3) { 1 } else { 0 }))
                .collect();
            let neg: Vec<(u64, i64)> = pairs.iter().map(|&(k, v)| (k, -v)).collect();
            let all: Vec<(u64, i64)> = pairs.into_iter().chain(neg).collect();
            let checker = SumChecker::new(cfg(4, 8, 6), 5);
            SumSketch::agree(comm, signed(&checker, &all), checker.sketch())
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn communication_volume_is_config_bound_not_input_bound() {
        use ccheck_net::router::run_with_stats;
        // The checker's traffic must depend on (its × d), not on n.
        let volume_for_n = |n: u64| {
            let (_, snap) = run_with_stats(4, |comm| {
                let input: Vec<(u64, u64)> = (0..n).map(|i| (i % 17, i)).collect();
                let output = aggregate(&input); // everyone checks vs full output on PE 0
                let shard = if comm.rank() == 0 { output } else { Vec::new() };
                let checker = SumChecker::new(cfg(4, 16, 7), 9);
                checker.check_distributed(comm, &input, &shard)
            });
            snap.total_bytes()
        };
        let small = volume_for_n(100);
        let large = volume_for_n(10_000);
        assert_eq!(small, large, "checker volume must be independent of n");
    }

    #[test]
    fn count_aggregation_convenience() {
        let verdicts = run(3, |comm| {
            let rank = comm.rank() as u64;
            let keys: Vec<u64> = (0..90).map(|i| (rank * 90 + i) % 7).collect();
            // Correct global counts: 270 elements over 7 keys.
            let mut counts = [0u64; 7];
            for r in 0..3u64 {
                for i in 0..90 {
                    counts[((r * 90 + i) % 7) as usize] += 1;
                }
            }
            let asserted: Vec<(u64, u64)> = if comm.rank() == 0 {
                counts
                    .iter()
                    .enumerate()
                    .map(|(k, &c)| (k as u64, c))
                    .collect()
            } else {
                Vec::new()
            };
            let checker = SumChecker::new(cfg(4, 16, 9), 3);
            let ones = || keys.iter().map(|&k| (k, 1));
            let ok = checker.check_distributed_stream(comm, ones(), asserted.iter().copied());
            // Off-by-one count must be rejected.
            let mut bad = asserted.clone();
            if comm.rank() == 0 {
                bad[2].1 += 1;
            }
            let caught = !checker.check_distributed_stream(comm, ones(), bad.iter().copied());
            ok && caught
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn replicated_output_shards_are_rejected() {
        // The documented contract: output shards must be disjoint. A
        // result replicated on every PE is double-counted and rejected
        // (feeding it from a single PE is the correct usage).
        let verdicts = run(2, |comm| {
            let input: Vec<(u64, u64)> = (0..100).map(|i| (i % 9, i + 1)).collect();
            let all_input: Vec<(u64, u64)> = (0..2)
                .flat_map(|_| (0..100u64).map(|i| (i % 9, i + 1)))
                .collect();
            let full = aggregate(&all_input);
            let checker = SumChecker::new(cfg(4, 16, 9), 8);
            // Wrong: every PE feeds the whole output.
            let wrong = checker.check_distributed(comm, &input, &full);
            // Right: only PE 0 feeds it.
            let shard = if comm.rank() == 0 { full } else { Vec::new() };
            let right = checker.check_distributed(comm, &input, &shard);
            (wrong, right)
        });
        assert!(verdicts.iter().all(|&(w, r)| !w && r));
    }

    #[test]
    fn sketch_chunking_invariance() {
        // Any chunking of the input folds to the same finalized digest
        // as the one-shot fold.
        let input = example_input(777);
        let checker = SumChecker::new(cfg(4, 37, 7), 21); // fast-range path too
        let mut sketch = checker.sketch();
        sketch.update_iter(input.iter().copied());
        let one_shot = sketch.finalize();
        for chunk in [1usize, 3, 10, 100, 776, 777, 10_000] {
            let digest = digest_chunked(|| checker.sketch(), input.iter().copied(), chunk);
            assert_eq!(digest, one_shot, "chunk={chunk}");
        }
    }

    #[test]
    fn sketch_merge_handles_overflow_buckets() {
        // Values near u64::MAX in both halves force the merge's lazy
        // modulo path; the digest must match the one-shot fold.
        let checker = SumChecker::new(cfg(2, 4, 5), 3);
        let input: Vec<(u64, u64)> = (0..64).map(|i| (i % 4, u64::MAX - i)).collect();
        let mut whole = checker.sketch();
        whole.update_iter(input.iter().copied());
        let mut left = checker.sketch();
        left.update_iter(input[..32].iter().copied());
        let mut right = checker.sketch();
        right.update_iter(input[32..].iter().copied());
        left.merge(right);
        assert_eq!(left.finalize(), whole.finalize());
    }

    #[test]
    fn streaming_local_check_matches_slice_path() {
        let input = example_input(500);
        let output = aggregate(&input);
        let checker = SumChecker::new(cfg(4, 8, 5), 7);
        let chunked =
            |side: &[(u64, u64)]| digest_chunked(|| checker.sketch(), side.iter().copied(), 13);
        assert!(agree(&checker, &input, &output));
        assert_eq!(chunked(&input), chunked(&output));
        let mut bad = output.clone();
        bad[1].1 += 3;
        assert!(!agree(&checker, &input, &bad));
        assert_ne!(chunked(&input), chunked(&bad));
    }

    #[test]
    fn streaming_distributed_volume_identical_to_slice_path() {
        use ccheck_net::router::run_with_stats;
        // The streaming path must not move a single extra byte.
        let run_variant = |streaming: bool| {
            run_with_stats(4, move |comm| {
                let rank = comm.rank() as u64;
                let input: Vec<(u64, u64)> = (0..300u64).map(|i| ((rank + i) % 23, i)).collect();
                let all: Vec<(u64, u64)> = (0..4u64)
                    .flat_map(|r| (0..300u64).map(move |i| ((r + i) % 23, i)))
                    .collect();
                let full = aggregate(&all);
                let shard = if comm.rank() == 0 { full } else { Vec::new() };
                let checker = SumChecker::new(cfg(4, 16, 7), 9);
                if streaming {
                    checker.check_distributed_stream(
                        comm,
                        input.iter().copied(),
                        shard.iter().copied(),
                    )
                } else {
                    checker.check_distributed(comm, &input, &shard)
                }
            })
        };
        let (slice_verdicts, slice_stats) = run_variant(false);
        let (stream_verdicts, stream_stats) = run_variant(true);
        assert_eq!(slice_verdicts, stream_verdicts);
        assert!(slice_verdicts.iter().all(|&v| v));
        assert_eq!(slice_stats.per_pe(), stream_stats.per_pe());
    }

    #[test]
    fn scales_to_many_pes() {
        // p = 32 smoke test: tree reduction depth 5, verdict uniform.
        let verdicts = run(32, |comm| {
            let rank = comm.rank() as u64;
            let input: Vec<(u64, u64)> = (0..50).map(|i| ((rank * 50 + i) % 13, i + 1)).collect();
            let all: Vec<(u64, u64)> = (0..32u64)
                .flat_map(|r| (0..50u64).map(move |i| ((r * 50 + i) % 13, i + 1)))
                .collect();
            let full = aggregate(&all);
            let shard = if comm.rank() == 0 { full } else { Vec::new() };
            let checker = SumChecker::new(cfg(4, 16, 9), 17);
            checker.check_distributed(comm, &input, &shard)
        });
        assert_eq!(verdicts.len(), 32);
        assert!(verdicts.iter().all(|&v| v));
    }
}
