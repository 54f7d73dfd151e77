//! Seeded input generators. The program under test only ever sees the
//! tuples these produce; the same seed gives the same tuples.

use cobra_graph::SplitMix64;

/// Values stay below 2^24 so a per-key sum of 2^25 of them cannot wrap:
/// "zero loss" is then an exact equality of plain sums.
const VALUE_SHIFT: u32 = 40;

/// `n` update tuples with keys uniform over `0..num_keys`.
pub fn uniform_tuples(n: usize, num_keys: u32, seed: u64) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    uniform_tuples_into(&mut out, n, num_keys, seed);
    out
}

/// Appends the same stream to `out` (whose capacity may be recycled).
pub fn uniform_tuples_into(out: &mut Vec<(u32, u64)>, n: usize, num_keys: u32, seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    out.extend((0..n).map(|_| (rng.u32_below(num_keys), rng.next_u64() >> VALUE_SHIFT)));
}

/// `n` tuples whose key *ranks* follow Zipf(`alpha`); ranks are spread
/// over the key space by an odd multiplier so hot keys land in different
/// bins and shards, as hot vertices do in real inputs.
pub fn zipf_tuples(n: usize, num_keys: u32, alpha: f64, seed: u64) -> Vec<(u32, u64)> {
    assert!(num_keys.is_power_of_two(), "rank scrambling needs 2^k keys");
    let table = ZipfAlias::new(num_keys, alpha);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mask = num_keys - 1;
    (0..n)
        .map(|_| {
            let rank = table.sample(&mut rng);
            let key = rank.wrapping_mul(0x9E37_79B1) & mask;
            (key, rng.next_u64() >> VALUE_SHIFT)
        })
        .collect()
}

/// Walker/Vose alias table over Zipf ranks: O(n) to build, O(1) per draw
/// (an inverse-CDF binary search would cost more than the code under test).
pub struct ZipfAlias {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl ZipfAlias {
    pub fn new(n: u32, alpha: f64) -> ZipfAlias {
        assert!(n > 0 && alpha > 0.0);
        let weights: Vec<f64> = (0..n).map(|i| (f64::from(i) + 1.0).powf(-alpha)).collect();
        let total: f64 = weights.iter().sum();
        let scale = f64::from(n) / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias: Vec<u32> = (0..n).collect();
        let (mut small, mut large): (Vec<u32>, Vec<u32>) =
            (0..n).partition(|&i| prob[i as usize] < 1.0);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers are 1.0 up to rounding.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        ZipfAlias { prob, alias }
    }

    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let i = rng.u32_below(self.prob.len() as u32);
        if rng.f64() < self.prob[i as usize] {
            i
        } else {
            self.alias[i as usize]
        }
    }
}

/// Order-sensitive 64-bit digest of a table (FNV-1a over words). Two
/// tables are equal iff their digests are, up to 2^-64.
pub fn digest<'a>(words: impl IntoIterator<Item = &'a u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
    })
}

/// The reference every rung and workload is checked against: in-place
/// `table[k] += v`, nothing else.
pub fn scatter(table: &mut [u64], tuples: &[(u32, u64)]) {
    for &(k, v) in tuples {
        let slot = &mut table[k as usize];
        *slot = slot.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        // Pinned: a changed generator silently changes every baseline.
        // (The Zipf table goes through libm's `powf`; a platform whose
        // libm rounds differently needs its own pin.)
        let u = uniform_tuples(1000, 1 << 16, 0xC0B7A);
        let z = zipf_tuples(1000, 1 << 16, 1.1, 0xC0B7A);
        let flat = |t: &[(u32, u64)]| -> Vec<u64> {
            t.iter().flat_map(|&(k, v)| [u64::from(k), v]).collect()
        };
        assert_eq!(
            digest(&flat(&u)),
            digest(&flat(&uniform_tuples(1000, 1 << 16, 0xC0B7A)))
        );
        assert_eq!(
            digest(&flat(&u)),
            0x333a_0a5d_9f65_a615,
            "uniform stream drifted"
        );
        assert_eq!(
            digest(&flat(&z)),
            0xd3a9_550b_19a3_b569,
            "zipf stream drifted"
        );
        assert_ne!(
            digest(&flat(&u)),
            digest(&flat(&uniform_tuples(1000, 1 << 16, 2)))
        );
    }

    #[test]
    fn zipf_is_actually_skewed_and_uniform_is_not() {
        let n = 200_000;
        let keys = 1u32 << 12;
        let top_share = |tuples: &[(u32, u64)]| {
            let mut counts = vec![0u32; keys as usize];
            for &(k, _) in tuples {
                counts[k as usize] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let top: u32 = counts[..keys as usize / 100].iter().sum();
            f64::from(top) / n as f64
        };
        let z = top_share(&zipf_tuples(n, keys, 1.1, 7));
        let u = top_share(&uniform_tuples(n, keys, 7));
        assert!(
            z > 0.5,
            "top 1% of keys should draw most Zipf traffic, got {z}"
        );
        assert!(
            u < 0.03,
            "top 1% of keys should draw ~1% uniform traffic, got {u}"
        );
    }

    #[test]
    fn alias_table_matches_the_distribution() {
        let table = ZipfAlias::new(8, 1.0);
        let mut rng = SplitMix64::seed_from_u64(1);
        let mut counts = [0u32; 8];
        let draws = 400_000;
        for _ in 0..draws {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        let h8: f64 = (1..=8).map(|i| 1.0 / f64::from(i)).sum();
        for (i, &c) in counts.iter().enumerate() {
            let want = 1.0 / ((i + 1) as f64 * h8);
            let got = f64::from(c) / f64::from(draws);
            assert!((got - want).abs() < 0.01, "rank {i}: {got} vs {want}");
        }
    }

    #[test]
    fn scatter_and_digest_agree_on_order_independence_of_sums() {
        let t = uniform_tuples(5000, 64, 3);
        let mut a = vec![0u64; 64];
        let mut b = vec![0u64; 64];
        scatter(&mut a, &t);
        let mut rev = t.clone();
        rev.reverse();
        scatter(&mut b, &rev);
        assert_eq!(digest(&a), digest(&b));
        b[3] += 1;
        assert_ne!(digest(&a), digest(&b));
    }
}
