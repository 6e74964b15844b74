//! SplitMix64: the benchmark's only source of randomness, so a seed fixes
//! every input bit-for-bit on every host.

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` (any value, zero included).
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` points in `[0, 1)³`: a Kronecker lattice (the R₃ sequence,
    /// multiples of `1/φ₃^j` where `φ₃` is the real root of `x⁴ = x + 1`),
    /// Latinised and jittered.  Along each axis the lattice point of rank
    /// `r` moves to a random spot in stratum `[r/n, (r+1)/n)`.  Each axis
    /// thus has exactly one point per stratum and the lattice keeps the
    /// joint coverage even; the generator moves every point, but only
    /// within its cell, so sets drawn with different seeds differ in every
    /// coordinate while covering the cube the same way.
    pub fn lattice3(&mut self, n: usize) -> Vec<[f64; 3]> {
        const PHI3: f64 = 1.220_744_084_605_759_5;
        let alpha = [1.0 / PHI3, 1.0 / (PHI3 * PHI3), 1.0 / (PHI3 * PHI3 * PHI3)];
        let raw: Vec<[f64; 3]> = (0..n)
            .map(|i| std::array::from_fn(|d| (0.5 + i as f64 * alpha[d]).fract()))
            .collect();
        let mut out = vec![[0.0; 3]; n];
        for d in 0..3 {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| raw[a][d].total_cmp(&raw[b][d]));
            for (rank, &i) in order.iter().enumerate() {
                out[i][d] = (rank as f64 + self.unit()) / n as f64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lattice_has_one_point_per_stratum_on_every_axis() {
        for n in [15, 21, 31, 45] {
            for seed in 0..20 {
                let pts = Rng::new(seed).lattice3(n);
                for d in 0..3 {
                    let mut hit = vec![false; n];
                    for p in &pts {
                        assert!((0.0..1.0).contains(&p[d]));
                        hit[(p[d] * n as f64) as usize] = true;
                    }
                    assert!(hit.iter().all(|h| *h), "n {n} seed {seed} axis {d}");
                }
            }
        }
        assert_eq!(Rng::new(1).lattice3(5), Rng::new(1).lattice3(5));
        assert_ne!(Rng::new(1).lattice3(5), Rng::new(2).lattice3(5));
    }
}
