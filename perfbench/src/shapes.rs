//! The seeded shape stream.
//!
//! Every workload draws its shapes here.  A set of `size` shapes is split
//! as evenly as possible over the requested [`Family`]s, and within each
//! family the draws sit on a Latinised low-discrepancy lattice over
//! (log flops, two shape parameters), each jittered within its cell by the
//! seed.  The dimensions are continuous (log-uniform) and the flop count is
//! bounded, so per-op cost forms one smooth distribution rather than size
//! classes.  Every seed changes every dimension, but the even coverage
//! keeps a set's mix of costs, efficiencies and failures nearly the same
//! from seed to seed, so runs on different seeds measure the same workload.

use crate::rng::Rng;
use ftimm::reference::fill_matrix;
use ftimm::{GemmShape, SUFFICIENTLY_LARGE};
use workloads::{ConvLayer, FemBatch, KmeansInstance};

/// Where a shape comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Paper type 1, `M ≫ K ≈ N`.
    Type1,
    /// Paper type 2, `K ≫ M ≈ N`: `M ∈ [16, 256]`, `K ≥ 2048`.
    Type2,
    /// Paper type 3, `M ≈ K ≫ N`.
    Type3,
    /// A k-means distance step (`workloads::KmeansInstance`).
    Kmeans,
    /// A 3×3 convolution lowered by im2col (`workloads::ConvLayer`).
    Im2col,
    /// A batch of FEM element products (`workloads::FemBatch`).
    Fem,
}

impl Family {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Type1 => "type1",
            Family::Type2 => "type2",
            Family::Type3 => "type3",
            Family::Kmeans => "kmeans",
            Family::Im2col => "im2col",
            Family::Fem => "fem",
        }
    }

    /// Smallest flop count the family can produce: types 1 to 3 need
    /// their "≫" dimensions at `SUFFICIENTLY_LARGE` with the others at 16.
    pub fn min_flops(self) -> f64 {
        let big = SUFFICIENTLY_LARGE as f64;
        match self {
            Family::Type1 | Family::Type2 => 2.0 * big * 16.0 * 16.0,
            Family::Type3 => 2.0 * big * 16.0 * big,
            Family::Kmeans | Family::Im2col | Family::Fem => 1.0,
        }
    }
}

/// How to build a shape's operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// A synthetic type 1/2/3 draw: operands from `fill_matrix`.
    Synthetic,
    /// `KmeansInstance::generate(samples, k, dims, ..)`.
    Kmeans {
        /// Points (M).
        samples: usize,
        /// Centroids (N).
        k: usize,
        /// Features (K).
        dims: usize,
    },
    /// A 3×3, stride-1, pad-1 layer at batch 1.
    Im2col(ConvLayer),
    /// `FemBatch::generate(count, rows, inner, cols, ..)`.
    Fem {
        /// Elements in the batch.
        count: usize,
        /// Rows per element.
        rows: usize,
        /// Contraction dimension (K).
        inner: usize,
        /// Output columns (N).
        cols: usize,
    },
}

/// One drawn shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeSpec {
    /// The family it was drawn from.
    pub family: Family,
    /// The GEMM shape.
    pub shape: GemmShape,
    /// How its operands are generated.
    pub source: Source,
}

/// Host operands of one GEMM, `C += A × B`, row-major.
pub struct Operands {
    /// `m × k`.
    pub a: Vec<f32>,
    /// `k × n`.
    pub b: Vec<f32>,
    /// `m × n`, the initial accumulator.
    pub c: Vec<f32>,
}

impl ShapeSpec {
    /// Generate the operands, deterministically in `seed`.
    pub fn operands(&self, seed: u64) -> Operands {
        let GemmShape { m, n, k } = self.shape;
        let s = seed as u32;
        let zeros = vec![0.0; m * n];
        match self.source {
            Source::Synthetic => Operands {
                a: fill_matrix(m * k, s),
                b: fill_matrix(k * n, s ^ 0x5555),
                c: fill_matrix(m * n, s ^ 0xAAAA),
            },
            Source::Kmeans { samples, k, dims } => {
                let inst = KmeansInstance::generate(samples, k, dims, seed);
                Operands {
                    b: inst.centroids_t(),
                    a: inst.points,
                    c: zeros,
                }
            }
            Source::Im2col(layer) => {
                let input = fill_matrix(layer.c_in * layer.hw * layer.hw, s);
                Operands {
                    a: layer.im2col(1, &input),
                    b: fill_matrix(k * n, s ^ 0x5555),
                    c: zeros,
                }
            }
            Source::Fem {
                count,
                rows,
                inner,
                cols,
            } => {
                let batch = FemBatch::generate(count, rows, inner, cols, seed);
                Operands {
                    a: batch.elements,
                    b: batch.operator,
                    c: zeros,
                }
            }
        }
    }
}

/// Log-uniform in `[lo, hi]` at quantile `u` (`lo` when `hi < lo`).
fn log_uniform(lo: f64, hi: f64, u: f64) -> f64 {
    if hi <= lo {
        return lo;
    }
    lo * (hi / lo).powf(u)
}

fn round(x: f64) -> usize {
    x.round().max(1.0) as usize
}

/// Draw one shape of `family` with about `flops` flops; `u1..u3` in
/// `[0, 1)` place it among the family's aspect ratios.
pub fn draw(family: Family, flops: f64, u1: f64, u2: f64, u3: f64) -> ShapeSpec {
    let big = SUFFICIENTLY_LARGE as f64;
    let synthetic = |m: usize, n: usize, k: usize| ShapeSpec {
        family,
        shape: GemmShape::new(m, n, k),
        source: Source::Synthetic,
    };
    match family {
        Family::Type1 => {
            let n = round(log_uniform(
                16.0,
                (flops / (2.0 * big * 16.0)).min(96.0),
                u1,
            ));
            let k = round(log_uniform(
                16.0,
                (flops / (2.0 * n as f64 * big)).min(256.0),
                u2,
            ));
            let m = round(flops / (2.0 * (n * k) as f64)).max(SUFFICIENTLY_LARGE);
            synthetic(m, n, k)
        }
        Family::Type2 => {
            let n = round(log_uniform(
                16.0,
                (flops / (2.0 * 16.0 * big)).min(96.0),
                u1,
            ));
            let m = round(log_uniform(
                16.0,
                (flops / (2.0 * n as f64 * big)).min(256.0),
                u2,
            ));
            let k = round(flops / (2.0 * (m * n) as f64)).max(SUFFICIENTLY_LARGE);
            synthetic(m, n, k)
        }
        Family::Type3 => {
            let n = round(log_uniform(16.0, (flops / (2.0 * big * big)).min(96.0), u1));
            let mk = flops / (2.0 * n as f64);
            let m = (mk * log_uniform(0.5, 2.0, u2))
                .sqrt()
                .clamp(big, (mk / big).max(big));
            let k = round(mk / m).max(SUFFICIENTLY_LARGE);
            synthetic(round(m), n, k)
        }
        Family::Kmeans => {
            let k = round(log_uniform(8.0, 96.0, u1));
            let dims = round(log_uniform(16.0, 128.0, u2));
            let samples = round(flops / (2.0 * (k * dims) as f64)).max(16);
            ShapeSpec {
                family,
                shape: GemmShape::new(samples, k, dims),
                source: Source::Kmeans { samples, k, dims },
            }
        }
        Family::Im2col => {
            let c_out = round(log_uniform(16.0, 96.0, u1));
            let c_in = round(log_uniform(3.0, 64.0, u2));
            let hw = round((flops / (2.0 * (c_out * c_in * 9) as f64)).sqrt()).max(4);
            let layer = ConvLayer {
                name: "im2col",
                c_in,
                c_out,
                hw,
                k: 3,
                stride: 1,
                pad: 1,
            };
            ShapeSpec {
                family,
                shape: layer.gemm_shape(1),
                source: Source::Im2col(layer),
            }
        }
        Family::Fem => {
            let rows = round(log_uniform(4.0, 64.0, u1));
            let inner = round(log_uniform(8.0, 64.0, u2));
            let cols = round(log_uniform(8.0, 64.0, u3));
            let count = round(flops / (2.0 * (rows * inner * cols) as f64));
            ShapeSpec {
                family,
                shape: GemmShape::new(count * rows, cols, inner),
                source: Source::Fem {
                    count,
                    rows,
                    inner,
                    cols,
                },
            }
        }
    }
}

/// Draw a set of `size` shapes over `families`, each with a flop count
/// in `[max(lo, family minimum), hi]`.  Family counts differ by at most
/// one; the seed picks which families get the remainder, every shape and
/// the order of the set.
pub fn shape_set(seed: u64, size: usize, families: &[Family], lo: f64, hi: f64) -> Vec<ShapeSpec> {
    assert!(!families.is_empty() && size >= families.len());
    let mut rng = Rng::new(seed);
    let offset = rng.below(families.len());
    let mut set = Vec::with_capacity(size);
    for (i, &family) in families.iter().enumerate() {
        let lo_f = lo.max(family.min_flops());
        assert!(lo_f < hi, "{} cannot fit under {hi} flops", family.name());
        let extra = (i + families.len() - offset) % families.len() < size % families.len();
        let count = size / families.len() + extra as usize;
        for [u0, u1, u2] in rng.lattice3(count) {
            set.push(draw(family, log_uniform(lo_f, hi, u0), u1, u2, rng.unit()));
        }
    }
    rng.shuffle(&mut set);
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftimm::IrregularType;

    const ALL: [Family; 6] = [
        Family::Type1,
        Family::Type2,
        Family::Type3,
        Family::Kmeans,
        Family::Im2col,
        Family::Fem,
    ];

    #[test]
    fn same_seed_same_stream_and_different_seeds_differ() {
        let a = shape_set(7, 45, &ALL, 4e6, 4e8);
        assert_eq!(a, shape_set(7, 45, &ALL, 4e6, 4e8));
        let b = shape_set(8, 45, &ALL, 4e6, 4e8);
        assert_ne!(a, b);
        let shared = a.iter().filter(|s| b.contains(s)).count();
        assert!(shared < 3, "{shared} shapes shared between seeds");
    }

    #[test]
    fn family_counts_are_balanced() {
        for seed in 0..20 {
            let set = shape_set(seed, 31, &ALL, 4e6, 4e8);
            assert_eq!(set.len(), 31);
            for f in ALL {
                let c = set.iter().filter(|s| s.family == f).count();
                assert!(c == 5 || c == 6, "{}: {c}", f.name());
            }
        }
    }

    #[test]
    fn types_classify_as_the_paper_says_and_flops_stay_bounded() {
        for seed in 0..20 {
            for s in shape_set(seed, 63, &ALL, 4e6, 2e8) {
                let f = s.shape.flops() as f64;
                assert!(f <= 2e8 * 1.1, "{} over the bound", s.shape);
                assert!(f >= 4e6 * 0.9, "{} under the bound", s.shape);
                assert!(s.shape.n <= 96, "{}", s.shape);
                let want = match s.family {
                    Family::Type1 => IrregularType::TallSkinnyTimesSmall,
                    Family::Type2 => IrregularType::SkinnyTallTimesTallSkinny,
                    Family::Type3 => IrregularType::RegularTimesTallSkinny,
                    _ => continue,
                };
                assert_eq!(s.shape.classify(), want, "{}", s.shape);
                if s.family == Family::Type2 {
                    assert!((16..=256).contains(&s.shape.m), "{}", s.shape);
                }
            }
        }
    }

    #[test]
    fn operands_match_the_shape() {
        for s in shape_set(5, 12, &ALL[..], 4e6, 2e8) {
            if s.shape.flops() > 6e7 as u64 {
                continue;
            }
            let GemmShape { m, n, k } = s.shape;
            let o = s.operands(1);
            assert_eq!((o.a.len(), o.b.len(), o.c.len()), (m * k, k * n, m * n));
        }
    }
}
