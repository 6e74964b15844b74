//! Output checks and failure naming shared by the workloads.

use dspsim::SimError;
use ftimm::reference::sgemm_f64;
use ftimm::FtimmError;

/// A stable name for an error kind, so failures count by kind:
/// `sim.out_of_bounds.SM`, `sim.hazard`, `gen`, `cpu_fault`, ...
pub fn error_kind(e: &FtimmError) -> String {
    match e {
        FtimmError::Sim(SimError::OutOfBounds { region, .. }) => {
            format!("sim.out_of_bounds.{region}")
        }
        FtimmError::Sim(SimError::AllocFailure { region, .. }) => {
            format!("sim.alloc_failure.{region}")
        }
        FtimmError::Sim(other) => format!("sim.{}", variant(&format!("{other:?}"))),
        FtimmError::Gen(_) => "gen".into(),
        FtimmError::CpuFault(_) => "cpu_fault".into(),
        FtimmError::Invalid(_) => "invalid".into(),
    }
}

/// `Hazard { .. }` → `hazard`.
fn variant(debug: &str) -> String {
    let name: String = debug.chars().take_while(|c| c.is_alphanumeric()).collect();
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

/// Check `got = c0 + a·b` against the f64 oracle `sgemm_f64` within a
/// derived forward-error bound, so no tolerance is tuned.  Any order of
/// the `k + 1` f32 additions errs by at most `γ · (|c0| + Σₖ|a||b|)` per
/// element, with `γ = j·u / (1 − j·u)`, `j = k + 1` and `u = 2⁻²⁴` (plus
/// the f64 oracle's own `2⁻⁵³` per step); Cauchy–Schwarz bounds the sum by
/// `‖a row‖₂ · ‖b column‖₂`, which costs O(mk + kn) instead of a second
/// product.
#[allow(clippy::too_many_arguments)]
pub fn check_against_f64(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c0: &[f32],
    got: &[f32],
) -> Result<(), String> {
    let want = sgemm_f64(m, n, k, a, b, c0);
    let sq = |x: f32| (x as f64) * (x as f64);
    let a_norm: Vec<f64> = a
        .chunks(k.max(1))
        .map(|r| r.iter().map(|&x| sq(x)).sum::<f64>().sqrt())
        .collect();
    let mut b_norm = vec![0.0f64; n];
    for row in b.chunks(n.max(1)) {
        for (acc, &x) in b_norm.iter_mut().zip(row) {
            *acc += sq(x);
        }
    }
    let steps = (k + 1) as f64 * (f32::EPSILON as f64 / 2.0 + f64::EPSILON / 2.0);
    let gamma = steps / (1.0 - steps);
    for (idx, (&g, &w)) in got.iter().zip(&want).enumerate() {
        let (i, j) = (idx / n, idx % n);
        let bound = gamma * ((c0[idx] as f64).abs() + a_norm[i] * b_norm[j].sqrt());
        let err = (g as f64 - w).abs();
        if err.is_nan() || err > bound {
            return Err(format!(
                "C[{i}][{j}] = {g}, oracle {w}, error {err:e} over bound {bound:e}"
            ));
        }
    }
    Ok(())
}

/// Bitwise equality of two f32 buffers.
pub fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_kinds_are_named() {
        let oob = FtimmError::Sim(SimError::OutOfBounds {
            region: "SM",
            offset: 65536,
            len: 8192,
            capacity: 65536,
        });
        assert_eq!(error_kind(&oob), "sim.out_of_bounds.SM");
        let bad = FtimmError::Sim(SimError::BadBinding { detail: "x".into() });
        assert_eq!(error_kind(&bad), "sim.bad_binding");
        assert_eq!(error_kind(&FtimmError::Invalid("x".into())), "invalid");
    }

    #[test]
    fn the_oracle_check_accepts_f32_rounding_and_rejects_a_wrong_value() {
        let (m, n, k) = (3, 2, 300);
        let a = ftimm::reference::fill_matrix(m * k, 1);
        let b = ftimm::reference::fill_matrix(k * n, 2);
        let c0 = ftimm::reference::fill_matrix(m * n, 3);
        let mut c = c0.clone();
        ftimm::reference::sgemm_naive(m, n, k, &a, &b, &mut c);
        assert!(check_against_f64(m, n, k, &a, &b, &c0, &c).is_ok());
        c[4] += 1.0;
        assert!(check_against_f64(m, n, k, &a, &b, &c0, &c).is_err());
        assert!(!bitwise_eq(&c, &c0));
        assert!(bitwise_eq(&c, &c.clone()));
    }
}
