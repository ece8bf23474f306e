//! LU factorization with partial pivoting and the solver built on it.

use crate::{Matrix, Scalar};
use std::error::Error;
use std::fmt;

/// Error returned when a linear system cannot be solved.
///
/// In circuit terms a singular MNA matrix almost always means a floating
/// node, a loop of ideal voltage sources, or a zero-valued element; the
/// simulator surfaces this to the caller rather than producing NaNs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix is not square.
    NotSquare,
    /// A zero (or numerically negligible) pivot was encountered at the
    /// given elimination step.
    Singular {
        /// Elimination step at which the pivot vanished; for MNA systems
        /// this usually identifies the offending node/branch equation.
        step: usize,
    },
    /// The right-hand side length does not match the matrix dimension.
    DimensionMismatch {
        /// Expected length (matrix dimension).
        expected: usize,
        /// Provided length.
        actual: usize,
    },
    /// Non-finite values (NaN/∞) appeared in the matrix or the solution.
    NonFinite,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NotSquare => write!(f, "matrix is not square"),
            SolveError::Singular { step } => {
                write!(f, "matrix is singular (zero pivot at elimination step {step})")
            }
            SolveError::DimensionMismatch { expected, actual } => {
                write!(f, "right-hand side has length {actual}, expected {expected}")
            }
            SolveError::NonFinite => write!(f, "non-finite values in linear system"),
        }
    }
}

impl Error for SolveError {}

/// An LU factorization `P A = L U` with partial (row) pivoting.
///
/// Factor once, then solve against any number of right-hand sides — the AC
/// analysis reuses a factorization per frequency point when sweeping
/// multiple sources.
///
/// # Example
///
/// ```
/// use asdex_linalg::{Matrix, Lu};
///
/// # fn main() -> Result<(), asdex_linalg::SolveError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = Lu::factor(a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<S: Scalar = f64> {
    /// Combined L (below diagonal, unit diagonal implied) and U (diagonal
    /// and above).
    lu: Matrix<S>,
    /// Row permutation and prepared pivots, one per position.
    pivots: Vec<Pivot<S>>,
    /// Sign of the permutation, for the determinant.
    perm_sign: f64,
}

/// One position of a factorization's row pivoting, as [`factor_in_place`]
/// writes it and [`solve_factored`] reads it: the original row now at
/// this position, that row's scale (the largest modulus of the original
/// row), and U's diagonal entry there as a prepared divisor
/// ([`Scalar::prepare_divisor`]). Reusing one `Vec` of these across
/// factorizations keeps every factorization after the first
/// allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct Pivot<S: Scalar> {
    row: usize,
    scale: f64,
    divisor: S,
}

impl<S: Scalar> Pivot<S> {
    /// The original row at this position: `perm[i]` of `P A = L U`.
    pub fn row(&self) -> usize {
        self.row
    }
}

/// Scaled pivots smaller than this are treated as zero. The test is
/// dimensionless — each candidate pivot is compared against the largest
/// entry of its own original row — so matrices whose rows span many orders
/// of magnitude (MNA systems mixing conductances with `ωL` branch terms)
/// factor correctly.
const SCALED_PIVOT_TOL: f64 = 1e-13;

/// Trailing-update row-block size for the in-place factorization. The
/// pivot row stays hot in cache across a block while each row's update
/// runs on a contiguous, bounds-check-free slice.
const DENSE_BLOCK: usize = 4;

/// The shared in-place factorization kernel behind [`Lu::factor`] and
/// [`factor_in_place`]: scaled partial pivoting with a blocked trailing
/// update. Returns the permutation sign.
///
/// Every trailing element receives exactly one `-= factor * u_kj` update
/// per elimination step, so the blocking cannot change the arithmetic:
/// results are bitwise-identical to the textbook doubly-indexed loop.
///
/// Moduli are screened ([`Scalar::modulus_bound`]): a row scale computes
/// an entry's exact modulus only when its bound exceeds the running
/// maximum, and a pivot candidate only when its bound over its row scale
/// exceeds the best scaled pivot so far. Neither skip can change a
/// result (DESIGN.md §2.1): a skipped entry cannot raise a maximum, and
/// since rounded division is monotone a skipped row cannot win the
/// strict `>` that lets the first of tied rows keep the pivot. Row `k`'s
/// own scaled pivot, the winner's and the tolerance test stay exact.
fn factor_kernel<S: Scalar>(
    a: &mut Matrix<S>,
    pivots: &mut Vec<Pivot<S>>,
) -> Result<f64, SolveError> {
    if a.rows() != a.cols() {
        return Err(SolveError::NotSquare);
    }
    let n = a.rows();
    pivots.clear();
    let mut perm_sign = 1.0;

    // Row scales from the original matrix (implicit equilibration), in
    // the pass that checks finiteness. An all-zero row is singular
    // outright, but a non-finite entry in any row is reported first.
    let mut zero_row = None;
    for i in 0..n {
        let mut scale = 0.0_f64;
        for &v in a.row(i) {
            if !v.is_finite() {
                return Err(SolveError::NonFinite);
            }
            scale = v.max_modulus(scale);
        }
        if scale == 0.0 {
            zero_row = zero_row.or(Some(i));
        }
        pivots.push(Pivot { row: i, scale, divisor: S::zero() });
    }
    if let Some(step) = zero_row {
        return Err(SolveError::Singular { step });
    }

    for k in 0..n {
        // Scaled partial pivot: the first row maximizing |a_ik| / s_i.
        let mut pivot_row = k;
        let mut pivot_scaled = a[(k, k)].modulus() / pivots[k].scale;
        for i in (k + 1)..n {
            let (v, scale) = (a[(i, k)], pivots[i].scale);
            if v.modulus_bound() / scale <= pivot_scaled {
                continue;
            }
            let mag = v.modulus() / scale;
            if mag > pivot_scaled {
                pivot_scaled = mag;
                pivot_row = i;
            }
        }
        if pivot_scaled < SCALED_PIVOT_TOL {
            return Err(SolveError::Singular { step: k });
        }
        if pivot_row != k {
            a.swap_rows(k, pivot_row);
            pivots.swap(k, pivot_row);
            perm_sign = -perm_sign;
        }
        let (_, _, data) = a.parts_mut();
        let (upper, trailing) = data.split_at_mut((k + 1) * n);
        let prow = &upper[k * n..];
        let divisor = prow[k].prepare_divisor();
        pivots[k].divisor = divisor;
        for block in trailing.chunks_mut(DENSE_BLOCK * n) {
            for row in block.chunks_mut(n) {
                let factor = row[k].div_prepared(divisor);
                row[k] = factor;
                if factor == S::zero() {
                    continue;
                }
                for (elem, &ukj) in row[k + 1..].iter_mut().zip(&prow[k + 1..]) {
                    *elem -= factor * ukj;
                }
            }
        }
    }
    Ok(perm_sign)
}

/// Factors `a` in place as `P A = L U` (combined L/U storage, unit
/// diagonal of L implied), writing the row permutation and prepared
/// pivots into `pivots`.
///
/// This is the zero-allocation path for hot loops: a Newton iteration
/// assembles into a workspace matrix, factors it in place, and solves
/// with [`solve_factored`] — no per-iteration clone, and with a reused
/// `pivots` no allocation at all.
///
/// # Errors
///
/// Same contract as [`Lu::factor`].
pub fn factor_in_place<S: Scalar>(
    a: &mut Matrix<S>,
    pivots: &mut Vec<Pivot<S>>,
) -> Result<(), SolveError> {
    factor_kernel(a, pivots).map(|_| ())
}

/// Solves `A x = b` against a factorization produced by
/// [`factor_in_place`] (or [`Lu::factor`]'s internal storage), writing
/// the solution into `x` (cleared and refilled; capacity is reused).
///
/// # Errors
///
/// * [`SolveError::DimensionMismatch`] if `b.len()` differs from the
///   factored dimension.
/// * [`SolveError::NonFinite`] if the solution contains NaN/∞.
pub fn solve_factored<S: Scalar>(
    lu: &Matrix<S>,
    pivots: &[Pivot<S>],
    b: &[S],
    x: &mut Vec<S>,
) -> Result<(), SolveError> {
    let n = lu.rows();
    if b.len() != n {
        return Err(SolveError::DimensionMismatch { expected: n, actual: b.len() });
    }
    // Apply permutation: x = P b.
    x.clear();
    x.extend(pivots.iter().map(|p| b[p.row]));
    // Forward substitution (L has unit diagonal).
    for i in 1..n {
        let row = lu.row(i);
        let mut acc = x[i];
        for (j, xj) in x.iter().enumerate().take(i) {
            acc -= row[j] * *xj;
        }
        x[i] = acc;
    }
    // Back substitution with U, dividing by the prepared diagonal.
    for i in (0..n).rev() {
        let row = lu.row(i);
        let mut acc = x[i];
        for (j, xj) in x.iter().enumerate().skip(i + 1) {
            acc -= row[j] * *xj;
        }
        x[i] = acc.div_prepared(pivots[i].divisor);
    }
    if x.iter().any(|v| !v.is_finite()) {
        return Err(SolveError::NonFinite);
    }
    Ok(())
}

impl<S: Scalar> Lu<S> {
    /// Factors `a` as `P A = L U`, consuming the matrix. Uses scaled
    /// partial pivoting (implicit row equilibration) so badly scaled but
    /// structurally sound systems stay solvable.
    ///
    /// # Errors
    ///
    /// * [`SolveError::NotSquare`] if `a` is not square.
    /// * [`SolveError::Singular`] if a pivot underflows its row scale.
    /// * [`SolveError::NonFinite`] if `a` contains NaN or ∞.
    pub fn factor(mut a: Matrix<S>) -> Result<Self, SolveError> {
        let mut pivots = Vec::new();
        let perm_sign = factor_kernel(&mut a, &mut pivots)?;
        Ok(Lu { lu: a, pivots, perm_sign })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`, returning a fresh solution vector.
    ///
    /// # Errors
    ///
    /// * [`SolveError::DimensionMismatch`] if `b.len() != self.dim()`.
    /// * [`SolveError::NonFinite`] if the solution contains NaN/∞.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, SolveError> {
        let mut x = Vec::with_capacity(self.dim());
        solve_factored(&self.lu, &self.pivots, b, &mut x)?;
        Ok(x)
    }

    /// Determinant of the original matrix, as a scalar.
    pub fn det(&self) -> S {
        let mut d = S::from_f64(self.perm_sign);
        for i in 0..self.dim() {
            d = d * self.lu[(i, i)];
        }
        d
    }
}

/// Convenience one-shot solve of `A x = b`.
///
/// # Errors
///
/// Propagates any [`SolveError`] from factorization or substitution.
pub fn solve<S: Scalar>(a: Matrix<S>, b: &[S]) -> Result<Vec<S>, SolveError> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex;

    #[test]
    fn solves_known_2x2() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let lu = Lu::factor(a).unwrap();
        let x = lu.solve(&[9.0, 13.0]).unwrap();
        assert!((x[0] - 1.4).abs() < 1e-12);
        assert!((x[1] - 3.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::factor(a), Err(SolveError::Singular { .. })));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert_eq!(Lu::factor(a).unwrap_err(), SolveError::NotSquare);
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::<f64>::identity(2);
        let lu = Lu::factor(a).unwrap();
        assert_eq!(
            lu.solve(&[1.0]).unwrap_err(),
            SolveError::DimensionMismatch { expected: 2, actual: 1 }
        );
    }

    #[test]
    fn nan_input_rejected() {
        let mut a = Matrix::<f64>::identity(2);
        a[(0, 1)] = f64::NAN;
        assert_eq!(Lu::factor(a).unwrap_err(), SolveError::NonFinite);
    }

    #[test]
    fn determinant_of_permuted_identity() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::factor(a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_matches_closed_form() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[2.0, 5.0]]);
        let lu = Lu::factor(a).unwrap();
        assert!((lu.det() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn complex_system_solution() {
        // (1+j) x = 2 → x = 1 - j
        let a = Matrix::from_rows(&[&[Complex::new(1.0, 1.0)]]);
        let x = solve(a, &[Complex::new(2.0, 0.0)]).unwrap();
        assert!((x[0] - Complex::new(1.0, -1.0)).abs() < 1e-14);
    }

    #[test]
    fn residual_small_on_larger_system() {
        // A deterministic well-conditioned 6x6 matrix.
        let n = 6;
        let mut a = Matrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = ((i * 7 + j * 3) % 11) as f64 + if i == j { 15.0 } else { 0.0 };
            }
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let lu = Lu::factor(a.clone()).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10, "residual too large");
        }
    }

    #[test]
    fn in_place_factor_matches_owning_factor_bitwise() {
        // A deterministic, moderately sized system with pivoting activity.
        let n = 9;
        let mut a = Matrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = (((i * 5 + j * 11 + 3) % 13) as f64 - 6.0)
                    + if i == j { 0.5 } else { 0.0 };
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        let via_owning = Lu::factor(a.clone()).unwrap().solve(&b).unwrap();
        let mut work = a.clone();
        let mut perm = Vec::new();
        factor_in_place(&mut work, &mut perm).unwrap();
        let mut x = Vec::new();
        solve_factored(&work, &perm, &b, &mut x).unwrap();
        assert_eq!(x, via_owning, "in-place path must be bitwise identical");
    }

    #[test]
    fn in_place_buffers_are_reusable() {
        let mut perm = Vec::new();
        let mut x = Vec::new();
        for scale in [1.0, 2.0, 4.0] {
            let mut a = Matrix::from_rows(&[&[0.0, scale], &[scale, 0.0]]);
            factor_in_place(&mut a, &mut perm).unwrap();
            solve_factored(&a, &perm, &[2.0 * scale, 3.0 * scale], &mut x).unwrap();
            assert_eq!(x, vec![3.0, 2.0]);
        }
    }

    #[test]
    fn in_place_factor_reports_singular() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut perm = Vec::new();
        assert!(matches!(
            factor_in_place(&mut a, &mut perm),
            Err(SolveError::Singular { .. })
        ));
    }

    #[test]
    fn solve_reusable_for_multiple_rhs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let lu = Lu::factor(a).unwrap();
        assert_eq!(lu.solve(&[2.0, 4.0]).unwrap(), vec![1.0, 1.0]);
        assert_eq!(lu.solve(&[4.0, 8.0]).unwrap(), vec![2.0, 2.0]);
    }
}
