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
/// this position and U's diagonal entry there as a prepared divisor
/// ([`Scalar::prepare_divisor`]). While the factorization runs it also
/// holds the row's scale and scratch for the elimination. Reusing one
/// `Vec` of these across factorizations keeps every factorization after
/// the first allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct Pivot<S: Scalar> {
    row: usize,
    /// The largest modulus of the original row, or NaN until a pivot
    /// search needs it where the squared screen kept a witness instead.
    scale: f64,
    /// `1 / max(re² + im²)` over the original row (screened rows only).
    inv_sq_scale: f64,
    /// U's diagonal entry here, prepared. Until the row is pivoted, a
    /// screened row keeps its witness here: the entry whose modulus is
    /// the row's scale, or zero where the scale was computed outright.
    divisor: S,
    /// One column of the current pivot row's nonzero list.
    col: usize,
}

impl<S: Scalar> Pivot<S> {
    /// The original row at this position: `perm[i]` of `P A = L U`.
    pub fn row(&self) -> usize {
        self.row
    }

    fn new(row: usize, scale: f64, inv_sq_scale: f64, divisor: S) -> Self {
        Pivot { row, scale, inv_sq_scale, divisor, col: 0 }
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

/// The squared screen's relative margin, as the factor `1 − 2⁻⁴⁰` that
/// shrinks the best squared value: a comparison closer than this is
/// decided on exact moduli. 2⁻⁴⁰ is over two hundred times the screen's
/// worst-case rounding (DESIGN.md §2.1).
pub(crate) const SQ_KEEP: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;

/// The squared screen runs only on rows whose largest `re² + im²` lies in
/// `[2⁻⁵⁰⁰, 2⁵⁰⁰]`, and decides a pivot only among candidates whose
/// `re² + im²` is at most 2⁵⁰⁰: then every reciprocal and scaled square
/// it forms is a normal number (DESIGN.md §2.1).
pub(crate) const SQ_MIN: f64 = f64::from_bits((1023 - 500) << 52);
/// See [`SQ_MIN`].
pub(crate) const SQ_MAX: f64 = f64::from_bits((1023 + 500) << 52);

/// [`SCALED_PIVOT_TOL`] squared, for the screened tolerance test.
const TOL_SQ: f64 = SCALED_PIVOT_TOL * SCALED_PIVOT_TOL;

/// The larger of two values, one compare and select (`f64::max`'s NaN
/// handling costs more; callers rule NaN out by other means).
#[inline]
pub(crate) fn larger(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The smaller of two values; see [`larger`].
#[inline]
fn smaller(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// `max(|v|)` over `row`, bit for bit the fold of exact moduli, computing
/// a modulus only where [`Scalar::max_modulus`]'s bound cannot rule it out.
fn exact_scale<S: Scalar>(row: &[S]) -> f64 {
    row.iter().fold(0.0, |scale, &v| v.max_modulus(scale))
}

/// One pass over a row's `re² + im²`: the largest, the second largest
/// (equal to the largest on a tie), the column of the largest, the sum
/// (finite exactly when every entry is finite and no square overflows)
/// and the bits of every zero component ORed together, whose sign bit
/// is set exactly when one of them is `-0.0`. Two independent
/// accumulators break the serial dependency chain (four measured
/// slower).
struct RowSquares {
    max: f64,
    second: f64,
    at: usize,
    sum: f64,
    zero_bits: u64,
}

impl RowSquares {
    fn of<S: Scalar>(row: &[S]) -> Self {
        const LANES: usize = 2;
        let mut max = [0.0_f64; LANES];
        let mut second = [0.0_f64; LANES];
        let mut at = [0_usize; LANES];
        let mut sum = [0.0_f64; LANES];
        let mut zero_bits = [0_u64; LANES];
        let mut lane = |l: usize, j: usize, v: S| {
            let (re, im) = v.parts();
            let q = re * re + im * im;
            sum[l] += q;
            second[l] = larger(second[l], smaller(max[l], q));
            if q > max[l] {
                max[l] = q;
                at[l] = j;
            }
            let zero = |x: f64| if x == 0.0 { x.to_bits() } else { 0 };
            zero_bits[l] |= zero(re) | zero(im);
        };
        let mut chunks = row.chunks_exact(LANES);
        for (c, chunk) in chunks.by_ref().enumerate() {
            for (l, &v) in chunk.iter().enumerate() {
                lane(l, c * LANES + l, v);
            }
        }
        let base = row.len() - chunks.remainder().len();
        for (l, &v) in chunks.remainder().iter().enumerate() {
            lane(l, base + l, v);
        }
        let mut out = RowSquares {
            max: max[0],
            second: second[0],
            at: at[0],
            sum: sum[0],
            zero_bits: zero_bits[0],
        };
        for l in 1..LANES {
            if max[l] > out.max {
                out.second = larger(second[l], out.max);
                out.max = max[l];
                out.at = at[l];
            } else {
                out.second = larger(out.second, max[l]);
            }
            out.sum += sum[l];
            out.zero_bits |= zero_bits[l];
        }
        out
    }
}

/// Row scales decided on squared moduli (DESIGN.md §2.1): each row's
/// `1 / max(re² + im²)`, and its exact scale only where its two largest
/// squares are within the margin; elsewhere the largest entry is kept
/// (the row's *witness*) and its modulus computed if a pivot search ever
/// needs it. Returns whether the matrix is free of `-0.0`, which licenses
/// skipping zero updates, or `None` where a row has a non-finite entry
/// or its largest square leaves `[SQ_MIN, SQ_MAX]`, for the exact pass
/// to handle.
fn screened_scales<S: Scalar>(a: &Matrix<S>, pivots: &mut Vec<Pivot<S>>) -> Option<bool> {
    let mut neg_zero = false;
    for i in 0..a.rows() {
        let row = a.row(i);
        let sq = RowSquares::of(row);
        if !(sq.sum.is_finite() && (SQ_MIN..=SQ_MAX).contains(&sq.max)) {
            return None;
        }
        neg_zero |= sq.zero_bits != 0;
        let pivot = if sq.second < sq.max * SQ_KEEP {
            Pivot::new(i, f64::NAN, 1.0 / sq.max, row[sq.at])
        } else {
            Pivot::new(i, exact_scale(row), 1.0 / sq.max, S::zero())
        };
        pivots.push(pivot);
    }
    Some(!neg_zero)
}

/// Exact row scales from the original matrix (implicit equilibration),
/// in the pass that checks finiteness. An all-zero row is singular
/// outright, but a non-finite entry in any row is reported first.
fn exact_scales<S: Scalar>(a: &Matrix<S>, pivots: &mut Vec<Pivot<S>>) -> Result<(), SolveError> {
    let mut zero_row = None;
    for i in 0..a.rows() {
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
        pivots.push(Pivot::new(i, scale, 0.0, S::zero()));
    }
    match zero_row {
        Some(step) => Err(SolveError::Singular { step }),
        None => Ok(()),
    }
}

/// Whether a component of `v` is `-0.0`.
fn has_neg_zero<S: Scalar>(v: S) -> bool {
    let (re, im) = v.parts();
    re.to_bits() == NEG_ZERO_BITS || im.to_bits() == NEG_ZERO_BITS
}

/// The bits of `-0.0`: the sign bit alone.
const NEG_ZERO_BITS: u64 = 1 << 63;

/// Whether two scalars have the same bits.
fn same_bits<S: Scalar>(a: S, b: S) -> bool {
    let ((ar, ai), (br, bi)) = (a.parts(), b.parts());
    ar.to_bits() == br.to_bits() && ai.to_bits() == bi.to_bits()
}

/// Row `i`'s exact scale, computed from its witness on first use.
fn scale_of<S: Scalar>(pivots: &mut [Pivot<S>], i: usize) -> f64 {
    let p = &mut pivots[i];
    if p.scale.is_nan() {
        p.scale = p.divisor.modulus();
    }
    p.scale
}

/// Step `k`'s pivot row decided on `t = (re² + im²)·(1 / row max)`, the
/// squared scaled modulus: the row of the largest `t` when every other
/// `t` is below it by the margin, else the first row of strictly largest
/// exact scaled modulus among the rows within the margin. `None` where
/// the screen cannot decide: a candidate out of range or non-finite, or
/// a best `t` within the margin of the tolerance.
fn screened_pivot<S: Scalar>(a: &Matrix<S>, pivots: &mut [Pivot<S>], k: usize) -> Option<usize> {
    let n = a.rows();
    let t_of = |pivots: &[Pivot<S>], i: usize| {
        let (re, im) = a[(i, k)].parts();
        let q = re * re + im * im;
        (q, q * pivots[i].inv_sq_scale)
    };
    let (mut best, mut second, mut at, mut in_range) = (0.0_f64, 0.0_f64, k, true);
    for i in k..n {
        let (q, t) = t_of(pivots, i);
        in_range &= q <= SQ_MAX;
        second = larger(second, smaller(best, t));
        if t > best {
            best = t;
            at = i;
        }
    }
    let floor = best * SQ_KEEP;
    if !in_range || floor < TOL_SQ {
        return None;
    }
    if second < floor {
        return Some(at);
    }
    let mut pivot: Option<(usize, f64)> = None;
    for i in k..n {
        if t_of(pivots, i).1 < floor {
            continue;
        }
        let v = a[(i, k)];
        let mag =
            if same_bits(v, pivots[i].divisor) { 1.0 } else { v.modulus() / scale_of(pivots, i) };
        if pivot.is_none_or(|(_, best)| mag > best) {
            pivot = Some((i, mag));
        }
    }
    pivot.map(|(i, _)| i)
}

/// Step `k`'s pivot row on exact scaled moduli: the first row maximizing
/// `|a_ik| / s_i`, or `Singular` below [`SCALED_PIVOT_TOL`]. A candidate's
/// exact modulus is computed only when its bound over its row scale
/// exceeds the best scaled pivot so far (DESIGN.md §2.1).
fn exact_pivot<S: Scalar>(
    a: &Matrix<S>,
    pivots: &mut [Pivot<S>],
    k: usize,
) -> Result<usize, SolveError> {
    let mut pivot_row = k;
    let mut pivot_scaled = a[(k, k)].modulus() / scale_of(pivots, k);
    for i in (k + 1)..a.rows() {
        let (v, scale) = (a[(i, k)], scale_of(pivots, i));
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
    Ok(pivot_row)
}

/// The shared in-place factorization kernel behind [`Lu::factor`] and
/// [`factor_in_place`]: scaled partial pivoting with a blocked trailing
/// update. Returns the permutation sign.
///
/// Every trailing element receives exactly one `-= factor * u_kj` update
/// per elimination step, so the blocking cannot change the arithmetic:
/// results are bitwise-identical to the textbook doubly-indexed loop.
///
/// The pivot decisions match exact moduli bit for bit (DESIGN.md §2.1).
/// For [`Complex`](crate::Complex) they are made on `re² + im²` with a
/// relative margin, computing an exact modulus only for a decision inside
/// it; a matrix the screen cannot vouch for (a non-finite entry, an
/// all-zero row, a row maximum out of range) takes exact row scales, and
/// a step it cannot decide takes the exact search. Those screen the
/// moduli through [`Scalar::modulus_bound`], which is all `f64` uses.
/// When a complex matrix has no `-0.0` component, an update by a zero
/// pivot-row entry and a finite multiplier is skipped: it cannot change
/// an entry that is not `-0.0`, and no entry becomes `-0.0`.
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

    let screen = if S::SQUARE_SCREEN { screened_scales(a, pivots) } else { None };
    let skip_zeros = match screen {
        Some(no_neg_zero) => no_neg_zero,
        None => {
            pivots.clear();
            exact_scales(a, pivots)?;
            S::SQUARE_SCREEN && !a.as_slice().iter().any(|&v| has_neg_zero(v))
        }
    };

    for k in 0..n {
        let pivot_row = match screen.and_then(|_| screened_pivot(a, pivots, k)) {
            Some(row) => row,
            None => exact_pivot(a, pivots, k)?,
        };
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
        // The pivot row's nonzero columns past `k`, listed in the scratch.
        let mut nonzero = 0;
        if skip_zeros {
            for (j, &ukj) in prow.iter().enumerate().skip(k + 1) {
                if ukj != S::zero() {
                    pivots[nonzero].col = j;
                    nonzero += 1;
                }
            }
        }
        let nonzero = &pivots[..nonzero];
        for block in trailing.chunks_mut(DENSE_BLOCK * n) {
            for row in block.chunks_mut(n) {
                let factor = row[k].div_prepared(divisor);
                row[k] = factor;
                if factor == S::zero() {
                    continue;
                }
                if skip_zeros && factor.is_finite() {
                    for p in nonzero {
                        row[p.col] -= factor * prow[p.col];
                    }
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
