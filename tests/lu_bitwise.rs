//! The dense and sparse LU kernels against verbatim copies of the
//! kernels they replaced, bit for bit.
//!
//! Both kernels screen moduli through `Scalar::modulus_bound` and divide
//! through prepared pivots (`Scalar::prepare_divisor`), and neither may
//! move a bit. The references in [`reference`] compute every modulus
//! exactly and divide with `/`. Every case compares, for `f64` and
//! `Complex`: the `Result` (error variant and step included), the row
//! permutation, the bits of the factors, the determinant and the bits of
//! the solution. Random cases span dimensions 0–48 and magnitudes
//! 1e-300..1e300; the adversarial ones sit on each boundary of the
//! screen.

use asdex::linalg::{
    factor_in_place, solve_factored, Assembler, Complex, Lu, Matrix, Pivot, Scalar, SolveError,
    SparseAssembler, SparseLu, SparseStatus,
};

/// SplitMix64: a dependency-free, seeded stream of `u64`s.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Random sign times a magnitude drawn from `family`:
    /// 0 — uniform in (0, 1), zero 30% of the time;
    /// 1 — small integers (exact ties and exact zeros);
    /// 2 — log-uniform over 1e-300..1e300;
    /// 3 — uniform in (0, 1), zero half the time, for rescaling.
    fn real(&mut self, family: usize) -> f64 {
        let sign = if self.chance(0.5) { -1.0 } else { 1.0 };
        let mag = match family {
            0 => {
                if self.chance(0.3) {
                    0.0
                } else {
                    self.unit()
                }
            }
            1 => self.below(3) as f64,
            2 => 10f64.powf(600.0 * self.unit() - 300.0),
            _ => {
                if self.chance(0.5) {
                    0.0
                } else {
                    self.unit()
                }
            }
        };
        sign * mag
    }
}

/// What the comparison needs of a scalar beyond [`Scalar`].
trait Sample: Scalar {
    fn bits(self) -> (u64, u64);
    fn random(rng: &mut Rng, family: usize) -> Self;
    fn scaled(self, by: f64) -> Self;
}

impl Sample for f64 {
    fn bits(self) -> (u64, u64) {
        (self.to_bits(), 0)
    }
    fn random(rng: &mut Rng, family: usize) -> Self {
        rng.real(family)
    }
    fn scaled(self, by: f64) -> Self {
        self * by
    }
}

impl Sample for Complex {
    fn bits(self) -> (u64, u64) {
        (self.re.to_bits(), self.im.to_bits())
    }
    fn random(rng: &mut Rng, family: usize) -> Self {
        let re = rng.real(family);
        // Purely real, purely imaginary and |re| == |im| entries are where
        // the bound √2·max(|re|, |im|) is loosest and tightest.
        match rng.below(6) {
            0 => Complex::new(re, 0.0),
            1 => Complex::new(0.0, re),
            2 => Complex::new(re, if rng.chance(0.5) { re } else { -re }),
            _ => Complex::new(re, rng.real(family)),
        }
    }
    fn scaled(self, by: f64) -> Self {
        self * by
    }
}

fn all_bits<S: Sample>(v: &[S]) -> Vec<(u64, u64)> {
    v.iter().map(|&s| s.bits()).collect()
}

/// Factors and solves `a x = b` with the reference and with the
/// kernel — through [`factor_in_place`] into the reused `pivots` and
/// through [`Lu`] — and asserts that every output is the same, bit for
/// bit. Returns the factorization's result.
fn assert_matches_reference<S: Sample>(
    a: &Matrix<S>,
    b: &[S],
    pivots: &mut Vec<Pivot<S>>,
    what: &str,
) -> Result<(), SolveError> {
    let mut want = a.clone();
    let mut perm = Vec::new();
    let want_res = reference::factor_kernel(&mut want, &mut perm);
    let mut got = a.clone();
    let got_res = factor_in_place(&mut got, pivots);
    assert_eq!(got_res, want_res.clone().map(|_| ()), "{what}: factor result");
    assert_eq!(
        Lu::factor(a.clone()).map(|lu| lu.det().bits()),
        want_res.clone().map(|sign| {
            let mut d = S::from_f64(sign);
            for i in 0..want.rows() {
                d = d * want[(i, i)];
            }
            d.bits()
        }),
        "{what}: determinant"
    );
    // The factors, also as far as a failed factorization got. A
    // `NonFinite` matrix is rejected before any elimination, and the
    // permutation it leaves is unspecified.
    assert!(all_bits(got.as_slice()) == all_bits(want.as_slice()), "{what}: factor bits");
    if want_res != Err(SolveError::NonFinite) && want_res != Err(SolveError::NotSquare) {
        let rows: Vec<usize> = pivots.iter().map(Pivot::row).collect();
        assert_eq!(rows, perm, "{what}: permutation");
    }
    if want_res.is_ok() {
        let (mut x_want, mut x_got) = (Vec::new(), Vec::new());
        let sol_want = reference::solve_factored(&want, &perm, b, &mut x_want);
        let sol_got = solve_factored(&got, pivots, b, &mut x_got);
        assert_eq!(sol_got, sol_want, "{what}: solve result");
        assert!(all_bits(&x_got) == all_bits(&x_want), "{what}: solution bits");
        let owned = Lu::factor(a.clone()).and_then(|lu| lu.solve(b));
        assert_eq!(owned.as_ref().err(), sol_want.as_ref().err(), "{what}: Lu::solve result");
        if let Ok(x) = owned {
            assert!(all_bits(&x) == all_bits(&x_want), "{what}: Lu::solve bits");
        }
    }
    got_res
}

fn random_matrix<S: Sample>(rng: &mut Rng, n: usize, family: usize) -> Matrix<S> {
    let mut a = Matrix::zeros(n, n);
    // Family 3 rescales rows by up to 10^±300 and columns by up to 10^±5:
    // the row scales tame the first, while eliminating across rows that
    // far apart overflows and feeds ∞ and NaN to later pivot searches.
    let row_exp: Vec<f64> = (0..n).map(|_| 600.0 * rng.unit() - 300.0).collect();
    let col_exp: Vec<f64> = (0..n).map(|_| 10.0 * rng.unit() - 5.0).collect();
    for i in 0..n {
        for j in 0..n {
            let mut v = S::random(rng, family);
            if family == 3 {
                v = v.scaled(10f64.powf(row_exp[i] + col_exp[j]));
            }
            a[(i, j)] = v;
        }
    }
    a
}

fn random_cases<S: Sample>(seed: u64) {
    let mut rng = Rng(seed);
    let mut pivots = Vec::new();
    // Solved, factored with a non-finite solution, singular.
    let mut outcomes = [0usize; 3];
    for n in 0..=48 {
        for family in 0..4 {
            for rep in 0..3 {
                let a = random_matrix::<S>(&mut rng, n, family);
                let b: Vec<S> = (0..n).map(|_| S::random(&mut rng, 0)).collect();
                let what = format!("n={n} family={family} rep={rep}");
                let k = match assert_matches_reference(&a, &b, &mut pivots, &what) {
                    Ok(()) => match Lu::factor(a).and_then(|lu| lu.solve(&b)) {
                        Ok(_) => 0,
                        Err(_) => 1,
                    },
                    Err(_) => 2,
                };
                outcomes[k] += 1;
            }
        }
    }
    // Not vacuous: every outcome occurs, and a good share solve.
    assert!(outcomes.iter().all(|&k| k > 0) && outcomes[0] > 200, "{outcomes:?}");
}

#[test]
fn dense_kernel_matches_the_reference_on_random_f64_systems() {
    random_cases::<f64>(1);
}

#[test]
fn dense_kernel_matches_the_reference_on_random_complex_systems() {
    random_cases::<Complex>(2);
}

fn c(re: f64, im: f64) -> Complex {
    Complex::new(re, im)
}

/// The right-hand side `1, 2, …, n` lifted into `S`.
fn rhs<S: Scalar>(n: usize) -> Vec<S> {
    (0..n).map(|i| S::from_f64(i as f64 + 1.0)).collect()
}

fn check<S: Sample>(rows: &[&[S]], what: &str) -> Result<(), SolveError> {
    let a = Matrix::from_rows(rows);
    assert_matches_reference(&a, &rhs(rows.len()), &mut Vec::new(), what)
}

#[test]
fn scaled_pivot_ties_keep_the_first_row() {
    // Every candidate of column 0 has scaled modulus exactly 1.
    let rows: [&[Complex]; 4] = [
        &[c(3.0, 4.0), c(1.0, 0.0), c(0.0, 1.0), c(2.0, 2.0)],
        &[c(4.0, -3.0), c(0.0, 2.0), c(1.0, 1.0), c(1.0, 0.0)],
        &[c(-5.0, 0.0), c(1.0, 1.0), c(2.0, 0.0), c(0.0, -1.0)],
        &[c(0.0, 5.0), c(2.0, -1.0), c(0.0, 0.0), c(1.0, 3.0)],
    ];
    let a = Matrix::from_rows(&rows);
    let mut pivots = Vec::new();
    assert_matches_reference(&a, &rhs(4), &mut pivots, "complex tie").unwrap();
    assert_eq!(pivots[0].row(), 0, "the first of tied rows keeps the pivot");

    // Three rows tie at scaled modulus 1 under three different scales.
    let rows: [&[f64]; 3] = [&[1.0, 1.0, 0.5], &[-2.0, 2.0, 1.0], &[3.0, -1.0, 2.0]];
    let a = Matrix::from_rows(&rows);
    let mut pivots = Vec::new();
    assert_matches_reference(&a, &rhs(3), &mut pivots, "f64 tie").unwrap();
    assert_eq!(pivots[0].row(), 0);
    let rows: [&[f64]; 2] = [&[1.0, 1.0], &[-1.0, 1.0]];
    let a = Matrix::from_rows(&rows);
    assert_matches_reference(&a, &rhs(2), &mut pivots, "f64 2x2 tie").unwrap();
    assert_eq!(pivots[0].row(), 0);
}

#[test]
fn equal_parts_and_bounds_equal_to_the_maximum_match() {
    // |re| == |im| everywhere: the bound is at its tightest.
    let rows: [&[Complex]; 3] = [
        &[c(1.0, 1.0), c(-2.0, 2.0), c(0.5, -0.5)],
        &[c(3.0, -3.0), c(1.0, 1.0), c(-1.0, -1.0)],
        &[c(-0.25, 0.25), c(2.0, 2.0), c(4.0, -4.0)],
    ];
    check(&rows, "equal parts").unwrap();

    // `b` is (1, 1)'s bound. In row 0 the running maximum reaches b before
    // (1, 1) is screened, and in column 0 row 1's bound over its scale
    // equals row 0's scaled pivot exactly: both skips are at equality.
    let b = c(1.0, 1.0).abs_bound();
    let rows: [&[Complex]; 2] = [&[c(b, 0.0), c(1.0, 1.0)], &[c(1.0, 1.0), c(b, 0.0)]];
    let a = Matrix::from_rows(&rows);
    let mut pivots = Vec::new();
    assert_matches_reference(&a, &rhs(2), &mut pivots, "bound at the max").unwrap();
    assert_eq!(pivots[0].row(), 0);
    let rows: [&[Complex]; 2] = [&[c(0.0, b), c(-1.0, 1.0)], &[c(1.0, -1.0), c(0.0, -b)]];
    check(&rows, "bound at the max, imaginary").unwrap();
}

#[test]
fn subnormal_entries_match() {
    let tiny = f64::MIN_POSITIVE;
    let rows: [&[Complex]; 3] = [
        &[c(5e-324, 5e-324), c(1e-310, -2e-310), c(0.0, 3e-320)],
        &[c(2e-315, 0.0), c(tiny, 1e-320), c(-4e-324, 1e-323)],
        &[c(0.0, -1e-312), c(3e-322, 2e-322), c(1e-308, 1e-309)],
    ];
    check(&rows, "all subnormal").unwrap();
    let rows: [&[Complex]; 3] = [
        &[c(1.0, 0.5), c(1e-310, -2e-310), c(0.0, 3e-320)],
        &[c(2e-315, 0.0), c(tiny, 1e-320), c(-4e-324, 1e-323)],
        &[c(0.0, -1e-312), c(3e-322, 2e-322), c(2.0, -1.0)],
    ];
    check(&rows, "mixed subnormal").unwrap();
    let rows: [&[f64]; 2] = [&[5e-324, 1e-310], &[-2e-320, 3e-315]];
    check(&rows, "f64 subnormal").unwrap();
}

#[test]
fn entries_near_the_largest_finite_value_match() {
    let max = f64::MAX;
    // (max, max)'s modulus overflows to ∞, so its row scale is ∞; (0.75
    // max, 0.5 max) is past the bound's overflow guard; (0.49 max, 0.49
    // max) is just inside it.
    let rows: [&[Complex]; 3] = [
        &[c(max, max), c(1.0, 0.0), c(0.0, 1.0)],
        &[c(0.75 * max, 0.5 * max), c(0.49 * max, 0.49 * max), c(1.0, 1.0)],
        &[c(2.0, 0.0), c(-0.49 * max, 0.49 * max), c(0.5 * max, -0.25 * max)],
    ];
    let _ = check(&rows, "near f64::MAX");
    let rows: [&[Complex]; 2] =
        [&[c(0.49 * max, 0.49 * max), c(1.0, 0.0)], &[c(1.0, 1.0), c(0.6 * max, 0.0)]];
    check(&rows, "inside the overflow guard").unwrap();
    let rows: [&[f64]; 2] = [&[max, -max], &[max, max]];
    let _ = check(&rows, "f64 at MAX");
}

#[test]
fn non_finite_beats_an_earlier_all_zero_row() {
    let nan = f64::NAN;
    let rows: [&[f64]; 3] = [&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0], &[nan, 1.0, 2.0]];
    assert_eq!(check(&rows, "f64 zero row, then NaN"), Err(SolveError::NonFinite));
    let rows: [&[Complex]; 2] =
        [&[c(0.0, 0.0), c(0.0, 0.0)], &[c(1.0, 0.0), c(0.0, f64::INFINITY)]];
    assert_eq!(check(&rows, "complex zero row, then ∞"), Err(SolveError::NonFinite));
    let rows: [&[Complex]; 2] = [&[c(nan, 0.0), c(1.0, 0.0)], &[c(0.0, 0.0), c(0.0, 0.0)]];
    assert_eq!(check(&rows, "NaN, then a zero row"), Err(SolveError::NonFinite));
    // Without a non-finite entry, the first all-zero row is the step.
    let rows: [&[f64]; 3] = [&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0]];
    assert_eq!(check(&rows, "two zero rows"), Err(SolveError::Singular { step: 1 }));
}

#[test]
fn a_negligible_pivot_after_the_first_step_is_singular_there() {
    let e = f64::EPSILON / 4.0;
    let rows: [&[f64]; 3] = [&[1.0, 1.0, 0.0], &[1.0, 1.0 + 4.0 * e, 0.0], &[0.0, 0.0, 1.0]];
    assert_eq!(check(&rows, "f64 step 1"), Err(SolveError::Singular { step: 1 }));
    let rows: [&[Complex]; 3] = [
        &[c(0.0, 1.0), c(0.0, 1.0), c(1.0, 0.0)],
        &[c(1.0, 1.0), c(2.0, 3.0), c(0.0, 1.0)],
        &[c(0.0, 2.0), c(0.0, 2.0), c(2.0, 1e-16)],
    ];
    assert_eq!(check(&rows, "complex step 2"), Err(SolveError::Singular { step: 2 }));
}

#[test]
fn one_by_one_and_empty_systems_match() {
    assert_eq!(check::<f64>(&[&[3.0]], "f64 1x1"), Ok(()));
    assert_eq!(check::<f64>(&[&[0.0]], "f64 zero 1x1"), Err(SolveError::Singular { step: 0 }));
    assert_eq!(check::<f64>(&[&[f64::NAN]], "f64 NaN 1x1"), Err(SolveError::NonFinite));
    assert_eq!(check(&[&[c(0.0, -2.0)]], "complex 1x1"), Ok(()));
    assert_eq!(check(&[&[c(5e-324, 0.0)]], "subnormal 1x1"), Ok(()));
    let mut pivots = Vec::new();
    for what in ["f64 0x0", "again"] {
        let r = assert_matches_reference(&Matrix::<f64>::zeros(0, 0), &[], &mut pivots, what);
        assert_eq!(r, Ok(()));
    }
    let r = assert_matches_reference(&Matrix::<Complex>::zeros(0, 0), &[], &mut Vec::new(), "0x0");
    assert_eq!(r, Ok(()));
    let r = assert_matches_reference(&Matrix::<f64>::zeros(2, 3), &[], &mut Vec::new(), "2x3");
    assert_eq!(r, Err(SolveError::NotSquare));
}

/// A random pattern of dimension `n`: each diagonal entry with
/// probability `diagonal`, plus two random entries per row.
fn random_pattern(rng: &mut Rng, n: usize, diagonal: f64) -> Vec<(usize, usize)> {
    let mut pattern = Vec::new();
    for i in 0..n {
        if rng.chance(diagonal) {
            pattern.push((i, i));
        }
        for _ in 0..2 {
            pattern.push((i, rng.below(n)));
        }
    }
    pattern
}

/// Factors the values in `asm` with both sparse kernels, solves for `b`
/// when that succeeds, and asserts equal results and solution bits.
fn assert_sparse_matches<S: Sample>(
    asm: &SparseAssembler<S>,
    got_lu: &mut SparseLu<S>,
    want_lu: &mut reference::SparseLu<S>,
    b: &[S],
    what: &str,
) -> Result<(), SparseStatus> {
    got_lu.ensure_symbolic(asm);
    want_lu.ensure_symbolic(asm);
    assert_eq!(
        (got_lu.is_degenerate(), got_lu.analyses(), got_lu.lu_nnz()),
        (want_lu.is_degenerate(), want_lu.analyses(), want_lu.lu_nnz()),
        "{what}: symbolic"
    );
    let got = got_lu.factor(asm);
    assert_eq!(got, want_lu.factor(asm), "{what}: factor result");
    if got.is_ok() {
        let (mut x_got, mut x_want) = (Vec::new(), Vec::new());
        let sol = got_lu.solve(b, &mut x_got);
        assert_eq!(sol, want_lu.solve(b, &mut x_want), "{what}: solve result");
        assert!(all_bits(&x_got) == all_bits(&x_want), "{what}: solution bits");
    }
    got
}

fn sparse_cases<S: Sample>(seed: u64) {
    let mut rng = Rng(seed);
    let mut counts = [0usize; 3];
    // One assembler, so that each new pattern is a new revision.
    let mut asm = SparseAssembler::<S>::new();
    let (mut got_lu, mut want_lu) = (SparseLu::new(), reference::SparseLu::new());
    for n in 1..=40 {
        for family in 0..4 {
            let pattern = random_pattern(&mut rng, n, if family < 2 { 1.0 } else { 0.85 });
            asm.begin(n);
            for &(r, col) in &pattern {
                asm.add(r, col, S::zero());
            }
            // Several value sets replay each symbolic factorization.
            for rep in 0..3 {
                for v in asm.vals_mut() {
                    *v = S::random(&mut rng, family);
                }
                if rep > 0 {
                    // Diagonals dominating their columns: the static
                    // pivots mostly hold.
                    let mut colmax = vec![0.0_f64; n];
                    for (&(_, col), v) in asm.pos().iter().zip(asm.vals()) {
                        colmax[col as usize] = colmax[col as usize].max(v.modulus());
                    }
                    for (i, m) in colmax.iter().enumerate() {
                        if let Some(slot) = asm.slot(i, i) {
                            asm.vals_mut()[slot] = S::from_f64(4.0 * m.min(1e300) + 1.0);
                        }
                    }
                }
                let b: Vec<S> = (0..n).map(|_| S::random(&mut rng, 0)).collect();
                let what = format!("n={n} family={family} rep={rep}");
                counts[match assert_sparse_matches(&asm, &mut got_lu, &mut want_lu, &b, &what) {
                    Ok(()) => 0,
                    Err(SparseStatus::Unstable) => 1,
                    Err(SparseStatus::NonFinite) => 2,
                }] += 1;
            }
        }
    }
    assert!(counts[0] > 150 && counts[1] > 0, "ok/unstable/non-finite: {counts:?}");
}

#[test]
fn sparse_kernel_matches_the_reference_on_random_patterns() {
    sparse_cases::<f64>(3);
    sparse_cases::<Complex>(4);
}

#[test]
fn sparse_pivot_guard_at_its_threshold_matches() {
    // A full 3×3 pattern eliminates column 0 first, with the diagonal as
    // its static pivot of modulus 1, which must be at least τ = 1e-3 of
    // the column's largest modulus. (800, 800) has both parts below 801
    // but modulus ≈ 1131: it alone makes the first column unstable.
    let columns = [
        ([c(1.0, 0.0), c(801.0, 0.0), c(800.0, 800.0)], Err(SparseStatus::Unstable)),
        ([c(0.0, 1.0), c(800.0, 800.0), c(801.0, 0.0)], Err(SparseStatus::Unstable)),
        ([c(1.0, 0.0), c(801.0, 0.0), c(700.0, 700.0)], Ok(())),
        // τ·1000 rounds to exactly 1: the pivot is not below it.
        ([c(-1.0, 0.0), c(0.0, 1000.0), c(700.0, -700.0)], Ok(())),
    ];
    let mut asm = SparseAssembler::new();
    let (mut got_lu, mut want_lu) = (SparseLu::new(), reference::SparseLu::new());
    for (k, (column, want)) in columns.into_iter().enumerate() {
        asm.begin(3);
        for (i, v) in column.into_iter().enumerate() {
            asm.add(i, 0, v);
            asm.add(i, 1, c(if i == 1 { 4.0 } else { 1.0 }, 0.5));
            asm.add(i, 2, c(0.25, if i == 2 { 3.0 } else { -1.0 }));
        }
        let what = format!("column {k}");
        let got = assert_sparse_matches(&asm, &mut got_lu, &mut want_lu, &rhs(3), &what);
        assert_eq!(got, want, "{what}");
    }
}

/// The kernels as they were before the screened moduli and prepared
/// pivots, verbatim but for one line: the dense kernel takes the
/// row-major slice with the public `Matrix::as_mut_slice` where it used
/// the crate-private `parts_mut`.
mod reference {
    use asdex::linalg::{Matrix, Scalar, SolveError, SparseAssembler, SparseStatus};

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
    pub fn factor_kernel<S: Scalar>(
        a: &mut Matrix<S>,
        perm: &mut Vec<usize>,
    ) -> Result<f64, SolveError> {
        if a.rows() != a.cols() {
            return Err(SolveError::NotSquare);
        }
        if !a.is_finite() {
            return Err(SolveError::NonFinite);
        }
        let n = a.rows();
        perm.clear();
        perm.extend(0..n);
        let mut perm_sign = 1.0;

        // Row scales from the original matrix (implicit equilibration).
        let mut scale = vec![0.0_f64; n];
        for i in 0..n {
            for j in 0..n {
                scale[i] = scale[i].max(a[(i, j)].modulus());
            }
            if scale[i] == 0.0 {
                // An all-zero row is singular outright.
                return Err(SolveError::Singular { step: i });
            }
        }

        for k in 0..n {
            // Scaled partial pivot: pick the row maximizing |a_ik| / s_i.
            let mut pivot_row = k;
            let mut pivot_scaled = a[(k, k)].modulus() / scale[k];
            for i in (k + 1)..n {
                let mag = a[(i, k)].modulus() / scale[i];
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
                perm.swap(k, pivot_row);
                scale.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let data = a.as_mut_slice();
            let (upper, trailing) = data.split_at_mut((k + 1) * n);
            let prow = &upper[k * n..];
            let pivot = prow[k];
            for block in trailing.chunks_mut(DENSE_BLOCK * n) {
                for row in block.chunks_mut(n) {
                    let factor = row[k] / pivot;
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
        perm: &[usize],
        b: &[S],
        x: &mut Vec<S>,
    ) -> Result<(), SolveError> {
        let n = lu.rows();
        if b.len() != n {
            return Err(SolveError::DimensionMismatch { expected: n, actual: b.len() });
        }
        // Apply permutation: x = P b.
        x.clear();
        x.extend(perm.iter().map(|&p| b[p]));
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let row = lu.row(i);
            let mut acc = x[i];
            for (j, xj) in x.iter().enumerate().take(i) {
                acc -= row[j] * *xj;
            }
            x[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let row = lu.row(i);
            let mut acc = x[i];
            for (j, xj) in x.iter().enumerate().skip(i + 1) {
                acc -= row[j] * *xj;
            }
            x[i] = acc / row[i];
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(SolveError::NonFinite);
        }
        Ok(())
    }

    /// Sentinel for "row not yet pivoted" during symbolic analysis.
    const NONE: usize = usize::MAX;

    /// Static pivot-stability threshold: a pivot must be at least this
    /// fraction of the largest magnitude in its (updated) column or the
    /// factorization reports [`SparseStatus::Unstable`].
    const STATIC_TAU: f64 = 1e-3;

    #[derive(Debug, Default, Clone)]
    pub struct SparseLu<S: Scalar> {
        // --- symbolic state (pattern-only) ---
        analyzed: bool,
        degenerate: bool,
        sym_rev: u64,
        dim: usize,
        pos: Vec<(u32, u32)>,
        /// Step -> original column eliminated at that step.
        col_order: Vec<usize>,
        /// Step -> original row chosen as pivot.
        pivot_row: Vec<usize>,
        /// Original row -> step it was pivoted at.
        pinv: Vec<usize>,
        /// Per step: A-column entries (original row, value slot).
        a_ptr: Vec<usize>,
        a_rows: Vec<usize>,
        a_slots: Vec<u32>,
        /// Per step k: earlier steps whose L-columns update column k
        /// (ascending — this is also the structural pattern of U(:,k)).
        upd_ptr: Vec<usize>,
        upd: Vec<usize>,
        /// Per step: below-pivot fill rows (original indices, ascending).
        l_ptr: Vec<usize>,
        l_rows: Vec<usize>,
        analyses: u64,
        // --- numeric state (replayed per factor) ---
        u_vals: Vec<S>,
        l_vals: Vec<S>,
        d_vals: Vec<S>,
        factored: bool,
        // --- workspaces ---
        x: Vec<S>,
        z: Vec<S>,
    }

    impl<S: Scalar> SparseLu<S> {
        /// Creates an empty factorization holder.
        pub fn new() -> Self {
            SparseLu {
                analyzed: false,
                degenerate: false,
                sym_rev: 0,
                dim: 0,
                pos: Vec::new(),
                col_order: Vec::new(),
                pivot_row: Vec::new(),
                pinv: Vec::new(),
                a_ptr: Vec::new(),
                a_rows: Vec::new(),
                a_slots: Vec::new(),
                upd_ptr: Vec::new(),
                upd: Vec::new(),
                l_ptr: Vec::new(),
                l_rows: Vec::new(),
                analyses: 0,
                u_vals: Vec::new(),
                l_vals: Vec::new(),
                d_vals: Vec::new(),
                factored: false,
                x: Vec::new(),
                z: Vec::new(),
            }
        }

        /// Makes the cached symbolic factorization match `asm`'s pattern,
        /// re-analyzing only when the pattern genuinely changed.
        pub fn ensure_symbolic(&mut self, asm: &SparseAssembler<S>) {
            if self.analyzed && self.sym_rev == asm.rev() {
                return;
            }
            if self.analyzed && self.dim == asm.dim() && self.pos == asm.pos() {
                // Same pattern rebuilt from scratch (e.g. a fresh analysis
                // over the same topology): adopt the new revision.
                self.sym_rev = asm.rev();
                return;
            }
            self.analyze(asm);
        }

        /// `true` when the pattern is structurally singular and the caller
        /// must use the dense path for every solve of this system.
        pub fn is_degenerate(&self) -> bool {
            self.degenerate
        }

        /// Number of full symbolic analyses performed over this value's
        /// lifetime — a diagnostic for verifying symbolic reuse.
        pub fn analyses(&self) -> u64 {
            self.analyses
        }

        /// Nonzeros in the L + U factors (including the diagonal) — the
        /// fill-in metric reported by benches.
        pub fn lu_nnz(&self) -> usize {
            if !self.analyzed || self.degenerate {
                return 0;
            }
            self.l_rows.len() + self.upd.len() + self.dim
        }

        fn analyze(&mut self, asm: &SparseAssembler<S>) {
            let n = asm.dim();
            self.analyzed = true;
            self.degenerate = false;
            self.sym_rev = asm.rev();
            self.dim = n;
            self.pos.clear();
            self.pos.extend_from_slice(asm.pos());
            self.analyses += 1;
            self.factored = false;

            // Column-major view of the pattern plus per-row entry counts
            // (the Markowitz-style tie-break for structural pivots).
            let mut cols: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
            let mut row_nnz = vec![0usize; n];
            for (slot, &(r, c)) in asm.pos().iter().enumerate() {
                cols[c as usize].push((r as usize, slot as u32));
                row_nnz[r as usize] += 1;
            }
            for col in &mut cols {
                col.sort_unstable();
            }

            // Elimination preorder: sparsest columns first, index as
            // tie-break. Pattern-only, hence deterministic.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by_key(|&j| (cols[j].len(), j));

            self.col_order.clear();
            self.pivot_row = vec![NONE; n];
            self.pinv = vec![NONE; n];
            self.a_ptr.clear();
            self.a_ptr.push(0);
            self.a_rows.clear();
            self.a_slots.clear();
            self.upd_ptr.clear();
            self.upd_ptr.push(0);
            self.upd.clear();
            self.l_ptr.clear();
            self.l_ptr.push(0);
            self.l_rows.clear();

            // DFS mark per earlier step, candidate mark per row; stamped so
            // neither needs clearing between steps.
            let mut mark = vec![0u64; n];
            let mut rmark = vec![0u64; n];
            let mut stack: Vec<usize> = Vec::new();
            let mut reach: Vec<usize> = Vec::new();
            let mut cand: Vec<usize> = Vec::new();

            for (k, &j) in order.iter().enumerate() {
                let stamp = k as u64 + 1;
                self.col_order.push(j);
                for &(r, slot) in &cols[j] {
                    self.a_rows.push(r);
                    self.a_slots.push(slot);
                }
                self.a_ptr.push(self.a_rows.len());

                // Reach: every earlier step p whose pivot row appears in the
                // working column's pattern, closed over L-column fill. Edges
                // only lead to later steps (an L row of step p is pivoted
                // after p), so ascending step order is a topological order.
                reach.clear();
                stack.clear();
                for &(r, _) in &cols[j] {
                    let p = self.pinv[r];
                    if p != NONE && mark[p] != stamp {
                        mark[p] = stamp;
                        stack.push(p);
                    }
                }
                while let Some(p) = stack.pop() {
                    reach.push(p);
                    for &r2 in &self.l_rows[self.l_ptr[p]..self.l_ptr[p + 1]] {
                        let q = self.pinv[r2];
                        if q != NONE && mark[q] != stamp {
                            mark[q] = stamp;
                            stack.push(q);
                        }
                    }
                }
                reach.sort_unstable();

                // Candidate pivot rows: unpivoted rows of the working
                // column's pattern (original entries plus fill).
                cand.clear();
                for &(r, _) in &cols[j] {
                    if self.pinv[r] == NONE && rmark[r] != stamp {
                        rmark[r] = stamp;
                        cand.push(r);
                    }
                }
                for &p in &reach {
                    for &r2 in &self.l_rows[self.l_ptr[p]..self.l_ptr[p + 1]] {
                        if self.pinv[r2] == NONE && rmark[r2] != stamp {
                            rmark[r2] = stamp;
                            cand.push(r2);
                        }
                    }
                }

                if cand.is_empty() {
                    // Structurally singular: no row can pivot this column.
                    self.degenerate = true;
                    return;
                }

                // Structural pivot: the diagonal when available (MNA node
                // rows are diagonally dominant), else the sparsest row.
                let pivot = if cand.contains(&j) {
                    j
                } else {
                    *cand
                        .iter()
                        .min_by_key(|&&r| (row_nnz[r], r))
                        .expect("candidate set is non-empty")
                };
                self.pivot_row[k] = pivot;
                self.pinv[pivot] = k;

                self.upd.extend_from_slice(&reach);
                self.upd_ptr.push(self.upd.len());

                cand.retain(|&r| r != pivot);
                cand.sort_unstable();
                self.l_rows.extend_from_slice(&cand);
                self.l_ptr.push(self.l_rows.len());
            }

            self.u_vals.clear();
            self.u_vals.resize(self.upd.len(), S::zero());
            self.l_vals.clear();
            self.l_vals.resize(self.l_rows.len(), S::zero());
            self.d_vals.clear();
            self.d_vals.resize(n, S::zero());
            self.x.clear();
            self.x.resize(n, S::zero());
            self.z.clear();
            self.z.resize(n, S::zero());
        }

        /// Replays the symbolic factorization numerically over `asm`'s
        /// current values.
        ///
        /// # Panics
        ///
        /// Panics if `asm`'s pattern revision does not match the one
        /// [`SparseLu::ensure_symbolic`] last saw.
        pub fn factor(&mut self, asm: &SparseAssembler<S>) -> Result<(), SparseStatus> {
            assert!(
                self.analyzed && self.sym_rev == asm.rev(),
                "factor called without ensure_symbolic"
            );
            self.factored = false;
            if self.degenerate {
                return Err(SparseStatus::Unstable);
            }
            if !asm.is_finite() {
                return Err(SparseStatus::NonFinite);
            }
            let n = self.dim;
            let vals = asm.vals();
            for k in 0..n {
                // Scatter A's column into the (all-zero) working vector.
                for idx in self.a_ptr[k]..self.a_ptr[k + 1] {
                    self.x[self.a_rows[idx]] = vals[self.a_slots[idx] as usize];
                }
                // Apply earlier columns' eliminations in step order; each
                // pivot row is fully updated before it is read because all
                // its updaters are earlier steps.
                for ui in self.upd_ptr[k]..self.upd_ptr[k + 1] {
                    let p = self.upd[ui];
                    let xp = self.x[self.pivot_row[p]];
                    self.u_vals[ui] = xp;
                    if xp != S::zero() {
                        for li in self.l_ptr[p]..self.l_ptr[p + 1] {
                            let r2 = self.l_rows[li];
                            self.x[r2] -= self.l_vals[li] * xp;
                        }
                    }
                }
                let prow = self.pivot_row[k];
                let piv = self.x[prow];
                let mut colmax = piv.modulus();
                for li in self.l_ptr[k]..self.l_ptr[k + 1] {
                    colmax = colmax.max(self.x[self.l_rows[li]].modulus());
                }
                if colmax == 0.0 || piv.modulus() < STATIC_TAU * colmax {
                    // Structurally chosen pivot is numerically untrustworthy;
                    // let the dense path (value pivoting) decide.
                    self.x.fill(S::zero());
                    return Err(SparseStatus::Unstable);
                }
                self.d_vals[k] = piv;
                for li in self.l_ptr[k]..self.l_ptr[k + 1] {
                    self.l_vals[li] = self.x[self.l_rows[li]] / piv;
                }
                // Re-zero exactly the touched entries so the next step's
                // scatter starts clean without an O(n) sweep.
                for ui in self.upd_ptr[k]..self.upd_ptr[k + 1] {
                    self.x[self.pivot_row[self.upd[ui]]] = S::zero();
                }
                self.x[prow] = S::zero();
                for li in self.l_ptr[k]..self.l_ptr[k + 1] {
                    self.x[self.l_rows[li]] = S::zero();
                }
            }
            self.factored = true;
            Ok(())
        }

        /// Solves `A x = b` using the last successful [`SparseLu::factor`],
        /// writing the solution into `x_out` (resized to the system dim).
        ///
        /// # Panics
        ///
        /// Panics if no factorization is held or `b` has the wrong length.
        pub fn solve(&mut self, b: &[S], x_out: &mut Vec<S>) -> Result<(), SparseStatus> {
            assert!(self.factored, "solve called before a successful factor");
            assert_eq!(b.len(), self.dim, "rhs length mismatch");
            let n = self.dim;
            x_out.clear();
            x_out.resize(n, S::zero());
            // Forward substitution (unit L), column-oriented in original row
            // coordinates: rows named by l_rows are pivoted later, so their
            // partial sums live in `z` until their own step reads them.
            self.z.clear();
            self.z.extend_from_slice(b);
            for k in 0..n {
                let zk = self.z[self.pivot_row[k]];
                if zk != S::zero() {
                    for li in self.l_ptr[k]..self.l_ptr[k + 1] {
                        let lv = self.l_vals[li];
                        self.z[self.l_rows[li]] -= lv * zk;
                    }
                }
                // Park the finished forward value in the pivot row slot; the
                // backward pass reads it exactly once.
                self.z[self.pivot_row[k]] = zk;
            }
            // Backward substitution through U (diag d_vals, off-diagonals in
            // u_vals along each step's update list).
            for k in (0..n).rev() {
                let wk = self.z[self.pivot_row[k]] / self.d_vals[k];
                x_out[self.col_order[k]] = wk;
                if wk != S::zero() {
                    for ui in self.upd_ptr[k]..self.upd_ptr[k + 1] {
                        let p = self.upd[ui];
                        let uv = self.u_vals[ui];
                        self.z[self.pivot_row[p]] -= uv * wk;
                    }
                }
            }
            if !x_out.iter().all(|v| v.is_finite()) {
                return Err(SparseStatus::NonFinite);
            }
            Ok(())
        }
    }
}
