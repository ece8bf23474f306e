//! Real and complex linear algebra for circuit simulation.
//!
//! `asdex-linalg` provides exactly the numerical kernels the rest of the
//! ASDEX workspace needs, with no external BLAS/LAPACK dependency:
//!
//! * [`Complex`] — complex arithmetic for small-signal (AC) analysis,
//! * [`Matrix`] — a dense, row-major matrix generic over [`Scalar`]
//!   (`f64` or [`Complex`]),
//! * [`Lu`] — dense LU with partial pivoting, plus the in-place
//!   [`factor_in_place`]/[`solve_factored`] kernels that let a solver
//!   workspace factor without cloning or allocating (it keeps its
//!   [`Pivot`]s),
//! * [`Assembler`] — the stamping abstraction MNA assembly targets, so
//!   the engine is agnostic to the storage being filled,
//! * [`SparseAssembler`] / [`SparseLu`] — sparse LU whose symbolic
//!   factorization is computed once per nonzero pattern and replayed
//!   across Newton iterations, frequency points, and transient steps.
//!
//! Small MNA systems (tens of nodes) are best served by the dense
//! `O(n^3)` factorization with full partial pivoting; larger netlists
//! use the sparse path, which falls back to dense per-system when its
//! static pivoting is numerically inadequate.
//!
//! # Example
//!
//! Solve a 2×2 real system `A x = b`:
//!
//! ```
//! use asdex_linalg::{Matrix, Lu};
//!
//! # fn main() -> Result<(), asdex_linalg::SolveError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
//! let lu = Lu::factor(a)?;
//! let x = lu.solve(&[9.0, 13.0])?;
//! assert!((x[0] - 1.4).abs() < 1e-12);
//! assert!((x[1] - 3.4).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assemble;
mod complex;
mod lu;
mod matrix;
mod scalar;
mod sparse;
mod vector;

pub use assemble::Assembler;
pub use complex::Complex;
pub use lu::{factor_in_place, solve, solve_factored, Lu, Pivot, SolveError};
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use sparse::{SparseAssembler, SparseLu, SparseStatus};
pub use vector::{argmax, dot, norm_inf, norm_l2, scaled_add};
