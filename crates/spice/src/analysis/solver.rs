//! Pluggable solver backends behind the MNA assembly abstraction.
//!
//! Every analysis assembles its linear system through
//! [`asdex_linalg::Assembler`] and solves it through a [`Backend`], which
//! owns one of two engines:
//!
//! * **dense** — in-place blocked LU with full partial pivoting on a
//!   reused [`Matrix`]; best for the small systems sizing loops see most
//!   (a 5-T opamp is ~10 unknowns), where factor cost is trivial and
//!   value pivoting gives maximal robustness.
//! * **sparse** — [`SparseLu`] over a [`SparseAssembler`] whose symbolic
//!   factorization is computed once per netlist topology and replayed
//!   for every Newton iteration, AC frequency point, transient step, and
//!   PVT corner. Systems the static pivoting cannot handle fall back to
//!   the dense path *per solve*, so robustness is never worse than dense.
//!
//! Selection is a deterministic per-netlist heuristic — dimension at most
//! [`DENSE_MAX_DIM`] goes dense — overridable with `ASDEX_SOLVER` or
//! `--solver`. Both backends are pure functions of `(topology, values)`,
//! so results are bitwise-identical at any thread or worker count; note
//! the determinism contract is *per backend* (dense and sparse agree only
//! within solver tolerance, not bit for bit).

use super::engine::Engine;
use crate::circuit::Circuit;
use crate::error::SpiceError;
use asdex_linalg::{
    factor_in_place, solve_factored, Assembler, Matrix, Pivot, Scalar, SolveError, SparseAssembler,
    SparseLu, SparseStatus,
};

/// Largest system dimension the `auto` heuristic solves densely.
///
/// Below this size the dense factor fits comfortably in cache and beats
/// the sparse replay's indirection; above it, fill-in-free sparse
/// elimination wins quickly (MNA systems average a handful of nonzeros
/// per row regardless of size).
pub const DENSE_MAX_DIM: usize = 48;

/// Which linear-solver backend an evaluation should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Deterministic per-netlist heuristic: dense up to
    /// [`DENSE_MAX_DIM`] unknowns, sparse beyond.
    #[default]
    Auto,
    /// Always the dense in-place LU.
    Dense,
    /// Always the sparse symbolic-reuse LU (with per-solve dense
    /// fallback on numerically hard systems).
    Sparse,
}

impl SolverChoice {
    /// Reads `ASDEX_SOLVER` (`auto` | `dense` | `sparse`); unset or
    /// unrecognized values mean [`SolverChoice::Auto`].
    pub fn from_env() -> Self {
        std::env::var("ASDEX_SOLVER")
            .ok()
            .and_then(|v| Self::from_label(&v))
            .unwrap_or_default()
    }

    /// Parses a label as accepted by `--solver`.
    pub fn from_label(label: &str) -> Option<Self> {
        if label.eq_ignore_ascii_case("auto") {
            Some(SolverChoice::Auto)
        } else if label.eq_ignore_ascii_case("dense") {
            Some(SolverChoice::Dense)
        } else if label.eq_ignore_ascii_case("sparse") {
            Some(SolverChoice::Sparse)
        } else {
            None
        }
    }

    /// The canonical label (`auto` / `dense` / `sparse`).
    pub fn label(self) -> &'static str {
        match self {
            SolverChoice::Auto => "auto",
            SolverChoice::Dense => "dense",
            SolverChoice::Sparse => "sparse",
        }
    }

    /// Resolves the choice for a system of `dim` unknowns.
    fn resolve(self, dim: usize) -> BackendKind {
        match self {
            SolverChoice::Dense => BackendKind::Dense,
            SolverChoice::Sparse => BackendKind::Sparse,
            SolverChoice::Auto => {
                if dim <= DENSE_MAX_DIM {
                    BackendKind::Dense
                } else {
                    BackendKind::Sparse
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendKind {
    Dense,
    Sparse,
}

/// One scalar type's solver state: the assembly target plus whichever
/// factorization engine the resolved choice selected.
///
/// Lifecycle per analysis call: [`Backend::prepare`] once (sizes the
/// dense matrix or re-derives the sparse pattern from topology and
/// adopts/reuses the symbolic factorization), then any number of
/// `load_* → factor_solve` rounds.
#[derive(Debug)]
pub(crate) struct Backend<S: Scalar> {
    choice: SolverChoice,
    kind: BackendKind,
    dim: usize,
    /// Dense system storage; doubles as the sparse path's per-solve
    /// fallback scratch.
    dense: Matrix<S>,
    /// The dense factorization's row pivoting and prepared pivots; also
    /// the buffer its row scales are computed into.
    pivots: Vec<Pivot<S>>,
    asm: SparseAssembler<S>,
    splu: SparseLu<S>,
    x: Vec<S>,
    /// Dense values kept by [`Backend::save_values`].
    saved: Vec<S>,
}

impl<S: Scalar> Backend<S> {
    pub(crate) fn new(choice: SolverChoice) -> Self {
        Backend {
            choice,
            kind: BackendKind::Dense,
            dim: 0,
            dense: Matrix::zeros(0, 0),
            pivots: Vec::new(),
            asm: SparseAssembler::new(),
            splu: SparseLu::new(),
            x: Vec::new(),
            saved: Vec::new(),
        }
    }

    pub(crate) fn choice(&self) -> SolverChoice {
        self.choice
    }

    /// `true` when the resolved backend for the last prepared system is
    /// the sparse one.
    #[cfg(test)]
    pub(crate) fn is_sparse(&self) -> bool {
        self.kind == BackendKind::Sparse
    }

    /// Sizes this backend for `engine`'s system. The sparse pattern is
    /// re-derived from topology on every call — never from observed
    /// values — so a pooled backend reused across threads, corners, and
    /// resumed runs always reaches an identical symbolic state; an
    /// unchanged pattern is adopted without re-analysis.
    pub(crate) fn prepare(&mut self, engine: &Engine) {
        let dim = engine.dim();
        self.dim = dim;
        self.kind = self.choice.resolve(dim);
        match self.kind {
            BackendKind::Dense => {
                self.dense.resize_zeroed(dim, dim);
            }
            BackendKind::Sparse => {
                self.asm.begin(dim);
                engine.stamp_pattern(&mut self.asm);
                self.splu.ensure_symbolic(&self.asm);
            }
        }
    }

    /// The assembly target the engine's `load_*` stamps into.
    pub(crate) fn assembler(&mut self) -> &mut dyn Assembler<S> {
        match self.kind {
            BackendKind::Dense => &mut self.dense,
            BackendKind::Sparse => &mut self.asm,
        }
    }

    /// Where [`Backend::values_mut`] holds the value at `(row, col)`:
    /// `row·dim + col` on the dense backend, the pattern slot on the
    /// sparse one; `None` outside the system (or the sparse pattern).
    pub(crate) fn value_index(&self, row: usize, col: usize) -> Option<usize> {
        match self.kind {
            BackendKind::Dense => {
                (row < self.dim && col < self.dim).then_some(row * self.dim + col)
            }
            BackendKind::Sparse => self.asm.slot(row, col),
        }
    }

    /// The assembled values, indexed by [`Backend::value_index`].
    pub(crate) fn values_mut(&mut self) -> &mut [S] {
        match self.kind {
            BackendKind::Dense => self.dense.as_mut_slice(),
            BackendKind::Sparse => self.asm.vals_mut(),
        }
    }

    /// Keeps the assembled values for [`Backend::restore_values`]. Only
    /// the dense backend copies them: it factors in place, while the
    /// sparse factorization reads the assembled values and leaves them
    /// as they are.
    pub(crate) fn save_values(&mut self) {
        if self.kind == BackendKind::Dense {
            self.saved.clear();
            self.saved.extend_from_slice(self.dense.as_slice());
        }
    }

    /// Brings back the values of the last [`Backend::save_values`] after
    /// a [`Backend::factor_solve`] consumed them.
    pub(crate) fn restore_values(&mut self) {
        if self.kind == BackendKind::Dense {
            self.dense.as_mut_slice().copy_from_slice(&self.saved);
        }
    }

    /// Factors the assembled system and solves for `rhs`, returning the
    /// solution slice (valid until the next call). The dense path
    /// factors in place — the assembled values are consumed, which is
    /// fine because every `load_*` reassembles from scratch and an AC
    /// sweep restores them ([`Backend::restore_values`]).
    ///
    /// # Errors
    ///
    /// [`SolveError`] exactly as the dense path classifies it: the
    /// sparse backend re-solves any structurally or numerically hard
    /// system densely before reporting failure.
    pub(crate) fn factor_solve(&mut self, rhs: &[S]) -> Result<&[S], SolveError> {
        match self.kind {
            BackendKind::Dense => {
                factor_in_place(&mut self.dense, &mut self.pivots)?;
                solve_factored(&self.dense, &self.pivots, rhs, &mut self.x)?;
                Ok(&self.x)
            }
            BackendKind::Sparse => {
                // O(1) revision check per iteration; re-analyzes only if
                // a stamp ever lands outside the topology pattern.
                self.splu.ensure_symbolic(&self.asm);
                match self.splu.factor(&self.asm) {
                    Ok(()) => match self.splu.solve(rhs, &mut self.x) {
                        Ok(()) => Ok(&self.x),
                        Err(SparseStatus::NonFinite) => Err(SolveError::NonFinite),
                        Err(SparseStatus::Unstable) => self.solve_dense_fallback(rhs),
                    },
                    Err(SparseStatus::NonFinite) => Err(SolveError::NonFinite),
                    Err(SparseStatus::Unstable) => self.solve_dense_fallback(rhs),
                }
            }
        }
    }

    /// Per-solve fallback for systems the sparse static pivoting cannot
    /// handle: scatter the assembled values into the dense scratch and
    /// use full partial pivoting, which either solves it or produces the
    /// definitive typed error. A pure function of the assembled values —
    /// nothing is cached, so determinism is unaffected.
    fn solve_dense_fallback(&mut self, rhs: &[S]) -> Result<&[S], SolveError> {
        self.dense.resize_zeroed(self.dim, self.dim);
        let vals = self.asm.vals();
        for (slot, &(r, c)) in self.asm.pos().iter().enumerate() {
            self.dense.add_at(r as usize, c as usize, vals[slot]);
        }
        factor_in_place(&mut self.dense, &mut self.pivots)?;
        solve_factored(&self.dense, &self.pivots, rhs, &mut self.x)?;
        Ok(&self.x)
    }
}

/// Structural statistics of the backend a circuit would be solved with —
/// the fill-in numbers recorded by `benches/solver_backends.rs`.
#[derive(Debug, Clone, Copy)]
pub struct SolverReport {
    /// System dimension (node + branch unknowns).
    pub dim: usize,
    /// Resolved backend label (`"dense"` or `"sparse"`).
    pub backend: &'static str,
    /// Nonzero positions in the assembled pattern (dense: `dim²`).
    pub pattern_nnz: usize,
    /// Nonzeros in the L+U factors including fill-in (dense: `dim²`).
    pub lu_nnz: usize,
}

/// Compiles `circuit` and reports which backend `choice` resolves to and
/// how much structure/fill its factorization carries.
///
/// # Errors
///
/// [`SpiceError::UnknownModel`] from compilation.
pub fn solver_report(circuit: &Circuit, choice: SolverChoice) -> Result<SolverReport, SpiceError> {
    let engine = Engine::compile(circuit)?;
    let dim = engine.dim();
    match choice.resolve(dim) {
        BackendKind::Dense => Ok(SolverReport {
            dim,
            backend: "dense",
            pattern_nnz: dim * dim,
            lu_nnz: dim * dim,
        }),
        BackendKind::Sparse => {
            let mut asm = SparseAssembler::<f64>::new();
            asm.begin(dim);
            engine.stamp_pattern(&mut asm);
            let mut splu = SparseLu::new();
            splu.ensure_symbolic(&asm);
            Ok(SolverReport { dim, backend: "sparse", pattern_nnz: asm.nnz(), lu_nnz: splu.lu_nnz() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for c in [SolverChoice::Auto, SolverChoice::Dense, SolverChoice::Sparse] {
            assert_eq!(SolverChoice::from_label(c.label()), Some(c));
        }
        assert_eq!(SolverChoice::from_label("SPARSE"), Some(SolverChoice::Sparse));
        assert_eq!(SolverChoice::from_label("blas"), None);
    }

    #[test]
    fn auto_resolves_by_dimension() {
        assert_eq!(SolverChoice::Auto.resolve(DENSE_MAX_DIM), BackendKind::Dense);
        assert_eq!(SolverChoice::Auto.resolve(DENSE_MAX_DIM + 1), BackendKind::Sparse);
        assert_eq!(SolverChoice::Sparse.resolve(2), BackendKind::Sparse);
        assert_eq!(SolverChoice::Dense.resolve(10_000), BackendKind::Dense);
    }

    #[test]
    fn backend_solves_a_stamped_system() {
        // 2-resistor divider assembled by hand through the Assembler
        // trait, solved by both backends; sparse forced on a tiny system
        // must agree with dense to solver precision.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, 2.0).unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        let engine = Engine::compile(&ckt).unwrap();
        let dim = engine.dim();
        let x0 = vec![0.0; dim];
        let mut sols = Vec::new();
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let mut be = Backend::<f64>::new(choice);
            be.prepare(&engine);
            assert_eq!(be.is_sparse(), choice == SolverChoice::Sparse);
            let mut z = vec![0.0; dim];
            engine.load_dc(&x0, be.assembler(), &mut z, 0.0, 1.0, None);
            let x = be.factor_solve(&z).unwrap().to_vec();
            assert!((x[0] - 2.0).abs() < 1e-12, "v(a)");
            assert!((x[1] - 1.0).abs() < 1e-12, "v(b)");
            sols.push(x);
        }
        for (d, s) in sols[0].iter().zip(&sols[1]) {
            assert!((d - s).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_backend_reuses_symbolic_across_solves() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 2e3).unwrap();
        let engine = Engine::compile(&ckt).unwrap();
        let dim = engine.dim();
        let mut be = Backend::<f64>::new(SolverChoice::Sparse);
        let mut z = vec![0.0; dim];
        let x0 = vec![0.0; dim];
        for _ in 0..3 {
            // Re-prepare per analysis (as the workspace does): the
            // re-derived pattern must be adopted, not re-analyzed.
            be.prepare(&engine);
            for _ in 0..4 {
                engine.load_dc(&x0, be.assembler(), &mut z, 0.0, 1.0, None);
                be.factor_solve(&z).unwrap();
            }
        }
        assert_eq!(be.splu.analyses(), 1, "one symbolic analysis for one topology");
    }

    #[test]
    fn report_shows_sparse_fill_advantage() {
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("n0");
        ckt.add_vsource("V1", prev, Circuit::GROUND, 1.0).unwrap();
        for i in 1..100 {
            let next = ckt.node(&format!("n{i}"));
            ckt.add_resistor(&format!("R{i}"), prev, next, 1e3).unwrap();
            ckt.add_resistor(&format!("RG{i}"), next, Circuit::GROUND, 1e4).unwrap();
            prev = next;
        }
        let dense = solver_report(&ckt, SolverChoice::Dense).unwrap();
        let sparse = solver_report(&ckt, SolverChoice::Sparse).unwrap();
        assert_eq!(dense.backend, "dense");
        assert_eq!(sparse.backend, "sparse");
        assert_eq!(dense.dim, sparse.dim);
        assert!(sparse.pattern_nnz < dense.pattern_nnz / 10, "ladder is sparse");
        assert!(sparse.lu_nnz < dense.lu_nnz / 10, "ladder factors without fill blowup");
        // Auto picks sparse at this size.
        assert_eq!(solver_report(&ckt, SolverChoice::Auto).unwrap().backend, "sparse");
    }
}
