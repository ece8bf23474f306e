//! Sparse LU with a reusable symbolic factorization.
//!
//! MNA matrices for circuits beyond a handful of nodes are overwhelmingly
//! sparse — a resistor ladder with 200 nodes has ~3 entries per row — and
//! a dense factor wastes O(n³) work on structural zeros. This module
//! provides the sparse half of the solver-backend layer:
//!
//! * [`SparseAssembler`] — a pattern + value store the engine stamps into
//!   through the [`Assembler`] trait. The nonzero *pattern* is learned on
//!   first assembly and kept across re-stamps; repeated loads only
//!   overwrite values.
//! * [`SparseLu`] — a left-looking LU whose **symbolic** factorization
//!   (elimination order, pivot rows, fill pattern, update lists) is
//!   computed once per pattern and replayed numerically for every Newton
//!   iteration / AC frequency / transient step that shares the topology.
//!
//! # Determinism
//!
//! Everything here is a pure function of `(pattern, values)`: the column
//! preorder, pivot choice, and traversal orders depend only on the
//! pattern (never on values), and the numeric replay applies updates in
//! a fixed order. Two threads — or two processes, or a crash-resumed
//! run — assembling the same system get bitwise-identical factors.
//!
//! # Stability
//!
//! Pivots are chosen *structurally* (diagonal preferred, then minimum
//! row count), so a numerically bad pivot is possible. The replay guards
//! every pivot against a static threshold of its column magnitude and
//! reports [`SparseStatus::Unstable`] instead of producing garbage; the
//! caller is expected to re-solve that single system with the dense
//! backend, which does full partial pivoting.

use crate::{Assembler, Scalar};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel for "row not yet pivoted" during symbolic analysis.
const NONE: usize = usize::MAX;

/// The process-wide source of pattern revisions. Every revision any
/// assembler takes is fresh, so two assemblers share a revision only when
/// one is a clone of the other with its pattern unchanged since.
static NEXT_REV: AtomicU64 = AtomicU64::new(1);

/// A revision no assembler has held before.
fn fresh_rev() -> u64 {
    NEXT_REV.fetch_add(1, Ordering::Relaxed)
}

/// Static pivot-stability threshold: a pivot must be at least this
/// fraction of the largest magnitude in its (updated) column or the
/// factorization reports [`SparseStatus::Unstable`].
const STATIC_TAU: f64 = 1e-3;

/// Why a sparse factor/solve could not produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseStatus {
    /// Assembled values contained NaN/Inf before factoring, or the solve
    /// produced a non-finite result.
    NonFinite,
    /// Structurally singular pattern, or a pivot failed the static
    /// stability threshold. Not a verdict on the matrix: the caller
    /// should re-solve this one system with the dense backend, which
    /// pivots on values and can classify true singularity.
    Unstable,
}

/// Pattern + value store for one sparse square system.
///
/// Stamp through the [`Assembler`] impl. [`SparseAssembler::begin`]
/// starts a fresh pattern (new topology); [`Assembler::reset`] keeps the
/// pattern and zeroes values (new Newton iteration / transient step).
/// The revision is redrawn from a process-wide counter whenever the
/// pattern could have changed, so an equal revision means an equal
/// pattern even across assemblers, letting [`SparseLu`] skip pattern
/// comparison on the hot path.
#[derive(Debug, Default, Clone)]
pub struct SparseAssembler<S: Scalar> {
    dim: usize,
    index: HashMap<(u32, u32), u32>,
    pos: Vec<(u32, u32)>,
    vals: Vec<S>,
    rev: u64,
}

impl<S: Scalar> SparseAssembler<S> {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        SparseAssembler {
            dim: 0,
            index: HashMap::new(),
            pos: Vec::new(),
            vals: Vec::new(),
            rev: 0,
        }
    }

    /// Starts a fresh `dim × dim` pattern, discarding any learned
    /// structure. Call once per (re)compiled netlist, then stamp the
    /// topology superset.
    pub fn begin(&mut self, dim: usize) {
        assert!(dim <= u32::MAX as usize, "sparse dimension exceeds u32");
        self.dim = dim;
        self.index.clear();
        self.pos.clear();
        self.vals.clear();
        self.rev = fresh_rev();
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of distinct nonzero positions in the pattern.
    pub fn nnz(&self) -> usize {
        self.pos.len()
    }

    /// The pattern positions in insertion order.
    pub fn pos(&self) -> &[(u32, u32)] {
        &self.pos
    }

    /// Values aligned with [`SparseAssembler::pos`].
    pub fn vals(&self) -> &[S] {
        &self.vals
    }

    /// Mutable values aligned with [`SparseAssembler::pos`]. Writing them
    /// leaves the pattern and its revision unchanged.
    pub fn vals_mut(&mut self) -> &mut [S] {
        &mut self.vals
    }

    /// The value slot of `(row, col)`, or `None` when the position is not
    /// in the pattern.
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        if row >= self.dim || col >= self.dim {
            return None;
        }
        self.index.get(&(row as u32, col as u32)).map(|&s| s as usize)
    }

    /// Pattern revision: changes exactly when the pattern may differ
    /// from what it was at any earlier revision, and is never shared
    /// with another assembler's different pattern.
    pub fn rev(&self) -> u64 {
        self.rev
    }

    /// `true` when every stored value is finite.
    pub fn is_finite(&self) -> bool {
        self.vals.iter().all(|v| v.is_finite())
    }
}

impl<S: Scalar> Assembler<S> for SparseAssembler<S> {
    fn reset(&mut self) {
        self.vals.fill(S::zero());
    }

    #[inline]
    fn add(&mut self, row: usize, col: usize, value: S) {
        assert!(row < self.dim && col < self.dim, "sparse stamp out of range");
        let key = (row as u32, col as u32);
        match self.index.get(&key) {
            Some(&slot) => self.vals[slot as usize] += value,
            None => {
                let slot = self.pos.len() as u32;
                self.index.insert(key, slot);
                self.pos.push(key);
                self.vals.push(value);
                self.rev = fresh_rev();
            }
        }
    }
}

/// Left-looking sparse LU with a cached symbolic factorization.
///
/// Lifecycle: [`SparseLu::ensure_symbolic`] before every factor (O(1)
/// when the pattern revision is unchanged, one O(nnz) comparison when an
/// equal pattern was rebuilt, full analysis only on a genuinely new
/// pattern), then [`SparseLu::factor`] + [`SparseLu::solve`] per system.
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
    /// U's diagonal as prepared divisors ([`Scalar::prepare_divisor`]).
    d_div: Vec<S>,
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
            d_div: Vec::new(),
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
        self.d_div.clear();
        self.d_div.resize(n, S::zero());
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
            // The column maximum computes an exact modulus only where the
            // entry's bound exceeds the running maximum, as in the dense
            // kernel's row scales; the pivot's own modulus stays exact.
            let piv_mod = piv.modulus();
            let mut colmax = piv_mod;
            for li in self.l_ptr[k]..self.l_ptr[k + 1] {
                colmax = self.x[self.l_rows[li]].max_modulus(colmax);
            }
            if colmax == 0.0 || piv_mod < STATIC_TAU * colmax {
                // Structurally chosen pivot is numerically untrustworthy;
                // let the dense path (value pivoting) decide.
                self.x.fill(S::zero());
                return Err(SparseStatus::Unstable);
            }
            let divisor = piv.prepare_divisor();
            self.d_div[k] = divisor;
            for li in self.l_ptr[k]..self.l_ptr[k + 1] {
                self.l_vals[li] = self.x[self.l_rows[li]].div_prepared(divisor);
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
        // Backward substitution through U (diagonal divisors in d_div,
        // off-diagonals in u_vals along each step's update list).
        for k in (0..n).rev() {
            let wk = self.z[self.pivot_row[k]].div_prepared(self.d_div[k]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve as dense_solve, Complex, Matrix};

    fn assemble_dense_and_sparse(
        entries: &[(usize, usize, f64)],
        n: usize,
    ) -> (Matrix<f64>, SparseAssembler<f64>) {
        let mut m = Matrix::<f64>::zeros(n, n);
        let mut asm = SparseAssembler::new();
        asm.begin(n);
        for &(r, c, v) in entries {
            m.add_at(r, c, v);
            asm.add(r, c, v);
        }
        (m, asm)
    }

    fn solve_sparse(asm: &SparseAssembler<f64>, b: &[f64]) -> Vec<f64> {
        let mut lu = SparseLu::new();
        lu.ensure_symbolic(asm);
        assert!(!lu.is_degenerate());
        lu.factor(asm).expect("factor");
        let mut x = Vec::new();
        lu.solve(b, &mut x).expect("solve");
        x
    }

    #[test]
    fn accumulates_and_begin_clears() {
        let mut asm = SparseAssembler::<f64>::new();
        asm.begin(2);
        asm.add(0, 1, 2.0);
        asm.add(0, 1, 3.0);
        assert_eq!(asm.nnz(), 1);
        assert_eq!(asm.vals(), &[5.0]);
        let rev = asm.rev();
        asm.reset();
        assert_eq!(asm.vals(), &[0.0]);
        assert_eq!(asm.rev(), rev, "reset keeps the pattern revision");
        asm.begin(3);
        assert_eq!(asm.nnz(), 0);
        assert!(asm.rev() > rev, "begin bumps the revision");
    }

    #[test]
    fn slots_address_the_values_in_place() {
        let mut asm = SparseAssembler::<f64>::new();
        asm.begin(3);
        asm.add(2, 0, 1.0);
        asm.add(0, 1, 2.0);
        let rev = asm.rev();
        assert_eq!(asm.slot(0, 1), Some(1));
        assert_eq!(asm.slot(1, 0), None, "not in the pattern");
        assert_eq!(asm.slot(3, 0), None, "outside the system");
        asm.vals_mut()[1] = 5.0;
        assert_eq!(asm.vals(), &[1.0, 5.0]);
        assert_eq!(asm.rev(), rev, "writing values keeps the pattern revision");
    }

    #[test]
    fn matches_dense_on_unsymmetric_pattern() {
        // An MNA-shaped system: dominant diagonal plus off-diagonal
        // couplings and one structurally-zero diagonal (branch row).
        let entries = [
            (0, 0, 4.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 3.0),
            (1, 2, -2.0),
            (2, 1, -2.0),
            (2, 2, 5.0),
            (2, 4, 1.0),
            (3, 3, 2.0),
            (3, 0, -0.5),
            (0, 4, 1.0),
            (4, 0, 1.0),
        ];
        let (m, asm) = assemble_dense_and_sparse(&entries, 5);
        let b = [1.0, -2.0, 3.0, 0.5, 0.25];
        let xd = dense_solve(m, &b).expect("dense");
        let xs = solve_sparse(&asm, &b);
        for (a, e) in xs.iter().zip(&xd) {
            assert!((a - e).abs() < 1e-12, "sparse {a} vs dense {e}");
        }
    }

    #[test]
    fn symbolic_is_reused_across_value_changes() {
        let mut asm = SparseAssembler::<f64>::new();
        asm.begin(3);
        for (r, c, v) in [(0, 0, 2.0), (1, 1, 3.0), (2, 2, 4.0), (0, 2, 1.0), (2, 0, 1.0)] {
            asm.add(r, c, v);
        }
        let mut lu = SparseLu::new();
        lu.ensure_symbolic(&asm);
        lu.factor(&asm).expect("factor 1");
        assert_eq!(lu.analyses(), 1);

        // New values, same pattern: reset + restamp, no re-analysis.
        asm.reset();
        for (r, c, v) in [(0, 0, 5.0), (1, 1, 7.0), (2, 2, 6.0), (0, 2, 2.0), (2, 0, 2.0)] {
            asm.add(r, c, v);
        }
        lu.ensure_symbolic(&asm);
        lu.factor(&asm).expect("factor 2");
        assert_eq!(lu.analyses(), 1, "same pattern must not re-analyze");

        // Same pattern rebuilt from scratch: adopted by comparison.
        let mut asm2 = asm.clone();
        asm2.begin(3);
        for (r, c, v) in [(0, 0, 5.0), (1, 1, 7.0), (2, 2, 6.0), (0, 2, 2.0), (2, 0, 2.0)] {
            asm2.add(r, c, v);
        }
        lu.ensure_symbolic(&asm2);
        assert_eq!(lu.analyses(), 1, "equal rebuilt pattern is adopted");
        lu.factor(&asm2).expect("factor 3");
        let mut x = Vec::new();
        lu.solve(&[1.0, 1.0, 1.0], &mut x).expect("solve");
        let m = {
            let mut m = Matrix::<f64>::zeros(3, 3);
            for (r, c, v) in [(0, 0, 5.0), (1, 1, 7.0), (2, 2, 6.0), (0, 2, 2.0), (2, 0, 2.0)] {
                m.add_at(r, c, v);
            }
            m
        };
        let xd = dense_solve(m, &[1.0, 1.0, 1.0]).expect("dense");
        for (a, e) in x.iter().zip(&xd) {
            assert!((a - e).abs() < 1e-12);
        }

        // A genuinely different pattern re-analyzes.
        asm2.begin(3);
        for (r, c, v) in [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)] {
            asm2.add(r, c, v);
        }
        lu.ensure_symbolic(&asm2);
        assert_eq!(lu.analyses(), 2);
    }

    /// One holder, a fresh assembler per pattern: patterns with the same
    /// entry count but different positions or dimensions must never be
    /// mistaken for the analyzed one.
    #[test]
    fn fresh_assemblers_with_equal_nnz_never_replay_a_stale_pattern() {
        use asdex_rng::rngs::StdRng;
        use asdex_rng::{Rng, SeedableRng};
        const NNZ: usize = 9;
        let mut rng = StdRng::seed_from_u64(11);
        let mut lu = SparseLu::new();
        for round in 0..40 {
            // A full diagonal keeps every pattern structurally nonsingular;
            // the off-diagonal positions are drawn fresh each round.
            let n = 4 + round % 2;
            let mut entries: Vec<(usize, usize, f64)> =
                (0..n).map(|i| (i, i, 10.0 + rng.gen_range(0.0..1.0))).collect();
            while entries.len() < NNZ {
                let (r, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if !entries.iter().any(|&(er, ec, _)| (er, ec) == (r, c)) {
                    entries.push((r, c, rng.gen_range(-1.0..1.0)));
                }
            }
            let (m, asm) = assemble_dense_and_sparse(&entries, n);
            let b: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
            let xd = dense_solve(m, &b).expect("dense");
            lu.ensure_symbolic(&asm);
            lu.factor(&asm).expect("factor");
            let mut xs = Vec::new();
            lu.solve(&b, &mut xs).expect("solve");
            for (a, e) in xs.iter().zip(&xd) {
                assert!((a - e).abs() < 1e-12, "round {round}: sparse {a} vs dense {e}");
            }
        }
    }

    #[test]
    fn zero_diagonal_branch_rows_factor_via_fill() {
        // Voltage-source shape: [[G, 1], [1, 0]] — the branch row has a
        // structurally present but numerically awkward diagonal path.
        let entries = [(0, 0, 1e-3), (0, 1, 1.0), (1, 0, 1.0)];
        let (m, asm) = assemble_dense_and_sparse(&entries, 2);
        let b = [0.0, 1.8];
        let xd = dense_solve(m, &b).expect("dense");
        let xs = solve_sparse(&asm, &b);
        for (a, e) in xs.iter().zip(&xd) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn structurally_singular_is_degenerate() {
        let mut asm = SparseAssembler::<f64>::new();
        asm.begin(3);
        // Column 2 has no entries at all.
        asm.add(0, 0, 1.0);
        asm.add(1, 1, 1.0);
        asm.add(1, 0, 0.5);
        let mut lu = SparseLu::new();
        lu.ensure_symbolic(&asm);
        assert!(lu.is_degenerate());
        assert_eq!(lu.factor(&asm), Err(SparseStatus::Unstable));
    }

    #[test]
    fn numerically_singular_reports_unstable() {
        let mut asm = SparseAssembler::<f64>::new();
        asm.begin(2);
        // Pattern is fine; values make the matrix rank-1.
        asm.add(0, 0, 1.0);
        asm.add(0, 1, 2.0);
        asm.add(1, 0, 2.0);
        asm.add(1, 1, 4.0);
        let mut lu = SparseLu::new();
        lu.ensure_symbolic(&asm);
        assert!(!lu.is_degenerate());
        assert_eq!(lu.factor(&asm), Err(SparseStatus::Unstable));
        // The holder stays reusable after the failure.
        asm.reset();
        asm.add(0, 0, 1.0);
        asm.add(0, 1, 0.0);
        asm.add(1, 0, 0.0);
        asm.add(1, 1, 1.0);
        lu.ensure_symbolic(&asm);
        lu.factor(&asm).expect("refactor after unstable");
        let mut x = Vec::new();
        lu.solve(&[3.0, 4.0], &mut x).expect("solve");
        assert!((x[0] - 3.0).abs() < 1e-15 && (x[1] - 4.0).abs() < 1e-15);
    }

    #[test]
    fn non_finite_values_rejected() {
        let mut asm = SparseAssembler::<f64>::new();
        asm.begin(1);
        asm.add(0, 0, f64::NAN);
        let mut lu = SparseLu::new();
        lu.ensure_symbolic(&asm);
        assert_eq!(lu.factor(&asm), Err(SparseStatus::NonFinite));
    }

    #[test]
    fn complex_system_matches_dense() {
        let j = Complex::I;
        let mut asm = SparseAssembler::<Complex>::new();
        asm.begin(3);
        let entries = [
            (0, 0, Complex::new(2.0, 1.0)),
            (0, 1, j),
            (1, 0, -j),
            (1, 1, Complex::new(3.0, -0.5)),
            (2, 2, Complex::new(1.0, 2.0)),
            (1, 2, Complex::new(0.5, 0.0)),
        ];
        let mut m = Matrix::<Complex>::zeros(3, 3);
        for &(r, c, v) in &entries {
            asm.add(r, c, v);
            m.add_at(r, c, v);
        }
        let b = [Complex::ONE, Complex::new(0.0, 1.0), Complex::new(-1.0, 0.5)];
        let xd = dense_solve(m, &b).expect("dense");
        let mut lu = SparseLu::new();
        lu.ensure_symbolic(&asm);
        lu.factor(&asm).expect("factor");
        let mut xs = Vec::new();
        lu.solve(&b, &mut xs).expect("solve");
        for (a, e) in xs.iter().zip(&xd) {
            assert!((*a - *e).modulus() < 1e-12);
        }
    }

    #[test]
    fn larger_ladder_matches_dense_and_fills_sparsely() {
        // Tridiagonal conductance ladder, n = 60: fill-in should stay
        // linear, and solutions must match the dense factorization.
        let n = 60;
        let mut m = Matrix::<f64>::zeros(n, n);
        let mut asm = SparseAssembler::new();
        asm.begin(n);
        for i in 0..n {
            let g = 1.0 + (i as f64) * 0.01;
            m.add_at(i, i, 2.0 * g);
            asm.add(i, i, 2.0 * g);
            if i + 1 < n {
                m.add_at(i, i + 1, -g);
                m.add_at(i + 1, i, -g);
                asm.add(i, i + 1, -g);
                asm.add(i + 1, i, -g);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let xd = dense_solve(m, &b).expect("dense");
        let mut lu = SparseLu::new();
        lu.ensure_symbolic(&asm);
        lu.factor(&asm).expect("factor");
        let mut xs = Vec::new();
        lu.solve(&b, &mut xs).expect("solve");
        for (a, e) in xs.iter().zip(&xd) {
            assert!((a - e).abs() < 1e-9, "sparse {a} vs dense {e}");
        }
        assert!(
            lu.lu_nnz() <= 4 * n,
            "tridiagonal fill should stay linear, got {}",
            lu.lu_nnz()
        );
    }

    #[test]
    fn repeated_factors_are_bitwise_stable() {
        let entries = [
            (0, 0, 4.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 3.0),
            (1, 2, -2.0),
            (2, 1, -2.0),
            (2, 2, 5.0),
        ];
        let (_, asm) = assemble_dense_and_sparse(&entries, 3);
        let b = [1.0, 2.0, 3.0];
        let first = solve_sparse(&asm, &b);
        for _ in 0..3 {
            let again = solve_sparse(&asm, &b);
            for (a, e) in again.iter().zip(&first) {
                assert_eq!(a.to_bits(), e.to_bits(), "solves must be bitwise stable");
            }
        }
    }
}
