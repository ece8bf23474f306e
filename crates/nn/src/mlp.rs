//! Feed-forward networks with explicit backpropagation.
//!
//! [`Mlp`] is the workhorse behind both the paper's SPICE approximator
//! `f_NN(X; θ)` (a small 3-layer regression net, §IV-B) and the policy /
//! value heads of the model-free baselines. It exposes:
//!
//! * [`Mlp::forward_into`] + [`Mlp::backward_into`] — the one forward and
//!   the one backward kernel. They write into a caller-owned [`Trace`]
//!   and [`Gradients`], so a training loop that reuses both allocates
//!   nothing per sample;
//! * [`Mlp::forward`], [`Mlp::forward_trace`] and [`Mlp::backward`] —
//!   allocating wrappers over those kernels, gradients w.r.t. an
//!   arbitrary output gradient (so callers implement any loss);
//! * [`Mlp::flat_params`] / [`Mlp::set_flat_params`] — the flattened
//!   parameter view TRPO's line search needs. The network stores its
//!   parameters in exactly that layout, so both are slice copies.
//!
//! # Floating-point contract
//!
//! The kernels perform the operations of the plain textbook loops, in
//! the same order, so their results are bit for bit those loops' results
//! (the unit tests keep the loops as their reference). Each dense row is
//! summed left to right from `-0.0`, the neutral element
//! `Iterator::sum` uses, and the bias is added last; gradient buffers
//! are zero-filled and accumulated with `+=` (`0.0 + x` turns a `-0.0`
//! into `+0.0`, a plain store would not). Blocking over rows changes
//! only which independent sums are in flight together.

use crate::activation::Activation;
use asdex_rng::Rng;
use std::ops::Range;

/// Rows of a dense layer computed per pass over its input: independent
/// sums hide the floating-point add latency, while each row still adds
/// its products left to right.
const ROW_BLOCK: usize = 4;

/// Shape of one dense layer `y = act(W x + b)`. Its parameters sit in the
/// network's flat buffer from `offset`: `n_out × n_in` row-major weights,
/// then `n_out` biases.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Layer {
    n_in: usize,
    n_out: usize,
    act: Activation,
    offset: usize,
    /// Start of the layer's input in a [`Trace`]; its output follows.
    input: usize,
}

impl Layer {
    fn weights(&self) -> Range<usize> {
        self.offset..self.offset + self.n_out * self.n_in
    }

    fn biases(&self) -> Range<usize> {
        let start = self.offset + self.n_out * self.n_in;
        start..start + self.n_out
    }
}

/// `Σ_i w[r·n + i]·x[i]` for the `R` rows at the head of `w`, where
/// `n = x.len()`: each row summed left to right from `-0.0`, as
/// `row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>()` does.
#[inline(always)]
fn dot_rows<const R: usize>(w: &[f64], x: &[f64]) -> [f64; R] {
    let n = x.len();
    let rows: [&[f64]; R] = std::array::from_fn(|r| &w[r * n..][..n]);
    let mut acc = [-0.0; R];
    for (i, &xi) in x.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += row[i] * xi;
        }
    }
    acc
}

/// `y[o] = act(Σ_i w[o][i]·x[i] + b[o])` for row-major `w`,
/// [`ROW_BLOCK`] rows per pass over `x`.
fn dense(w: &[f64], b: &[f64], act: Activation, x: &[f64], y: &mut [f64]) {
    let n = x.len();
    let blocked = y.len() - y.len() % ROW_BLOCK;
    for o in (0..blocked).step_by(ROW_BLOCK) {
        let z = dot_rows::<ROW_BLOCK>(&w[o * n..], x);
        for ((y, z), b) in y[o..].iter_mut().zip(z).zip(&b[o..]) {
            *y = act.apply(z + b);
        }
    }
    for (o, (y, b)) in y.iter_mut().zip(b).enumerate().skip(blocked) {
        let [z] = dot_rows::<1>(&w[o * n..], x);
        *y = act.apply(z + b);
    }
}

/// `up[i] += Σ_o w[o][i]·d[o]` for row-major `w`, rows added in order,
/// [`ROW_BLOCK`] rows per pass over `up`.
fn add_transposed(w: &[f64], d: &[f64], up: &mut [f64]) {
    let n = up.len();
    let blocked = d.len() - d.len() % ROW_BLOCK;
    for o in (0..blocked).step_by(ROW_BLOCK) {
        let rows: [&[f64]; ROW_BLOCK] = std::array::from_fn(|r| &w[(o + r) * n..][..n]);
        let d = &d[o..o + ROW_BLOCK];
        for (i, u) in up.iter_mut().enumerate() {
            let mut acc = *u;
            for (row, &dr) in rows.iter().zip(d) {
                acc += row[i] * dr;
            }
            *u = acc;
        }
    }
    for (o, &dr) in d.iter().enumerate().skip(blocked) {
        for (u, &wi) in up.iter_mut().zip(&w[o * n..][..n]) {
            *u += wi * dr;
        }
    }
}

/// Gradients of an [`Mlp`] with the same shape as its parameters,
/// filled by [`Mlp::backward_into`]. Reuse one across calls to avoid
/// allocating; [`Gradients::default`] sizes itself on first use.
#[derive(Debug, Clone, Default)]
pub struct Gradients {
    /// Flattened gradient in [`Mlp::flat_params`] order.
    flat: Vec<f64>,
    /// Gradient of the loss w.r.t. the network input.
    pub input_grad: Vec<f64>,
    /// Backprop's per-layer deltas, two layers' worth; not part of the
    /// value.
    scratch: Vec<f64>,
}

impl PartialEq for Gradients {
    fn eq(&self, other: &Self) -> bool {
        self.flat == other.flat && self.input_grad == other.input_grad
    }
}

impl Gradients {
    /// The flattened gradient vector (same layout as
    /// [`Mlp::flat_params`]).
    pub fn flat(&self) -> &[f64] {
        &self.flat
    }

    /// Mutable view of the flattened gradient, for in-place surgery such
    /// as global-norm clipping (`GradGuard`).
    pub fn flat_mut(&mut self) -> &mut [f64] {
        &mut self.flat
    }

    /// Scales the gradient in place.
    pub fn scale(&mut self, k: f64) {
        for g in &mut self.flat {
            *g *= k;
        }
    }

    /// Accumulates another gradient (`self += other`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&mut self, other: &Gradients) {
        assert_eq!(self.flat.len(), other.flat.len());
        for (a, b) in self.flat.iter_mut().zip(&other.flat) {
            *a += b;
        }
    }
}

/// Activations recorded by [`Mlp::forward_into`] and consumed by
/// [`Mlp::backward_into`]: the input and every layer's output, end to
/// end in one buffer. Reuse one across calls to avoid allocating.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    acts: Vec<f64>,
    n_out: usize,
}

impl Trace {
    /// The network output this trace recorded.
    pub fn output(&self) -> &[f64] {
        &self.acts[self.acts.len() - self.n_out..]
    }
}

/// A multilayer perceptron.
///
/// # Example
///
/// Train a tiny net to fit `y = 2x` with plain SGD on MSE:
///
/// ```
/// use asdex_nn::{Mlp, Activation, mse_output_grad};
/// use asdex_rng::SeedableRng;
///
/// let mut rng = asdex_rng::rngs::StdRng::seed_from_u64(0);
/// let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, &mut rng);
/// for _ in 0..500 {
///     for &x in &[-1.0, -0.5, 0.0, 0.5, 1.0f64] {
///         let trace = net.forward_trace(&[x]);
///         let grad_out = mse_output_grad(trace.output(), &[2.0 * x]);
///         let grads = net.backward(&trace, &grad_out);
///         net.apply_flat_delta(grads.flat(), -0.05);
///     }
/// }
/// let y = net.forward(&[0.25]);
/// assert!((y[0] - 0.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
    /// Every parameter, per layer: weights row-major, then biases.
    params: Vec<f64>,
}

impl Mlp {
    /// Creates a network with the given layer sizes; all hidden layers use
    /// `hidden_act`, the output layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(sizes: &[usize], hidden_act: Activation, rng: &mut R) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        let mut params = Vec::new();
        let mut input = 0;
        for (k, pair) in sizes.windows(2).enumerate() {
            let (n_in, n_out) = (pair[0], pair[1]);
            let act = if k + 2 == sizes.len() { Activation::Identity } else { hidden_act };
            layers.push(Layer { n_in, n_out, act, offset: params.len(), input });
            // Xavier/Glorot uniform weights, zero biases.
            let limit = (6.0 / (n_in + n_out) as f64).sqrt();
            params.extend((0..n_in * n_out).map(|_| rng.gen_range(-limit..limit)));
            params.resize(params.len() + n_out, 0.0);
            input += n_in;
        }
        Mlp { layers, params }
    }

    /// Input dimension.
    pub fn n_in(&self) -> usize {
        self.layers.first().expect("nonempty").n_in
    }

    /// Output dimension.
    pub fn n_out(&self) -> usize {
        self.layers.last().expect("nonempty").n_out
    }

    /// Length of a [`Trace`] of this network: the input and every
    /// layer's output.
    fn trace_len(&self) -> usize {
        let last = self.layers.last().expect("nonempty");
        last.input + last.n_in + last.n_out
    }

    /// The forward kernel: runs `x` through every layer, recording the
    /// input and each layer's output in `trace` for
    /// [`Mlp::backward_into`]; the result is [`Trace::output`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_in()`.
    pub fn forward_into(&self, x: &[f64], trace: &mut Trace) {
        assert_eq!(x.len(), self.n_in(), "input dimension mismatch");
        trace.acts.resize(self.trace_len(), 0.0);
        trace.n_out = self.n_out();
        trace.acts[..x.len()].copy_from_slice(x);
        for l in &self.layers {
            let (x, y) = trace.acts[l.input..].split_at_mut(l.n_in);
            dense(&self.params[l.weights()], &self.params[l.biases()], l.act, x, &mut y[..l.n_out]);
        }
    }

    /// Plain forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_in()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.forward_trace(x).output().to_vec()
    }

    /// Forward pass that records the activations needed for
    /// [`Mlp::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_in()`.
    pub fn forward_trace(&self, x: &[f64]) -> Trace {
        let mut trace = Trace::default();
        self.forward_into(x, &mut trace);
        trace
    }

    /// The backward kernel: backpropagates `dL/dy` (gradient of any
    /// scalar loss w.r.t. the network output) through a trace recorded
    /// by [`Mlp::forward_into`], overwriting `grads`. Each activation's
    /// derivative is read off the recorded output.
    ///
    /// # Panics
    ///
    /// Panics if `output_grad.len() != self.n_out()` or the trace was
    /// recorded by a network of another shape.
    pub fn backward_into(&self, trace: &Trace, output_grad: &[f64], grads: &mut Gradients) {
        assert_eq!(output_grad.len(), self.n_out(), "output gradient dimension mismatch");
        assert_eq!(trace.acts.len(), self.trace_len(), "trace shape mismatch");
        let width = self.layers.iter().map(|l| l.n_in.max(l.n_out)).max().unwrap_or(0);
        grads.flat.clear();
        grads.flat.resize(self.params.len(), 0.0);
        grads.input_grad.clear();
        grads.input_grad.resize(self.n_in(), 0.0);
        grads.scratch.resize(2 * width, 0.0);
        // `delta` holds dL/d(pre-activation) of the current layer, `up`
        // receives dL/d(input) = Wᵀ·delta; they swap roles per layer.
        let (mut delta, mut up) = grads.scratch.split_at_mut(width);
        delta[..output_grad.len()].copy_from_slice(output_grad);
        for (k, l) in self.layers.iter().enumerate().rev() {
            let x = &trace.acts[l.input..][..l.n_in];
            let y = &trace.acts[l.input + l.n_in..][..l.n_out];
            let d = &mut delta[..l.n_out];
            for (d, &y) in d.iter_mut().zip(y) {
                *d *= l.act.derivative_from_output(y);
            }
            // dW[o][i] = d[o]·x[i]; db[o] = d[o].
            let (gw, gb) =
                grads.flat[l.offset..][..l.n_out * (l.n_in + 1)].split_at_mut(l.n_out * l.n_in);
            for (o, (&d, gb)) in d.iter().zip(gb).enumerate() {
                for (g, &xi) in gw[o * l.n_in..][..l.n_in].iter_mut().zip(x) {
                    *g += d * xi;
                }
                *gb += d;
            }
            if k == 0 {
                add_transposed(&self.params[l.weights()], d, &mut grads.input_grad);
            } else {
                let up = &mut up[..l.n_in];
                up.fill(0.0);
                add_transposed(&self.params[l.weights()], d, up);
            }
            std::mem::swap(&mut delta, &mut up);
        }
    }

    /// Backpropagates `dL/dy` through a recorded trace into a fresh
    /// [`Gradients`].
    ///
    /// # Panics
    ///
    /// Panics if `output_grad.len() != self.n_out()`.
    pub fn backward(&self, trace: &Trace, output_grad: &[f64]) -> Gradients {
        let mut grads = Gradients::default();
        self.backward_into(trace, output_grad, &mut grads);
        grads
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Flattened parameters: per layer, weights row-major then biases.
    pub fn flat_params(&self) -> Vec<f64> {
        self.params.clone()
    }

    /// The parameters in [`Mlp::flat_params`] order, for optimizers that
    /// update them in place.
    pub(crate) fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    /// Overwrites all parameters from a flattened vector.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.param_count()`.
    pub fn set_flat_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.param_count(), "parameter count mismatch");
        self.params.copy_from_slice(params);
    }

    /// In-place `θ += alpha · delta` on the flattened parameters — the
    /// primitive behind SGD and line searches.
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != self.param_count()`.
    pub fn apply_flat_delta(&mut self, delta: &[f64], alpha: f64) {
        assert_eq!(delta.len(), self.param_count(), "parameter count mismatch");
        for (w, d) in self.params.iter_mut().zip(delta) {
            *w += alpha * d;
        }
    }
}

/// Gradient of mean-squared error `L = Σ (y − t)² / n` w.r.t. `y`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mse_output_grad(y: &[f64], target: &[f64]) -> Vec<f64> {
    let mut grad = vec![0.0; y.len()];
    mse_output_grad_into(y, target, &mut grad);
    grad
}

/// [`mse_output_grad`] into a caller-owned buffer.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mse_output_grad_into(y: &[f64], target: &[f64], grad: &mut [f64]) {
    assert_eq!(y.len(), target.len(), "mse dimension mismatch");
    assert_eq!(y.len(), grad.len(), "mse dimension mismatch");
    let n = y.len() as f64;
    for ((g, yi), ti) in grad.iter_mut().zip(y).zip(target) {
        *g = 2.0 * (yi - ti) / n;
    }
}

/// Mean-squared error between a prediction and a target.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mse(y: &[f64], target: &[f64]) -> f64 {
    assert_eq!(y.len(), target.len(), "mse dimension mismatch");
    let n = y.len() as f64;
    y.iter().zip(target).map(|(yi, ti)| (yi - ti) * (yi - ti)).sum::<f64>() / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_rng::rngs::StdRng;
    use asdex_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The textbook forward loop the kernel must reproduce bit for bit:
    /// pre-activations and outputs per layer.
    fn reference_forward(net: &Mlp, x: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let (mut pres, mut outs) = (Vec::new(), vec![x.to_vec()]);
        for l in &net.layers {
            let (w, b, x) =
                (&net.params[l.weights()], &net.params[l.biases()], outs.last().unwrap());
            let pre: Vec<f64> = (0..l.n_out)
                .map(|o| {
                    let row = &w[o * l.n_in..(o + 1) * l.n_in];
                    row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>() + b[o]
                })
                .collect();
            outs.push(pre.iter().map(|&z| l.act.apply(z)).collect());
            pres.push(pre);
        }
        (pres, outs)
    }

    /// The textbook backward loop: derivatives from the pre-activations,
    /// zero-filled buffers accumulated with `+=`. Returns the flat and
    /// the input gradient.
    fn reference_backward(net: &Mlp, x: &[f64], output_grad: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (pres, outs) = reference_forward(net, x);
        let mut flat = vec![0.0; net.param_count()];
        let mut upstream = output_grad.to_vec();
        for (k, l) in net.layers.iter().enumerate().rev() {
            let delta: Vec<f64> = upstream
                .iter()
                .zip(&pres[k])
                .map(|(u, &z)| u * l.act.derivative_at_input(z))
                .collect();
            for o in 0..l.n_out {
                for (i, &xi) in outs[k].iter().enumerate() {
                    flat[l.offset + o * l.n_in + i] += delta[o] * xi;
                }
                flat[l.biases().start + o] += delta[o];
            }
            let w = &net.params[l.weights()];
            let mut next_up = vec![0.0; l.n_in];
            for (o, &d) in delta.iter().enumerate() {
                for (i, &wi) in w[o * l.n_in..(o + 1) * l.n_in].iter().enumerate() {
                    next_up[i] += wi * d;
                }
            }
            upstream = next_up;
        }
        (flat, upstream)
    }

    /// Values that stress signed zeros, subnormals and saturation.
    fn awkward(k: usize) -> f64 {
        const V: [f64; 10] = [-0.0, 0.0, 5e-324, -3e-310, 0.37, -1.25, 40.0, -0.0, 2.5e-3, -7.0];
        V[k % V.len()]
    }

    #[test]
    fn row_kernel_matches_the_iterator_sum_bit_for_bit() {
        let mut rng = rng();
        for n_in in [0, 1, 2, 3, 4, 5, 7, 8, 13, 42] {
            for n_out in [1, 2, 3, 4, 5, 6, 7, 8, 9, 42] {
                for case in 0..4 {
                    let mut w: Vec<f64> =
                        (0..n_in * n_out).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    let mut x: Vec<f64> = (0..n_in).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mut b: Vec<f64> = (0..n_out).map(|_| rng.gen_range(-0.5..0.5)).collect();
                    match case {
                        // Every product is -0.0: the sum must stay -0.0,
                        // and a -0.0 or +0.0 bias decides the sign.
                        1 => {
                            w.iter_mut().for_each(|w| *w = -0.0);
                            x.iter_mut().for_each(|x| *x = x.abs() + 0.5);
                            b.iter_mut()
                                .enumerate()
                                .for_each(|(o, b)| *b = if o % 2 == 0 { -0.0 } else { 0.0 });
                        }
                        2 => {
                            w.iter_mut().enumerate().for_each(|(k, w)| *w = awkward(k));
                            x.iter_mut().enumerate().for_each(|(k, x)| *x = awkward(k + 3));
                        }
                        3 => b.iter_mut().for_each(|b| *b = -0.0),
                        _ => {}
                    }
                    let mut y = vec![f64::NAN; n_out];
                    dense(&w, &b, Activation::Identity, &x, &mut y);
                    for (o, y) in y.iter().enumerate() {
                        let row = &w[o * n_in..(o + 1) * n_in];
                        let want = row.iter().zip(&x).map(|(w, x)| w * x).sum::<f64>() + b[o];
                        assert_eq!(
                            y.to_bits(),
                            want.to_bits(),
                            "{n_in}x{n_out} case {case} row {o}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernels_match_the_reference_loops_bit_for_bit() {
        let mut rng = rng();
        let shapes: [&[usize]; 6] =
            [&[7, 42, 42, 5], &[3, 5, 2], &[4, 9, 3], &[1, 1], &[0, 3], &[6, 13, 1]];
        for (s, sizes) in shapes.iter().enumerate() {
            for act in [Activation::Tanh, Activation::Relu] {
                let mut net = Mlp::new(sizes, act, &mut rng);
                let mut trace = Trace::default();
                let mut grads = Gradients::default();
                for case in 0..7 {
                    if (3..6).contains(&case) {
                        // Awkward weights: signed zeros, subnormals and
                        // saturating magnitudes (tanh' exactly 0).
                        for (k, w) in net.params.iter_mut().enumerate() {
                            if k % 3 == case % 3 {
                                *w = awkward(k);
                            }
                        }
                    }
                    if case == 6 {
                        // Positive weights and a -0.0 output gradient:
                        // every backprop sum is a sum of signed zeros,
                        // whose sign depends on the zero it starts from.
                        net.params.iter_mut().for_each(|w| *w = w.abs() + 0.25);
                    }
                    let x: Vec<f64> = (0..net.n_in())
                        .map(|i| match case {
                            6 => 0.5,
                            _ if case % 2 == 1 => awkward(i + case),
                            _ => rng.gen_range(-1.5..1.5),
                        })
                        .collect();
                    let og: Vec<f64> =
                        (0..net.n_out())
                            .map(|o| {
                                if o % 2 == 0 && case != 6 {
                                    rng.gen_range(-1.0..1.0)
                                } else {
                                    -0.0
                                }
                            })
                            .collect();
                    net.forward_into(&x, &mut trace);
                    let (_, outs) = reference_forward(&net, &x);
                    assert_eq!(
                        bits(trace.output()),
                        bits(outs.last().unwrap()),
                        "forward {s} {act:?} {case}"
                    );
                    net.backward_into(&trace, &og, &mut grads);
                    let (flat, input_grad) = reference_backward(&net, &x, &og);
                    assert_eq!(bits(grads.flat()), bits(&flat), "backward {s} {act:?} {case}");
                    assert_eq!(
                        bits(&grads.input_grad),
                        bits(&input_grad),
                        "input grad {s} {act:?} {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn reused_buffers_match_fresh_ones() {
        let mut rng = rng();
        let big = Mlp::new(&[7, 42, 42, 5], Activation::Tanh, &mut rng);
        let small = Mlp::new(&[2, 3, 1], Activation::Relu, &mut rng);
        let (mut trace, mut grads) = (Trace::default(), Gradients::default());
        for net in [&big, &small, &big] {
            let x: Vec<f64> = (0..net.n_in()).map(|i| 0.1 * i as f64 - 0.2).collect();
            let og = vec![0.5; net.n_out()];
            net.forward_into(&x, &mut trace);
            net.backward_into(&trace, &og, &mut grads);
            assert_eq!(trace.output(), net.forward(&x));
            assert_eq!(grads, net.backward(&net.forward_trace(&x), &og));
        }
    }

    #[test]
    fn shapes() {
        let net = Mlp::new(&[3, 5, 2], Activation::Relu, &mut rng());
        assert_eq!(net.n_in(), 3);
        assert_eq!(net.n_out(), 2);
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
        assert_eq!(net.forward(&[0.1, 0.2, 0.3]).len(), 2);
    }

    #[test]
    fn flat_params_round_trip() {
        let mut net = Mlp::new(&[2, 4, 1], Activation::Tanh, &mut rng());
        let p = net.flat_params();
        let y0 = net.forward(&[0.3, -0.4]);
        let mut p2 = p.clone();
        for v in &mut p2 {
            *v += 1.0;
        }
        net.set_flat_params(&p2);
        assert_ne!(net.forward(&[0.3, -0.4]), y0);
        net.set_flat_params(&p);
        assert_eq!(net.forward(&[0.3, -0.4]), y0);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut net = Mlp::new(&[2, 4, 3], Activation::Tanh, &mut rng());
        let x = [0.3, -0.7];
        let target = [0.1, -0.2, 0.4];
        let trace = net.forward_trace(&x);
        let grads = net.backward(&trace, &mse_output_grad(trace.output(), &target));

        let p0 = net.flat_params();
        let h = 1e-6;
        for k in (0..p0.len()).step_by(3) {
            let mut p = p0.clone();
            p[k] += h;
            net.set_flat_params(&p);
            let up = mse(&net.forward(&x), &target);
            p[k] -= 2.0 * h;
            net.set_flat_params(&p);
            let down = mse(&net.forward(&x), &target);
            let fd = (up - down) / (2.0 * h);
            assert!(
                (grads.flat()[k] - fd).abs() < 1e-6 * (1.0 + fd.abs()),
                "param {k}: analytic {} vs fd {fd}",
                grads.flat()[k]
            );
        }
    }

    #[test]
    fn input_gradient_check() {
        let net = Mlp::new(&[3, 6, 1], Activation::Tanh, &mut rng());
        let x = [0.2, 0.5, -0.1];
        let trace = net.forward_trace(&x);
        let grads = net.backward(&trace, &[1.0]);
        let h = 1e-6;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += h;
            let up = net.forward(&xp)[0];
            xp[i] -= 2.0 * h;
            let down = net.forward(&xp)[0];
            let fd = (up - down) / (2.0 * h);
            assert!((grads.input_grad[i] - fd).abs() < 1e-7, "input {i}");
        }
    }

    #[test]
    fn relu_gradient_check() {
        let mut net = Mlp::new(&[2, 8, 1], Activation::Relu, &mut rng());
        let x = [0.9, -0.4];
        let target = [0.3];
        let trace = net.forward_trace(&x);
        let grads = net.backward(&trace, &mse_output_grad(trace.output(), &target));
        let p0 = net.flat_params();
        let h = 1e-7;
        for k in (0..p0.len()).step_by(5) {
            let mut p = p0.clone();
            p[k] += h;
            net.set_flat_params(&p);
            let up = mse(&net.forward(&x), &target);
            net.set_flat_params(&p0);
            let base = mse(&net.forward(&x), &target);
            let fd = (up - base) / h;
            assert!(
                (grads.flat()[k] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {k}: {} vs {fd}",
                grads.flat()[k]
            );
        }
    }

    #[test]
    fn learns_linear_function() {
        let mut rng = rng();
        let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, &mut rng);
        for _ in 0..2000 {
            let x = rng.gen_range(-1.0..1.0);
            let trace = net.forward_trace(&[x]);
            let g = net.backward(&trace, &mse_output_grad(trace.output(), &[0.5 * x + 0.2]));
            net.apply_flat_delta(g.flat(), -0.05);
        }
        for &x in &[-0.8, -0.2, 0.0, 0.4, 0.9] {
            let y = net.forward(&[x])[0];
            assert!((y - (0.5 * x + 0.2)).abs() < 0.05, "x={x}, y={y}");
        }
    }

    #[test]
    fn gradients_accumulate_and_scale() {
        let net = Mlp::new(&[1, 2, 1], Activation::Tanh, &mut rng());
        let t = net.forward_trace(&[0.5]);
        let mut g1 = net.backward(&t, &[1.0]);
        let g2 = net.backward(&t, &[1.0]);
        g1.add(&g2);
        g1.scale(0.5);
        for (a, b) in g1.flat().iter().zip(g2.flat()) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn params_transfer_between_networks() {
        let net = Mlp::new(&[2, 3, 1], Activation::Relu, &mut rng());
        let mut back = Mlp::new(&[2, 3, 1], Activation::Relu, &mut rng());
        back.set_flat_params(&net.flat_params());
        for (a, b) in back.flat_params().iter().zip(net.flat_params()) {
            assert_eq!(*a, b);
        }
        let ya = back.forward(&[0.1, 0.2]);
        let yb = net.forward(&[0.1, 0.2]);
        assert!((ya[0] - yb[0]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_input_size_panics() {
        let net = Mlp::new(&[2, 2], Activation::Relu, &mut rng());
        let _ = net.forward(&[1.0]);
    }
}
