//! Exact backpropagation for the dense layers.
//!
//! The trainable-embedding stage of the paper's pipeline (Figure 1's
//! `embedding` operator) learns its projection; this module provides the
//! gradients: a [`GradLinear`] layer caching its forward activations and
//! an [`GradMlp`] stack training end-to-end with SGD.

use crate::tensor::Matrix;

/// A trainable dense layer `y = relu?(x·W + b)` with exact gradients.
#[derive(Debug, Clone, PartialEq)]
pub struct GradLinear {
    weight: Matrix, // in_dim x out_dim
    bias: Vec<f32>,
    relu: bool,
    /// Cached input of the last forward pass.
    last_input: Option<Matrix>,
    /// Cached pre-activation of the last forward pass.
    last_pre: Option<Matrix>,
}

impl GradLinear {
    /// Creates a layer with deterministic pseudo-random init.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dimensions must be non-zero");
        let scale = (2.0 / in_dim as f32).sqrt();
        GradLinear {
            weight: Matrix::random(in_dim, out_dim, scale, seed),
            bias: vec![0.0; out_dim],
            relu,
            last_input: None,
            last_pre: None,
        }
    }

    /// `(in_dim, out_dim)`.
    pub fn shape(&self) -> (usize, usize) {
        self.weight.shape()
    }

    /// Forward pass, caching activations for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        self.forward_into(x, &mut out);
        out
    }

    /// [`GradLinear::forward`] writing into a caller-provided buffer.
    /// The activation caches reuse their storage from the previous step,
    /// so a steady-state training loop allocates nothing here.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix) {
        let mut pre = self.last_pre.take().unwrap_or_else(|| Matrix::zeros(1, 1));
        x.matmul_into(&self.weight, &mut pre);
        pre.add_row_vector_in_place(&self.bias);
        out.copy_from(&pre);
        if self.relu {
            out.relu_in_place();
        }
        let mut cache = self
            .last_input
            .take()
            .unwrap_or_else(|| Matrix::zeros(1, 1));
        cache.copy_from(x);
        self.last_input = Some(cache);
        self.last_pre = Some(pre);
    }

    /// Backward pass: given `dL/dy`, applies the SGD update at rate `lr`
    /// and returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a mismatched gradient
    /// shape.
    pub fn backward(&mut self, grad_out: &Matrix, lr: f32) -> Matrix {
        let mut dx = Matrix::zeros(1, 1);
        self.backward_into(grad_out, lr, &mut dx);
        dx
    }

    /// [`GradLinear::backward`] writing `dL/dx` into a caller-provided
    /// buffer. The ReLU gate is applied at read time instead of
    /// materializing `dL/dpre`, so no intermediate is allocated; values
    /// are identical to the allocating form.
    pub fn backward_into(&mut self, grad_out: &Matrix, lr: f32, dx: &mut Matrix) {
        let x = self.last_input.as_ref().expect("forward before backward");
        let pre = self.last_pre.as_ref().expect("forward before backward");
        let (batch, out_dim) = grad_out.shape();
        assert_eq!(pre.shape(), (batch, out_dim), "gradient shape mismatch");
        let (in_dim, _) = self.weight.shape();

        // dL/dpre, gated by the ReLU mask at read time.
        let relu = self.relu;
        let dpre = |r: usize, k: usize| {
            if relu && pre.get(r, k) <= 0.0 {
                0.0
            } else {
                grad_out.get(r, k)
            }
        };
        // dL/dx = dpre · Wᵀ  (computed without materializing Wᵀ).
        dx.reset(batch, in_dim);
        for r in 0..batch {
            for c in 0..in_dim {
                let mut acc = 0.0;
                for k in 0..out_dim {
                    acc += dpre(r, k) * self.weight.get(c, k);
                }
                dx.set(r, c, acc);
            }
        }
        // dW = xᵀ · dpre; db = column sums of dpre. Apply SGD in place.
        for i in 0..in_dim {
            for k in 0..out_dim {
                let mut acc = 0.0;
                for r in 0..batch {
                    acc += x.get(r, i) * dpre(r, k);
                }
                let w = self.weight.get(i, k) - lr * acc / batch as f32;
                self.weight.set(i, k, w);
            }
        }
        for (k, b) in self.bias.iter_mut().enumerate() {
            let mut acc = 0.0;
            for r in 0..batch {
                acc += dpre(r, k);
            }
            *b -= lr * acc / batch as f32;
        }
    }
}

/// Reusable step buffers for [`GradMlp::train_mse`] — allocated on the
/// first step, then recycled so the hot loop is allocation-free.
#[derive(Debug, Clone)]
struct TrainScratch {
    y: Matrix,
    ping: Matrix,
    grad: Matrix,
    back: Matrix,
}

impl TrainScratch {
    fn new() -> Self {
        TrainScratch {
            y: Matrix::zeros(1, 1),
            ping: Matrix::zeros(1, 1),
            grad: Matrix::zeros(1, 1),
            back: Matrix::zeros(1, 1),
        }
    }
}

/// A trainable MLP (ReLU hidden layers, linear output).
#[derive(Debug, Clone)]
pub struct GradMlp {
    layers: Vec<GradLinear>,
    scratch: Option<Box<TrainScratch>>,
}

/// Equality is over the learnable state only; step scratch is excluded.
impl PartialEq for GradMlp {
    fn eq(&self, other: &Self) -> bool {
        self.layers == other.layers
    }
}

impl GradMlp {
    /// Builds through the listed widths, e.g. `[2, 8, 1]`.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two widths.
    pub fn new(widths: &[usize], seed: u64) -> Self {
        assert!(widths.len() >= 2, "need input and output widths");
        GradMlp {
            layers: widths
                .windows(2)
                .enumerate()
                .map(|(i, w)| {
                    GradLinear::new(w[0], w[1], i + 2 < widths.len(), seed + 31 * i as u64)
                })
                .collect(),
            scratch: None,
        }
    }

    /// Forward pass (caches activations in every layer).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        let mut scratch = Matrix::zeros(1, 1);
        self.forward_into(x, &mut scratch, &mut out);
        out
    }

    /// [`GradMlp::forward`] ping-ponging between two caller-provided
    /// buffers; the final activation always lands in `out`.
    pub fn forward_into(&mut self, x: &Matrix, scratch: &mut Matrix, out: &mut Matrix) {
        let (mut a, mut b) = if self.layers.len() % 2 == 1 {
            (out, scratch)
        } else {
            (scratch, out)
        };
        let mut layers = self.layers.iter_mut();
        layers
            .next()
            .expect("at least one layer")
            .forward_into(x, a);
        for l in layers {
            l.forward_into(a, b);
            std::mem::swap(&mut a, &mut b);
        }
    }

    /// Backward pass from `dL/dy`, updating all layers; returns `dL/dx`.
    pub fn backward(&mut self, grad_out: &Matrix, lr: f32) -> Matrix {
        let mut g = grad_out.clone();
        let mut tmp = Matrix::zeros(1, 1);
        for l in self.layers.iter_mut().rev() {
            l.backward_into(&g, lr, &mut tmp);
            std::mem::swap(&mut g, &mut tmp);
        }
        g
    }

    /// One MSE regression step on `(x, targets)`; returns the loss.
    ///
    /// Per-step intermediates live in a persistent scratch, so repeated
    /// calls (the training hot loop) allocate nothing after the first.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn train_mse(&mut self, x: &Matrix, targets: &Matrix, lr: f32) -> f32 {
        let mut s = self
            .scratch
            .take()
            .unwrap_or_else(|| Box::new(TrainScratch::new()));
        self.forward_into(x, &mut s.ping, &mut s.y);
        let (rows, cols) = s.y.shape();
        assert_eq!(targets.shape(), (rows, cols), "target shape mismatch");
        s.grad.reset(rows, cols);
        let mut loss = 0.0;
        for r in 0..rows {
            for c in 0..cols {
                let d = s.y.get(r, c) - targets.get(r, c);
                loss += d * d;
                s.grad.set(r, c, 2.0 * d);
            }
        }
        for l in self.layers.iter_mut().rev() {
            l.backward_into(&s.grad, lr, &mut s.back);
            std::mem::swap(&mut s.grad, &mut s.back);
        }
        self.scratch = Some(s);
        loss / (rows * cols) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference check of the input gradient.
    #[test]
    fn input_gradient_matches_finite_differences() {
        let layer = GradLinear::new(3, 2, true, 5);
        let x = Matrix::from_rows(&[&[0.3, -0.7, 1.2]]);
        // Loss = sum of outputs; dL/dy = ones.
        let ones = Matrix::from_rows(&[&[1.0, 1.0]]);
        let mut probe = layer.clone();
        probe.forward(&x);
        let dx = probe.backward(&ones, 0.0); // lr 0: weights untouched
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.set(0, i, x.get(0, i) + eps);
            let mut xm = x.clone();
            xm.set(0, i, x.get(0, i) - eps);
            let f = |m: &Matrix| -> f32 {
                let mut l = layer.clone();
                let y = l.forward(m);
                y.row(0).iter().sum()
            };
            let numeric = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (dx.get(0, i) - numeric).abs() < 1e-2,
                "dim {i}: analytic {} vs numeric {numeric}",
                dx.get(0, i)
            );
        }
    }

    #[test]
    fn mlp_learns_xor() {
        // XOR requires the hidden layer — the canonical backprop test.
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let t = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut mlp = GradMlp::new(&[2, 8, 1], 3);
        let mut loss = f32::INFINITY;
        for _ in 0..2_000 {
            loss = mlp.train_mse(&x, &t, 0.1);
        }
        assert!(loss < 0.02, "XOR loss {loss}");
        let y = mlp.forward(&x);
        for (r, want) in [0.0f32, 1.0, 1.0, 0.0].iter().enumerate() {
            assert!(
                (y.get(r, 0) - want).abs() < 0.25,
                "row {r}: {} vs {want}",
                y.get(r, 0)
            );
        }
    }

    #[test]
    fn linear_regression_recovers_a_plane() {
        // y = 2a - 3b + 1, learnable exactly by a single linear layer.
        let mut mlp = GradMlp::new(&[2, 1], 7);
        let mut xs = Vec::new();
        let mut ts = Vec::new();
        for i in 0..16 {
            let a = (i % 4) as f32 - 1.5;
            let b = (i / 4) as f32 - 1.5;
            xs.push([a, b]);
            ts.push([2.0 * a - 3.0 * b + 1.0]);
        }
        let x = Matrix::from_rows(&xs.iter().map(|r| &r[..]).collect::<Vec<_>>());
        let t = Matrix::from_rows(&ts.iter().map(|r| &r[..]).collect::<Vec<_>>());
        let mut loss = f32::INFINITY;
        for _ in 0..500 {
            loss = mlp.train_mse(&x, &t, 0.05);
        }
        assert!(loss < 1e-3, "plane loss {loss}");
    }

    #[test]
    fn relu_gate_blocks_gradient() {
        // A layer driven entirely negative pre-activation passes zero
        // gradient.
        let mut layer = GradLinear::new(1, 1, true, 1);
        // Force a strongly negative pre-activation with a big negative
        // input and positive-ish weight (or vice versa); use bias trick:
        let x = Matrix::from_rows(&[&[-100.0]]);
        let y = layer.forward(&x);
        if y.get(0, 0) == 0.0 {
            let dx = layer.backward(&Matrix::from_rows(&[&[1.0]]), 0.1);
            assert_eq!(dx.get(0, 0), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "forward before backward")]
    fn backward_without_forward_panics() {
        let mut l = GradLinear::new(2, 2, false, 0);
        l.backward(&Matrix::zeros(1, 2), 0.1);
    }

    #[test]
    fn into_variants_match_allocating_step() {
        let x = Matrix::random(4, 3, 1.0, 60);
        let grad = Matrix::random(4, 2, 1.0, 61);
        let mut a = GradLinear::new(3, 2, true, 62);
        let mut b = a.clone();
        let ya = a.forward(&x);
        let mut yb = Matrix::random(1, 7, 3.0, 63); // dirty target
        b.forward_into(&x, &mut yb);
        assert_eq!(ya, yb);
        let dxa = a.backward(&grad, 0.05);
        let mut dxb = Matrix::zeros(1, 1);
        b.backward_into(&grad, 0.05, &mut dxb);
        assert_eq!(dxa, dxb);
        assert_eq!(a, b, "updated weights must match");
    }

    #[test]
    fn train_mse_scratch_path_matches_manual_steps() {
        let x = Matrix::random(6, 3, 1.0, 70);
        let t = Matrix::random(6, 2, 1.0, 71);
        let mut fast = GradMlp::new(&[3, 5, 2], 72);
        let mut manual = fast.clone();
        let mut fast_losses = Vec::new();
        for _ in 0..5 {
            fast_losses.push(fast.train_mse(&x, &t, 0.05));
        }
        for &fast_loss in &fast_losses {
            let y = manual.forward(&x);
            let (rows, cols) = y.shape();
            let mut grad = Matrix::zeros(rows, cols);
            let mut loss = 0.0;
            for r in 0..rows {
                for c in 0..cols {
                    let d = y.get(r, c) - t.get(r, c);
                    loss += d * d;
                    grad.set(r, c, 2.0 * d);
                }
            }
            manual.backward(&grad, 0.05);
            assert_eq!(fast_loss, loss / (rows * cols) as f32);
        }
        assert_eq!(fast, manual, "weights must evolve identically");
    }
}
