//! Mini-batch SGD with momentum: the training algorithm behind every RCS in
//! the reproduction.
//!
//! "The training process of an ANN can be described as adjusting the network
//! weights to minimize the difference between the target and actual outputs"
//! (paper §3.1, Eq (4)/(5)). The trainer is fully seeded so experiments are
//! reproducible run-to-run.
//!
//! ## Deterministic data parallelism
//!
//! Training is data-parallel under the workspace determinism contract:
//! thread count is a pure performance knob ([`TrainConfig::threads`]),
//! never an experimental variable. Each mini-batch is partitioned into
//! **fixed contiguous shards** whose geometry depends on the batch size
//! alone, each shard accumulates its gradients into its own reusable
//! [`Workspace`] on a persistent `runtime` crew, and the per-shard
//! gradients are folded **in shard-index order** before the momentum
//! update — the `par_reduce` ordered-reduction treatment, so the
//! non-associative f64 sums see the same grouping at every thread count.
//! The serial path runs the very same sharded code, making serial and
//! parallel the same arithmetic by construction.
//!
//! ## Input-major kernels
//!
//! For the duration of one `train` call every layer's weights, momentum
//! velocities and shard gradients are held transposed, `inputs × outputs`,
//! and written back row-major at the end. Every kernel then walks
//! contiguous rows:
//!
//! * forward `z = Wᵀ-axpy(x)`, an axpy that vectorizes and skips zero
//!   inputs (the kernel of [`Matrix::matvec_transpose_into`]);
//! * backward `δ_prev = Wᵀ·δ`, four interleaved dot products (the kernel
//!   of [`Matrix::matvec_into`]);
//! * weight gradient `Gᵀ += a_prev·δᵀ`, skipping zero inputs
//!   ([`Matrix::add_outer`]).
//!
//! When every training input is exactly `0.0` or `1.0` (`−0.0` counts as
//! 0) — the MEI bit-coded interface, the CNN head's binary features — each
//! sample's ascending set-bit list is computed once per call, and layer 0
//! runs as `z += Wᵀ[i]` and `Gᵀ[i] += δ` over those bits only.
//!
//! The fold of the shard gradients and the momentum step run fused, one
//! blocked pass per parameter array. When the network is large enough,
//! each layer's `Wᵀ` rows are split into one contiguous part per worker,
//! and a second crew round per mini-batch updates the parts concurrently;
//! the kernels walk the parts in ascending row order.
//!
//! The trained bits equal those of the row-major, multiply-every-term
//! arithmetic on finite data, at every thread count. Every output still
//! sums its terms in ascending input order; products commute exactly;
//! `w·1.0 ≡ w`; and a skipped `w·0.0` term is `±0.0` added to an
//! accumulator that starts at `+0.0` and therefore can never be `−0.0`,
//! which leaves it unchanged. The fold and the momentum step are
//! element-wise, so neither the layout nor the part split reorders them.
//!
//! The steady-state inner loop is allocation-free: activations, deltas,
//! shard index lists and gradient accumulators all live in per-shard
//! workspaces allocated once per `train` call.

use std::fmt;
use std::sync::{Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use prng::rngs::StdRng;
use prng::SeedableRng;
use runtime::{resolve_threads, ThreadPool};

use crate::activation::Activation;
use crate::data::Dataset;
use crate::loss::WeightedMse;
use crate::matrix::{axpy_rows, dot_rows, Matrix};
use crate::mlp::{Layer, Mlp};

/// Largest number of gradient shards a mini-batch is split into.
const MAX_SHARDS: usize = 8;

/// Smallest shard worth accumulating separately: below this the per-shard
/// zero + fold overhead dominates the per-sample arithmetic.
const MIN_SHARD_SAMPLES: usize = 4;

/// Elements per block of the fused fold + momentum step: one block of
/// folded gradients (2 KiB) stays in L1 between the fold and the step.
const FOLD_BLOCK: usize = 256;

/// Fewest parameters per part worth a concurrent update task: below this
/// the round's hand-off costs more than the fold it splits.
const MIN_PART_PARAMS: usize = 2048;

/// [`Crew::run`](runtime::Crew::run) argument of a momentum-update round;
/// a gradient round passes its mini-batch start, always below this.
const UPDATE_ROUND: usize = usize::MAX;

/// Samples per gradient shard — a function of the batch size **only**
/// (never the thread count), so the shard partition, and with it every
/// floating-point fold, is identical at every thread count.
fn shard_samples(batch: usize) -> usize {
    batch.div_ceil(MAX_SHARDS).max(MIN_SHARD_SAMPLES)
}

/// Hyperparameters of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// SGD step size.
    pub learning_rate: f64,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f64,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f64,
    /// RNG seed controlling shuffling.
    pub seed: u64,
    /// Stop early when the epoch loss drops below this value.
    pub target_loss: f64,
    /// Worker threads for sharded gradient computation: `1` (the default)
    /// trains serially, `0` auto-detects, any value produces bit-identical
    /// results — the shard partition depends only on the batch size and
    /// shard gradients fold in shard-index order.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            learning_rate: 0.5,
            momentum: 0.9,
            batch_size: 16,
            lr_decay: 1.0,
            seed: 0,
            target_loss: 0.0,
            threads: 1,
        }
    }
}

impl TrainConfig {
    /// Validate the configuration, panicking with a descriptive message on
    /// nonsensical values.
    ///
    /// # Panics
    ///
    /// Panics if any hyperparameter is out of range.
    pub fn validate(&self) {
        assert!(self.epochs > 0, "epochs must be positive");
        assert!(
            self.learning_rate > 0.0 && self.learning_rate.is_finite(),
            "learning rate must be positive and finite"
        );
        assert!(
            (0.0..1.0).contains(&self.momentum),
            "momentum must be in [0, 1), got {}",
            self.momentum
        );
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(
            self.lr_decay > 0.0 && self.lr_decay <= 1.0,
            "lr decay must be in (0, 1], got {}",
            self.lr_decay
        );
        assert!(self.target_loss >= 0.0, "target loss must be non-negative");
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually executed (≤ configured epochs if the target loss was
    /// reached early).
    pub epochs_run: usize,
    /// Mean per-sample loss over the final epoch.
    pub final_loss: f64,
    /// Mean per-sample loss after each epoch.
    pub loss_history: Vec<f64>,
    /// Wall-clock duration of the run in seconds (`std::time::Instant`).
    pub wall_time_secs: f64,
    /// Training throughput: samples processed per second over the run.
    pub samples_per_sec: f64,
}

impl PartialEq for TrainReport {
    /// Timing fields (`wall_time_secs`, `samples_per_sec`) are
    /// measurements of the host, not outcomes of the algorithm — they are
    /// excluded so determinism tests can compare reports exactly.
    fn eq(&self, other: &Self) -> bool {
        self.epochs_run == other.epochs_run
            && self.final_loss == other.final_loss
            && self.loss_history == other.loss_history
    }
}

impl fmt::Display for TrainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trained {} epochs, final loss {:.6}, {:.0} samples/s ({:.3}s wall)",
            self.epochs_run, self.final_loss, self.samples_per_sec, self.wall_time_secs
        )
    }
}

/// One row block of every layer's input-major parameters: the unit a
/// momentum-update task owns. Part 0 also holds the biases. Aligned like
/// [`Workspace`], so each part's lock word sits on its own cache lines.
#[repr(align(128))]
struct Part {
    /// Per layer: this part's rows of `Wᵀ`, row-major, `outputs` wide.
    weights: Vec<Vec<f64>>,
    /// Momentum velocities of `weights`.
    vel_w: Vec<Vec<f64>>,
    /// Per-layer biases (empty outside part 0).
    biases: Vec<Vec<f64>>,
    /// Momentum velocities of `biases`.
    vel_b: Vec<Vec<f64>>,
}

/// The network as one `train` call holds it: input-major weights
/// (`inputs × outputs`, see the [module docs](self)), each layer's rows
/// split into contiguous parts that update tasks write concurrently.
struct InputMajor {
    parts: Vec<RwLock<Part>>,
    /// Per layer: part `p` holds `Wᵀ` rows `bounds[l][p]..bounds[l][p + 1]`.
    bounds: Vec<Vec<usize>>,
    /// Per layer: the number of outputs, the width of a `Wᵀ` row.
    widths: Vec<usize>,
    activations: Vec<Activation>,
}

impl InputMajor {
    /// `mlp` transposed, each layer's rows split into `parts` blocks.
    fn new(mlp: &Mlp, parts: usize) -> Self {
        assert!((1..=MAX_SHARDS).contains(&parts), "part count");
        let layers = mlp.layers();
        let bounds: Vec<Vec<usize>> = layers
            .iter()
            .map(|l| (0..=parts).map(|p| l.inputs() * p / parts).collect())
            .collect();
        let transposed: Vec<Matrix> = layers.iter().map(|l| l.weights.transpose()).collect();
        let parts = (0..parts)
            .map(|p| {
                let weights: Vec<Vec<f64>> = transposed
                    .iter()
                    .zip(&bounds)
                    .map(|(wt, b)| wt.as_slice()[b[p] * wt.cols()..b[p + 1] * wt.cols()].to_vec())
                    .collect();
                let biases: Vec<Vec<f64>> = layers
                    .iter()
                    .map(|l| if p == 0 { l.biases.clone() } else { Vec::new() })
                    .collect();
                RwLock::new(Part {
                    vel_w: weights.iter().map(|w| vec![0.0; w.len()]).collect(),
                    vel_b: biases.iter().map(|b| vec![0.0; b.len()]).collect(),
                    weights,
                    biases,
                })
            })
            .collect();
        Self {
            parts,
            bounds,
            widths: layers.iter().map(Layer::outputs).collect(),
            activations: layers.iter().map(|l| l.activation).collect(),
        }
    }

    /// Every part read-locked: the network a shard task computes with.
    fn read(&self) -> NetView<'_> {
        NetView {
            net: self,
            parts: std::array::from_fn(|p| {
                self.parts.get(p).map(|part| part.read().expect("net lock"))
            }),
        }
    }

    /// Fold the shards' gradients of part `p`'s rows (and, in part 0, of
    /// the biases) in shard order and take their momentum step.
    fn step_part(
        &self,
        p: usize,
        shards: &[Option<RwLockReadGuard<'_, Workspace>>],
        momentum: f64,
        scale: f64,
    ) {
        let mut guard = self.parts[p].write().expect("net lock");
        let part = &mut *guard;
        let mut grads: [&[f64]; MAX_SHARDS] = [&[]; MAX_SHARDS];
        let grads = &mut grads[..shards.len()];
        for (l, &width) in self.widths.iter().enumerate() {
            let rows = self.bounds[l][p] * width..self.bounds[l][p + 1] * width;
            for (g, ws) in grads.iter_mut().zip(shards.iter().flatten()) {
                *g = &ws.grad_w[l].as_slice()[rows.clone()];
            }
            fold_and_step(
                &mut part.weights[l],
                &mut part.vel_w[l],
                grads,
                momentum,
                scale,
            );
            if p == 0 {
                for (g, ws) in grads.iter_mut().zip(shards.iter().flatten()) {
                    *g = &ws.grad_b[l];
                }
                fold_and_step(
                    &mut part.biases[l],
                    &mut part.vel_b[l],
                    grads,
                    momentum,
                    scale,
                );
            }
        }
    }

    /// Store the parameters back into `mlp`, row-major.
    fn write_back(self, mlp: &mut Mlp) {
        let parts: Vec<Part> = self
            .parts
            .into_iter()
            .map(|p| p.into_inner().expect("net lock"))
            .collect();
        for (l, layer) in mlp.layers_mut().iter_mut().enumerate() {
            let wt: Vec<f64> = parts
                .iter()
                .flat_map(|p| p.weights[l].iter().copied())
                .collect();
            let outputs = layer.outputs();
            layer.weights = Matrix::from_fn(outputs, layer.inputs(), |r, c| wt[c * outputs + r]);
            layer.biases.copy_from_slice(&parts[0].biases[l]);
        }
    }
}

/// An [`InputMajor`] with every part read-locked, and its kernels: each
/// runs over the parts in ascending row order, so the part split never
/// changes an operation or its order.
struct NetView<'a> {
    net: &'a InputMajor,
    parts: [Option<RwLockReadGuard<'a, Part>>; MAX_SHARDS],
}

impl NetView<'_> {
    fn rows(&self, l: usize, p: usize) -> &[f64] {
        &self.parts[p].as_ref().expect("locked part").weights[l]
    }

    /// `z ← Wᵀ-axpy(x)` for layer `l`, zero inputs skipped.
    fn forward(&self, l: usize, x: &[f64], z: &mut [f64]) {
        z.fill(0.0);
        let b = &self.net.bounds[l];
        for p in 0..self.net.parts.len() {
            axpy_rows(self.rows(l, p), &x[b[p]..b[p + 1]], z);
        }
    }

    /// `z ← Σ Wᵀ[i]` over the ascending set inputs `bits` of layer 0.
    fn forward_bits(&self, bits: &[usize], z: &mut [f64]) {
        z.fill(0.0);
        let b = &self.net.bounds[0];
        let width = z.len();
        let mut p = 0;
        let mut rows = self.rows(0, 0);
        for &i in bits {
            while i >= b[p + 1] {
                p += 1;
                rows = self.rows(0, p);
            }
            let row = &rows[(i - b[p]) * width..][..width];
            for (zj, w) in z.iter_mut().zip(row) {
                *zj += w;
            }
        }
    }

    /// `prev ← Wᵀ·δ` for layer `l`.
    fn backward(&self, l: usize, delta: &[f64], prev: &mut [f64]) {
        let b = &self.net.bounds[l];
        for p in 0..self.net.parts.len() {
            dot_rows(self.rows(l, p), delta, &mut prev[b[p]..b[p + 1]]);
        }
    }

    fn biases(&self, l: usize) -> &[f64] {
        &self.parts[0].as_ref().expect("locked part").biases[l]
    }
}

/// Each sample's ascending list of inputs equal to `1.0`, for a dataset
/// whose every input is exactly `0.0` or `1.0`.
struct SetBits {
    /// `bits[starts[s]..starts[s + 1]]` are sample `s`'s set inputs.
    starts: Vec<usize>,
    bits: Vec<usize>,
}

impl SetBits {
    /// The set-bit lists of `data`, or `None` when any input is neither
    /// `0.0` nor `1.0` (`−0.0 == 0.0`, so it counts as 0).
    fn of(data: &Dataset) -> Option<Self> {
        let mut starts = Vec::with_capacity(data.len() + 1);
        let mut bits = Vec::new();
        starts.push(0);
        for x in data.inputs() {
            for (i, &v) in x.iter().enumerate() {
                if v == 1.0 {
                    bits.push(i);
                } else if v != 0.0 {
                    return None;
                }
            }
            starts.push(bits.len());
        }
        Some(Self { starts, bits })
    }

    fn sample(&self, s: usize) -> &[usize] {
        &self.bits[self.starts[s]..self.starts[s + 1]]
    }
}

/// Per-shard scratch: every buffer forward + backward touches, allocated
/// once per training run and reused by whichever worker claims the shard,
/// so the steady-state inner loop performs zero heap allocation. Aligned
/// to its own cache lines: neighbouring shards run on different cores,
/// and a shared line would bounce between them on every sample.
#[repr(align(128))]
struct Workspace {
    /// Per-layer activations, `acts[l].len() == outputs of layer l`.
    acts: Vec<Vec<f64>>,
    /// Per-layer δ buffers, shaped like `acts`.
    deltas: Vec<Vec<f64>>,
    /// This shard's sample indices, copied out of the shared shuffle order
    /// under a short lock.
    indices: Vec<usize>,
    /// Per-layer input-major weight-gradient accumulators.
    grad_w: Vec<Matrix>,
    /// Per-layer bias-gradient accumulators.
    grad_b: Vec<Vec<f64>>,
    /// Sum of per-sample losses over the shard, in index order.
    loss_sum: f64,
}

impl Workspace {
    fn new(net: &InputMajor, shard_capacity: usize) -> Self {
        let grad_b: Vec<Vec<f64>> = net.widths.iter().map(|&w| vec![0.0; w]).collect();
        Self {
            acts: grad_b.clone(),
            deltas: grad_b.clone(),
            indices: Vec::with_capacity(shard_capacity),
            grad_w: net
                .bounds
                .iter()
                .zip(&net.widths)
                .map(|(b, &w)| Matrix::zeros(b[b.len() - 1], w))
                .collect(),
            grad_b,
            loss_sum: 0.0,
        }
    }

    fn reset(&mut self) {
        for g in &mut self.grad_w {
            g.fill_zero();
        }
        for g in &mut self.grad_b {
            g.fill(0.0);
        }
        self.loss_sum = 0.0;
    }

    /// Forward + backward every sample in `self.indices`, accumulating
    /// gradients and loss. This is *the* trainer arithmetic: the serial
    /// path, every parallel path, and the gradient checker all run this
    /// exact code over the same fixed shard partition. `set_bits` is the
    /// dataset's set-bit lists when its inputs are all binary.
    fn accumulate(
        &mut self,
        net: &NetView<'_>,
        data: &Dataset,
        loss: &WeightedMse,
        set_bits: Option<&SetBits>,
    ) {
        let activations = &net.net.activations;
        let last = activations.len() - 1;
        for pos in 0..self.indices.len() {
            let sample = self.indices[pos];
            let (x, t) = data.sample(sample);
            let bits = set_bits.map(|b| b.sample(sample));

            // Forward: z = Wᵀ-axpy over the nonzero inputs, then + b, f.
            for l in 0..=last {
                let (below, rest) = self.acts.split_at_mut(l);
                let z = &mut rest[0];
                match bits {
                    Some(bits) if l == 0 => net.forward_bits(bits, z),
                    _ => net.forward(l, if l == 0 { x } else { &below[l - 1] }, z),
                }
                for (zj, b) in z.iter_mut().zip(net.biases(l)) {
                    *zj += b;
                }
                activations[l].apply_in_place(z);
            }
            let output = &self.acts[last];
            self.loss_sum += loss.loss(t, output);

            // δ at the output layer: ∂L/∂o ⊙ f'(o).
            let out_delta = &mut self.deltas[last];
            loss.gradient_into(t, output, out_delta);
            let act = activations[last];
            for (d, &o) in out_delta.iter_mut().zip(output.iter()) {
                *d *= act.derivative_from_output(o);
            }

            // Backward through the layers.
            for l in (0..=last).rev() {
                let (lower, upper) = self.deltas.split_at_mut(l);
                let delta = &upper[0];
                match bits {
                    Some(bits) if l == 0 => {
                        for &i in bits {
                            for (g, d) in self.grad_w[0].row_mut(i).iter_mut().zip(delta) {
                                *g += d;
                            }
                        }
                    }
                    _ => {
                        let a_prev = if l == 0 { x } else { &self.acts[l - 1] };
                        self.grad_w[l].add_outer(1.0, a_prev, delta);
                    }
                }
                for (gb, d) in self.grad_b[l].iter_mut().zip(delta.iter()) {
                    *gb += d;
                }
                if l > 0 {
                    let prev = &mut lower[l - 1];
                    net.backward(l, delta, prev);
                    let act = activations[l - 1];
                    for (d, &a) in prev.iter_mut().zip(self.acts[l - 1].iter()) {
                        *d *= act.derivative_from_output(a);
                    }
                }
            }
        }
    }
}

/// `dst += src` element-wise — the one fold step of the trainer and the
/// gradient checker.
fn add_into(dst: &mut [f64], src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Mean-loss gradients of `mlp` over all of `data` under `loss`, computed
/// by the exact shard-accumulation path [`Trainer::train`] uses: the fixed
/// contiguous shard partition of one dataset-sized batch, per-shard
/// accumulation, and an ordered shard-index fold. Returns per-layer weight
/// (row-major, `outputs × inputs`) and bias gradients;
/// [`crate::gradcheck::check_gradients`] pins this against central finite
/// differences.
///
/// # Panics
///
/// Panics if the dataset or loss dimensions don't match the network.
#[must_use]
pub fn sharded_mean_gradients(
    mlp: &Mlp,
    data: &Dataset,
    loss: &WeightedMse,
) -> (Vec<Matrix>, Vec<Vec<f64>>) {
    assert_eq!(data.input_dim(), mlp.input_dim(), "dataset input dim");
    assert_eq!(loss.ports(), mlp.output_dim(), "loss port count");
    let n = data.len();
    let shard = shard_samples(n);
    let net = InputMajor::new(mlp, 1);
    let view = net.read();
    let set_bits = SetBits::of(data);
    let mut ws = Workspace::new(&net, shard);
    // The fold target: a workspace's zeroed gradient accumulators.
    let mut sum = Workspace::new(&net, 0);
    let mut start = 0usize;
    while start < n {
        let hi = (start + shard).min(n);
        ws.indices.clear();
        ws.indices.extend(start..hi);
        ws.reset();
        ws.accumulate(&view, data, loss, set_bits.as_ref());
        for (dst, src) in sum.grad_w.iter_mut().zip(&ws.grad_w) {
            add_into(dst.as_mut_slice(), src.as_slice());
        }
        for (dst, src) in sum.grad_b.iter_mut().zip(&ws.grad_b) {
            add_into(dst, src);
        }
        start = hi;
    }
    let inv = 1.0 / n as f64;
    let grad_w = sum
        .grad_w
        .iter()
        .map(|g| {
            let mut g = g.transpose();
            g.scale(inv);
            g
        })
        .collect();
    for g in &mut sum.grad_b {
        for v in g {
            *v *= inv;
        }
    }
    (grad_w, sum.grad_b)
}

/// Fold the shards' gradients of one parameter array in shard order and
/// take the momentum step, fused into one blocked pass: per element
/// `g = ((0 + g₀) + g₁) + …`, `v ← μ·v − s·g`, `θ ← θ + v` — the same
/// operations, in the same order, as separate fold, scale and add passes.
fn fold_and_step(params: &mut [f64], vel: &mut [f64], grads: &[&[f64]], momentum: f64, scale: f64) {
    let mut g = [0.0f64; FOLD_BLOCK];
    let mut start = 0;
    while start < params.len() {
        let end = (start + FOLD_BLOCK).min(params.len());
        let g = &mut g[..end - start];
        g.fill(0.0);
        for grad in grads {
            add_into(g, &grad[start..end]);
        }
        for ((p, v), &gi) in params[start..end]
            .iter_mut()
            .zip(&mut vel[start..end])
            .zip(g.iter())
        {
            *v = momentum * *v - scale * gi;
            *p += *v;
        }
        start = end;
    }
}

/// A mini-batch SGD trainer with momentum and a pluggable per-port weighted
/// loss.
///
/// See the crate-level example for a full training run.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    loss: Option<WeightedMse>,
}

impl Trainer {
    /// Trainer with the plain (uniform) Eq (4) loss.
    #[must_use]
    pub fn new(config: TrainConfig) -> Self {
        config.validate();
        Self { config, loss: None }
    }

    /// Trainer with an explicit per-port weighted loss (paper Eq (5)).
    #[must_use]
    pub fn with_loss(config: TrainConfig, loss: WeightedMse) -> Self {
        config.validate();
        Self {
            config,
            loss: Some(loss),
        }
    }

    /// The training configuration.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Train `mlp` on `data`, mutating its weights in place.
    ///
    /// The mini-batch loop is sharded ([module docs](self)): the result is
    /// a pure function of the configuration and the data, bit-identical at
    /// every [`TrainConfig::threads`] setting.
    ///
    /// # Panics
    ///
    /// Panics if the dataset dimensions don't match the network, or if a
    /// configured loss has a different port count than the network output.
    pub fn train(&self, mlp: &mut Mlp, data: &Dataset) -> TrainReport {
        assert_eq!(
            data.input_dim(),
            mlp.input_dim(),
            "dataset input dim vs network"
        );
        assert_eq!(
            data.output_dim(),
            mlp.output_dim(),
            "dataset output dim vs network"
        );
        let loss = match &self.loss {
            Some(l) => {
                assert_eq!(
                    l.ports(),
                    mlp.output_dim(),
                    "loss port count vs network output"
                );
                l.clone()
            }
            None => WeightedMse::uniform(mlp.output_dim()),
        };

        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n = data.len();
        let batch = self.config.batch_size.min(n);
        let shard = shard_samples(batch);
        let slots = batch.div_ceil(shard);
        let workers = resolve_threads(self.config.threads).min(slots).max(1);
        let set_bits = SetBits::of(data);

        // Shared state for the crew: the shuffle order, the network split
        // into row parts — one per worker when each gets at least
        // `MIN_PART_PARAMS` — read by shard tasks and each written by its
        // own update task, and one workspace per shard slot — per-*shard*,
        // not per-worker, so accumulation groups are fixed by the
        // partition and the ordered fold is thread-count invariant. The
        // part split only decides which task updates which elements.
        let order: Mutex<Vec<usize>> = Mutex::new((0..n).collect());
        let parts = workers.min(mlp.param_count() / MIN_PART_PARAMS).max(1);
        let net = InputMajor::new(mlp, parts);
        let workspaces: Vec<RwLock<Workspace>> = (0..slots)
            .map(|_| RwLock::new(Workspace::new(&net, shard)))
            .collect();
        // `(shards, lr/|batch|)` of the update round in flight.
        let step: Mutex<(usize, f64)> = Mutex::new((0, 0.0));
        let momentum = self.config.momentum;
        let mut lr = self.config.learning_rate;

        // Fold the shard gradients of part `p` and take its momentum step
        // v ← μ·v − (lr/|batch|)·∇ ; θ ← θ + v.
        let update = |p: usize| {
            let (used, scale) = *step.lock().expect("step lock");
            let shards: [Option<RwLockReadGuard<'_, Workspace>>; MAX_SHARDS] =
                std::array::from_fn(|s| {
                    (s < used).then(|| workspaces[s].read().expect("workspace lock"))
                });
            net.step_part(p, &shards[..used], momentum, scale);
        };

        // The per-round task. A gradient round passes the mini-batch start
        // and task `s` accumulates shard `s`; an update round passes
        // `UPDATE_ROUND` and task `p` updates part `p`. Everything else is
        // shared state, so the dispatch is two words.
        let task = |arg: usize, i: usize| {
            if arg == UPDATE_ROUND {
                update(i);
                return;
            }
            let chunk_start = arg;
            let len = (n - chunk_start).min(batch);
            let lo = chunk_start + i * shard;
            let hi = chunk_start + ((i + 1) * shard).min(len);
            let mut ws = workspaces[i].write().expect("workspace lock");
            {
                let order = order.lock().expect("order lock");
                ws.indices.clear();
                ws.indices.extend_from_slice(&order[lo..hi]);
            }
            ws.reset();
            ws.accumulate(&net.read(), data, &loss, set_bits.as_ref());
        };

        let pool = ThreadPool::new(workers);
        let (history, epochs_run) = pool.crew(task, |crew| {
            let mut history = Vec::with_capacity(self.config.epochs);
            let mut epochs_run = 0usize;
            for _epoch in 0..self.config.epochs {
                epochs_run += 1;
                {
                    let mut order = order.lock().expect("order lock");
                    prng::seq::shuffle(&mut order, &mut rng);
                }
                let mut epoch_loss = 0.0;

                let mut chunk_start = 0usize;
                while chunk_start < n {
                    let len = (n - chunk_start).min(batch);
                    let used = len.div_ceil(shard);
                    crew.run(chunk_start, used);
                    for ws in &workspaces[..used] {
                        epoch_loss += ws.read().expect("workspace lock").loss_sum;
                    }
                    *step.lock().expect("step lock") = (used, lr / len as f64);
                    if parts == 1 {
                        update(0);
                    } else {
                        crew.run(UPDATE_ROUND, parts);
                    }
                    chunk_start += len;
                }

                let mean_loss = epoch_loss / n as f64;
                history.push(mean_loss);
                lr *= self.config.lr_decay;
                if mean_loss <= self.config.target_loss {
                    break;
                }
            }
            (history, epochs_run)
        });

        net.write_back(mlp);
        let wall = started.elapsed().as_secs_f64();
        let samples = (epochs_run * n) as f64;
        TrainReport {
            epochs_run,
            final_loss: *history.last().expect("at least one epoch"),
            loss_history: history,
            wall_time_secs: wall,
            samples_per_sec: if wall > 0.0 { samples / wall } else { 0.0 },
        }
    }
}

impl Trainer {
    /// Train with patience-based early stopping on a validation set: after
    /// every epoch the validation loss is measured, and training stops once
    /// it has failed to improve for `patience` consecutive epochs. The
    /// network is left at its *last* state (not rolled back); the report's
    /// history tracks the validation loss.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Trainer::train`], or if
    /// `patience` is zero, or the validation set dimensions mismatch.
    pub fn train_with_validation(
        &self,
        mlp: &mut Mlp,
        train: &Dataset,
        validation: &Dataset,
        patience: usize,
    ) -> TrainReport {
        assert!(patience > 0, "patience must be positive");
        assert_eq!(
            validation.input_dim(),
            mlp.input_dim(),
            "validation input dim"
        );
        assert_eq!(
            validation.output_dim(),
            mlp.output_dim(),
            "validation output dim"
        );

        let started = Instant::now();
        let mut one_epoch = self.clone();
        one_epoch.config.epochs = 1;
        let mut lr = self.config.learning_rate;
        let mut best = f64::INFINITY;
        let mut stalled = 0usize;
        let mut history = Vec::new();
        let mut epochs_run = 0usize;

        for epoch in 0..self.config.epochs {
            one_epoch.config.learning_rate = lr;
            one_epoch.config.seed = self.config.seed.wrapping_add(epoch as u64);
            let _ = one_epoch.train(mlp, train);
            lr *= self.config.lr_decay;
            epochs_run += 1;

            let val = crate::metrics::mlp_mse(mlp, validation);
            history.push(val);
            if val < best - 1e-12 {
                best = val;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= patience {
                    break;
                }
            }
            if val <= self.config.target_loss {
                break;
            }
        }

        let wall = started.elapsed().as_secs_f64();
        let samples = (epochs_run * train.len()) as f64;
        TrainReport {
            epochs_run,
            final_loss: *history.last().expect("at least one epoch"),
            loss_history: history,
            wall_time_secs: wall,
            samples_per_sec: if wall > 0.0 { samples / wall } else { 0.0 },
        }
    }
}

/// Fisher–Yates shuffle of an index permutation.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::MlpBuilder;
    use prng::rngs::StdRng;
    use prng::Rng;
    use prng::SeedableRng;

    fn xor_dataset() -> Dataset {
        Dataset::new(
            vec![vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]],
            vec![vec![0.], vec![1.], vec![1.], vec![0.]],
        )
        .unwrap()
    }

    #[test]
    fn xor_converges() {
        let mut net = MlpBuilder::new(&[2, 6, 1])
            .hidden_activation(Activation::Tanh)
            .seed(3)
            .build();
        let trainer = Trainer::new(TrainConfig {
            epochs: 3000,
            learning_rate: 0.5,
            batch_size: 4,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut net, &xor_dataset());
        assert!(report.final_loss < 0.01, "final loss {}", report.final_loss);
        // Predictions round to the right class.
        for (x, t) in xor_dataset().iter() {
            let y = net.forward(x)[0];
            assert_eq!((y >= 0.5) as u8 as f64, t[0], "x={x:?} y={y}");
        }
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let run = || {
            let mut net = MlpBuilder::new(&[2, 4, 1]).seed(1).build();
            let trainer = Trainer::new(TrainConfig {
                epochs: 50,
                ..TrainConfig::default()
            });
            let r = trainer.train(&mut net, &xor_dataset());
            (net, r.final_loss)
        };
        let (n1, l1) = run();
        let (n2, l2) = run();
        assert_eq!(n1, n2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn loss_decreases_on_average() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = Dataset::generate(128, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![(x * std::f64::consts::PI).sin() * 0.4 + 0.5])
        })
        .unwrap();
        let mut net = MlpBuilder::new(&[1, 8, 1]).seed(2).build();
        let trainer = Trainer::new(TrainConfig {
            epochs: 100,
            learning_rate: 0.8,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut net, &data);
        let first = report.loss_history[0];
        // Every init converges to the same ≈0.008 plateau for this target;
        // a lucky init can *start* there, so assert convergence plus
        // non-increase rather than a fixed improvement ratio.
        assert!(
            report.final_loss < 0.01,
            "did not converge: {} -> {}",
            first,
            report.final_loss
        );
        assert!(
            report.final_loss <= first * 1.01,
            "{} -> {}",
            first,
            report.final_loss
        );
    }

    #[test]
    fn target_loss_stops_early() {
        let mut net = MlpBuilder::new(&[2, 6, 1])
            .hidden_activation(Activation::Tanh)
            .seed(3)
            .build();
        let trainer = Trainer::new(TrainConfig {
            epochs: 100_000,
            learning_rate: 0.5,
            batch_size: 4,
            target_loss: 0.05,
            ..TrainConfig::default()
        });
        let report = trainer.train(&mut net, &xor_dataset());
        assert!(report.epochs_run < 100_000);
        assert!(report.final_loss <= 0.05);
    }

    #[test]
    fn weighted_loss_prioritizes_heavy_port() {
        // Two outputs driven by conflicting targets for the same inputs: the
        // heavily-weighted port must end up much more accurate.
        let mut rng = StdRng::seed_from_u64(1);
        let data = Dataset::generate(64, &mut rng, |r| {
            let x: f64 = r.gen();
            // Port 0: smooth function; port 1: high-frequency function the
            // tiny network cannot also fit.
            (vec![x], vec![x, (20.0 * x).sin() * 0.5 + 0.5])
        })
        .unwrap();
        let make = |weights: Vec<f64>| {
            let mut net = MlpBuilder::new(&[1, 4, 2]).seed(5).build();
            let trainer = Trainer::with_loss(
                TrainConfig {
                    epochs: 400,
                    learning_rate: 0.8,
                    ..TrainConfig::default()
                },
                WeightedMse::new(weights),
            );
            trainer.train(&mut net, &data);
            net
        };
        let err_port0 = |net: &Mlp| -> f64 {
            data.iter()
                .map(|(x, t)| {
                    let y = net.forward(x);
                    (y[0] - t[0]).abs()
                })
                .sum::<f64>()
                / data.len() as f64
        };
        let favored = make(vec![1.0, 0.01]);
        let unfavored = make(vec![0.01, 1.0]);
        assert!(
            err_port0(&favored) < err_port0(&unfavored),
            "weighting port 0 should reduce its error: {} vs {}",
            err_port0(&favored),
            err_port0(&unfavored)
        );
    }

    #[test]
    #[should_panic(expected = "dataset input dim")]
    fn train_rejects_dimension_mismatch() {
        let mut net = MlpBuilder::new(&[3, 4, 1]).build();
        let trainer = Trainer::new(TrainConfig::default());
        let _ = trainer.train(&mut net, &xor_dataset());
    }

    #[test]
    #[should_panic(expected = "loss port count")]
    fn train_rejects_loss_port_mismatch() {
        let mut net = MlpBuilder::new(&[2, 4, 1]).build();
        let trainer = Trainer::with_loss(TrainConfig::default(), WeightedMse::uniform(3));
        let _ = trainer.train(&mut net, &xor_dataset());
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn config_validation_rejects_bad_momentum() {
        let _ = Trainer::new(TrainConfig {
            momentum: 1.5,
            ..TrainConfig::default()
        });
    }

    #[test]
    fn validation_early_stopping_halts_before_budget() {
        // A validation set the network cannot keep improving on: training
        // must stop once the patience runs out, well before 100k epochs.
        let mut rng = StdRng::seed_from_u64(4);
        let train = Dataset::generate(64, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![x])
        })
        .unwrap();
        let val = Dataset::generate(32, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![x])
        })
        .unwrap();
        let mut net = MlpBuilder::new(&[1, 4, 1]).seed(1).build();
        let trainer = Trainer::new(TrainConfig {
            epochs: 100_000,
            learning_rate: 0.5,
            ..TrainConfig::default()
        });
        let report = trainer.train_with_validation(&mut net, &train, &val, 10);
        assert!(
            report.epochs_run < 100_000,
            "ran {} epochs",
            report.epochs_run
        );
        assert_eq!(report.loss_history.len(), report.epochs_run);
    }

    #[test]
    fn validation_history_tracks_validation_not_training() {
        let mut rng = StdRng::seed_from_u64(5);
        let train = Dataset::generate(64, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![1.0 - x])
        })
        .unwrap();
        let val = train.clone();
        let mut net = MlpBuilder::new(&[1, 4, 1]).seed(2).build();
        let trainer = Trainer::new(TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        });
        let report = trainer.train_with_validation(&mut net, &train, &val, 30);
        let direct = crate::metrics::mlp_mse(&net, &val);
        assert!((report.final_loss - direct).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "patience must be positive")]
    fn zero_patience_rejected() {
        let mut net = MlpBuilder::new(&[2, 2, 1]).build();
        let trainer = Trainer::new(TrainConfig::default());
        let data = xor_dataset();
        let _ = trainer.train_with_validation(&mut net, &data, &data, 0);
    }

    #[test]
    fn report_display_is_informative() {
        let r = TrainReport {
            epochs_run: 10,
            final_loss: 0.125,
            loss_history: vec![0.125],
            wall_time_secs: 0.5,
            samples_per_sec: 1280.0,
        };
        let s = format!("{r}");
        assert!(s.contains("10") && s.contains("0.125") && s.contains("1280"));
    }

    #[test]
    fn report_equality_ignores_timing() {
        let mut a = TrainReport {
            epochs_run: 3,
            final_loss: 0.25,
            loss_history: vec![1.0, 0.5, 0.25],
            wall_time_secs: 0.1,
            samples_per_sec: 100.0,
        };
        let mut b = a.clone();
        b.wall_time_secs = 99.0;
        b.samples_per_sec = 1.0;
        assert_eq!(a, b);
        a.final_loss = 0.3;
        assert_ne!(a, b);
    }

    #[test]
    fn training_is_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(11);
        let data = Dataset::generate(37, &mut rng, |r| {
            let x: f64 = r.gen();
            let y: f64 = r.gen();
            (vec![x, y], vec![(x * y).sqrt()])
        })
        .unwrap();
        let run = |threads: usize| {
            let mut net = MlpBuilder::new(&[2, 6, 1]).seed(9).build();
            let trainer = Trainer::new(TrainConfig {
                epochs: 8,
                batch_size: 10,
                learning_rate: 0.6,
                threads,
                ..TrainConfig::default()
            });
            let report = trainer.train(&mut net, &data);
            (net, report)
        };
        let (serial_net, serial_report) = run(1);
        for threads in [2, 3, 0] {
            let (net, report) = run(threads);
            assert_eq!(serial_net, net, "weights diverged at threads={threads}");
            assert_eq!(
                serial_report, report,
                "report diverged at threads={threads}"
            );
            let bits: Vec<u64> = report.loss_history.iter().map(|l| l.to_bits()).collect();
            let serial_bits: Vec<u64> = serial_report
                .loss_history
                .iter()
                .map(|l| l.to_bits())
                .collect();
            assert_eq!(serial_bits, bits, "loss bits diverged at threads={threads}");
        }
    }

    #[test]
    fn sharded_mean_gradients_are_finite_and_shaped() {
        let mut rng = StdRng::seed_from_u64(13);
        let data = Dataset::generate(21, &mut rng, |r| {
            let x: f64 = r.gen();
            (vec![x], vec![1.0 - x, x * x])
        })
        .unwrap();
        let net = MlpBuilder::new(&[1, 5, 2]).seed(4).build();
        let loss = WeightedMse::uniform(2);
        let (gw, gb) = sharded_mean_gradients(&net, &data, &loss);
        assert_eq!(gw.len(), net.layers().len());
        assert_eq!(gb.len(), net.layers().len());
        for (l, layer) in net.layers().iter().enumerate() {
            assert_eq!(
                (gw[l].rows(), gw[l].cols()),
                (layer.outputs(), layer.inputs())
            );
            assert_eq!(gb[l].len(), layer.outputs());
            assert!(gb[l].iter().all(|g| g.is_finite()));
        }
    }
}
