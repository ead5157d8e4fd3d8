//! The two serving workloads: trained MEI systems manufactured onto chips,
//! served by an `EventServer` over one wire-protocol v2 connection, and
//! driven by a seeded open-loop generator and a closed pipelined phase.
//!
//! `mlp-sparse` sends one-request frames to an `Engine` of two
//! inversek2j chips: nearly all of its latency is the network stack.
//! `cnn-batch` sends 64-request frames to a fleet of 2 pools × 2 ternary
//! CNN chips with replication 2: chip and kernel time dominate, and every
//! frame fans out over both pools.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbar::{BitInput, ConvWorkspace, DifferentialPair};
use interface::InterfaceSpec;
use mei::{manufacture_chips, manufacture_fleet, AnalogWorkspace, CnnConfig, CnnRcs};
use mei::{MeiConfig, MeiRcs, Rcs};
use neural::{Dataset, SteConfig, TrainConfig};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use rram::{DeviceParams, VariationModel};
use runtime::net::frame::{self, Frame, ItemResponse, RequestFrame, ResponseFrame};
use runtime::net::{EventServer, EventServerConfig, NetWorkload};
use runtime::{Chip, ChipPool, Engine, Fleet, FleetConfig};
use workloads::ErrorMetric;

use crate::report::{host_ticks, peak_rss_mib, steal_since, Report, ACCOUNTING_TOLERANCE};
use crate::sched;
use crate::spans::{covered, Span};
use crate::stats::{median, windowed_quantile, Summary, RATE_WINDOWS};
use crate::traced::{drain, since, TracedChip};
use crate::wire::{self, RecvHalf, SendHalf};

/// Lognormal σ of the write noise every manufactured chip carries.
pub const WRITE_SIGMA: f64 = 0.02;
/// Seed of the training data and weights: every run serves the same
/// trained model; `--seed` varies manufacture, traffic and request mix.
pub const TRAIN_SEED: u64 = 1;
/// Setups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Shares of the measured seconds given to the open-loop phase, the
/// lone-frame phase (one frame in flight), the pipelined phase and the
/// retraining that times `train_sps`.
const OPEN_SHARE: f64 = 0.15;
const LONE_SHARE: f64 = 0.25;
const CLOSED_SHARE: f64 = 0.3;
const TRAIN_SHARE: f64 = 0.3;
/// Target length of one lone-frame slice plus one pipelined slice. The
/// two closed phases alternate in slices, so both sample the host over
/// the whole run, and each reports the median over its slices: a host
/// that slows for some seconds sets neither figure.
const SLICE_PAIR_SECS: f64 = 2.0;
/// Distinct request frames a run cycles through (bounds client memory
/// for 128 KiB CNN frames).
const FRAME_POOL: usize = 64;
/// Socket read timeout: a stalled server fails the run instead of
/// hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// How a workload's chips are put behind the server.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    /// One `Engine` over `chips` chips.
    Engine {
        /// Chips in the pool.
        chips: usize,
    },
    /// A `Fleet` of `pools` engines, each over `chips_per_pool` chips,
    /// every workload key replicated over `replication` pools.
    Fleet {
        /// Pools in the fleet.
        pools: usize,
        /// Chips per pool.
        chips_per_pool: usize,
        /// Replica count R.
        replication: usize,
    },
}

/// The fixed constants of one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name (also the served workload's protocol token).
    pub name: &'static str,
    /// Open-loop offered load, frames per second (Poisson arrivals).
    pub rate_fps: f64,
    /// Requests per frame, in both phases.
    pub frame_reqs: usize,
    /// Frames kept in flight in the closed phase.
    pub closed_depth: usize,
    /// Chips behind the server.
    pub backend: Backend,
}

/// `mlp-sparse`: lone inversek2j requests over the wire.
pub const MLP_SPARSE: Spec = Spec {
    name: "mlp-sparse",
    rate_fps: 400.0,
    frame_reqs: 1,
    closed_depth: 8,
    backend: Backend::Engine { chips: 2 },
};

/// `cnn-batch`: 64-image CNN frames over a replicated fleet.
pub const CNN_BATCH: Spec = Spec {
    name: "cnn-batch",
    rate_fps: 80.0,
    frame_reqs: 64,
    closed_depth: 4,
    backend: Backend::Fleet {
        pools: 2,
        chips_per_pool: 2,
        replication: 2,
    },
};

impl Spec {
    /// The constants as one line for the run header.
    #[must_use]
    pub fn describe(&self) -> String {
        let backend = match self.backend {
            Backend::Engine { chips } => format!("engine chips={chips}"),
            Backend::Fleet {
                pools,
                chips_per_pool,
                replication,
            } => format!(
                "fleet pools={pools} chips_per_pool={chips_per_pool} replication={replication}"
            ),
        };
        format!(
            "open_loop_fps={} frame_reqs={} closed_depth={} shares(open/lone/closed/train)=\
             {OPEN_SHARE}/{LONE_SHARE}/{CLOSED_SHARE}/{TRAIN_SHARE} {backend} \
             write_sigma={WRITE_SIGMA} train_seed={TRAIN_SEED} setup_reps={SETUP_REPS}",
            self.rate_fps, self.frame_reqs, self.closed_depth
        )
    }
}

/// How served outputs are scored against targets.
#[derive(Debug, Clone, Copy)]
pub enum Quality {
    /// The Table 1 application error metric.
    Metric(ErrorMetric),
    /// 1 − classification accuracy (argmax of the scores).
    Classification,
}

impl Quality {
    fn error(self, outputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        match self {
            Quality::Metric(metric) => metric.evaluate(outputs, targets),
            Quality::Classification => {
                let wrong = outputs
                    .iter()
                    .zip(targets)
                    .filter(|(o, t)| mei::argmax(o) != mei::argmax(t))
                    .count();
                wrong as f64 / outputs.len() as f64
            }
        }
    }
}

/// A trained system ready to manufacture, with its request pool.
pub struct Model<T> {
    /// The trained system (the chip prototype).
    pub rcs: T,
    /// Held-out samples: the request pool and the quality reference.
    pub eval: Dataset,
    /// How outputs are scored.
    pub quality: Quality,
    /// Training wall time, seconds.
    pub train_secs: f64,
    /// Training sample·epochs.
    pub sample_epochs: f64,
    /// Training epochs (all stages).
    pub epochs: usize,
}

/// A system the serving harness can train, manufacture and probe.
pub trait ServedModel: Rcs + Chip + Clone + Send + Sync + 'static {
    /// Train the workload's model from [`TRAIN_SEED`].
    fn train() -> Model<Self>;
    /// Total device write pulses.
    fn writes(&self) -> u64;
    /// Time the in-chip layers on the model's own shapes and record the
    /// `interface.*`, `mei.*` and `crossbar.*` metrics.
    fn probe_layers(model: &Model<Self>, budget: Duration, report: &mut Report);
}

fn device() -> DeviceParams {
    DeviceParams::hfox()
}

impl ServedModel for MeiRcs {
    fn train() -> Model<Self> {
        let workload = workloads::all_benchmarks()
            .into_iter()
            .find(|w| w.name() == "inversek2j")
            .expect("inversek2j is a Table 1 benchmark");
        let train = workload.dataset(1_500, TRAIN_SEED).expect("train data");
        let eval = workload.dataset(300, TRAIN_SEED + 1).expect("eval data");
        let epochs = 60;
        let config = MeiConfig {
            hidden: 32,
            in_bits: 8,
            out_bits: 8,
            device: device(),
            train: TrainConfig {
                epochs,
                learning_rate: 0.8,
                ..TrainConfig::default()
            },
            seed: TRAIN_SEED,
            ..MeiConfig::default()
        };
        let start = Instant::now();
        let rcs = MeiRcs::train(&train, &config).expect("MEI training");
        Model {
            rcs,
            quality: Quality::Metric(workload.metric()),
            train_secs: start.elapsed().as_secs_f64(),
            sample_epochs: (train.len() * epochs) as f64,
            epochs,
            eval,
        }
    }

    fn writes(&self) -> u64 {
        self.analog().total_writes()
    }

    fn probe_layers(model: &Model<Self>, budget: Duration, report: &mut Report) {
        let rcs = &model.rcs;
        let inputs = model.eval.inputs();
        let (in_spec, out_spec) = (rcs.input_spec(), rcs.output_spec());
        let out_bits: Vec<Vec<f64>> = model
            .eval
            .targets()
            .iter()
            .map(|t| out_spec.encode(t))
            .collect();
        let slice = budget / 3;
        let (codec, n) = per_call(slice, inputs.len(), |i| {
            std::hint::black_box(in_spec.encode(&inputs[i]));
            std::hint::black_box(out_spec.decode(&out_bits[i]));
        });
        report.set("interface.codec_ns_per_req", codec * 1e9, n);
        let bits: Vec<Vec<f64>> = inputs.iter().map(|x| in_spec.encode(x)).collect();
        let mut ws = AnalogWorkspace::new();
        let (forward, n) = per_call(slice, bits.len(), |i| {
            std::hint::black_box(rcs.analog().forward_with(&bits[i], &mut ws));
        });
        report.set("mei.forward_us", forward * 1e6, n);
        report.set("crossbar.conv_us", 0.0, 0);
        let layers = rcs.mlp().layers();
        let first = augmented(&layers[0].weights.to_rows(), &layers[0].biases);
        let probe_bits: Vec<Vec<f64>> = bits.iter().map(|b| with_bias(b)).collect();
        let (matvec, n) = matvec_probe(&first, &probe_bits, slice);
        report.set("crossbar.matvec_ns", matvec * 1e9, n);
        report.set("crossbar.matvecs_per_req", layers.len() as f64, 1);
    }
}

impl ServedModel for CnnRcs {
    fn train() -> Model<Self> {
        let config = CnnConfig {
            in_h: 16,
            in_w: 16,
            hidden: 12,
            stride: 2,
            ste: SteConfig {
                epochs: 120,
                lr: 0.01,
                probe_lr: 0.02,
                ..SteConfig::default()
            },
            train: TrainConfig {
                epochs: 160,
                learning_rate: 0.5,
                ..TrainConfig::default()
            },
            seed: TRAIN_SEED,
            ..CnnConfig::default()
        };
        let train = workloads::cnn_dataset(config.in_w, config.in_h, 150, TRAIN_SEED);
        let eval = workloads::cnn_dataset(config.in_w, config.in_h, 75, TRAIN_SEED + 1);
        let start = Instant::now();
        let rcs = CnnRcs::train(&train, &config).expect("CNN training");
        let epochs = config.ste.epochs + config.train.epochs;
        Model {
            rcs,
            quality: Quality::Classification,
            train_secs: start.elapsed().as_secs_f64(),
            sample_epochs: (train.len() * epochs) as f64,
            epochs,
            eval,
        }
    }

    fn writes(&self) -> u64 {
        self.total_writes()
    }

    fn probe_layers(model: &Model<Self>, budget: Duration, report: &mut Report) {
        let cnn = &model.rcs;
        let images = model.eval.inputs();
        let out_spec: InterfaceSpec = cnn.output_spec();
        let out_bits: Vec<Vec<f64>> = model
            .eval
            .targets()
            .iter()
            .map(|t| out_spec.encode(t))
            .collect();
        let slice = budget / 4;
        let (codec, n) = per_call(slice, out_bits.len(), |i| {
            std::hint::black_box(out_spec.decode(&out_bits[i]));
        });
        report.set("interface.codec_ns_per_req", codec * 1e9, n);
        let mut conv_ws = ConvWorkspace::new();
        let (conv, n) = per_call(slice, images.len(), |i| {
            std::hint::black_box(cnn.conv().forward_with(&images[i], &mut conv_ws));
        });
        report.set("crossbar.conv_us", conv * 1e6, n);
        let features: Vec<Vec<f64>> = images
            .iter()
            .map(|x| {
                cnn.conv()
                    .forward(x)
                    .into_iter()
                    .map(neural::binarize)
                    .collect()
            })
            .collect();
        let mut head_ws = AnalogWorkspace::new();
        let (forward, n) = per_call(slice, features.len(), |i| {
            std::hint::black_box(cnn.head().forward_with(&features[i], &mut head_ws));
        });
        report.set("mei.forward_us", forward * 1e6, n);
        // The dominant matvec: one conv tile (filters × tile patch slice)
        // driven by binary image patches.
        let conv = cnn.conv();
        let (start, len) = conv.tile_range(0);
        let weights: Vec<Vec<f64>> = cnn
            .twin()
            .ternary_weights()
            .iter()
            .map(|row| row[start..start + len].to_vec())
            .collect();
        let patches: Vec<Vec<f64>> = images
            .iter()
            .flat_map(|x| crossbar::im2col(conv.shape(), x))
            .take(4_096)
            .map(|p| p[start..start + len].to_vec())
            .collect();
        let (matvec, n) = matvec_probe(&weights, &patches, slice);
        report.set("crossbar.matvec_ns", matvec * 1e9, n);
        let tile_matvecs = conv.shape().patches() * conv.tile_count();
        let head_layers = cnn.head_mlp().layers().len();
        report.set(
            "crossbar.matvecs_per_req",
            (tile_matvecs + head_layers) as f64,
            1,
        );
    }
}

fn augmented(rows: &[Vec<f64>], biases: &[f64]) -> Vec<Vec<f64>> {
    rows.iter()
        .zip(biases)
        .map(|(row, &b)| {
            let mut row = row.clone();
            row.push(b);
            row
        })
        .collect()
}

fn with_bias(bits: &[f64]) -> Vec<f64> {
    let mut v = bits.to_vec();
    v.push(1.0);
    v
}

/// Mean seconds per call of `f(i)` (cycling `i` over `0..items`) over
/// about `budget`, and the number of calls.
fn per_call(budget: Duration, items: usize, mut f: impl FnMut(usize)) -> (f64, usize) {
    let start = Instant::now();
    let mut calls = 0usize;
    while calls < items || start.elapsed() < budget {
        f(calls % items);
        calls += 1;
    }
    (start.elapsed().as_secs_f64() / calls as f64, calls)
}

/// Seconds per `matvec_binary_into` of a pair programmed from `weights`
/// and driven by the binary vectors `inputs`.
fn matvec_probe(weights: &[Vec<f64>], inputs: &[Vec<f64>], budget: Duration) -> (f64, usize) {
    let pair = DifferentialPair::from_weights(weights, device(), &Default::default())
        .expect("trained weights map onto a pair");
    let packed: Vec<BitInput> = inputs
        .iter()
        .map(|x| BitInput::try_from_values(x).expect("probe inputs are binary"))
        .collect();
    let mut out = vec![0.0; pair.outputs()];
    let mut scratch = vec![0.0; pair.outputs()];
    per_call(budget, packed.len(), |i| {
        pair.matvec_binary_into(&packed[i], &mut out, &mut scratch);
        std::hint::black_box(&out);
    })
}

/// Seed of this run's manufactured chips (the twin uses the same one).
fn manufacture_seed(seed: u64) -> u64 {
    prng::substream(seed, 0x4d46)
}

/// The chips of a backend in global chip order, untraced: the twin the
/// oracle reads, and the accounting rollup's source.
fn twin_chips<T: ServedModel>(rcs: &T, spec: &Spec, seed: u64) -> (Vec<T>, f64) {
    let mseed = manufacture_seed(seed);
    match spec.backend {
        Backend::Engine { chips } => {
            let pool = manufacture_chips(rcs, chips, WRITE_SIGMA, mseed);
            let area = pool.accounting().area_mm2();
            (pool.into_chips(), area)
        }
        Backend::Fleet {
            pools,
            chips_per_pool,
            replication,
        } => {
            let fleet = manufacture_fleet(
                rcs,
                pools,
                chips_per_pool,
                WRITE_SIGMA,
                FleetConfig::new(mseed).with_replication(replication),
            );
            let area = fleet.accounting().area_mm2();
            let chips = fleet
                .into_engines()
                .into_iter()
                .flat_map(|e| e.into_pool().into_chips())
                .collect();
            (chips, area)
        }
    }
}

type SpanLog = Arc<Mutex<Vec<Span>>>;

/// Manufacture the served backend; with `epoch`, every chip is wrapped in
/// a [`TracedChip`] and its span log returned (global chip order).
fn build_workload<T: ServedModel>(
    rcs: &T,
    dim: usize,
    spec: &Spec,
    seed: u64,
    epoch: Option<Instant>,
) -> (NetWorkload, Vec<SpanLog>) {
    let (chips, _) = twin_chips(rcs, spec, seed);
    let mut logs = Vec::new();
    let mut boxed: Vec<Box<dyn Chip>> = chips
        .into_iter()
        .map(|chip| match epoch {
            Some(epoch) => {
                let (traced, log) = TracedChip::wrap(chip, epoch);
                logs.push(log);
                Box::new(traced) as Box<dyn Chip>
            }
            None => Box::new(chip) as Box<dyn Chip>,
        })
        .collect();
    let workload = match spec.backend {
        Backend::Engine { .. } => {
            NetWorkload::new(spec.name, dim, Engine::new(ChipPool::from_chips(boxed)))
        }
        Backend::Fleet {
            pools,
            chips_per_pool,
            replication,
        } => {
            let engines = (0..pools)
                .map(|_| {
                    let rest = boxed.split_off(chips_per_pool);
                    let pool = std::mem::replace(&mut boxed, rest);
                    Engine::new(ChipPool::from_chips(pool))
                })
                .collect();
            let config = FleetConfig::new(manufacture_seed(seed)).with_replication(replication);
            NetWorkload::fleet(spec.name, dim, Fleet::new(engines, config))
        }
    };
    (workload, logs)
}

/// One request frame of the run's pool: which eval samples it carries,
/// and its encoded bytes.
struct PoolFrame {
    requests: Vec<usize>,
    bytes: Vec<u8>,
}

fn frame_pool(eval: &Dataset, spec: &Spec, id: u16, seed: u64) -> Vec<PoolFrame> {
    let mut rng = StdRng::seed_from_u64(prng::substream(seed, 0x5245));
    (0..FRAME_POOL)
        .map(|_| {
            let requests: Vec<usize> = (0..spec.frame_reqs)
                .map(|_| rng.gen_range(0..eval.len()))
                .collect();
            let inputs: Vec<Vec<f64>> =
                requests.iter().map(|&i| eval.inputs()[i].clone()).collect();
            let bytes = Frame::Request(RequestFrame::from_inputs(id, &inputs)).encode();
            PoolFrame { requests, bytes }
        })
        .collect()
}

/// A connected client.
struct Conn {
    tx: SendHalf,
    rx: RecvHalf,
    id: u16,
}

impl Conn {
    fn open(addr: SocketAddr, name: &str) -> Self {
        let (tx, rx, id) = wire::connect(addr, name, READ_TIMEOUT).expect("v2 connect");
        Self { tx, rx, id }
    }
}

/// Served items of one frame, with the eval indices they answer.
struct Answered {
    requests: Vec<usize>,
    items: Vec<ItemResponse>,
}

/// Serve every eval sample once, in order, in frames of the workload's
/// size: fills every chip's conductance plane and workspace before
/// timing, and yields the outputs `quality_err` scores.
fn warm_up(conn: &mut Conn, eval: &Dataset, spec: &Spec) -> Vec<Answered> {
    let indices: Vec<usize> = (0..eval.len()).collect();
    indices
        .chunks(spec.frame_reqs)
        .map(|chunk| {
            let inputs: Vec<Vec<f64>> = chunk.iter().map(|&i| eval.inputs()[i].clone()).collect();
            conn.tx
                .send(&Frame::Request(RequestFrame::from_inputs(conn.id, &inputs)).encode())
                .expect("warm-up send");
            let (items, _) = conn.rx.recv().expect("warm-up response");
            Answered {
                requests: chunk.to_vec(),
                items,
            }
        })
        .collect()
}

/// What the open-loop phase observed. Responses are checked against the
/// oracle as they arrive and then dropped, so memory does not grow with
/// the host's speed; only the first frames' items are kept (the traced
/// run re-encodes them to time the frame codec).
struct OpenLoop {
    t0: Instant,
    due: Vec<Duration>,
    sent: Vec<Instant>,
    recv: Vec<Instant>,
    resp_bytes: Vec<usize>,
    sizes: Vec<usize>,
    kept: Vec<Vec<ItemResponse>>,
}

impl OpenLoop {
    fn latencies_us(&self) -> Vec<f64> {
        self.recv
            .iter()
            .zip(&self.due)
            .map(|(r, d)| r.duration_since(self.t0 + *d).as_secs_f64() * 1e6)
            .collect()
    }

    /// The p99 of each of [`RATE_WINDOWS`] sub-windows (by due time),
    /// and their median.
    fn windowed_p99_us(&self) -> f64 {
        let points: Vec<(f64, f64)> = self
            .due
            .iter()
            .zip(self.latencies_us())
            .map(|(d, l)| (d.as_secs_f64(), l))
            .collect();
        windowed_quantile(&points, RATE_WINDOWS, 0.99)
    }

    fn lags_us(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.due)
            .map(|(s, d)| s.saturating_duration_since(self.t0 + *d).as_secs_f64() * 1e6)
            .collect()
    }
}

/// Send the pool's frames on a seeded Poisson schedule from one thread
/// while this thread reads and checks responses; latency runs from each
/// frame's due time, so a stalled send counts against every frame behind
/// it. With `flip`, the first response has one output bit flipped before
/// its check.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    conn: &mut Conn,
    pool: &[PoolFrame],
    spec: &Spec,
    horizon: Duration,
    seed: u64,
    oracle: &Oracle,
    flip: bool,
    report: &mut Report,
) -> OpenLoop {
    let due = sched::poisson(prng::substream(seed, 0x4f50), spec.rate_fps, horizon);
    let n = due.len();
    let t0 = Instant::now() + Duration::from_millis(2);
    let Conn { tx, rx, .. } = conn;
    let mut recv = Vec::with_capacity(n);
    let mut resp_bytes = Vec::with_capacity(n);
    let mut sizes = Vec::with_capacity(n);
    let mut kept = Vec::with_capacity(pool.len());
    let sent = std::thread::scope(|scope| {
        let due = &due;
        let sender = scope.spawn(move || {
            let mut sent = Vec::with_capacity(n);
            for (k, d) in due.iter().enumerate() {
                let at = t0 + *d;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                sent.push(Instant::now());
                tx.send(&pool[k % pool.len()].bytes)
                    .expect("open-loop send");
            }
            sent
        });
        for k in 0..n {
            let (mut items, bytes) = rx.recv().expect("open-loop response");
            recv.push(Instant::now());
            if flip && k == 0 {
                flip_one_bit(&mut items);
            }
            oracle.check(&pool[k % pool.len()].requests, &items, report);
            resp_bytes.push(bytes);
            sizes.push(items.len());
            if kept.len() < pool.len() {
                kept.push(items);
            }
        }
        sender.join().expect("sender thread")
    });
    OpenLoop {
        t0,
        due,
        sent,
        recv,
        resp_bytes,
        sizes,
        kept,
    }
}

/// What one closed slice observed.
struct Closed {
    /// Requests served per second over the slice.
    rate: f64,
    /// Requests served.
    served: usize,
    /// Per-frame latency in µs, from its send to its response.
    lat_us: Vec<f64>,
}

/// Keep `depth` frames in flight for `horizon`, sending the next frame
/// as soon as a response arrives, and check every response.
fn closed_loop(
    conn: &mut Conn,
    pool: &[PoolFrame],
    depth: usize,
    horizon: Duration,
    oracle: &Oracle,
    report: &mut Report,
) -> Closed {
    let start = Instant::now();
    let mut next = 0usize;
    let mut done = 0usize;
    let mut in_flight = VecDeque::with_capacity(depth);
    let mut served = 0usize;
    let mut lat_us = Vec::new();
    let mut send = |conn: &mut Conn, in_flight: &mut VecDeque<Instant>| {
        conn.tx
            .send(&pool[next % pool.len()].bytes)
            .expect("closed send");
        in_flight.push_back(Instant::now());
        next += 1;
    };
    for _ in 0..depth {
        send(conn, &mut in_flight);
    }
    while let Some(sent) = in_flight.pop_front() {
        let (items, _) = conn.rx.recv().expect("closed response");
        lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
        served += items.len();
        oracle.check(&pool[done % pool.len()].requests, &items, report);
        done += 1;
        if start.elapsed() < horizon {
            send(conn, &mut in_flight);
        }
    }
    Closed {
        rate: served as f64 / start.elapsed().as_secs_f64(),
        served,
        lat_us,
    }
}

/// The output oracle: `table[chip][sample]` is the twin chip's
/// `Chip::infer` on eval sample `sample`.
struct Oracle {
    table: Vec<Vec<Vec<f64>>>,
}

impl Oracle {
    fn new<T: ServedModel>(twin: &[T], eval: &Dataset) -> Self {
        Self {
            table: twin
                .iter()
                .map(|chip| eval.inputs().iter().map(|x| chip.infer(x)).collect())
                .collect(),
        }
    }

    /// Count one frame's items against the oracle: attempted, and failed
    /// (shed, error, unknown chip, or any output bit that differs).
    fn check(&self, requests: &[usize], items: &[ItemResponse], report: &mut Report) {
        if items.len() != requests.len() {
            report.fail(format!(
                "a frame of {} requests got {} answers",
                requests.len(),
                items.len()
            ));
        }
        for (item, &sample) in items.iter().zip(requests) {
            report.attempted += 1;
            let good = match item {
                ItemResponse::Ok { chip, output, .. } => self
                    .table
                    .get(*chip as usize)
                    .is_some_and(|outputs| same_bits(&outputs[sample], output)),
                ItemResponse::Shed | ItemResponse::Err(_) => false,
            };
            if !good {
                report.failed += 1;
            }
        }
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Outputs of the warm-up pass in eval order.
fn warm_outputs(answered: &[Answered]) -> Vec<Vec<f64>> {
    answered
        .iter()
        .flat_map(|a| a.items.iter())
        .map(|item| match item {
            ItemResponse::Ok { output, .. } => output.clone(),
            ItemResponse::Shed | ItemResponse::Err(_) => Vec::new(),
        })
        .collect()
}

/// Everything one setup produced.
struct Live<T> {
    model: Model<T>,
    server: EventServer,
    conn: Conn,
    warm: Vec<Answered>,
}

/// One full setup: train, manufacture, bind, connect, warm up.
fn set_up<T: ServedModel>(spec: &Spec, seed: u64) -> Live<T> {
    let model = T::train();
    let (workload, _) = build_workload(&model.rcs, model.eval.input_dim(), spec, seed, None);
    let server = EventServer::bind("127.0.0.1:0", vec![workload], EventServerConfig::default())
        .expect("bind a loopback port");
    let mut conn = Conn::open(server.addr(), spec.name);
    let warm = warm_up(&mut conn, &model.eval, spec);
    Live {
        model,
        server,
        conn,
        warm,
    }
}

fn shut_down<T>(live: Live<T>) {
    drop(live.conn);
    live.server.shutdown();
}

/// Run one serving workload and fill `report`.
pub fn run<T: ServedModel>(spec: &Spec, seed: u64, seconds: f64, flip: bool, report: &mut Report) {
    let reps = if report.traced() { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    // Sample·epochs per second of every training the run does.
    let mut training = Vec::new();
    let mut live = None;
    for _ in 0..reps {
        if let Some(previous) = live.take() {
            shut_down::<T>(previous);
        }
        let start = Instant::now();
        let next = set_up::<T>(spec, seed);
        setups.push(start.elapsed().as_secs_f64());
        training.push(next.model.sample_epochs / next.model.train_secs);
        live = Some(next);
    }
    let mut live: Live<T> = live.expect("at least one setup");
    let (twin, area_mm2) = twin_chips(&live.model.rcs, spec, seed);
    let oracle = Oracle::new(&twin, &live.model.eval);
    for frame in &live.warm {
        oracle.check(&frame.requests, &frame.items, report);
    }
    let pool = frame_pool(&live.model.eval, spec, live.conn.id, seed);

    if report.traced() {
        traced(spec, seed, seconds, live, &twin, &oracle, &pool, report);
        return;
    }

    let host = host_ticks();
    let horizon = Duration::from_secs_f64(seconds * OPEN_SHARE);
    let open = open_loop(
        &mut live.conn,
        &pool,
        spec,
        horizon,
        seed,
        &oracle,
        flip,
        report,
    );
    let slices = ((seconds * (LONE_SHARE + CLOSED_SHARE) / SLICE_PAIR_SECS).round() as usize)
        .max(RATE_WINDOWS);
    let lone_slice = Duration::from_secs_f64(seconds * LONE_SHARE / slices as f64);
    let piped_slice = Duration::from_secs_f64(seconds * CLOSED_SHARE / slices as f64);
    let (mut lone, mut piped) = (Vec::new(), Vec::new());
    for _ in 0..slices {
        lone.push(closed_loop(
            &mut live.conn,
            &pool,
            1,
            lone_slice,
            &oracle,
            report,
        ));
        piped.push(closed_loop(
            &mut live.conn,
            &pool,
            spec.closed_depth,
            piped_slice,
            &oracle,
            report,
        ));
    }
    let lone_lat: Vec<f64> = lone.iter().flat_map(|c| c.lat_us.iter().copied()).collect();
    let lone_p50s: Vec<f64> = lone.iter().map(|c| Summary::of(&c.lat_us).p50).collect();
    let piped_rates: Vec<f64> = piped.iter().map(|c| c.rate).collect();
    let piped_served: usize = piped.iter().map(|c| c.served).sum();

    let open_lat = Summary::of(&open.latencies_us());
    let lag = Summary::of(&open.lags_us());
    let sheet = Chip::cost_sheet(&live.model.rcs).expect("MEI chips are accounted");
    report.set("setup_s", median(&setups), setups.len());
    report.note("lat_p50_us", median(&lone_p50s), "us", lone_lat.len());
    report.note(
        "lat_p99_us",
        Summary::of(&lone_lat).p99,
        "us",
        lone_lat.len(),
    );
    report.note("sat_rps", median(&piped_rates), "1/s", piped_served);
    report.set(
        "quality_err",
        live.model
            .quality
            .error(&warm_outputs(&live.warm), live.model.eval.targets()),
        live.model.eval.len(),
    );
    report.set("model_nj_per_req", sheet.dynamic_j_per_inference * 1e9, 1);
    report.set("model_area_mm2", area_mm2, twin.len());
    report.note("lat_open_p50_us", open_lat.p50, "us", open_lat.n);
    report.note("lat_open_p99_us", open.windowed_p99_us(), "us", open_lat.n);
    report.note("lat_open_p99_whole_run_us", open_lat.p99, "us", open_lat.n);
    report.note("loadgen.lag_p99_us", lag.p99, "us", lag.n);
    shut_down(live);
    retrain::<T>(&mut training, seconds * TRAIN_SHARE);
    report.note("train_sps", median(&training), "1/s", training.len());
    report.note("host.steal_frac", steal_since(host), "ratio", 1);
    report.set("peak_rss_mb", peak_rss_mib(), 1);
}

/// Retrain for `budget` seconds, adding each training's sample·epochs
/// per second to `rates`: `train_sps` is their median, so one training
/// that a host stall slowed does not set it.
fn retrain<T: ServedModel>(rates: &mut Vec<f64>, budget: f64) {
    let until = Instant::now() + Duration::from_secs_f64(budget);
    while Instant::now() < until {
        let model = T::train();
        rates.push(model.sample_epochs / model.train_secs);
    }
}

/// Flip the lowest mantissa bit of the first served output (the
/// `--flip-bit` fault injection that proves the oracle bites).
fn flip_one_bit(items: &mut [ItemResponse]) {
    if let Some(ItemResponse::Ok { output, .. }) = items.first_mut() {
        if let Some(v) = output.first_mut() {
            *v = f64::from_bits(v.to_bits() ^ 1);
        }
    }
}

/// Per-frame view of a traced live phase.
struct FrameTrace {
    /// Client span: send to response received.
    span: Span,
    /// The frame's chip `infer` spans.
    infers: Vec<Span>,
}

/// Assign live chip spans to frames: the server runs one frame of a
/// connection at a time, so in start order the first `n₀` spans belong
/// to frame 0, the next `n₁` to frame 1, and so on.
fn assign_infers(spans: Vec<Vec<Span>>, sizes: &[usize]) -> Vec<Vec<Span>> {
    let mut all: Vec<Span> = spans.into_iter().flatten().collect();
    all.sort_unstable();
    let mut rest = all.as_slice();
    sizes
        .iter()
        .map(|&n| {
            let (head, tail) = rest.split_at(n.min(rest.len()));
            rest = tail;
            head.to_vec()
        })
        .collect()
}

fn window(spans: &[Span]) -> Span {
    Span {
        start: spans.iter().map(|s| s.start).min().unwrap_or(0),
        end: spans.iter().map(|s| s.end).max().unwrap_or(0),
    }
}

fn ns(epoch: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// The traced run: an untraced live phase (the overhead baseline), a
/// traced live phase on a server whose chips record `infer` spans, an
/// in-process replay of the traced frames through the same serving
/// function the server calls, and layer probes.
#[allow(clippy::too_many_arguments)]
fn traced<T: ServedModel>(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    mut live: Live<T>,
    twin: &[T],
    oracle: &Oracle,
    pool: &[PoolFrame],
    report: &mut Report,
) {
    let base = open_loop(
        &mut live.conn,
        pool,
        spec,
        Duration::from_secs_f64(seconds * 0.25),
        seed,
        oracle,
        false,
        report,
    );
    let untraced = Summary::of(&base.latencies_us());
    let model = live.model;
    drop(live.conn);
    live.server.shutdown();

    // Traced live phase.
    let epoch = Instant::now();
    let (workload, logs) =
        build_workload(&model.rcs, model.eval.input_dim(), spec, seed, Some(epoch));
    let server = EventServer::bind("127.0.0.1:0", vec![workload], EventServerConfig::default())
        .expect("bind a loopback port");
    let mut conn = Conn::open(server.addr(), spec.name);
    for frame in warm_up(&mut conn, &model.eval, spec) {
        oracle.check(&frame.requests, &frame.items, report);
    }
    drop(drain(&logs));
    let open = open_loop(
        &mut conn,
        pool,
        spec,
        Duration::from_secs_f64(seconds * 0.35),
        seed,
        oracle,
        false,
        report,
    );
    let live_spans = drain(&logs);
    drop(conn);
    server.shutdown();
    let wall = open
        .recv
        .last()
        .map_or(1.0, |r| r.duration_since(open.t0).as_secs_f64());
    let infer_total: u64 = live_spans.iter().flatten().map(Span::len).sum();
    let infer_us: Vec<f64> = live_spans
        .iter()
        .flatten()
        .map(|s| s.len() as f64 / 1e3)
        .collect();
    let frames: Vec<FrameTrace> = assign_infers(live_spans, &open.sizes)
        .into_iter()
        .enumerate()
        .map(|(k, infers)| FrameTrace {
            span: Span {
                start: ns(epoch, open.sent[k]),
                end: ns(epoch, open.recv[k]),
            },
            infers,
        })
        .collect();
    let residual_us: Vec<f64> = frames
        .iter()
        .map(|f| f.span.len().saturating_sub(window(&f.infers).len()) as f64 / 1e3)
        .collect();
    let lat = Summary::of(&open.latencies_us());
    let lag = Summary::of(&open.lags_us());
    let infer = Summary::of(&infer_us);
    report.set("loadgen.lag_p99_us", lag.p99, lag.n);
    report.set("loadgen.samples", lat.n as f64, lat.n);
    report.set(
        "net.residual_us_p50",
        Summary::of(&residual_us).p50,
        residual_us.len(),
    );
    report.set("chip.infer_us_p50", infer.p50, infer.n);
    report.set("chip.infer_us_p99", infer.p99, infer.n);
    report.set(
        "chip.busy_frac",
        infer_total as f64 / 1e9 / (twin.len() as f64 * wall),
        infer.n,
    );
    report.set(
        "trace.overhead_frac",
        lat.p50 / untraced.p50 - 1.0,
        lat.n.min(untraced.n),
    );

    // Replay the traced frames in process through `NetWorkload::serve_batch`.
    let budget = Duration::from_secs_f64(seconds * 0.2);
    let (replay_workload, replay_logs) =
        build_workload(&model.rcs, model.eval.input_dim(), spec, seed, Some(epoch));
    let mut session = replay_workload.open_session();
    for chunk in (0..model.eval.len())
        .collect::<Vec<_>>()
        .chunks(spec.frame_reqs)
    {
        let inputs: Vec<Vec<f64>> = chunk
            .iter()
            .map(|&i| model.eval.inputs()[i].clone())
            .collect();
        drop(replay_workload.serve_batch(&mut session, &inputs, None));
    }
    drop(drain(&replay_logs));
    let mut session = replay_workload.open_session();
    let started = Instant::now();
    let mut batches = Vec::new();
    let mut served_by_chip = vec![0usize; twin.len()];
    for k in 0..open.sizes.len() {
        if started.elapsed() > budget && !batches.is_empty() {
            break;
        }
        let requests = &pool[k % pool.len()].requests;
        let inputs: Vec<Vec<f64>> = requests
            .iter()
            .map(|&i| model.eval.inputs()[i].clone())
            .collect();
        let start = since(epoch);
        let items = replay_workload.serve_batch(&mut session, &inputs, None);
        batches.push(Span {
            start,
            end: since(epoch),
        });
        let items: Vec<ItemResponse> = items
            .into_iter()
            .map(|item| match item {
                runtime::BatchItem::Served(s) => {
                    served_by_chip[s.chip] += 1;
                    ItemResponse::Ok {
                        chip: u32::try_from(s.chip).expect("chip ids fit u32"),
                        latency_us: 0,
                        output: s.output,
                    }
                }
                runtime::BatchItem::Shed { .. } => ItemResponse::Shed,
                runtime::BatchItem::Failed { .. } => ItemResponse::Err("failed".into()),
            })
            .collect();
        oracle.check(requests, &items, report);
    }
    let replay_spans = drain(&replay_logs);
    let mut replay_infers: Vec<(usize, Span)> = replay_spans
        .iter()
        .enumerate()
        .flat_map(|(chip, spans)| spans.iter().map(move |s| (chip, *s)))
        .collect();
    replay_infers.sort_unstable_by_key(|(_, s)| *s);
    let mut dispatch = Vec::new();
    let mut batch_us = Vec::new();
    let mut waits = Vec::new();
    let mut chips_used = Vec::new();
    let (mut work, mut capacity) = (0u64, 0u64);
    for batch in &batches {
        let inside: Vec<(usize, Span)> = replay_infers
            .iter()
            .filter(|(_, s)| s.start >= batch.start && s.end <= batch.end)
            .copied()
            .collect();
        let spans: Vec<Span> = inside.iter().map(|(_, s)| *s).collect();
        let mut chips: Vec<usize> = inside.iter().map(|(c, _)| *c).collect();
        chips.sort_unstable();
        chips.dedup();
        batch_us.push(batch.len() as f64 / 1e3);
        dispatch.push((batch.len() - covered(*batch, &spans)) as f64 / 1e3);
        waits.extend(spans.iter().map(|s| (s.start - batch.start) as f64 / 1e3));
        chips_used.push(chips.len() as f64);
        work += spans.iter().map(Span::len).sum::<u64>();
        capacity += chips.len().max(1) as u64 * batch.len();
    }
    let batch = Summary::of(&batch_us);
    report.set("engine.batch_us_per_frame", batch.mean, batch.n);
    report.set(
        "engine.dispatch_self_us_per_frame",
        Summary::of(&dispatch).mean,
        dispatch.len(),
    );
    report.set(
        "engine.queue_wait_us_p50",
        Summary::of(&waits).p50,
        waits.len(),
    );
    report.set(
        "engine.chips_per_frame",
        Summary::of(&chips_used).mean,
        chips_used.len(),
    );
    report.set(
        "pool.parallel_eff",
        work as f64 / capacity.max(1) as f64,
        batches.len(),
    );
    report.set(
        "trace.accounted_frac",
        (lag.mean + Summary::of(&residual_us).mean + batch.mean) / lat.mean,
        lat.n,
    );

    // Routing and pool shares.
    match replay_workload.as_fleet() {
        Some(fleet) => {
            let session = fleet.session(spec.name);
            let (route, n) = per_call(budget / 8, 1, |_| {
                std::hint::black_box(fleet.next_pool(&session));
            });
            report.set("fleet.route_ns_per_req", route * 1e9, n);
            let mut served = vec![0usize; fleet.len()];
            for (chip, n) in served_by_chip.iter().enumerate() {
                served[fleet.pool_of_chip(chip)] += n;
            }
            let total: usize = served.iter().sum();
            let max = served.iter().copied().max().unwrap_or(0);
            report.set(
                "fleet.pool_share_max",
                max as f64 / total.max(1) as f64,
                total,
            );
        }
        None => {
            report.set("fleet.route_ns_per_req", 0.0, 0);
            report.set("fleet.pool_share_max", 1.0, batches.len());
        }
    }

    // Wire codec and bytes, on this run's own request and response frames.
    let responses: Vec<Vec<u8>> = open
        .kept
        .iter()
        .map(|items| {
            Frame::Response(ResponseFrame {
                workload: 0,
                items: items.clone(),
            })
            .encode()
        })
        .collect();
    let requests: Vec<RequestFrame> = pool
        .iter()
        .map(|f| match frame::decode(&f.bytes, usize::MAX) {
            frame::DecodeStep::Frame(Frame::Request(r), _) => r,
            _ => unreachable!("the pool holds valid request frames"),
        })
        .collect();
    let (codec, n) = per_call(budget / 8, pool.len().min(responses.len()), |i| {
        let req = Frame::Request(requests[i].clone()).encode();
        std::hint::black_box(frame::decode(&req, usize::MAX));
        std::hint::black_box(frame::decode(&responses[i], usize::MAX));
    });
    report.set(
        "net.codec_ns_per_req",
        codec * 1e9 / spec.frame_reqs as f64,
        n,
    );
    let req_bytes: usize = open.sizes.len() * pool[0].bytes.len();
    let resp_bytes: usize = open.resp_bytes.iter().sum();
    let reqs: usize = open.sizes.iter().sum();
    report.set(
        "net.bytes_per_req",
        (req_bytes + resp_bytes) as f64 / reqs.max(1) as f64,
        reqs,
    );

    // Layer probes on the model's own shapes.
    T::probe_layers(&model, budget, report);
    write_and_read_probe(&model, report);
    report.set(
        "neural.epoch_ms",
        model.train_secs * 1e3 / model.epochs as f64,
        model.epochs,
    );
    report.set("mei.saab_round_ms", 0.0, 0);
    report.note("lat_p50_traced_us", lat.p50, "us", lat.n);
    report.note("lat_p50_untraced_us", untraced.p50, "us", untraced.n);
    let accounted = (lag.mean + Summary::of(&residual_us).mean + batch.mean) / lat.mean;
    report.note(
        "trace.accounting_within_tol",
        f64::from(u8::from((accounted - 1.0).abs() <= ACCOUNTING_TOLERANCE)),
        "bool",
        lat.n,
    );
}

/// One programming pass of the served design (clone, write-noise
/// disturb, restore), then the first `infer` after it (the conductance
/// plane rebuild) against later ones.
fn write_and_read_probe<T: ServedModel>(model: &Model<T>, report: &mut Report) {
    let variation = VariationModel::process_variation(WRITE_SIGMA);
    let mut rng = StdRng::seed_from_u64(TRAIN_SEED);
    let passes = 8;
    let (mut write_ns, mut writes, mut cold_ns) = (0u128, 0u64, 0u128);
    let mut warm = Vec::new();
    let x = &model.eval.inputs()[0];
    for _ in 0..passes {
        let start = Instant::now();
        let mut chip = model.rcs.clone();
        let before = chip.writes();
        Rcs::disturb(&mut chip, &variation, &mut rng);
        writes += chip.writes() - before;
        write_ns += start.elapsed().as_nanos();
        let start = Instant::now();
        std::hint::black_box(chip.infer(x));
        cold_ns += start.elapsed().as_nanos();
        for _ in 0..16 {
            let start = Instant::now();
            std::hint::black_box(chip.infer(x));
            warm.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        let start = Instant::now();
        Rcs::restore(&mut chip);
        write_ns += start.elapsed().as_nanos();
    }
    report.set(
        "crossbar.write_us_per_trial",
        write_ns as f64 / 1e3 / f64::from(passes),
        passes as usize,
    );
    report.set(
        "rram.writes_per_trial",
        writes as f64 / f64::from(passes),
        passes as usize,
    );
    report.set(
        "crossbar.cold_read_us",
        cold_ns as f64 / 1e3 / f64::from(passes),
        passes as usize,
    );
    report.set("crossbar.warm_read_us", Summary::of(&warm).mean, warm.len());
}
