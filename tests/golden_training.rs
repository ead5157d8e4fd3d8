//! Golden bits of the trainer: a fingerprint of the final weights, biases
//! and loss history of representative trainings, pinned across kernel
//! rewrites and thread counts.
//!
//! Each case trains the exact dataset an RCS backpropagates over — the
//! MEI bit-coded interface (binary inputs), the AD/DA quantized view
//! (dense inputs), the frozen binary features of the CNN head — and
//! checks one 64-bit FNV-1a fingerprint over every `f64` bit pattern the
//! training produced. The expected values were recorded from the
//! row-major, multiply-every-term trainer; any kernel that changes a
//! single bit of a single weight, or of a single epoch loss, fails here.

use interface::quantize::quantize_fraction;
use interface::InterfaceSpec;
use mei::{exponential_bit_weights, CnnConfig, CnnRcs};
use neural::{Dataset, Mlp, MlpBuilder, TrainConfig, TrainReport, Trainer, WeightedMse};
use workloads::cnn_dataset;

/// Thread counts every case runs at: serial, the 2-thread split and more
/// threads than the 4 shards of a 16-sample batch. The MEI and AD/DA
/// networks are large enough that the trainer splits their momentum
/// update over up to 4 concurrent tasks.
const THREADS: [usize; 3] = [1, 2, 8];

/// 64-bit FNV-1a over the bit patterns of every weight, bias and epoch
/// loss, in layer order.
fn fingerprint(mlp: &Mlp, history: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f64| {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for layer in mlp.layers() {
        layer.weights.as_slice().iter().copied().for_each(&mut eat);
        layer.biases.iter().copied().for_each(&mut eat);
    }
    history.iter().copied().for_each(&mut eat);
    h
}

fn config(epochs: usize, threads: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        learning_rate: 0.5,
        lr_decay: 0.995,
        batch_size: 16,
        seed: 5,
        threads,
        ..TrainConfig::default()
    }
}

/// `(fingerprint, report)` of one training of a fresh `layout` network.
fn train(
    layout: &[usize],
    data: &Dataset,
    loss: Option<&WeightedMse>,
    config: TrainConfig,
) -> (u64, TrainReport) {
    let mut mlp = MlpBuilder::new(layout).seed(3).build();
    let trainer = match loss {
        Some(l) => Trainer::with_loss(config, l.clone()),
        None => Trainer::new(config),
    };
    let report = trainer.train(&mut mlp, data);
    (fingerprint(&mlp, &report.loss_history), report)
}

/// The jmeint data on the MEI 6-bit interface: every input exactly 0.0 or
/// 1.0, 203 samples so the last mini-batch is ragged.
fn mei_problem() -> (Vec<usize>, Dataset, WeightedMse) {
    let jmeint = workloads::all_benchmarks()
        .into_iter()
        .find(|w| w.name() == "jmeint")
        .expect("jmeint is a Table 1 benchmark");
    let data = jmeint.dataset(203, 21).expect("jmeint data");
    let in_spec = InterfaceSpec::new(data.input_dim(), 6);
    let out_spec = InterfaceSpec::new(data.output_dim(), 6);
    let encoded = data
        .map_inputs(|x| in_spec.encode(x))
        .expect("input encoding")
        .map_targets(|_, y| out_spec.encode(y))
        .expect("target encoding");
    assert!(encoded
        .iter()
        .all(|(x, _)| x.iter().all(|&v| v == 0.0 || v == 1.0)));
    let loss = WeightedMse::new(exponential_bit_weights(&out_spec));
    (vec![in_spec.ports(), 80, out_spec.ports()], encoded, loss)
}

#[test]
fn mei_interface_training_bits_are_pinned_at_every_thread_count() {
    let (layout, data, loss) = mei_problem();
    for threads in THREADS {
        let (fp, report) = train(&layout, &data, Some(&loss), config(12, threads));
        assert_eq!(report.epochs_run, 12);
        assert_eq!(
            fp, 0x23f1_67cc_1285_fb5d,
            "MEI fingerprint at threads={threads}"
        );
    }
}

#[test]
fn adda_dense_training_bits_are_pinned_at_every_thread_count() {
    // The AD/DA view: 6-bit quantized analog inputs, mostly neither 0 nor
    // 1, through the uniform loss, with a deeper network so the dense
    // path runs through two hidden layers.
    let inversek2j = workloads::all_benchmarks()
        .into_iter()
        .find(|w| w.name() == "inversek2j")
        .expect("inversek2j is a Table 1 benchmark");
    let data = inversek2j
        .dataset(157, 8)
        .expect("inversek2j data")
        .map_inputs(|x| x.iter().map(|&v| quantize_fraction(v, 6)).collect())
        .expect("quantized inputs")
        .map_targets(|_, y| y.iter().map(|&v| quantize_fraction(v, 6)).collect())
        .expect("quantized targets");
    let layout = [data.input_dim(), 96, 48, data.output_dim()];
    for threads in THREADS {
        let (fp, _) = train(&layout, &data, None, config(15, threads));
        assert_eq!(
            fp, 0x75e9_c40d_9ec4_830e,
            "AD/DA fingerprint at threads={threads}"
        );
    }
}

#[test]
fn cnn_head_training_bits_are_pinned_at_every_thread_count() {
    // The head as `CnnRcs::train` trains it (serial, its own config), and
    // the same head dataset through the trainer at every thread count.
    let data = cnn_dataset(8, 8, 20, 7);
    let config_cnn = CnnConfig::quick_test();
    let rcs = CnnRcs::train(&data, &config_cnn).expect("CNN training");
    assert_eq!(
        fingerprint(rcs.head_mlp(), &[]),
        0xa986_4315_301c_fe34,
        "CnnRcs head fingerprint"
    );

    let out_spec = InterfaceSpec::new(rcs.classes(), config_cnn.out_bits);
    let features = data
        .map_inputs(|x| rcs.twin().features(x))
        .expect("binary features")
        .map_targets(|_, y| out_spec.encode(y))
        .expect("coded targets");
    assert!(features
        .iter()
        .all(|(x, _)| x.iter().all(|&v| v == 0.0 || v == 1.0)));
    let loss = WeightedMse::new(exponential_bit_weights(&out_spec));
    let layout = [features.input_dim(), 10, out_spec.ports()];
    for threads in THREADS {
        let (fp, _) = train(&layout, &features, Some(&loss), config(20, threads));
        assert_eq!(
            fp, 0xeb2c_cddd_e94c_8d0e,
            "CNN head fingerprint at threads={threads}"
        );
    }
}

#[test]
fn validation_training_bits_are_pinned_at_every_thread_count() {
    let (layout, data, loss) = mei_problem();
    let (train_set, validation) = data.split(0.75);
    for threads in THREADS {
        let mut mlp = MlpBuilder::new(&layout).seed(3).build();
        let report = Trainer::with_loss(config(10, threads), loss.clone()).train_with_validation(
            &mut mlp,
            &train_set,
            &validation,
            4,
        );
        let fp = fingerprint(&mlp, &report.loss_history);
        assert_eq!(
            fp, 0x4213_f5b9_4575_9c49,
            "validation fingerprint at threads={threads}"
        );
    }
}
