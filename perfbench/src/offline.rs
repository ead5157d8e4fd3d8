//! `mei-train-mc`: the paper's offline pipeline on the Table 1 jmeint row,
//! with no network. Setup trains the MEI RCS with the data-parallel
//! trainer and boosts a SAAB ensemble with the non-ideal factors
//! injected; the timed phase runs closed-loop Monte-Carlo robustness
//! queries (`robustness_par`), each of which writes every device of a
//! fresh clone (`disturb`) before it reads.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use mei::RobustnessReport;
use mei::{robustness_par, MeiConfig, MeiRcs, Saab, SaabConfig, SaabTrainer};
use neural::{Dataset, TrainConfig};
use rram::{DeviceParams, NonIdealFactors};
use runtime::{Chip, PoolAccounting, ThreadPool};
use workloads::ErrorMetric;

use crate::report::{host_ticks, peak_rss_mib, steal_since, Report};
use crate::serving::{Model, Quality, ServedModel, SETUP_REPS, TRAIN_SEED};
use crate::spans::{covered, Span};
use crate::stats::{median, windowed_quantile, windowed_rate, Summary, RATE_WINDOWS};
use crate::traced::{since, TracedRcs};

/// Monte-Carlo process-variation σ.
pub const MC_PROCESS_SIGMA: f64 = 0.1;
/// Monte-Carlo signal-fluctuation σ.
pub const MC_SIGNAL_SIGMA: f64 = 0.05;
/// Training samples, test samples, epochs, hidden size, SAAB rounds.
const TRAIN_SAMPLES: usize = 1_500;
const TEST_SAMPLES: usize = 300;
const EPOCHS: usize = 60;
const HIDDEN: usize = 64;
const SAAB_ROUNDS: usize = 3;
/// Boosting attempts allowed to reach [`SAAB_ROUNDS`] learners (a round
/// may be discarded).
const SAAB_ATTEMPTS: usize = 6;
/// Monte-Carlo trials per robustness query.
pub const QUERY_TRIALS: usize = 2;
/// Timed queries re-run on a 1-thread pool and compared bitwise; their
/// mean trial error is `quality_err`.
const CHECK_QUERIES: usize = 16;
/// Share of the measured seconds spent retraining for `train_sps`; the
/// rest runs Monte-Carlo queries.
const TRAIN_SHARE: f64 = 0.3;

/// The constants as one line for the run header.
#[must_use]
pub fn describe() -> String {
    format!(
        "benchmark=jmeint train={TRAIN_SAMPLES} test={TEST_SAMPLES} epochs={EPOCHS} \
         hidden={HIDDEN} bits=8/8 saab_rounds={SAAB_ROUNDS} pv_sigma={MC_PROCESS_SIGMA} \
         sf_sigma={MC_SIGNAL_SIGMA} query_trials={QUERY_TRIALS} check_queries={CHECK_QUERIES} \
         train_share={TRAIN_SHARE} train_threads=auto mc_threads=auto train_seed={TRAIN_SEED} \
         setup_reps={SETUP_REPS}"
    )
}

fn factors() -> NonIdealFactors {
    NonIdealFactors::new(MC_PROCESS_SIGMA, MC_SIGNAL_SIGMA)
}

/// The trained pipeline.
struct Trained {
    mei: MeiRcs,
    saab: Saab,
    test: Dataset,
    metric: ErrorMetric,
    train_secs: f64,
    sample_epochs: f64,
    mei_secs: f64,
    round_ms: Vec<f64>,
}

fn train() -> Trained {
    let workload = workloads::all_benchmarks()
        .into_iter()
        .find(|w| w.name() == "jmeint")
        .expect("jmeint is a Table 1 benchmark");
    let train = workload
        .dataset(TRAIN_SAMPLES, TRAIN_SEED)
        .expect("train data");
    let test = workload
        .dataset(TEST_SAMPLES, TRAIN_SEED + 1)
        .expect("test data");
    let config = MeiConfig {
        hidden: HIDDEN,
        in_bits: 8,
        out_bits: 8,
        device: DeviceParams::hfox(),
        train: TrainConfig {
            epochs: EPOCHS,
            learning_rate: 0.5,
            lr_decay: 0.995,
            threads: 0,
            ..TrainConfig::default()
        },
        seed: TRAIN_SEED,
        ..MeiConfig::default()
    };
    let start = Instant::now();
    let mei = MeiRcs::train(&train, &config).expect("MEI training");
    let mei_secs = start.elapsed().as_secs_f64();
    let mut trainer = SaabTrainer::new(
        &train,
        &config,
        &SaabConfig {
            rounds: SAAB_ROUNDS,
            factors: factors(),
            seed: TRAIN_SEED,
            threads: 0,
            ..SaabConfig::default()
        },
    )
    .expect("SAAB configuration");
    let mut round_ms = Vec::new();
    while trainer.learner_count() < SAAB_ROUNDS && round_ms.len() < SAAB_ATTEMPTS {
        let round = Instant::now();
        trainer.boost().expect("SAAB round");
        round_ms.push(round.elapsed().as_secs_f64() * 1e3);
    }
    let saab = trainer.ensemble();
    Trained {
        mei,
        saab,
        test,
        metric: workload.metric(),
        train_secs: start.elapsed().as_secs_f64(),
        sample_epochs: (TRAIN_SAMPLES * EPOCHS * (1 + round_ms.len())) as f64,
        mei_secs,
        round_ms,
    }
}

/// One timed robustness query.
struct Query {
    seed: u64,
    span: Span,
    lag_ns: u64,
    report: RobustnessReport,
}

/// Run closed-loop queries on `rcs` for `horizon` (at least
/// [`CHECK_QUERIES`] of them): each query's due time is the previous
/// one's completion.
fn queries<T>(
    pool: &ThreadPool,
    rcs: &T,
    trained: &Trained,
    seed: u64,
    horizon: Duration,
    epoch: Instant,
) -> Vec<Query>
where
    T: mei::Rcs + Clone + Send + Sync,
{
    let metric = trained.metric;
    let start = Instant::now();
    let mut done = Vec::new();
    let mut due = since(epoch);
    while done.len() < CHECK_QUERIES || start.elapsed() < horizon {
        let q_seed = prng::substream(seed, done.len() as u64);
        let begin = since(epoch);
        let report = robustness_par(
            pool,
            rcs,
            &trained.test,
            &factors(),
            QUERY_TRIALS,
            q_seed,
            |p, t| metric.evaluate(p, t),
        );
        let end = since(epoch);
        done.push(Query {
            seed: q_seed,
            span: Span { start: begin, end },
            lag_ns: begin - due,
            report,
        });
        due = end;
    }
    done
}

fn same_report(a: &RobustnessReport, b: &RobustnessReport) -> bool {
    [a.mean, a.std_dev, a.min, a.max]
        .iter()
        .zip([b.mean, b.std_dev, b.min, b.max])
        .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.trials == b.trials
}

/// Re-run the first queries on a 1-thread pool; every report must match
/// the auto-thread one bitwise.
fn check(trained: &Trained, done: &[Query], report: &mut Report) {
    let serial = ThreadPool::new(1);
    let metric = trained.metric;
    report.attempted += (done.len() * QUERY_TRIALS) as u64;
    for query in done.iter().take(CHECK_QUERIES) {
        let again = robustness_par(
            &serial,
            &trained.saab,
            &trained.test,
            &factors(),
            QUERY_TRIALS,
            query.seed,
            |p, t| metric.evaluate(p, t),
        );
        if !same_report(&again, &query.report) {
            report.failed += QUERY_TRIALS as u64;
        }
    }
}

fn quality(done: &[Query]) -> f64 {
    let first = &done[..CHECK_QUERIES];
    first.iter().map(|q| q.report.mean).sum::<f64>() / first.len() as f64
}

/// Run `mei-train-mc` and fill `report`.
pub fn run(seed: u64, seconds: f64, flip: bool, report: &mut Report) {
    let reps = if report.traced() { 1 } else { SETUP_REPS };
    let pool = ThreadPool::new(0);
    let epoch = Instant::now();
    let mut setups = Vec::with_capacity(reps);
    // Sample·epochs per second of every training the run does.
    let mut training = Vec::new();
    let mut trained = None;
    for _ in 0..reps {
        drop(trained.take());
        let start = Instant::now();
        let next = train();
        // Warm-up: the minimum batch of queries fills the worker pool's
        // thread-local state and the allocator before anything is timed.
        drop(queries(
            &pool,
            &next.saab,
            &next,
            seed ^ 0x5741,
            Duration::ZERO,
            epoch,
        ));
        setups.push(start.elapsed().as_secs_f64());
        training.push(next.sample_epochs / next.train_secs);
        trained = Some(next);
    }
    let trained = trained.expect("at least one setup");

    if report.traced() {
        traced(&pool, &trained, seed, seconds, epoch, report);
        return;
    }

    let host = host_ticks();
    let mut done = queries(
        &pool,
        &trained.saab,
        &trained,
        seed,
        Duration::from_secs_f64(seconds * (1.0 - TRAIN_SHARE)),
        epoch,
    );
    if flip {
        let q = &mut done[0].report;
        q.mean = f64::from_bits(q.mean.to_bits() ^ 1);
    }
    check(&trained, &done, report);
    let lat_us: Vec<f64> = done.iter().map(|q| q.span.len() as f64 / 1e3).collect();
    let lag_us: Vec<f64> = done.iter().map(|q| q.lag_ns as f64 / 1e3).collect();
    let lat = Summary::of(&lat_us);
    let first = done[0].span.start;
    let completions: Vec<(f64, usize)> = done
        .iter()
        .map(|q| ((q.span.end - first) as f64 / 1e9, QUERY_TRIALS))
        .collect();
    let trial_rate = windowed_rate(&completions, RATE_WINDOWS);
    let trials = done.len() * QUERY_TRIALS;
    let sheet = Chip::cost_sheet(&trained.saab).expect("SAAB chips are accounted");
    report.set("setup_s", median(&setups), setups.len());
    report.note("lat_p50_us", lat.p50, "us", lat.n);
    let points: Vec<(f64, f64)> = done
        .iter()
        .zip(&lat_us)
        .map(|(q, &l)| ((q.span.end - first) as f64 / 1e9, l))
        .collect();
    report.note(
        "lat_p99_us",
        windowed_quantile(&points, RATE_WINDOWS, 0.99),
        "us",
        lat.n,
    );
    report.set("quality_err", quality(&done), CHECK_QUERIES * QUERY_TRIALS);
    report.set("model_nj_per_req", sheet.dynamic_j_per_inference * 1e9, 1);
    report.set(
        "model_area_mm2",
        PoolAccounting::from_sheets(&[Some(sheet)]).area_mm2(),
        1,
    );
    // Retrain for the rest of the run: `train_sps` is the median rate
    // over every training, so one that a host stall slowed does not set
    // it.
    let until = Instant::now() + Duration::from_secs_f64(seconds * TRAIN_SHARE);
    while Instant::now() < until {
        let again = train();
        training.push(again.sample_epochs / again.train_secs);
    }
    report.note("train_sps", median(&training), "1/s", training.len());
    report.note("host.steal_frac", steal_since(host), "ratio", 1);
    report.note("mc_trials_per_s", trial_rate, "1/s", trials);
    report.note(
        "loadgen.lag_p99_us",
        Summary::of(&lag_us).p99,
        "us",
        lag_us.len(),
    );
    report.note("lat_p99_whole_run_us", lat.p99, "us", lat.n);
    report.set("peak_rss_mb", peak_rss_mib(), 1);
}

fn saab_writes(saab: &Saab) -> u64 {
    saab.learners()
        .iter()
        .map(|l| l.analog().total_writes())
        .sum()
}

/// The traced run: untraced queries (overhead baseline), then queries on
/// a [`TracedRcs`] whose per-trial clones record writes and reads, then
/// layer probes on the first learner's shapes.
fn traced(
    pool: &ThreadPool,
    trained: &Trained,
    seed: u64,
    seconds: f64,
    epoch: Instant,
    report: &mut Report,
) {
    let base = queries(
        pool,
        &trained.saab,
        trained,
        seed,
        Duration::from_secs_f64(seconds * 0.3),
        epoch,
    );
    check(trained, &base, report);
    let untraced = Summary::of(
        &base
            .iter()
            .map(|q| q.span.len() as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let (rcs, sink) = TracedRcs::wrap(trained.saab.clone(), epoch, saab_writes);
    let done = queries(
        pool,
        &rcs,
        trained,
        seed,
        Duration::from_secs_f64(seconds * 0.4),
        epoch,
    );
    check(trained, &done, report);
    let trials = std::mem::take(&mut *sink.lock().expect("trial log"));

    let lat_us: Vec<f64> = done.iter().map(|q| q.span.len() as f64 / 1e3).collect();
    let lag_us: Vec<f64> = done.iter().map(|q| q.lag_ns as f64 / 1e3).collect();
    let (lat, lag) = (Summary::of(&lat_us), Summary::of(&lag_us));
    let threads = pool.threads();
    let mut dispatch = Vec::new();
    let mut waits = Vec::new();
    let mut workers = Vec::new();
    let mut covered_us = Vec::new();
    let mut work = 0u64;
    for query in &done {
        let inside: Vec<&crate::traced::TrialRecord> = trials
            .iter()
            .filter(|t| t.span.start >= query.span.start && t.span.end <= query.span.end)
            .collect();
        let spans: Vec<Span> = inside.iter().map(|t| t.span).collect();
        let cover = covered(query.span, &spans);
        dispatch.push((query.span.len() - cover) as f64 / 1e3);
        covered_us.push(cover as f64 / 1e3);
        waits.extend(
            spans
                .iter()
                .map(|s| (s.start - query.span.start) as f64 / 1e3),
        );
        let ids: HashSet<_> = inside.iter().filter_map(|t| t.thread).collect();
        workers.push(ids.len() as f64);
        work += spans.iter().map(Span::len).sum::<u64>();
    }
    let busy: u64 = done.iter().map(|q| q.span.len()).sum();
    let reads: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.reads.iter().map(|&r| r as f64 / 1e3))
        .collect();
    let cold: Vec<f64> = trials
        .iter()
        .filter_map(|t| t.reads.first().map(|&r| r as f64 / 1e3))
        .collect();
    let warm: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.reads.iter().skip(1).map(|&r| r as f64 / 1e3))
        .collect();
    let writes_us: Vec<f64> = trials.iter().map(|t| t.write_ns as f64 / 1e3).collect();
    let writes: Vec<f64> = trials.iter().map(|t| t.writes as f64).collect();
    let infer = Summary::of(&reads);
    let wall = (done.last().expect("queries ran").span.end - done[0].span.start) as f64;
    let dispatch_mean = Summary::of(&dispatch).mean;

    report.set("loadgen.lag_p99_us", lag.p99, lag.n);
    report.set("loadgen.samples", lat.n as f64, lat.n);
    report.set("net.residual_us_p50", 0.0, 0);
    report.set("net.codec_ns_per_req", 0.0, 0);
    report.set("net.bytes_per_req", 0.0, 0);
    report.set("fleet.route_ns_per_req", 0.0, 0);
    report.set("fleet.pool_share_max", 0.0, 0);
    report.set("engine.batch_us_per_frame", lat.mean, lat.n);
    report.set(
        "engine.dispatch_self_us_per_frame",
        dispatch_mean,
        dispatch.len(),
    );
    report.set(
        "engine.queue_wait_us_p50",
        Summary::of(&waits).p50,
        waits.len(),
    );
    report.set(
        "engine.chips_per_frame",
        Summary::of(&workers).mean,
        workers.len(),
    );
    report.set("chip.infer_us_p50", infer.p50, infer.n);
    report.set("chip.infer_us_p99", infer.p99, infer.n);
    report.set(
        "chip.busy_frac",
        work as f64 / (threads as f64 * wall),
        trials.len(),
    );
    report.set(
        "pool.parallel_eff",
        work as f64 / (threads as f64 * busy as f64),
        trials.len(),
    );
    report.set(
        "crossbar.write_us_per_trial",
        Summary::of(&writes_us).mean,
        writes_us.len(),
    );
    report.set(
        "rram.writes_per_trial",
        Summary::of(&writes).mean,
        writes.len(),
    );
    report.set("crossbar.cold_read_us", Summary::of(&cold).mean, cold.len());
    report.set("crossbar.warm_read_us", Summary::of(&warm).mean, warm.len());
    report.set(
        "trace.overhead_frac",
        lat.p50 / untraced.p50 - 1.0,
        lat.n.min(untraced.n),
    );
    report.set(
        "trace.accounted_frac",
        (lag.mean + dispatch_mean + Summary::of(&covered_us).mean) / (lag.mean + lat.mean),
        lat.n,
    );
    report.set(
        "neural.epoch_ms",
        trained.mei_secs * 1e3 / EPOCHS as f64,
        EPOCHS,
    );
    report.set(
        "mei.saab_round_ms",
        Summary::of(&trained.round_ms).mean,
        trained.round_ms.len(),
    );

    // In-chip layers on the first learner's shapes (every learner shares
    // them).
    let learner = Model {
        rcs: trained.saab.learners()[0].clone(),
        eval: trained.test.clone(),
        quality: Quality::Metric(trained.metric),
        train_secs: trained.mei_secs,
        sample_epochs: (TRAIN_SAMPLES * EPOCHS) as f64,
        epochs: EPOCHS,
    };
    MeiRcs::probe_layers(&learner, Duration::from_secs_f64(seconds * 0.1), report);
    let layers = trained.mei.mlp().layers().len();
    report.set(
        "crossbar.matvecs_per_req",
        (layers * trained.saab.len()) as f64,
        1,
    );
}
