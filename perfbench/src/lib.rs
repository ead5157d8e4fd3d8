//! The repository benchmark: three workloads over the MEI system, each
//! reporting end-to-end metrics (tracing off) or per-layer metrics (the
//! traced run). See `README.md` beside this crate for the workloads, the
//! metric table and how to run it.

#![forbid(unsafe_code)]

pub mod offline;
pub mod report;
pub mod sched;
pub mod serving;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod wire;

/// The workload names, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["mlp-sparse", "cnn-batch", "mei-train-mc"];

/// Run workload `name` and return its report.
///
/// # Panics
///
/// Panics if `name` is not one of [`WORKLOADS`] or a workload's own
/// set-up fails (a broken build, not a measurement).
#[must_use]
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool, flip: bool) -> report::Report {
    let mut report = report::Report::new(trace);
    match name {
        "mlp-sparse" => {
            serving::run::<mei::MeiRcs>(&serving::MLP_SPARSE, seed, seconds, flip, &mut report);
        }
        "cnn-batch" => {
            serving::run::<mei::CnnRcs>(&serving::CNN_BATCH, seed, seconds, flip, &mut report);
        }
        "mei-train-mc" => offline::run(seed, seconds, flip, &mut report),
        other => panic!("unknown workload '{other}'"),
    }
    report
}

/// The fixed constants of workload `name`, for the run header.
#[must_use]
pub fn constants(name: &str) -> String {
    match name {
        "mlp-sparse" => serving::MLP_SPARSE.describe(),
        "cnn-batch" => serving::CNN_BATCH.describe(),
        "mei-train-mc" => offline::describe(),
        _ => String::new(),
    }
}
