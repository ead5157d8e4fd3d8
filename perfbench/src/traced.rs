//! Bench-side tracing wrappers. They forward every call to the wrapped
//! system and record a span around it, so the traced run can time the
//! layers without any change to the program's own code.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbar::SignalFluctuation;
use mei::Rcs;
use prng::RngCore;
use rram::VariationModel;
use runtime::{Chip, ChipCostSheet};

use crate::spans::Span;

/// Nanoseconds from `epoch` to now.
#[must_use]
pub fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A chip that records a span around every `infer` into its own log.
pub struct TracedChip<C> {
    inner: C,
    epoch: Instant,
    log: Arc<Mutex<Vec<Span>>>,
}

impl<C: Chip> TracedChip<C> {
    /// Wrap `inner`, stamping spans relative to `epoch`; returns the
    /// wrapper and a handle on its span log.
    pub fn wrap(inner: C, epoch: Instant) -> (Self, Arc<Mutex<Vec<Span>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let chip = Self {
            inner,
            epoch,
            log: Arc::clone(&log),
        };
        (chip, log)
    }
}

impl<C: Chip> Chip for TracedChip<C> {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        let start = since(self.epoch);
        let output = self.inner.infer(input);
        let end = since(self.epoch);
        self.log
            .lock()
            .expect("a chip span log is never poisoned: pushes cannot panic")
            .push(Span { start, end });
        output
    }

    fn set_window(&self, window: u64) {
        self.inner.set_window(window);
    }

    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        self.inner.cost_sheet()
    }

    fn wear(&self) -> Option<u64> {
        self.inner.wear()
    }
}

/// Drain every chip log, keyed by chip index.
#[must_use]
pub fn drain(logs: &[Arc<Mutex<Vec<Span>>>]) -> Vec<Vec<Span>> {
    logs.iter()
        .map(|log| std::mem::take(&mut *log.lock().expect("chip span log")))
        .collect()
}

/// What one Monte-Carlo trial did, as seen through [`TracedRcs`].
#[derive(Debug, Clone, Default)]
pub struct TrialRecord {
    /// Clone (trial start) to drop (trial end).
    pub span: Span,
    /// Clone + `disturb`, nanoseconds (the device writes).
    pub write_ns: u64,
    /// Write pulses the trial's `disturb` added.
    pub writes: u64,
    /// Duration of every `predict_noisy`, in call order, nanoseconds.
    pub reads: Vec<u64>,
    /// The worker thread that ran the trial.
    pub thread: Option<std::thread::ThreadId>,
}

/// An [`Rcs`] whose clones each record one [`TrialRecord`]:
/// `robustness_par` clones the system at the start of every trial and
/// drops the clone at its end, so the clone's life is the trial.
pub struct TracedRcs<T> {
    inner: T,
    epoch: Instant,
    writes_of: fn(&T) -> u64,
    sink: Arc<Mutex<Vec<TrialRecord>>>,
    /// `Some` on a trial clone; the prototype records nothing.
    trial: Option<Mutex<TrialRecord>>,
}

impl<T: Rcs + Clone> TracedRcs<T> {
    /// Wrap the prototype `inner`; `writes_of` reads its total device
    /// write count. Returns the wrapper and the trial log.
    pub fn wrap(
        inner: T,
        epoch: Instant,
        writes_of: fn(&T) -> u64,
    ) -> (Self, Arc<Mutex<Vec<TrialRecord>>>) {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let rcs = Self {
            inner,
            epoch,
            writes_of,
            sink: Arc::clone(&sink),
            trial: None,
        };
        (rcs, sink)
    }

    fn record(&self, f: impl FnOnce(&mut TrialRecord)) {
        if let Some(trial) = &self.trial {
            f(&mut trial.lock().expect("trial record"));
        }
    }
}

impl<T: Rcs + Clone> Clone for TracedRcs<T> {
    fn clone(&self) -> Self {
        let start = since(self.epoch);
        let inner = self.inner.clone();
        let record = TrialRecord {
            span: Span { start, end: start },
            write_ns: since(self.epoch) - start,
            thread: Some(std::thread::current().id()),
            ..TrialRecord::default()
        };
        Self {
            inner,
            epoch: self.epoch,
            writes_of: self.writes_of,
            sink: Arc::clone(&self.sink),
            trial: Some(Mutex::new(record)),
        }
    }
}

impl<T> Drop for TracedRcs<T> {
    fn drop(&mut self) {
        if let Some(trial) = self.trial.take() {
            let Ok(mut record) = trial.into_inner() else {
                return;
            };
            record.span.end = since(self.epoch);
            if let Ok(mut sink) = self.sink.lock() {
                sink.push(record);
            }
        }
    }
}

impl<T: Rcs + Clone> Rcs for TracedRcs<T> {
    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }

    fn predict(&self, x: &[f64]) -> Vec<f64> {
        self.inner.predict(x)
    }

    fn predict_noisy(
        &self,
        x: &[f64],
        fluctuation: &SignalFluctuation,
        rng: &mut dyn RngCore,
    ) -> Vec<f64> {
        let start = Instant::now();
        let out = self.inner.predict_noisy(x, fluctuation, rng);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record(|r| r.reads.push(ns));
        out
    }

    fn disturb(&mut self, variation: &VariationModel, rng: &mut dyn RngCore) {
        let before = (self.writes_of)(&self.inner);
        let start = Instant::now();
        self.inner.disturb(variation, rng);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let writes = (self.writes_of)(&self.inner) - before;
        self.record(|r| {
            r.write_ns += ns;
            r.writes += writes;
        });
    }

    fn restore(&mut self) {
        self.inner.restore();
    }
}
