//! The serving engine: a chip pool bound to a placement policy, a cost
//! model, and a coalescing discipline.
//!
//! [`Engine`] is the one in-process front door to a [`ChipPool`]:
//!
//! ```text
//! requests ──▶ CostModel ──▶ PlacementPolicy ──▶ per-chip queues ──▶ Chip::infer
//!              (estimate)    (pure assignment)   (coalesced batches)
//! ```
//!
//! Two serving shapes share one placement definition
//! ([`policy::assign_batch`]):
//!
//! * **Batch** — [`Engine::serve`] / [`Engine::serve_open_loop`]: the
//!   whole request batch is assigned up front, split into per-chip FIFO
//!   queues, and run as one [`ThreadPool::par_map`] task per chip. A
//!   worker *coalesces* contiguous runs of already-arrived requests into
//!   back-to-back batches (no arrival re-check between them), bounded by
//!   [`Engine::with_coalesce`].
//! * **Stream** — [`Engine::session`] + [`Engine::serve_one`]: requests
//!   arrive one at a time (a network connection), each placed against the
//!   session's accumulated [`PoolState`] and run inline. Feeding a batch
//!   through a fresh session visits exactly the chips
//!   [`Engine::assignment`] predicts, which is what makes in-process and
//!   over-the-wire serving bit-identical.
//!
//! Coalescing and threading never change outputs: placement is decided
//! before execution and each chip is deterministic, so batching only
//! affects *when* an inference runs, not what it returns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::admission::{AdmissionConfig, AdmittedOutcome, Decision, Gate, GateStats};
use crate::chip::{Chip, ChipPool, ServeOutcome};
use crate::policy::{self, CostModel, LeastLoaded, PlacementPolicy, PoolState};
use crate::pool::ThreadPool;
use crate::stats::ServeStats;

/// A chip pool bound to a placement policy, cost model and coalescing
/// cap. Build with [`Engine::new`] and the `with_*` builders.
pub struct Engine<C: Chip> {
    pool: ChipPool<C>,
    policy: Box<dyn PlacementPolicy>,
    model: CostModel,
    coalesce: usize,
    admission: Option<AdmissionConfig>,
    window: u64,
    model_history: Vec<CostModel>,
    history_cap: usize,
}

/// Default bound on [`Engine::model_history`]: a long-running server
/// recalibrating every window keeps the most recent 64 superseded
/// snapshots rather than growing without bound. Override per engine
/// with [`Engine::with_model_history_cap`].
pub const MODEL_HISTORY_CAP: usize = 64;

impl<C: Chip> Engine<C> {
    /// Wrap a pool with the defaults: [`LeastLoaded`] placement over the
    /// [`CostModel::input_length`] proxy, unbounded coalescing, no
    /// admission control, serving window 0.
    #[must_use]
    pub fn new(pool: ChipPool<C>) -> Self {
        let chips = pool.len();
        Self {
            pool,
            policy: Box::new(LeastLoaded),
            model: CostModel::input_length(chips),
            coalesce: 0,
            admission: None,
            window: 0,
            model_history: Vec::new(),
            history_cap: MODEL_HISTORY_CAP,
        }
    }

    /// Replace the placement policy.
    #[must_use]
    pub fn with_policy<P: PlacementPolicy + 'static>(self, policy: P) -> Self {
        self.with_boxed_policy(Box::new(policy))
    }

    /// Replace the placement policy with an already-boxed one (e.g. one
    /// chosen at runtime from a CLI flag).
    #[must_use]
    pub fn with_boxed_policy(mut self, policy: Box<dyn PlacementPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the cost model.
    ///
    /// # Panics
    ///
    /// Panics if the model covers a different number of chips than the
    /// pool holds.
    #[must_use]
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        assert_eq!(
            model.chips(),
            self.pool.len(),
            "cost model must cover every chip"
        );
        self.model = model;
        self
    }

    /// Cap coalesced batches at `cap` requests.
    ///
    /// Edge semantics (pinned by tests):
    ///
    /// * `cap = 0` — coalescing is **disabled as a bound**: batches are
    ///   unbounded (the default). A worker still groups every
    ///   already-arrived request into one run.
    /// * `cap = 1` — every request is its own batch (the fully
    ///   uncoalesced path; the worker re-checks arrivals before each
    ///   request).
    ///
    /// Neither value — nor any other — changes a single output bit:
    /// placement happens before execution, so the cap only moves *when*
    /// an inference runs.
    #[must_use]
    pub fn with_coalesce(mut self, cap: usize) -> Self {
        self.coalesce = cap;
        self
    }

    /// Enable admission control: sessions and admitted serves gate every
    /// request through a virtual-time [`Gate`] built from `config`,
    /// shedding requests whose estimated wait exceeds the bound instead
    /// of queueing them.
    #[must_use]
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Bound [`Engine::model_history`] to the most recent `cap`
    /// superseded snapshots (default [`MODEL_HISTORY_CAP`]). When a
    /// recalibration would exceed the cap the oldest snapshot is
    /// dropped; snapshots keep their [`CostModel::version`], so after
    /// truncation the history index no longer equals the version — read
    /// versions off the snapshots, not their positions.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero (an engine that recalibrates always
    /// retains at least the immediately superseded model).
    #[must_use]
    pub fn with_model_history_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "model history cap must be at least 1");
        self.history_cap = cap;
        self
    }

    /// Calibrate the cost model in place: time every chip's `infer` on
    /// `representative` inputs ([`CostModel::calibrate`]) and freeze the
    /// fitted coefficients as this engine's model.
    #[must_use]
    pub fn calibrated(mut self, representative: &[Vec<f64>], passes: usize) -> Self {
        self.model = CostModel::calibrate(&self.pool, representative, passes);
        self
    }

    /// Replace the placement policy on a live engine (non-consuming
    /// counterpart of [`Engine::with_boxed_policy`], for window-boundary
    /// policy refreshes).
    pub fn set_boxed_policy(&mut self, policy: Box<dyn PlacementPolicy>) {
        self.policy = policy;
    }

    /// Re-snapshot the pool's endurance wear and install a fresh
    /// [`WearAware`](crate::WearAware) policy built from it (penalty
    /// scale `alpha`; see [`WearAware::from_wear`](crate::WearAware::from_wear)).
    /// Call at window boundaries: within a window the snapshot — and so
    /// placement — stays frozen and deterministic. Returns the snapshot,
    /// indexed by chip id.
    pub fn refresh_wear_policy(&mut self, alpha: f64) -> Vec<Option<u64>> {
        let wear = self.pool.wear();
        self.set_boxed_policy(Box::new(crate::policy::WearAware::from_wear(&wear, alpha)));
        wear
    }

    /// The underlying pool.
    #[must_use]
    pub fn pool(&self) -> &ChipPool<C> {
        &self.pool
    }

    /// Mutable access to the pool (maintenance between windows; see
    /// [`ChipPool::chips_mut`]).
    pub fn pool_mut(&mut self) -> &mut ChipPool<C> {
        &mut self.pool
    }

    /// The pool's physical accounting: the chip-id-order sum of its
    /// chips' cost sheets (see [`crate::accounting`]).
    #[must_use]
    pub fn accounting(&self) -> crate::accounting::PoolAccounting {
        self.pool.accounting()
    }

    /// Consume the engine, returning its pool (e.g. to re-wrap the
    /// chips — [`ChipPool::boxed`] — and rebuild the engine).
    #[must_use]
    pub fn into_pool(self) -> ChipPool<C> {
        self.pool
    }

    /// The active placement policy.
    #[must_use]
    pub fn policy(&self) -> &dyn PlacementPolicy {
        self.policy.as_ref()
    }

    /// The active cost model.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// The admission config, if admission control is enabled.
    #[must_use]
    pub fn admission(&self) -> Option<&AdmissionConfig> {
        self.admission.as_ref()
    }

    /// The current serving window.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Superseded cost-model snapshots, oldest retained first — the
    /// audit trail of [`Engine::recalibrate_window`] refreshes, bounded
    /// by [`Engine::with_model_history_cap`]. Each snapshot keeps its
    /// [`CostModel::version`]; until the cap truncates, snapshot `i` has
    /// version `i` and the active model's version is
    /// `model_history.len()`.
    #[must_use]
    pub fn model_history(&self) -> &[CostModel] {
        &self.model_history
    }

    /// Advance to the next serving window **without** recalibrating:
    /// bump the window counter and broadcast it to every chip via
    /// [`Chip::set_window`], stepping time-dependent behaviour (e.g.
    /// [`DriftingChip`](crate::DriftingChip) retention drift) while the
    /// cost coefficients stay frozen. This is the "frozen" serving mode
    /// a recalibrating engine is benchmarked against.
    pub fn advance_window(&mut self) -> u64 {
        self.window += 1;
        for chip in self.pool.chips() {
            chip.set_window(self.window);
        }
        self.window
    }

    /// Advance to the next serving window **and** refresh the cost
    /// model: bump + broadcast the window, re-time every chip on
    /// `representative` inputs, and install the new coefficients as a
    /// higher-versioned snapshot (the superseded model is pushed onto
    /// [`Engine::model_history`]). Placement *within* the new window is
    /// again a pure function of the frozen snapshot — recalibration
    /// moves all nondeterministic measurement to the window boundary.
    ///
    /// A chip that panics while being re-timed is quarantined
    /// ([`CostModel::calibrate`]), so subsequent windows deterministically
    /// place around a broken device.
    ///
    /// # Panics
    ///
    /// Panics if `representative` is empty or `passes` is zero.
    pub fn recalibrate_window(&mut self, representative: &[Vec<f64>], passes: usize) -> u64 {
        let window = self.advance_window();
        let next_version = self.model.version() + 1;
        let refreshed =
            CostModel::calibrate(&self.pool, representative, passes).with_version(next_version);
        self.model_history
            .push(std::mem::replace(&mut self.model, refreshed));
        if self.model_history.len() > self.history_cap {
            let excess = self.model_history.len() - self.history_cap;
            self.model_history.drain(..excess);
        }
        window
    }

    /// The deterministic request → chip assignment a batch serve will
    /// use, given per-request input lengths.
    #[must_use]
    pub fn assignment(&self, input_lens: &[usize]) -> Vec<usize> {
        policy::assign_batch(input_lens, self.policy.as_ref(), &self.model)
    }

    /// Serve a closed batch (every request ready at time zero). Outputs
    /// come back in request order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    #[must_use]
    pub fn serve(&self, inputs: &[Vec<f64>]) -> ServeOutcome {
        self.run(inputs, None)
    }

    /// Serve an open-loop load: request `i` arrives `arrivals[i]` after
    /// the start of the run and may not start earlier; latency includes
    /// queueing delay.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or the lengths differ.
    #[must_use]
    pub fn serve_open_loop(&self, inputs: &[Vec<f64>], arrivals: &[Duration]) -> ServeOutcome {
        assert_eq!(
            inputs.len(),
            arrivals.len(),
            "one arrival offset per request"
        );
        self.run(inputs, Some(arrivals))
    }

    fn run(&self, inputs: &[Vec<f64>], arrivals: Option<&[Duration]>) -> ServeOutcome {
        let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
        let assignment = self.assignment(&lens);
        run_batch(
            self.pool.chips(),
            inputs,
            arrivals,
            &assignment,
            self.coalesce,
            self.policy.name(),
        )
    }

    /// Open a streaming placement session (one per client connection).
    /// When admission control is enabled the session carries its own
    /// fresh [`Gate`] — like placement state, admission state is scoped
    /// to one request source.
    #[must_use]
    pub fn session(&self) -> Session {
        Session {
            state: PoolState::new(self.pool.len()),
            costs: Vec::with_capacity(self.pool.len()),
            gate: self
                .admission
                .map(|config| Gate::new(config, self.pool.len())),
        }
    }

    /// Serve one request against a session, inline on the caller's
    /// thread: place it with the policy, commit the estimated cost to the
    /// session state, run `infer`, and report which chip served it.
    ///
    /// Feeding a request sequence through a fresh session reproduces
    /// [`Engine::assignment`] for that sequence exactly — streaming and
    /// batch serving are the same pure placement function.
    pub fn serve_one(&self, session: &mut Session, input: &[f64]) -> Served {
        self.model.estimates_into(input.len(), &mut session.costs);
        let chip = self.policy.place(&session.costs, &session.state);
        assert!(chip < self.pool.len(), "policy chose an out-of-range chip");
        session.state.commit(chip, session.costs[chip]);
        let start = Instant::now();
        let output = self.pool.chips()[chip].infer(input);
        Served {
            chip,
            latency: start.elapsed(),
            output,
        }
    }

    /// [`Engine::serve_one`] behind the session's admission gate: place
    /// the request, offer `(chip, cost, arrival_secs)` to the gate, and
    /// either serve it or shed it. A shed request commits **nothing** —
    /// neither placement load nor virtual queue time — so the decision
    /// stream stays a pure function of the `(input, arrival)` sequence.
    ///
    /// Without admission configured this is exactly `serve_one`.
    pub fn offer_one(&self, session: &mut Session, input: &[f64], arrival_secs: f64) -> Offer {
        self.model.estimates_into(input.len(), &mut session.costs);
        let chip = self.policy.place(&session.costs, &session.state);
        assert!(chip < self.pool.len(), "policy chose an out-of-range chip");
        let cost = session.costs[chip];
        if let Some(gate) = session.gate.as_mut() {
            if let Decision::Shed {
                estimated_wait_secs,
            } = gate.offer(chip, cost, arrival_secs)
            {
                return Offer::Shed {
                    chip,
                    estimated_wait_secs,
                };
            }
        }
        session.state.commit(chip, cost);
        let start = Instant::now();
        let output = self.pool.chips()[chip].infer(input);
        Offer::Served(Served {
            chip,
            latency: start.elapsed(),
            output,
        })
    }

    /// Admission-gated open-loop serve: replay the batch through a fresh
    /// session's gate (requests in order, each with its arrival offset),
    /// then run only the admitted subset as a batch. Decisions and
    /// outputs are a pure function of `(inputs, arrivals)` — the gate
    /// simulation never reads a clock — so reruns and different server
    /// thread counts shed the same requests and return the same bits.
    ///
    /// Without admission configured, every request is admitted.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or the lengths differ.
    #[must_use]
    pub fn serve_open_loop_admitted(
        &self,
        inputs: &[Vec<f64>],
        arrivals: &[Duration],
    ) -> AdmittedOutcome {
        assert!(!inputs.is_empty(), "a serve run needs requests");
        assert_eq!(
            inputs.len(),
            arrivals.len(),
            "one arrival offset per request"
        );
        let mut state = PoolState::new(self.pool.len());
        let mut costs = Vec::with_capacity(self.pool.len());
        let mut gate = self
            .admission
            .map(|config| Gate::new(config, self.pool.len()));
        let mut admitted = Vec::with_capacity(inputs.len());
        let mut assignment = Vec::with_capacity(inputs.len());
        let mut shed = Vec::new();
        for (i, (input, arrival)) in inputs.iter().zip(arrivals).enumerate() {
            self.model.estimates_into(input.len(), &mut costs);
            let chip = self.policy.place(&costs, &state);
            assert!(chip < self.pool.len(), "policy chose an out-of-range chip");
            let decision = gate.as_mut().map_or(
                Decision::Admit {
                    estimated_wait_secs: 0.0,
                },
                |g| g.offer(chip, costs[chip], arrival.as_secs_f64()),
            );
            if decision.is_admit() {
                state.commit(chip, costs[chip]);
                admitted.push(i);
                assignment.push(chip);
            } else {
                shed.push(i);
            }
        }
        let gate_stats = gate.map(|g| g.stats()).unwrap_or(GateStats {
            offered: inputs.len() as u64,
            admitted: admitted.len() as u64,
            shed: 0,
        });
        let outcome = if admitted.is_empty() {
            None
        } else {
            let sub_inputs: Vec<Vec<f64>> = admitted.iter().map(|&i| inputs[i].clone()).collect();
            let sub_arrivals: Vec<Duration> = admitted.iter().map(|&i| arrivals[i]).collect();
            Some(run_batch(
                self.pool.chips(),
                &sub_inputs,
                Some(&sub_arrivals),
                &assignment,
                self.coalesce,
                self.policy.name(),
            ))
        };
        AdmittedOutcome {
            outcome,
            admitted,
            shed,
            gate_stats,
        }
    }

    /// Serve a pipelined batch against a session: the wire-protocol-v2
    /// serving shape, where one frame carries many requests for the same
    /// workload and the whole batch shares one arrival stamp (taken at
    /// frame decode).
    ///
    /// Placement is the exact [`Engine::serve_one`] /
    /// [`Engine::offer_one`] fold — requests placed in order against the
    /// session's accumulated state, the gate (when `arrival_secs` is
    /// `Some` and admission is enabled) offered each `(chip, cost,
    /// arrival)` in turn, shed requests committing nothing. Execution
    /// then groups admitted requests per chip and runs the busy chips as
    /// one [`ThreadPool::par_map`] task each, on a pool of one thread per
    /// busy chip (a single busy chip runs on the calling thread), so a
    /// pipelining client overlaps the whole pool. Chips are deterministic
    /// pure functions and placement is decided before execution, so the
    /// items — chip ids and output bits — are identical to feeding the
    /// same sequence through `serve_one`/`offer_one` one request at a
    /// time, whatever the threading.
    ///
    /// A panicking `infer` is contained at the chip boundary and reported
    /// as [`BatchItem::Failed`]; sibling requests still complete.
    pub fn serve_session_batch(
        &self,
        session: &mut Session,
        inputs: &[Vec<f64>],
        arrival_secs: Option<f64>,
    ) -> Vec<BatchItem> {
        let mut items: Vec<Option<BatchItem>> = (0..inputs.len()).map(|_| None).collect();
        // (request index, chip) pairs, in request order.
        let mut admitted: Vec<(usize, usize)> = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            self.model.estimates_into(input.len(), &mut session.costs);
            let chip = self.policy.place(&session.costs, &session.state);
            assert!(chip < self.pool.len(), "policy chose an out-of-range chip");
            let cost = session.costs[chip];
            if let Some(arrival) = arrival_secs {
                if let Some(gate) = session.gate.as_mut() {
                    if let Decision::Shed {
                        estimated_wait_secs,
                    } = gate.offer(chip, cost, arrival)
                    {
                        items[i] = Some(BatchItem::Shed {
                            chip,
                            estimated_wait_secs,
                        });
                        continue;
                    }
                }
            }
            session.state.commit(chip, cost);
            admitted.push((i, chip));
        }

        let chips = self.pool.chips();
        let run_one = |chip: usize, request: usize| -> BatchItem {
            let start = Instant::now();
            let output =
                catch_unwind(AssertUnwindSafe(|| chips[chip].infer(&inputs[request]))).ok();
            let latency = start.elapsed();
            match output {
                Some(output) => BatchItem::Served(Served {
                    chip,
                    latency,
                    output,
                }),
                None => BatchItem::Failed { chip },
            }
        };

        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); chips.len()];
        for &(request, chip) in &admitted {
            queues[chip].push(request);
        }
        let busy: Vec<usize> = (0..chips.len())
            .filter(|&chip| !queues[chip].is_empty())
            .collect();
        let per_chip = ThreadPool::new(busy.len().max(1)).par_map(&busy, |_, &chip| {
            queues[chip]
                .iter()
                .map(|&request| (request, run_one(chip, request)))
                .collect::<Vec<_>>()
        });
        for (request, item) in per_chip.into_iter().flatten() {
            items[request] = Some(item);
        }
        items
            .into_iter()
            .map(|item| item.expect("every request resolved"))
            .collect()
    }
}

/// One gated request's result: served, or shed by admission control.
#[derive(Debug, Clone, PartialEq)]
pub enum Offer {
    /// Admitted and served.
    Served(Served),
    /// Shed: the estimated wait on the chip the policy chose exceeded
    /// the admission bound. Nothing ran and nothing was committed.
    Shed {
        /// The chip the request would have been placed on.
        chip: usize,
        /// The estimated queueing delay that tripped the bound, seconds.
        estimated_wait_secs: f64,
    },
}

/// One request's result within a [`Engine::serve_session_batch`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// Admitted and served.
    Served(Served),
    /// Shed by the session's admission gate; nothing was committed.
    Shed {
        /// The chip the request would have been placed on.
        chip: usize,
        /// The estimated queueing delay that tripped the bound, seconds.
        estimated_wait_secs: f64,
    },
    /// `Chip::infer` panicked; the panic was contained at the chip
    /// boundary (placement load *was* committed, matching `run_batch`'s
    /// accounting of failed requests).
    Failed {
        /// The chip whose `infer` panicked.
        chip: usize,
    },
}

/// Streaming placement state for one request source (e.g. one TCP
/// connection): the policy sees only this session's history, so
/// concurrent sessions cannot perturb each other's placement. When the
/// engine has admission control enabled the session also carries its
/// virtual-time [`Gate`], scoped the same way.
#[derive(Debug, Clone)]
pub struct Session {
    state: PoolState,
    costs: Vec<f64>,
    gate: Option<Gate>,
}

impl Session {
    /// Requests served through this session so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.state.placed()
    }

    /// The session gate's decision tallies, if admission is enabled.
    #[must_use]
    pub fn gate_stats(&self) -> Option<GateStats> {
        self.gate.as_ref().map(Gate::stats)
    }
}

/// One streamed request's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Chip id that ran the request.
    pub chip: usize,
    /// Service latency of the inline `infer` call.
    pub latency: Duration,
    /// The output vector.
    pub output: Vec<f64>,
}

/// Execute a pre-assigned batch as one [`ThreadPool::par_map`] task per
/// chip, on a pool of one thread per chip so every chip runs concurrently
/// (one of them on the calling thread). Each chip coalesces contiguous
/// already-arrived requests into back-to-back runs (capped at `coalesce`
/// when non-zero).
///
/// # Panics
///
/// Panics if `inputs` is empty or `assignment` length differs.
#[must_use]
fn run_batch<C: Chip>(
    chips: &[C],
    inputs: &[Vec<f64>],
    arrivals: Option<&[Duration]>,
    assignment: &[usize],
    coalesce: usize,
    policy_name: &str,
) -> ServeOutcome {
    assert!(!inputs.is_empty(), "a serve run needs requests");
    assert_eq!(inputs.len(), assignment.len(), "one chip per request");

    // Per-chip FIFO queues of request indices, in arrival order.
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); chips.len()];
    for (request, &chip) in assignment.iter().enumerate() {
        queues[chip].push(request);
    }

    // One worker per chip; each returns (request, output, latency)
    // triples (output `None` = `infer` panicked and was contained) plus
    // its busy time, coalesced-batch count and failure count.
    type WorkerLog = (
        Vec<(usize, Option<Vec<f64>>, Duration)>,
        Duration,
        usize,
        usize,
    );

    let arrival_of = |request: usize| arrivals.map_or(Duration::ZERO, |a| a[request]);
    let epoch = Instant::now();
    let per_worker: Vec<WorkerLog> = ThreadPool::new(chips.len()).par_map(&queues, |w, queue| {
        let chip = &chips[w];
        let mut served = Vec::with_capacity(queue.len());
        let mut busy = Duration::ZERO;
        let mut batches = 0usize;
        let mut failures = 0usize;
        let mut i = 0usize;
        while i < queue.len() {
            // Wait for the head request, then coalesce every queued
            // request that has already arrived into one contiguous batch.
            let head = arrival_of(queue[i]);
            let mut now = epoch.elapsed();
            if head > now {
                std::thread::sleep(head - now);
                now = epoch.elapsed();
            }
            let cap = if coalesce == 0 {
                queue.len()
            } else {
                (i + coalesce).min(queue.len())
            };
            let mut j = i + 1;
            while j < cap && arrival_of(queue[j]) <= now {
                j += 1;
            }
            batches += 1;
            for &request in &queue[i..j] {
                let start = epoch.elapsed();
                // Contain a panicking `infer` at the chip boundary: the
                // worker keeps draining its queue (no deadlock, every
                // other request on this chip still completes) and the
                // failure is tallied instead of unwinding the pool.
                let output = catch_unwind(AssertUnwindSafe(|| chip.infer(&inputs[request]))).ok();
                let done = epoch.elapsed();
                busy += done - start;
                if output.is_none() {
                    failures += 1;
                }
                served.push((request, output, done.saturating_sub(arrival_of(request))));
            }
            i = j;
        }
        (served, busy, batches, failures)
    });
    let wall = epoch.elapsed();

    let mut outputs: Vec<Option<Vec<f64>>> = vec![None; inputs.len()];
    let mut latencies: Vec<Duration> = vec![Duration::ZERO; inputs.len()];
    let mut per_chip = Vec::with_capacity(chips.len());
    let mut failed = Vec::new();
    for (served, busy, batches, failures) in per_worker {
        per_chip.push((served.len(), batches, failures, busy));
        for (request, output, latency) in served {
            latencies[request] = latency;
            if output.is_none() {
                failed.push(request);
            }
            outputs[request] = Some(output.unwrap_or_default());
        }
    }
    failed.sort_unstable();

    let mut stats = ServeStats::from_run(policy_name, &latencies, wall, per_chip);
    // Value the measured window in joules for every chip that publishes a
    // cost sheet — this single call is what puts energy in every serving
    // bench's JSON, from `ChipPool::serve` up through `Fleet`.
    let sheets: Vec<_> = chips.iter().map(Chip::cost_sheet).collect();
    stats.attach_energy(&sheets);

    ServeOutcome {
        outputs: outputs
            .into_iter()
            .map(|o| o.expect("every request served"))
            .collect(),
        failed,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{RoundRobin, SizeAware};

    struct ToyChip {
        scale: f64,
    }

    impl Chip for ToyChip {
        fn infer(&self, input: &[f64]) -> Vec<f64> {
            input.iter().map(|x| x * self.scale).collect()
        }
    }

    fn toy_engine(n: usize) -> Engine<ToyChip> {
        let pool = ChipPool::manufacture(77, n, |_, seed| ToyChip {
            scale: 1.0 + (seed % 1000) as f64 / 1000.0,
        });
        Engine::new(pool)
    }

    #[test]
    fn engine_serve_returns_request_order_and_matches_assignment() {
        let engine = toy_engine(3).with_policy(RoundRobin);
        let inputs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
        let assignment = engine.assignment(&lens);
        let outcome = engine.serve(&inputs);
        assert_eq!(outcome.stats.policy, "round_robin");
        for (i, out) in outcome.outputs.iter().enumerate() {
            let scale = engine.pool().chips()[assignment[i]].scale;
            assert_eq!(out, &vec![inputs[i][0] * scale], "request {i}");
        }
    }

    #[test]
    fn streaming_session_reproduces_batch_assignment() {
        let engine = toy_engine(4).with_policy(SizeAware);
        let inputs: Vec<Vec<f64>> = (0..17).map(|i| vec![0.5; 1 + (i * 7) % 5]).collect();
        let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
        let batch = engine.assignment(&lens);
        let mut session = engine.session();
        let streamed: Vec<usize> = inputs
            .iter()
            .map(|input| engine.serve_one(&mut session, input).chip)
            .collect();
        assert_eq!(streamed, batch, "stream and batch placement diverged");
        assert_eq!(session.served(), inputs.len() as u64);
    }

    #[test]
    fn coalesce_cap_bounds_batches_without_changing_outputs() {
        let engine_unbounded = toy_engine(2);
        let engine_capped = toy_engine(2).with_coalesce(3);
        let inputs: Vec<Vec<f64>> = (0..14).map(|i| vec![i as f64, 1.0]).collect();
        let a = engine_unbounded.serve(&inputs);
        let b = engine_capped.serve(&inputs);
        assert_eq!(a.outputs, b.outputs, "coalescing must not change bits");
        // Closed batch, cap 3: a chip with k requests runs ceil(k/3)
        // batches; unbounded runs exactly 1 per non-empty queue.
        for chip in &a.stats.per_chip {
            if chip.served > 0 {
                assert_eq!(chip.batches, 1);
            }
        }
        for chip in &b.stats.per_chip {
            assert_eq!(chip.batches, chip.served.div_ceil(3));
        }
    }

    #[test]
    fn open_loop_latency_includes_queueing_and_outputs_stay_exact() {
        let engine = toy_engine(1);
        let inputs: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64]).collect();
        let arrivals = vec![
            Duration::ZERO,
            Duration::from_millis(4),
            Duration::from_millis(8),
        ];
        let outcome = engine.serve_open_loop(&inputs, &arrivals);
        assert!(outcome.stats.wall_secs >= 0.008);
        let scale = engine.pool().chips()[0].scale;
        for (input, out) in inputs.iter().zip(&outcome.outputs) {
            assert_eq!(out, &vec![input[0] * scale]);
        }
    }

    #[test]
    #[should_panic(expected = "cost model must cover every chip")]
    fn mismatched_cost_model_is_rejected() {
        let _ = toy_engine(3).with_cost_model(CostModel::input_length(2));
    }

    /// The documented `with_coalesce` edge semantics: cap 0 (disabled /
    /// unbounded) and cap 1 (fully uncoalesced, one request per batch)
    /// are bit-identical to the default path and to each other.
    #[test]
    fn coalesce_edge_caps_are_bit_identical_to_default() {
        let inputs: Vec<Vec<f64>> = (0..23).map(|i| vec![i as f64, 0.25, -1.5]).collect();
        let baseline = toy_engine(3).serve(&inputs);
        let cap0 = toy_engine(3).with_coalesce(0).serve(&inputs);
        let cap1 = toy_engine(3).with_coalesce(1).serve(&inputs);
        assert_eq!(baseline.outputs, cap0.outputs, "cap 0 ≠ default bits");
        assert_eq!(baseline.outputs, cap1.outputs, "cap 1 ≠ default bits");
        // cap 1 really is uncoalesced: every request its own batch.
        for chip in &cap1.stats.per_chip {
            assert_eq!(chip.batches, chip.served);
        }
        // cap 0 really is unbounded: one batch per non-empty closed queue.
        for chip in &cap0.stats.per_chip {
            if chip.served > 0 {
                assert_eq!(chip.batches, 1);
            }
        }
    }

    #[test]
    fn advance_window_broadcasts_and_recalibrate_versions_snapshots() {
        let mut engine = toy_engine(2);
        assert_eq!(engine.window(), 0);
        assert_eq!(engine.cost_model().version(), 0);
        assert_eq!(engine.advance_window(), 1);
        assert_eq!(engine.window(), 1);
        // Advancing without recalibrating leaves the model untouched.
        assert_eq!(engine.cost_model().version(), 0);
        assert!(engine.model_history().is_empty());
        let reps = vec![vec![0.5; 4], vec![0.5; 16]];
        assert_eq!(engine.recalibrate_window(&reps, 1), 2);
        assert_eq!(engine.cost_model().version(), 1);
        assert_eq!(engine.model_history().len(), 1);
        assert_eq!(engine.model_history()[0].version(), 0);
        let _ = engine.recalibrate_window(&reps, 1);
        assert_eq!(engine.cost_model().version(), 2);
        assert_eq!(engine.model_history().len(), 2);
    }

    #[test]
    fn model_history_cap_drops_the_oldest_snapshots() {
        let mut engine = toy_engine(2).with_model_history_cap(3);
        let reps = vec![vec![0.5; 4]];
        for _ in 0..5 {
            let _ = engine.recalibrate_window(&reps, 1);
        }
        // Five recalibrations, cap 3: versions 0 and 1 were dropped, the
        // retained snapshots keep their original versions.
        assert_eq!(engine.cost_model().version(), 5);
        let versions: Vec<u64> = engine
            .model_history()
            .iter()
            .map(CostModel::version)
            .collect();
        assert_eq!(versions, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "model history cap must be at least 1")]
    fn model_history_cap_zero_panics() {
        let _ = toy_engine(1).with_model_history_cap(0);
    }

    #[test]
    fn admitted_serve_without_admission_admits_everything() {
        let engine = toy_engine(2);
        let inputs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let arrivals = vec![Duration::ZERO; 6];
        let plain = engine.serve_open_loop(&inputs, &arrivals);
        let gated = engine.serve_open_loop_admitted(&inputs, &arrivals);
        assert!(gated.shed.is_empty());
        assert_eq!(gated.admitted, (0..6).collect::<Vec<_>>());
        let outcome = gated.outcome.expect("admitted requests ran");
        assert_eq!(outcome.outputs, plain.outputs);
        assert_eq!(gated.gate_stats.offered, 6);
        assert_eq!(gated.gate_stats.shed, 0);
    }

    #[test]
    fn admitted_serve_sheds_deterministically_and_serves_the_rest() {
        // Zero tolerance for estimated wait over the input-length proxy:
        // on one chip every request after the first (all arriving at 0)
        // finds a non-empty virtual queue and is shed.
        let engine = toy_engine(1).with_admission(AdmissionConfig::new(0.0));
        let inputs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let arrivals = vec![Duration::ZERO; 5];
        let a = engine.serve_open_loop_admitted(&inputs, &arrivals);
        let b = engine.serve_open_loop_admitted(&inputs, &arrivals);
        assert_eq!(a.admitted, vec![0]);
        assert_eq!(a.shed, vec![1, 2, 3, 4]);
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.shed, b.shed);
        assert_eq!(
            a.outcome.expect("one admitted").outputs,
            b.outcome.expect("one admitted").outputs,
            "rerun changed admitted bits"
        );
        assert_eq!(a.gate_stats.shed, 4);
    }

    #[test]
    fn session_batch_matches_serve_one_bits() {
        // The v2 serving shape must be bit-identical to one-at-a-time
        // streaming: same chips, same outputs, whatever the per-chip
        // threading inside the batch.
        let engine = toy_engine(3).with_policy(SizeAware);
        let inputs: Vec<Vec<f64>> = (0..23).map(|i| vec![0.5; 1 + (i * 7) % 5]).collect();
        let mut streamed_session = engine.session();
        let streamed: Vec<Served> = inputs
            .iter()
            .map(|input| engine.serve_one(&mut streamed_session, input))
            .collect();
        let mut batched_session = engine.session();
        let batched = engine.serve_session_batch(&mut batched_session, &inputs, None);
        assert_eq!(batched.len(), streamed.len());
        for (b, s) in batched.iter().zip(&streamed) {
            match b {
                BatchItem::Served(served) => {
                    assert_eq!(served.chip, s.chip);
                    assert_eq!(served.output, s.output);
                }
                other => panic!("ungated batch item must serve: {other:?}"),
            }
        }
        assert_eq!(batched_session.served(), streamed_session.served());

        // Splitting the same sequence across several batches continues
        // the same session fold (latency is wall-clock, so compare the
        // deterministic fields: chip and output bits).
        let mut split_session = engine.session();
        let mut split = engine.serve_session_batch(&mut split_session, &inputs[..7], None);
        split.extend(engine.serve_session_batch(&mut split_session, &inputs[7..], None));
        let bits = |items: &[BatchItem]| -> Vec<(usize, Vec<u64>)> {
            items
                .iter()
                .map(|item| match item {
                    BatchItem::Served(s) => {
                        (s.chip, s.output.iter().map(|x| x.to_bits()).collect())
                    }
                    other => panic!("ungated batch item must serve: {other:?}"),
                })
                .collect()
        };
        assert_eq!(
            bits(&split),
            bits(&batched),
            "batch boundaries changed placement"
        );
    }

    #[test]
    fn session_batch_respects_the_admission_gate() {
        // Zero wait tolerance on one chip: with all requests stamped at
        // arrival 0, only the first is admitted — exactly offer_one's
        // decision stream.
        let engine = toy_engine(1).with_admission(AdmissionConfig::new(0.0));
        let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let mut session = engine.session();
        let items = engine.serve_session_batch(&mut session, &inputs, Some(0.0));
        assert!(matches!(items[0], BatchItem::Served(_)));
        for item in &items[1..] {
            assert!(matches!(item, BatchItem::Shed { chip: 0, .. }), "{item:?}");
        }
        assert_eq!(session.served(), 1);
        assert_eq!(session.gate_stats().expect("gate").shed, 3);

        // Without an arrival stamp the gate is bypassed (v1 ungated
        // connections reuse the same entry point).
        let mut ungated = engine.session();
        let items = engine.serve_session_batch(&mut ungated, &inputs, None);
        assert!(items.iter().all(|i| matches!(i, BatchItem::Served(_))));
    }

    #[test]
    fn session_batch_contains_a_panicking_chip() {
        struct FlakyChip {
            broken: bool,
        }
        impl Chip for FlakyChip {
            fn infer(&self, input: &[f64]) -> Vec<f64> {
                assert!(!self.broken, "injected fault");
                input.to_vec()
            }
        }
        let pool = ChipPool::from_chips(vec![
            FlakyChip { broken: false },
            FlakyChip { broken: true },
        ]);
        let engine = Engine::new(pool).with_policy(RoundRobin);
        let inputs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let mut session = engine.session();
        let items = engine.serve_session_batch(&mut session, &inputs, None);
        // Round-robin alternates chips; every chip-1 request fails, every
        // chip-0 request still completes.
        for (i, item) in items.iter().enumerate() {
            match item {
                BatchItem::Served(s) => {
                    assert_eq!(s.chip, 0, "request {i}");
                    assert_eq!(s.output, inputs[i]);
                }
                BatchItem::Failed { chip } => assert_eq!(*chip, 1, "request {i}"),
                BatchItem::Shed { .. } => panic!("no gate configured"),
            }
        }
        assert_eq!(
            items
                .iter()
                .filter(|i| matches!(i, BatchItem::Failed { .. }))
                .count(),
            3
        );
    }

    #[test]
    fn offer_one_matches_serve_one_when_admitting_and_commits_nothing_on_shed() {
        let engine = toy_engine(2).with_admission(AdmissionConfig::new(1e6));
        let open = toy_engine(2);
        let inputs: Vec<Vec<f64>> = (0..8).map(|i| vec![0.5; 1 + i % 3]).collect();
        let mut gated = engine.session();
        let mut plain = open.session();
        for input in &inputs {
            let offer = engine.offer_one(&mut gated, input, 0.0);
            let served = open.serve_one(&mut plain, input);
            match offer {
                Offer::Served(s) => {
                    assert_eq!(s.chip, served.chip);
                    assert_eq!(s.output, served.output);
                }
                Offer::Shed { .. } => panic!("generous bound must admit"),
            }
        }
        assert_eq!(gated.gate_stats().expect("gated session").admitted, 8);

        // A zero-bound session sheds from the second request on, and the
        // shed commits nothing: served() only counts admitted requests.
        let strict = toy_engine(1).with_admission(AdmissionConfig::new(0.0));
        let mut session = strict.session();
        let first = strict.offer_one(&mut session, &[1.0], 0.0);
        assert!(matches!(first, Offer::Served(_)));
        let second = strict.offer_one(&mut session, &[1.0], 0.0);
        assert!(matches!(second, Offer::Shed { chip: 0, .. }), "{second:?}");
        assert_eq!(session.served(), 1);
        assert_eq!(session.gate_stats().expect("gate").shed, 1);
    }
}
