//! Chip pools: N independently manufactured accelerator instances serving
//! batched inference requests from per-chip queues.
//!
//! A deployed RRAM accelerator is not one crossbar — it is a board (or
//! rack) of chips, each programmed from the same trained weights but
//! carrying its *own* write-noise draw, serving a shared request stream
//! (cf. the multi-array throughput evaluations of arXiv:1811.02187 and
//! arXiv:2505.07490). [`ChipPool`] reproduces that shape in the
//! behavioural simulator:
//!
//! * [`ChipPool::manufacture`] builds N chips, handing each factory call a
//!   seed derived from `(root_seed, chip_index)` via [`prng::substream`] —
//!   chip `i` is the same device on every run and for every pool size ≥ i;
//! * [`Engine`](crate::Engine) serves the pool: it splits a request batch
//!   across per-chip FIFO queues under a
//!   [`PlacementPolicy`](crate::PlacementPolicy) and runs each chip's
//!   queue as one [`ThreadPool::par_map`](crate::ThreadPool::par_map) task;
//! * placement is decided up front from request *cost*, so the request →
//!   chip assignment — and therefore every output bit — is a pure
//!   function of the batch, never of thread timing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rram::RetentionModel;

use crate::accounting::{ChipCostSheet, PoolAccounting};
use crate::stats::ServeStats;

/// Anything the pool can serve requests on. One chip is used by exactly
/// one worker thread at a time, but placement may hand the *same* trained
/// weights to several chips, hence `Sync`.
pub trait Chip: Send + Sync {
    /// Run one inference request.
    fn infer(&self, input: &[f64]) -> Vec<f64>;

    /// Notify the chip that the serving runtime entered window `window`.
    ///
    /// Windows discretize wall time for drift purposes: within a window a
    /// chip's behaviour must be a pure function of `(chip, window, input)`,
    /// so serving stays bit-deterministic; between windows a chip may age
    /// (see [`DriftingChip`]). The default is a no-op — ideal chips do not
    /// notice time passing.
    fn set_window(&self, window: u64) {
        let _ = window;
    }

    /// The chip's physical cost sheet — area, leakage, and dynamic energy
    /// per inference, valued from the paper's Eq (6)/(7) by the
    /// architecture that implements the chip. The default is `None`
    /// (unaccounted hardware: test doubles, digital baselines without a
    /// published model); the accounting layer skips such chips and counts
    /// them in `chips − known_chips`.
    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        None
    }

    /// The chip's endurance wear: total RRAM write pulses across its
    /// devices (see `rram::RramDevice::write_count`). The default is
    /// `None` (hardware without endurance counters: test doubles, digital
    /// baselines); wear-aware placement treats such chips as unworn.
    fn wear(&self) -> Option<u64> {
        None
    }
}

impl<C: Chip + ?Sized> Chip for &C {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        (**self).infer(input)
    }

    fn set_window(&self, window: u64) {
        (**self).set_window(window);
    }

    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        (**self).cost_sheet()
    }

    fn wear(&self) -> Option<u64> {
        (**self).wear()
    }
}

impl<C: Chip + ?Sized> Chip for Box<C> {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        (**self).infer(input)
    }

    fn set_window(&self, window: u64) {
        (**self).set_window(window);
    }

    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        (**self).cost_sheet()
    }

    fn wear(&self) -> Option<u64> {
        (**self).wear()
    }
}

/// How a [`DriftingChip`] degrades as its conductances relax.
///
/// The model discretizes the power-law retention decay of
/// [`rram::RetentionModel`] into serving windows: after `w` windows the
/// chip's *window position* has decayed by
/// `d = retention.window_decay(w, severity × seconds_per_window)`, where
/// `severity` is the chip's own aging-rate draw. The lost position
/// `1 − d` feeds two observable effects:
///
/// * **latency** — service time is stretched by
///   `1 + latency_per_drift × (1 − d)` (a drifted chip needs longer
///   integration/more re-reads to resolve the shrunken window);
/// * **accuracy** — when `output_drift` is set, every output element is
///   scaled by `d` (the crossbar's currents sag with the conductances).
///
/// Both effects are pure functions of `(chip, window, input)`, so a
/// serving window remains bit-deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftProfile {
    /// The underlying power-law retention model.
    pub retention: RetentionModel,
    /// Simulated seconds of bake per serving window (before the per-chip
    /// severity multiplier).
    pub seconds_per_window: f64,
    /// Service-time stretch per unit of lost window position.
    pub latency_per_drift: f64,
    /// Whether outputs are scaled by the decay factor (accuracy drift).
    pub output_drift: bool,
}

impl DriftProfile {
    /// Room-temperature HfOx retention aged one characteristic time `τ`
    /// per window, with a strong latency response and output drift on —
    /// aggressive enough that a few windows visibly reorder placement.
    ///
    /// # Panics
    ///
    /// Never — the constants are valid by construction.
    #[must_use]
    pub fn aggressive() -> Self {
        let retention = RetentionModel::hfox_room_temperature();
        Self {
            seconds_per_window: retention.tau,
            retention,
            latency_per_drift: 15.0,
            output_drift: true,
        }
    }

    /// Latency-only drift: outputs stay bit-identical to the inner chip,
    /// only service time degrades. Useful when a test wants drifted
    /// *placement* without touching output bits.
    #[must_use]
    pub fn latency_only() -> Self {
        Self {
            output_drift: false,
            ..Self::aggressive()
        }
    }
}

impl Default for DriftProfile {
    fn default() -> Self {
        Self::aggressive()
    }
}

/// Salt separating the drift-severity stream from the write-noise stream
/// that shares the chip's `(root_seed, chip_index)` substream.
const DRIFT_SEVERITY_SALT: u64 = 0x4452_4946_545F_5345; // "DRIF T_SE"

/// A chip wrapper that injects deterministic retention drift, window by
/// window.
///
/// The wrapper holds the current window index (advanced by
/// [`Chip::set_window`], which [`Engine::advance_window`] calls on every
/// chip between windows) and a per-chip *severity* — an aging-rate
/// multiplier in `[0, 2)` drawn once from the chip's seed, so a pool ages
/// heterogeneously: some chips barely move, others drift at twice the
/// nominal rate. Within a window, outputs are a pure function of
/// `(chip_seed, window, input)`; latency is measurement and sits outside
/// the determinism contract, like every other service time in the stack.
///
/// [`Engine::advance_window`]: crate::Engine::advance_window
pub struct DriftingChip<C> {
    inner: C,
    profile: DriftProfile,
    severity: f64,
    window: AtomicU64,
}

impl<C: Chip> DriftingChip<C> {
    /// Wrap `inner` with drift under `profile`. `chip_seed` is the chip's
    /// manufacture seed (the `substream(root_seed, chip_index)` value the
    /// pool factory receives); the severity draw is salted so it never
    /// collides with the write-noise stream that consumed the same seed.
    #[must_use]
    pub fn new(inner: C, profile: DriftProfile, chip_seed: u64) -> Self {
        // Map the salted substream to [0, 2): a 53-bit mantissa draw, the
        // same uniform construction `prng`'s float distributions use.
        let draw = prng::substream(chip_seed, DRIFT_SEVERITY_SALT) >> 11;
        let severity = 2.0 * (draw as f64 / (1u64 << 53) as f64);
        Self {
            inner,
            profile,
            severity,
            window: AtomicU64::new(0),
        }
    }

    /// The wrapped chip.
    #[must_use]
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The chip's aging-rate multiplier in `[0, 2)`.
    #[must_use]
    pub fn severity(&self) -> f64 {
        self.severity
    }

    /// The current serving window.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window.load(Ordering::SeqCst)
    }

    /// The decay factor this chip exhibits in its current window
    /// (1.0 at window 0, strictly decreasing for positive severity).
    #[must_use]
    pub fn decay(&self) -> f64 {
        self.profile.retention.window_decay(
            self.window(),
            self.severity * self.profile.seconds_per_window,
        )
    }
}

impl<C: Chip> Chip for DriftingChip<C> {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        let decay = self.decay();
        let start = Instant::now();
        let mut output = self.inner.infer(input);
        if self.profile.latency_per_drift > 0.0 && decay < 1.0 {
            // Stretch the service time multiplicatively: a busy-wait to
            // `elapsed × (1 + latency_per_drift × (1 − d))`, so the
            // slowdown scales with the request's real cost.
            let stretch = 1.0 + self.profile.latency_per_drift * (1.0 - decay);
            let target = start.elapsed().mul_f64(stretch);
            while start.elapsed() < target {
                std::hint::spin_loop();
            }
        }
        if self.profile.output_drift {
            for v in &mut output {
                *v *= decay;
            }
        }
        output
    }

    fn set_window(&self, window: u64) {
        self.window.store(window, Ordering::SeqCst);
        self.inner.set_window(window);
    }

    // Drift changes behaviour, not silicon: the wrapper bills exactly
    // what the wrapped chip bills, and wears exactly what it wears.
    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        self.inner.cost_sheet()
    }

    fn wear(&self) -> Option<u64> {
        self.inner.wear()
    }
}

/// What a serve run returns: outputs in request order plus the run's
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// One output vector per request, in request order. A request whose
    /// `Chip::infer` panicked gets an **empty** vector (the panic is
    /// contained at the chip boundary; see `failed`).
    pub outputs: Vec<Vec<f64>>,
    /// Request indices whose `infer` panicked, ascending. Empty on a
    /// healthy pool.
    pub failed: Vec<usize>,
    /// Throughput / latency / utilization statistics.
    pub stats: ServeStats,
}

/// A pool of N manufactured chips with per-chip request queues.
#[derive(Debug, Clone)]
pub struct ChipPool<C: Chip> {
    chips: Vec<C>,
}

impl<C: Chip> ChipPool<C> {
    /// Manufacture `chips` instances. The factory receives
    /// `(chip_index, chip_seed)` with `chip_seed = substream(root_seed,
    /// chip_index)`; use the seed for the chip's write-noise draw so chip
    /// `i` is identical across runs and pool sizes.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero.
    pub fn manufacture<F>(root_seed: u64, chips: usize, mut factory: F) -> Self
    where
        F: FnMut(usize, u64) -> C,
    {
        assert!(chips > 0, "a pool needs at least one chip");
        Self {
            chips: (0..chips)
                .map(|i| factory(i, prng::substream(root_seed, i as u64)))
                .collect(),
        }
    }

    /// Wrap already-built chips.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is empty.
    #[must_use]
    pub fn from_chips(chips: Vec<C>) -> Self {
        assert!(!chips.is_empty(), "a pool needs at least one chip");
        Self { chips }
    }

    /// Number of chips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the pool is empty (never true — construction rejects it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// The chips, indexed by chip id.
    #[must_use]
    pub fn chips(&self) -> &[C] {
        &self.chips
    }

    /// Mutable access to the chips (maintenance passes: refresh cycles,
    /// disturb/restore between serving windows). Chip ids are positions,
    /// so callers must not reorder the vector's contents.
    pub fn chips_mut(&mut self) -> &mut [C] {
        &mut self.chips
    }

    /// Every chip's endurance wear, indexed by chip id (`None` for chips
    /// without counters).
    #[must_use]
    pub fn wear(&self) -> Vec<Option<u64>> {
        self.chips.iter().map(Chip::wear).collect()
    }

    /// Unwrap into the chip vector (e.g. to box chips of several
    /// concrete types into one heterogeneous `ChipPool<Box<dyn Chip>>`).
    #[must_use]
    pub fn into_chips(self) -> Vec<C> {
        self.chips
    }

    /// Erase the chip type: the same pool as `ChipPool<Box<dyn Chip>>`,
    /// so pools of different concrete architectures share one engine or
    /// server type.
    #[must_use]
    pub fn boxed(self) -> ChipPool<Box<dyn Chip>>
    where
        C: 'static,
    {
        ChipPool {
            chips: self
                .chips
                .into_iter()
                .map(|c| Box::new(c) as Box<dyn Chip>)
                .collect(),
        }
    }

    /// Every chip's cost sheet, indexed by chip id (`None` for
    /// unaccounted chips).
    #[must_use]
    pub fn cost_sheets(&self) -> Vec<Option<ChipCostSheet>> {
        self.chips.iter().map(Chip::cost_sheet).collect()
    }

    /// The pool's physical accounting: the chip-id-order sum of its
    /// chips' cost sheets.
    #[must_use]
    pub fn accounting(&self) -> PoolAccounting {
        PoolAccounting::from_sheets(&self.cost_sheets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::policy::{LeastLoaded, RoundRobin};
    use std::time::{Duration, Instant};

    /// A toy chip: output = input scaled by a per-chip factor derived from
    /// the manufacture seed, so different chips are distinguishable.
    struct ToyChip {
        scale: f64,
    }

    impl Chip for ToyChip {
        fn infer(&self, input: &[f64]) -> Vec<f64> {
            input.iter().map(|x| x * self.scale).collect()
        }
    }

    fn toy_pool(n: usize) -> ChipPool<ToyChip> {
        ChipPool::manufacture(77, n, |_, seed| ToyChip {
            scale: 1.0 + (seed % 1000) as f64 / 1000.0,
        })
    }

    fn round_robin(n: usize) -> Engine<ToyChip> {
        Engine::new(toy_pool(n)).with_policy(RoundRobin)
    }

    fn least_loaded(n: usize) -> Engine<ToyChip> {
        Engine::new(toy_pool(n)).with_policy(LeastLoaded)
    }

    #[test]
    fn manufacture_derives_stable_per_chip_seeds() {
        let mut seeds_a = Vec::new();
        let _ = ChipPool::manufacture(5, 4, |i, seed| {
            seeds_a.push((i, seed));
            ToyChip { scale: 1.0 }
        });
        let mut seeds_b = Vec::new();
        let _ = ChipPool::manufacture(5, 8, |i, seed| {
            seeds_b.push((i, seed));
            ToyChip { scale: 1.0 }
        });
        // Same prefix for a bigger pool: chip i is chip i, regardless of N.
        assert_eq!(seeds_a, seeds_b[..4]);
        assert_eq!(seeds_a[0].1, prng::substream(5, 0));
    }

    #[test]
    #[should_panic(expected = "at least one chip")]
    fn empty_pool_rejected() {
        let _ = ChipPool::<ToyChip>::from_chips(Vec::new());
    }

    #[test]
    fn round_robin_cycles_over_chips() {
        let costs = [1usize; 7];
        assert_eq!(round_robin(3).assignment(&costs), vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_balances_uneven_costs() {
        // Costs 10, 1, 1, 1: after the big request lands on chip 0, the
        // small ones should all go to chip 1 until it catches up.
        let assignment = least_loaded(2).assignment(&[10, 1, 1, 1]);
        assert_eq!(assignment, vec![0, 1, 1, 1]);
    }

    /// The documented least-loaded tie-break (lowest chip index wins)
    /// over the input-length proxy: equal-cost requests sweep the chips
    /// in index order.
    #[test]
    fn least_loaded_tie_break_is_lowest_chip_index() {
        let costs = [4usize; 7];
        assert_eq!(
            least_loaded(3).assignment(&costs),
            vec![0, 1, 2, 0, 1, 2, 0]
        );
    }

    #[test]
    fn outputs_come_back_in_request_order() {
        let engine = round_robin(3);
        let inputs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let outcome = engine.serve(&inputs);
        assert_eq!(outcome.outputs.len(), 10);
        for (i, out) in outcome.outputs.iter().enumerate() {
            let chip = i % 3;
            let expected = inputs[i][0] * engine.pool().chips()[chip].scale;
            assert_eq!(out, &vec![expected], "request {i}");
        }
    }

    #[test]
    fn serve_results_are_identical_across_runs_and_placements_agree() {
        let engine = round_robin(2);
        let inputs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64, 1.0]).collect();
        let a = engine.serve(&inputs);
        let b = engine.serve(&inputs);
        assert_eq!(a.outputs, b.outputs, "same pool, same batch → same bits");
        // Equal-cost requests: least-loaded degenerates to round-robin.
        let costs = vec![2usize; 9];
        assert_eq!(
            least_loaded(2).assignment(&costs),
            engine.assignment(&costs)
        );
    }

    #[test]
    fn stats_cover_every_chip_and_request() {
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let outcome = round_robin(4).serve(&inputs);
        let stats = &outcome.stats;
        assert_eq!(stats.requests, 20);
        assert_eq!(stats.policy, "round_robin");
        assert_eq!(stats.per_chip.len(), 4);
        assert_eq!(stats.per_chip.iter().map(|c| c.served).sum::<usize>(), 20);
        assert!(stats.requests_per_sec > 0.0);
        assert!(stats.p50_latency_us <= stats.p99_latency_us);
    }

    #[test]
    fn drifting_chip_is_transparent_at_window_zero() {
        let chip = DriftingChip::new(ToyChip { scale: 1.5 }, DriftProfile::aggressive(), 41);
        let input = vec![0.25, -3.0, 7.5];
        assert_eq!(chip.window(), 0);
        assert_eq!(chip.decay(), 1.0, "window 0 is the fresh chip");
        assert_eq!(chip.infer(&input), ToyChip { scale: 1.5 }.infer(&input));
    }

    #[test]
    fn drifting_chip_outputs_are_a_pure_function_of_window() {
        let chip = DriftingChip::new(ToyChip { scale: 2.0 }, DriftProfile::aggressive(), 99);
        let twin = DriftingChip::new(ToyChip { scale: 2.0 }, DriftProfile::aggressive(), 99);
        let input = vec![1.0, -0.5];
        chip.set_window(3);
        twin.set_window(3);
        let a = chip.infer(&input);
        assert_eq!(a, twin.infer(&input), "same seed+window → same bits");
        assert_eq!(a, chip.infer(&input), "repeat calls do not age the chip");
        // Output scaling follows the published decay factor exactly.
        let d = chip.decay();
        assert!(d < 1.0, "three aggressive windows must drift");
        let expect: Vec<f64> = input.iter().map(|x| x * 2.0 * d).collect();
        assert_eq!(a, expect);
        // Rewinding the window restores the fresh bits (drift is a
        // function of the window, not of call history).
        chip.set_window(0);
        assert_eq!(chip.infer(&input), ToyChip { scale: 2.0 }.infer(&input));
    }

    #[test]
    fn latency_only_profile_preserves_output_bits() {
        let chip = DriftingChip::new(ToyChip { scale: 1.1 }, DriftProfile::latency_only(), 7);
        chip.set_window(5);
        let input = vec![0.75, 2.5];
        assert!(chip.decay() < 1.0 || chip.severity() == 0.0);
        assert_eq!(chip.infer(&input), ToyChip { scale: 1.1 }.infer(&input));
    }

    #[test]
    fn severity_is_seed_stable_and_heterogeneous() {
        let severities: Vec<f64> = (0..8)
            .map(|i| {
                DriftingChip::new(
                    ToyChip { scale: 1.0 },
                    DriftProfile::aggressive(),
                    prng::substream(13, i),
                )
                .severity()
            })
            .collect();
        let again: Vec<f64> = (0..8)
            .map(|i| {
                DriftingChip::new(
                    ToyChip { scale: 1.0 },
                    DriftProfile::aggressive(),
                    prng::substream(13, i),
                )
                .severity()
            })
            .collect();
        assert_eq!(severities, again, "severity is a pure function of seed");
        assert!(severities.iter().all(|s| (0.0..2.0).contains(s)));
        let spread = severities.iter().copied().fold(f64::MIN, f64::max)
            - severities.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            spread > 0.1,
            "eight chips should age at visibly different rates"
        );
    }

    #[test]
    fn set_window_reaches_chips_through_type_erasure() {
        let chip: Box<dyn Chip> = Box::new(DriftingChip::new(
            ToyChip { scale: 1.0 },
            DriftProfile::aggressive(),
            3,
        ));
        chip.set_window(4);
        let fresh: Box<dyn Chip> = Box::new(DriftingChip::new(
            ToyChip { scale: 1.0 },
            DriftProfile::aggressive(),
            3,
        ));
        let input = vec![1.0];
        assert_ne!(
            chip.infer(&input),
            fresh.infer(&input),
            "the boxed wrapper must have aged"
        );
    }

    /// A toy chip that publishes a cost sheet, unlike `ToyChip`.
    struct BilledChip;

    impl Chip for BilledChip {
        fn infer(&self, input: &[f64]) -> Vec<f64> {
            input.to_vec()
        }

        fn cost_sheet(&self) -> Option<ChipCostSheet> {
            Some(ChipCostSheet::new(1000.0, 50.0, 1e-9, 32.0))
        }
    }

    #[test]
    fn cost_sheets_forward_through_wrappers_and_erasure() {
        assert_eq!(ToyChip { scale: 1.0 }.cost_sheet(), None);
        let sheet = BilledChip.cost_sheet().unwrap();
        let boxed: Box<dyn Chip> = Box::new(BilledChip);
        assert_eq!(boxed.cost_sheet(), Some(sheet));
        let drifting = DriftingChip::new(BilledChip, DriftProfile::aggressive(), 9);
        drifting.set_window(7);
        assert_eq!(
            drifting.cost_sheet(),
            Some(sheet),
            "drift ages behaviour, not the silicon's bill"
        );
        let pool = ChipPool::from_chips(vec![
            Box::new(BilledChip) as Box<dyn Chip>,
            Box::new(ToyChip { scale: 1.0 }),
        ]);
        let acc = pool.accounting();
        assert_eq!((acc.chips, acc.known_chips), (2, 1));
        assert_eq!(acc.area_um2, 1000.0);
        // The serve path attaches measured energy for the billed chip only.
        let outcome = Engine::new(pool)
            .with_policy(RoundRobin)
            .serve(&[vec![1.0], vec![2.0]]);
        let energy = outcome.stats.energy.expect("one billed chip");
        assert_eq!(energy.known_chips, 1);
        assert!(energy.joules > 0.0);
        assert!(outcome.stats.per_chip[0].joules.is_some());
        assert!(outcome.stats.per_chip[1].joules.is_none());
    }

    #[test]
    fn open_loop_respects_arrival_times() {
        let inputs: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64]).collect();
        let arrivals = vec![
            Duration::ZERO,
            Duration::from_millis(5),
            Duration::from_millis(10),
        ];
        let epoch = Instant::now();
        let outcome = round_robin(1).serve_open_loop(&inputs, &arrivals);
        // The run cannot finish before the last arrival.
        assert!(epoch.elapsed() >= Duration::from_millis(10));
        assert_eq!(outcome.outputs.len(), 3);
        assert!(outcome.stats.wall_secs >= 0.010);
    }
}
