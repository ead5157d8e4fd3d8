//! Adaptive open-loop ramp: walk the offered arrival rate up until the
//! p99 latency knees, and report the knee instead of an arbitrary
//! fixed-utilization point.
//!
//! Open-loop serving has a characteristic hockey-stick: below the pool's
//! capacity the p99 latency sits near the bare service time; past it the
//! queue grows without bound and latency explodes. The 70%-of-closed-rate
//! point the bench used before is a blind guess at where the elbow sits —
//! [`ramp_to_knee`] finds it by measurement, generically over any driver
//! (in-process engine or loopback TCP), so both report comparable knees.
//!
//! The controller is deliberately simple and deterministic in structure:
//! a geometric rate sweep, a latency budget derived from the *lower* p99
//! of the first two (lightly loaded) steps, and "two steps over budget
//! in a row" as the stop condition. Both guards exist for the same
//! reason — one noisy window must not decide the ramp: a spiky first
//! window would otherwise inflate the budget and mask the true knee,
//! and a single spiky later window would otherwise end the ramp early.

use runtime::{json_num, AdmissionConfig, ServeStats};

/// One ramp step: the offered rate and what the pool did under it.
#[derive(Debug, Clone)]
pub struct RampStep {
    /// Offered arrival rate, requests/second.
    pub offered_rps: f64,
    /// Measured serving statistics at that rate.
    pub stats: ServeStats,
}

impl RampStep {
    /// The step as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"offered_rps\":{},\"stats\":{}}}",
            json_num(self.offered_rps, 3),
            self.stats.to_json()
        )
    }
}

/// Ramp controller knobs.
#[derive(Debug, Clone, Copy)]
pub struct RampConfig {
    /// First offered rate, requests/second.
    pub start_rps: f64,
    /// Multiplicative rate step (> 1).
    pub growth: f64,
    /// Hard cap on steps, in case the knee never shows.
    pub max_steps: usize,
    /// A step is "over budget" when its p99 exceeds
    /// `knee_factor × baseline p99` (baseline = the lower p99 of the
    /// first two steps, so one inflated first window cannot raise the
    /// budget and mask the knee).
    pub knee_factor: f64,
}

impl Default for RampConfig {
    fn default() -> Self {
        Self {
            start_rps: 100.0,
            growth: 1.3,
            max_steps: 12,
            knee_factor: 4.0,
        }
    }
}

/// The ramp's verdict: every step taken plus the knee — the last step
/// whose p99 stayed within budget (or the final step, when the budget
/// never blew within `max_steps`).
#[derive(Debug, Clone)]
pub struct RampReport {
    /// All measured steps, in ramp order.
    pub steps: Vec<RampStep>,
    /// Index into `steps` of the knee.
    pub knee: usize,
    /// Whether the ramp actually found the elbow (two consecutive
    /// over-budget steps) rather than running out of steps.
    pub kneed: bool,
}

impl RampReport {
    /// The knee step.
    #[must_use]
    pub fn knee_step(&self) -> &RampStep {
        &self.steps[self.knee]
    }

    /// Turn the measured knee into a serving [`AdmissionConfig`]: the
    /// delay bound is `headroom ×` the knee step's p99, and the
    /// cost→seconds conversion assumes the pool retires the knee rate
    /// across `chips` chips at the workload's `mean_cost`
    /// ([`AdmissionConfig::from_knee`]). This is the calibration loop the
    /// serving stack closes: ramp → knee → gate.
    ///
    /// # Panics
    ///
    /// Panics if the knee step is degenerate (non-positive rate or p99)
    /// or the arguments are (see [`AdmissionConfig::from_knee`]).
    #[must_use]
    pub fn admission_config(&self, headroom: f64, mean_cost: f64, chips: usize) -> AdmissionConfig {
        let knee = self.knee_step();
        AdmissionConfig::from_knee(
            knee.offered_rps,
            knee.stats.p99_latency_us,
            headroom,
            mean_cost,
            chips,
        )
    }

    /// The report as a JSON object (knee summary + full step trace).
    #[must_use]
    pub fn to_json(&self) -> String {
        let knee = self.knee_step();
        let steps: Vec<String> = self.steps.iter().map(RampStep::to_json).collect();
        format!(
            "{{\"knee_rps\":{},\"kneed\":{},\"knee_p50_us\":{},\"knee_p99_us\":{},\
             \"steps\":[{}]}}",
            json_num(knee.offered_rps, 3),
            self.kneed,
            json_num(knee.stats.p50_latency_us, 3),
            json_num(knee.stats.p99_latency_us, 3),
            steps.join(",")
        )
    }
}

/// Walk the offered rate up geometrically, calling `measure(rate)` for
/// each step, until p99 blows past the budget on two consecutive steps
/// (or `max_steps` runs out). Returns every step and the knee: the last
/// step that stayed within `knee_factor ×` the baseline p99, where the
/// baseline is the *lower* p99 of the first two steps (one noisy first
/// window must not inflate the budget).
///
/// # Panics
///
/// Panics if the config is degenerate (non-positive start rate, growth
/// ≤ 1, zero steps, knee factor ≤ 1).
pub fn ramp_to_knee<F>(config: &RampConfig, mut measure: F) -> RampReport
where
    F: FnMut(f64) -> ServeStats,
{
    assert!(config.start_rps > 0.0, "start rate must be positive");
    assert!(config.growth > 1.0, "the ramp must actually ramp");
    assert!(config.max_steps > 0, "the ramp needs at least one step");
    assert!(config.knee_factor > 1.0, "the budget must exceed baseline");

    let mut steps: Vec<RampStep> = Vec::new();
    let mut budget_us = f64::INFINITY;
    let mut over_in_a_row = 0usize;
    let mut rate = config.start_rps;
    let mut kneed = false;
    for step in 0..config.max_steps {
        let stats = measure(rate);
        let p99 = stats.p99_latency_us;
        steps.push(RampStep {
            offered_rps: rate,
            stats,
        });
        if step == 0 {
            budget_us = p99 * config.knee_factor;
        } else if step == 1 {
            // The baseline is the lower of the first two lightly loaded
            // windows: a single inflated first window would otherwise
            // raise the budget by knee_factor× and hide the real elbow.
            let first = steps[0].stats.p99_latency_us;
            // f64::min ignores a NaN operand, so an all-shed window
            // (NaN p99) cannot poison the budget either.
            budget_us = first.min(p99) * config.knee_factor;
        }
        if p99 > budget_us {
            over_in_a_row += 1;
            if over_in_a_row >= 2 {
                kneed = true;
                break;
            }
        } else {
            over_in_a_row = 0;
        }
        rate *= config.growth;
    }

    // The knee is the last within-budget step; if even the first step
    // blew (budget == first p99 × factor > first p99, so it cannot),
    // fall back to the last step.
    let knee = steps
        .iter()
        .rposition(|s| s.stats.p99_latency_us <= budget_us)
        .unwrap_or(steps.len() - 1);
    RampReport { steps, knee, kneed }
}

/// Closed-loop SLA search knobs.
#[derive(Debug, Clone, Copy)]
pub struct SlaConfig {
    /// Absolute p99 target, µs — unlike the ramp's *relative* knee
    /// budget, this is the latency promise being engineered for.
    pub target_p99_us: f64,
    /// Hard cap on bisection probes.
    pub max_iters: usize,
    /// Stop when the bracket has shrunk to `rel_tol × hi`.
    pub rel_tol: f64,
}

impl SlaConfig {
    /// A search for `target_p99_us` with the default budget: 8 probes,
    /// 5% relative bracket tolerance.
    #[must_use]
    pub fn new(target_p99_us: f64) -> Self {
        Self {
            target_p99_us,
            max_iters: 8,
            rel_tol: 0.05,
        }
    }
}

/// The SLA search's verdict.
#[derive(Debug, Clone)]
pub struct SlaReport {
    /// The absolute p99 target searched for, µs.
    pub target_p99_us: f64,
    /// The highest measured rate whose p99 met the target (0 when even
    /// the lightest ramp step missed it).
    pub max_rps: f64,
    /// The measured p99 at `max_rps`, µs (NaN when `met` is false).
    pub p99_at_max_us: f64,
    /// Whether any measured rate met the target at all.
    pub met: bool,
    /// Whether a measured rate that *missed* the target bounds the
    /// bracket from above. When `false` every measured rate met the
    /// target, so `max_rps` is only the highest rate tried — a floor on
    /// the capacity, not the capacity.
    pub kneed: bool,
    /// The final `(under, over)` rate bracket the bisection narrowed to
    /// (`over` is infinite when no measured rate ever missed).
    pub bracket: (f64, f64),
    /// Every bisection probe, in probe order (empty when the ramp's own
    /// steps already pinned the answer).
    pub probes: Vec<RampStep>,
}

impl SlaReport {
    /// The report as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let probes: Vec<String> = self.probes.iter().map(RampStep::to_json).collect();
        format!(
            "{{\"target_p99_us\":{},\"max_rps\":{},\"p99_at_max_us\":{},\"met\":{},\
             \"kneed\":{},\"bracket_under_rps\":{},\"bracket_over_rps\":{},\"probes\":[{}]}}",
            json_num(self.target_p99_us, 3),
            json_num(self.max_rps, 3),
            json_num(self.p99_at_max_us, 3),
            self.met,
            self.kneed,
            json_num(self.bracket.0, 3),
            json_num(self.bracket.1, 3),
            probes.join(",")
        )
    }
}

/// Closed-loop SLA search: find the highest rate whose p99 stays under
/// an **absolute** target, by bisecting inside the bracket the ramp
/// already measured. The ramp's knee answers "where does latency
/// explode *relative to baseline*"; this answers the capacity-planning
/// question "how fast can this pool go while still honoring an SLA" —
/// the per-pool number [`Fleet::pools_for`](runtime::Fleet::pools_for)
/// scales up to a fleet size.
///
/// The bracket is seeded from `ramp.steps`: `lo` = the highest ramp
/// rate that met the target, `hi` = the lowest that missed it (a NaN
/// p99 — an all-shed window — counts as a miss). Bisection then probes
/// arithmetic midpoints via `measure(rate)` until the bracket shrinks
/// to `rel_tol` or `max_iters` runs out. With no missing rate there is
/// nothing to bisect toward: `bracket.1` is infinite and the report says
/// `kneed: false`, so a caller can tell the ramp's ceiling from a
/// measured capacity. With no meeting rate the search reports
/// `met: false` without probing.
///
/// # Panics
///
/// Panics if `ramp.steps` is empty or the config is degenerate
/// (non-positive target, zero tolerance).
pub fn sla_search<F>(ramp: &RampReport, config: &SlaConfig, mut measure: F) -> SlaReport
where
    F: FnMut(f64) -> ServeStats,
{
    assert!(!ramp.steps.is_empty(), "the search needs ramp steps");
    assert!(
        config.target_p99_us > 0.0,
        "the SLA target must be positive"
    );
    assert!(config.rel_tol > 0.0, "the tolerance must be positive");

    let meets = |stats: &ServeStats| stats.p99_latency_us <= config.target_p99_us;
    let mut lo: Option<RampStep> = None; // highest meeting rate
    let mut hi = f64::INFINITY; // lowest missing rate
    for step in &ramp.steps {
        if meets(&step.stats) {
            if lo.as_ref().is_none_or(|s| step.offered_rps > s.offered_rps) {
                lo = Some(step.clone());
            }
        } else if step.offered_rps < hi {
            hi = step.offered_rps;
        }
    }

    let Some(mut lo) = lo else {
        // Even the lightest measured rate missed the target: the pool
        // cannot honor this SLA at any rate the ramp visited.
        return SlaReport {
            target_p99_us: config.target_p99_us,
            max_rps: 0.0,
            p99_at_max_us: f64::NAN,
            met: false,
            kneed: hi.is_finite(),
            bracket: (0.0, hi),
            probes: Vec::new(),
        };
    };

    let mut probes = Vec::new();
    for _ in 0..config.max_iters {
        if !hi.is_finite() || hi - lo.offered_rps <= config.rel_tol * hi {
            break;
        }
        let mid = 0.5 * (lo.offered_rps + hi);
        let stats = measure(mid);
        let step = RampStep {
            offered_rps: mid,
            stats,
        };
        if meets(&step.stats) {
            lo = step.clone();
        } else {
            hi = mid;
        }
        probes.push(step);
    }

    SlaReport {
        target_p99_us: config.target_p99_us,
        max_rps: lo.offered_rps,
        p99_at_max_us: lo.stats.p99_latency_us,
        met: true,
        kneed: hi.is_finite(),
        bracket: (lo.offered_rps, hi),
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A flat window: every latency sample at `p99_us`.
    fn flat(p99_us: f64) -> ServeStats {
        let lat = Duration::from_secs_f64(p99_us * 1e-6);
        ServeStats::from_run("synthetic", &[lat; 4], Duration::from_millis(10), vec![])
    }

    /// A synthetic pool: p99 flat at 100 µs below 1000 rps, exploding
    /// ~10× per step above it.
    fn synthetic(rate: f64) -> ServeStats {
        let p99_us = if rate <= 1000.0 {
            100.0
        } else {
            100.0 * (rate / 1000.0).powi(4)
        };
        flat(p99_us)
    }

    #[test]
    fn ramp_finds_the_synthetic_knee() {
        let config = RampConfig {
            start_rps: 250.0,
            growth: 1.5,
            max_steps: 16,
            knee_factor: 4.0,
        };
        let report = ramp_to_knee(&config, synthetic);
        assert!(report.kneed, "the synthetic elbow must be found");
        let knee = report.knee_step();
        assert!(
            knee.offered_rps <= 1300.0,
            "knee rate {} is past the synthetic capacity",
            knee.offered_rps
        );
        assert!(knee.stats.p99_latency_us <= 400.0);
        // The ramp stopped soon after the blow-up, not at max_steps.
        assert!(report.steps.len() < 16);
        let json = report.to_json();
        assert!(json.starts_with("{\"knee_rps\":"));
        assert!(json.contains("\"steps\":["));
    }

    #[test]
    fn knee_converts_to_an_admission_config() {
        let config = RampConfig {
            start_rps: 250.0,
            growth: 1.5,
            max_steps: 16,
            knee_factor: 4.0,
        };
        let report = ramp_to_knee(&config, synthetic);
        let admit = report.admission_config(3.0, 2.0, 4);
        let knee = report.knee_step();
        assert!((admit.max_delay_secs - 3.0 * knee.stats.p99_latency_us * 1e-6).abs() < 1e-12);
        assert!(
            (admit.secs_per_cost - 4.0 / (knee.offered_rps * 2.0)).abs() < 1e-12,
            "secs_per_cost {} for knee {}",
            admit.secs_per_cost,
            knee.offered_rps
        );
    }

    #[test]
    fn ramp_without_a_knee_reports_the_last_step() {
        let config = RampConfig {
            start_rps: 10.0,
            growth: 2.0,
            max_steps: 5,
            knee_factor: 4.0,
        };
        let report = ramp_to_knee(&config, |_| synthetic(100.0));
        assert!(!report.kneed);
        assert_eq!(report.steps.len(), 5);
        assert_eq!(report.knee, 4, "flat latency → knee is the last step");
    }

    #[test]
    fn inflated_first_step_does_not_mask_the_knee() {
        let config = RampConfig {
            start_rps: 250.0,
            growth: 1.5,
            max_steps: 16,
            knee_factor: 4.0,
        };
        let mut calls = 0usize;
        let report = ramp_to_knee(&config, |rate| {
            calls += 1;
            if calls == 1 {
                // A cold-start spike: 20× the true lightly loaded p99.
                // With the budget derived from this window alone the
                // elbow near 1000 rps would sit "within budget" and the
                // ramp would sail far past capacity before stopping.
                flat(2000.0)
            } else {
                synthetic(rate)
            }
        });
        assert!(report.kneed, "the knee must still be found");
        let knee = report.knee_step();
        assert!(
            knee.offered_rps <= 1300.0,
            "knee rate {} is past the synthetic capacity — the spiky \
             first window inflated the budget",
            knee.offered_rps
        );
        assert!(
            knee.stats.p99_latency_us <= 400.0,
            "knee p99 {} exceeds 4× the true baseline",
            knee.stats.p99_latency_us
        );
    }

    #[test]
    fn sla_search_bisects_to_the_synthetic_capacity() {
        let config = RampConfig {
            start_rps: 250.0,
            growth: 1.5,
            max_steps: 16,
            knee_factor: 4.0,
        };
        let ramp = ramp_to_knee(&config, synthetic);
        // 200 µs target: met up to ~1189 rps (100·(r/1000)⁴ ≤ 200).
        let sla = sla_search(&ramp, &SlaConfig::new(200.0), synthetic);
        assert!(sla.met);
        assert!(sla.kneed, "a measured miss bounds the bracket");
        assert!(
            sla.max_rps > 1000.0 && sla.max_rps <= 1189.3,
            "max rps {} should bisect close under the 200 µs capacity",
            sla.max_rps
        );
        assert!(sla.p99_at_max_us <= 200.0);
        // The bracket actually narrowed to tolerance.
        assert!(sla.bracket.1 - sla.bracket.0 <= 0.05 * sla.bracket.1 + 1e-9);
        assert!(!sla.probes.is_empty(), "the ramp steps alone are coarser");
        let json = sla.to_json();
        assert!(json.starts_with("{\"target_p99_us\":"));
        assert!(json.contains("\"probes\":["));
        assert!(json.contains("\"met\":true,\"kneed\":true,"));
    }

    #[test]
    fn sla_search_is_deterministic() {
        let ramp = ramp_to_knee(
            &RampConfig {
                start_rps: 250.0,
                growth: 1.5,
                max_steps: 16,
                knee_factor: 4.0,
            },
            synthetic,
        );
        let a = sla_search(&ramp, &SlaConfig::new(300.0), synthetic);
        let b = sla_search(&ramp, &SlaConfig::new(300.0), synthetic);
        assert_eq!(a.max_rps.to_bits(), b.max_rps.to_bits());
        assert_eq!(a.probes.len(), b.probes.len());
    }

    #[test]
    fn unmeetable_sla_reports_unmet_without_probing() {
        let ramp = ramp_to_knee(&RampConfig::default(), synthetic);
        // Every synthetic window sits at ≥ 100 µs p99.
        let sla = sla_search(&ramp, &SlaConfig::new(50.0), |_| {
            panic!("no probe should run when no ramp step met the target")
        });
        assert!(!sla.met);
        assert!(sla.kneed, "the lightest step's miss bounds the bracket");
        assert_eq!(sla.max_rps, 0.0);
        assert!(sla.p99_at_max_us.is_nan());
    }

    #[test]
    fn sla_looser_than_every_step_skips_bisection() {
        let ramp = ramp_to_knee(
            &RampConfig {
                start_rps: 10.0,
                growth: 2.0,
                max_steps: 4,
                knee_factor: 4.0,
            },
            |_| flat(100.0),
        );
        let sla = sla_search(&ramp, &SlaConfig::new(1e6), |_| {
            panic!("nothing to bisect toward when no step missed")
        });
        assert!(sla.met);
        assert!(
            !sla.kneed,
            "no measured rate missed: the ceiling is not a knee"
        );
        assert_eq!(sla.max_rps, 80.0, "highest ramp rate wins");
        assert!(!sla.bracket.1.is_finite());
        assert!(sla.probes.is_empty());
        assert!(sla.to_json().contains("\"met\":true,\"kneed\":false,"));
    }

    #[test]
    fn all_shed_windows_count_as_missing_the_target() {
        // NaN p99 (every sample non-finite) must bracket as "over", not
        // meet.
        let nan_stats = |_: f64| {
            ServeStats::from_latencies_us(
                "synthetic",
                &[f64::INFINITY],
                Duration::from_millis(10),
                vec![],
            )
        };
        let ramp = RampReport {
            steps: vec![
                RampStep {
                    offered_rps: 100.0,
                    stats: flat(50.0),
                },
                RampStep {
                    offered_rps: 200.0,
                    stats: nan_stats(0.0),
                },
            ],
            knee: 0,
            kneed: true,
        };
        let sla = sla_search(&ramp, &SlaConfig::new(100.0), nan_stats);
        assert!(sla.met);
        assert!(sla.kneed, "an all-shed window is a measured miss");
        assert_eq!(sla.bracket.0, sla.max_rps);
        assert!(sla.bracket.1 <= 200.0, "the NaN step must cap the bracket");
    }

    #[test]
    fn one_noisy_step_does_not_end_the_ramp() {
        let mut calls = 0usize;
        let report = ramp_to_knee(&RampConfig::default(), |rate| {
            calls += 1;
            // Step 3 alone spikes; the ramp must keep going after it.
            if calls == 3 {
                synthetic(10_000.0)
            } else {
                synthetic(rate.min(500.0))
            }
        });
        assert!(!report.kneed);
        assert_eq!(report.steps.len(), RampConfig::default().max_steps);
    }
}
