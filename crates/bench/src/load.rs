//! Shared load generators for the serving bins: one uniform open-loop
//! schedule, one open-loop phase and one closed-loop rate probe, so every
//! bin offers the same arrivals for the same `(inputs, rate, window)`;
//! plus [`worst_pool`], the fleet-level bound of pools served at once.

use std::time::{Duration, Instant};

use runtime::{Chip, Engine, ServeStats};

/// Uniform open-loop request schedule at `rate` req/s over `window`:
/// `ceil(window × rate)` requests (at least one) cycling through
/// `inputs`, request `i` arriving `i / rate` seconds after the start.
///
/// # Panics
///
/// Panics if `inputs` is empty.
#[must_use]
pub fn schedule(
    inputs: &[Vec<f64>],
    rate: f64,
    window: Duration,
) -> (Vec<Vec<f64>>, Vec<Duration>) {
    let spacing = Duration::from_secs_f64(1.0 / rate.max(1.0));
    let n = ((window.as_secs_f64() * rate).ceil() as usize).max(1);
    let requests: Vec<Vec<f64>> = (0..n).map(|i| inputs[i % inputs.len()].clone()).collect();
    let arrivals: Vec<Duration> = (0..n).map(|i| spacing * i as u32).collect();
    (requests, arrivals)
}

/// Offer `engine` the [`schedule`] open-loop load and return its stats.
///
/// # Panics
///
/// Panics if `inputs` is empty.
#[must_use]
pub fn open_phase<C: Chip>(
    engine: &Engine<C>,
    inputs: &[Vec<f64>],
    rate: f64,
    window: Duration,
) -> ServeStats {
    let (requests, arrivals) = schedule(inputs, rate, window);
    engine.serve_open_loop(&requests, &arrivals).stats
}

/// Closed-loop saturation rate: serve `inputs` as back-to-back batches
/// until `window` elapses, and return the requests served per second.
///
/// # Panics
///
/// Panics if `inputs` is empty.
#[must_use]
pub fn closed_rate<C: Chip>(engine: &Engine<C>, inputs: &[Vec<f64>], window: Duration) -> f64 {
    let start = Instant::now();
    let mut requests = 0usize;
    while start.elapsed() < window {
        requests += engine.serve(inputs).outputs.len();
    }
    requests as f64 / start.elapsed().as_secs_f64()
}

/// The fleet-level stats of one step whose load several pools served at
/// once: `requests` and `non_finite` are summed over the pools, `wall_secs`
/// is the longest pool wall (`requests_per_sec` = `requests / wall_secs`),
/// and p50, p99 and max latency are each the worst pool's for that
/// statistic. That bound is sound for SLA search: each quantile of the
/// mixture of per-pool latency distributions is at most the largest
/// per-pool quantile, so the mixture meets a p99 target whenever every
/// pool does. NaN percentiles (a pool with no finite sample) are skipped.
///
/// # Panics
///
/// Panics if `pools` is empty.
#[must_use]
pub fn worst_pool(pools: &[ServeStats]) -> ServeStats {
    assert!(!pools.is_empty(), "a fleet step needs a pool");
    let worst = |stat: fn(&ServeStats) -> f64| pools.iter().map(stat).fold(f64::NAN, f64::max);
    let requests: usize = pools.iter().map(|s| s.requests).sum();
    let wall_secs = worst(|s| s.wall_secs);
    ServeStats {
        policy: "fleet_worst_pool".to_string(),
        requests,
        wall_secs,
        requests_per_sec: requests as f64 / wall_secs.max(f64::MIN_POSITIVE),
        p50_latency_us: worst(|s| s.p50_latency_us),
        p99_latency_us: worst(|s| s.p99_latency_us),
        max_latency_us: worst(|s| s.max_latency_us),
        non_finite: pools.iter().map(|s| s.non_finite).sum(),
        per_chip: Vec::new(),
        energy: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_pool_sums_counts_and_takes_each_worst_statistic() {
        let pool = |requests: usize, wall_secs: f64, p50: f64, p99: f64, max: f64| ServeStats {
            policy: "round_robin".to_string(),
            requests,
            wall_secs,
            requests_per_sec: requests as f64 / wall_secs,
            p50_latency_us: p50,
            p99_latency_us: p99,
            max_latency_us: max,
            non_finite: 1,
            per_chip: Vec::new(),
            energy: None,
        };
        // Pool 0 has the worse p99, pool 1 the worse p50, max and wall.
        let fleet = worst_pool(&[
            pool(300, 0.5, 40.0, 900.0, 1_000.0),
            pool(200, 0.8, 60.0, 700.0, 2_500.0),
        ]);
        assert_eq!(fleet.policy, "fleet_worst_pool");
        assert_eq!(fleet.requests, 500);
        assert_eq!(fleet.non_finite, 2);
        assert_eq!(fleet.wall_secs, 0.8);
        assert_eq!(fleet.requests_per_sec, 500.0 / 0.8);
        assert_eq!(fleet.p50_latency_us, 60.0);
        assert_eq!(fleet.p99_latency_us, 900.0);
        assert_eq!(fleet.max_latency_us, 2_500.0);
        assert!(fleet.per_chip.is_empty() && fleet.energy.is_none());
    }

    #[test]
    fn worst_pool_skips_a_pool_without_finite_latencies() {
        let mut empty =
            ServeStats::from_latencies_us("p", &[f64::NAN], Duration::from_secs(1), vec![]);
        empty.wall_secs = 0.25;
        let served =
            ServeStats::from_latencies_us("p", &[10.0, 20.0], Duration::from_secs(2), vec![]);
        let fleet = worst_pool(&[empty, served.clone()]);
        assert_eq!(fleet.requests, 3);
        assert_eq!(fleet.non_finite, 1);
        assert_eq!(fleet.wall_secs, 2.0);
        assert_eq!(fleet.p99_latency_us, served.p99_latency_us);
        assert_eq!(fleet.max_latency_us, 20.0);
    }
}
