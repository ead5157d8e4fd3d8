//! Seeded open-loop arrival schedules.

use std::time::Duration;

use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};

/// Poisson arrivals at `rate` per second over `[0, horizon)`: the due
/// offsets of successive sends, from exponential inter-arrival gaps
/// drawn from `seed`. The same `(seed, rate, horizon)` always gives the
/// same schedule, independent of how fast the system under test runs.
///
/// # Panics
///
/// Panics if `rate` is not positive and finite.
#[must_use]
pub fn poisson(seed: u64, rate: f64, horizon: Duration) -> Vec<Duration> {
    assert!(
        rate.is_finite() && rate > 0.0,
        "arrival rate must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = horizon.as_secs_f64();
    let mut due = Vec::with_capacity((rate * horizon * 1.1) as usize + 1);
    let mut t = 0.0f64;
    loop {
        // 1 − u lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= horizon {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}
