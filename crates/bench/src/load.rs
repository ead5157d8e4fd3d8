//! Shared load generators for the serving bins: one uniform open-loop
//! schedule, one open-loop phase and one closed-loop rate probe, so every
//! bin offers the same arrivals for the same `(inputs, rate, window)`.

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
