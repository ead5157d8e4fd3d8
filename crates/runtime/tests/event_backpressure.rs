//! The event server bounds each connection's unread responses: a client
//! that pipelines frames and never reads stalls its own queue (and then
//! its own socket) instead of growing the server's write buffer by one
//! response per frame, and sibling connections keep being served.
//!
//! Kept alone in its own test binary: the assertion reads this process's
//! resident set size, which concurrently running tests would disturb.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use runtime::net::frame::ItemResponse;
use runtime::net::{ClientV2, EventServer, EventServerConfig, NetWorkload};
use runtime::{Chip, ChipPool, Engine};

/// Output elements per request: 256 KiB of f64 per response.
const OUT_LEN: usize = 32 * 1024;
/// Frames the stalled client pipelines: 64 MiB of responses in total.
const FRAMES: usize = 256;
/// Allowed resident-set growth while the stalled client holds its
/// responses unread: well above the per-connection cap plus slack, well
/// below the 64 MiB an unbounded write buffer would hold.
const RSS_BOUND_BYTES: u64 = 24 * 1024 * 1024;

/// A chip whose output is its first input repeated `OUT_LEN` times, and
/// which counts its inferences.
struct WideChip {
    calls: Arc<AtomicUsize>,
}

impl Chip for WideChip {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        vec![input[0]; OUT_LEN]
    }
}

/// This process's resident set size, bytes (`VmRSS` in
/// `/proc/self/status`).
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS value in kB");
    kib * 1024
}

fn assert_served(items: &[ItemResponse], x: f64) {
    assert_eq!(items.len(), 1);
    match &items[0] {
        ItemResponse::Ok { output, .. } => {
            assert_eq!(output.len(), OUT_LEN);
            assert!(output.iter().all(|&v| v.to_bits() == x.to_bits()));
        }
        other => panic!("expected a served item, got {other:?}"),
    }
}

#[test]
fn unread_pipelined_responses_stay_bounded_and_siblings_are_served() {
    let calls = Arc::new(AtomicUsize::new(0));
    let chips = vec![Box::new(WideChip {
        calls: Arc::clone(&calls),
    }) as Box<dyn Chip>];
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::new(
            "wide",
            1,
            Engine::new(ChipPool::from_chips(chips)),
        )],
        EventServerConfig::default(),
    )
    .expect("bind event server");

    // Warm both connections up so their buffers and the workers'
    // allocations exist before the baseline.
    let mut sibling = ClientV2::connect(server.addr()).expect("sibling connects");
    let mut stalled = ClientV2::connect(server.addr()).expect("stalled client connects");
    assert_served(&sibling.request_batch("wide", &[vec![0.5]]).unwrap(), 0.5);
    assert_served(&stalled.request_batch("wide", &[vec![0.5]]).unwrap(), 0.5);
    let baseline = rss_bytes();

    // Pipeline every frame and read nothing back.
    for i in 0..FRAMES {
        stalled
            .send_batch("wide", &[vec![i as f64]])
            .expect("pipeline frame");
    }
    // Let the server do all the work it is willing to do: wait until
    // every frame ran or the inference count stops moving.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = calls.load(Ordering::SeqCst);
    let mut peak = rss_bytes();
    while Instant::now() < deadline && last < FRAMES + 2 {
        std::thread::sleep(Duration::from_millis(200));
        peak = peak.max(rss_bytes());
        let now = calls.load(Ordering::SeqCst);
        if now == last {
            break;
        }
        last = now;
    }
    let growth = peak.saturating_sub(baseline);
    assert!(
        growth < RSS_BOUND_BYTES,
        "resident set grew {growth} bytes with {FRAMES} unread responses \
         ({} inferences ran)",
        calls.load(Ordering::SeqCst) - 2
    );

    // The sibling connection is unaffected by the stalled one.
    for x in [0.25, -1.5, 3.0] {
        assert_served(&sibling.request_batch("wide", &[vec![x]]).unwrap(), x);
    }

    // Backpressure, not loss: once the client reads, every response
    // arrives, in order.
    for i in 0..FRAMES {
        assert_served(&stalled.recv_batch().expect("response"), i as f64);
    }
    drop(stalled);
    drop(sibling);
    server.shutdown();
}
