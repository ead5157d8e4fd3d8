//! Span arithmetic for the traced run.
//!
//! A span is a half-open interval `[start, end)` in nanoseconds since the
//! run's trace epoch. A layer's **self time** is its span's duration
//! minus the part of that interval its child spans cover; children may
//! nest inside each other or overlap (chips running in parallel), so
//! coverage is the length of their union clipped to the parent.

/// One recorded interval, nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// Start, inclusive.
    pub start: u64,
    /// End, exclusive (`end >= start`).
    pub end: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span has zero duration.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Length of the union of `children` clipped to `parent`.
#[must_use]
pub fn covered(parent: Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<Span> = children
        .iter()
        .map(|c| Span {
            start: c.start.max(parent.start),
            end: c.end.min(parent.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_unstable();
    let mut total = 0u64;
    let mut run: Option<Span> = None;
    for c in clipped {
        run = match run {
            Some(r) if c.start <= r.end => Some(Span {
                start: r.start,
                end: r.end.max(c.end),
            }),
            Some(r) => {
                total += r.len();
                Some(c)
            }
            None => Some(c),
        };
    }
    total + run.map_or(0, |r| r.len())
}

/// Self time of `parent`: its duration minus the union of its children.
#[must_use]
pub fn self_time(parent: Span, children: &[Span]) -> u64 {
    parent.len() - covered(parent, children)
}
