//! Windowed time series for live dashboards.
//!
//! A [`TimeSeries`] keeps the last `capacity` samples of a metric
//! (tx/s, p50, p99, …) in a fixed ring and renders them as a unicode
//! sparkline. It is *not* a [`crate::Registry`] metric kind — dashboard
//! history is ephemeral presentation state and must not leak into the
//! stable snapshot JSON that benches diff byte-for-byte.

/// Fixed-capacity ring of `f64` samples, oldest evicted first.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    samples: Vec<f64>,
    /// Window size; `Vec::capacity` may over-allocate so it is not the
    /// source of truth.
    cap: usize,
    /// Next write position once the ring has wrapped.
    next: usize,
    /// Total samples ever pushed (saturates the ring at `cap`).
    pushed: u64,
}

const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

impl TimeSeries {
    /// Creates a series holding the last `capacity.max(1)` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        TimeSeries {
            samples: Vec::with_capacity(cap),
            cap,
            next: 0,
            pushed: 0,
        }
    }

    /// Appends a sample, evicting the oldest if the window is full.
    #[expect(clippy::indexing_slicing, reason = "`next` is always < len once the ring has wrapped")]
    pub fn push(&mut self, value: f64) {
        if self.samples.len() < self.cap {
            self.samples.push(value);
        } else {
            self.samples[self.next] = value;
            self.next = (self.next + 1) % self.samples.len();
        }
        self.pushed += 1;
    }

    /// Samples in the window, oldest first.
    #[expect(clippy::indexing_slicing, reason = "`next` never exceeds len, so both splits are in bounds")]
    pub fn values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.samples.len());
        out.extend_from_slice(&self.samples[self.next..]);
        out.extend_from_slice(&self.samples[..self.next]);
        out
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` until the first push.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Newest sample, if any.
    #[expect(clippy::indexing_slicing, reason = "guarded by the emptiness / wrap checks above the index")]
    pub fn last(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else if self.next == 0 {
            self.samples.last().copied()
        } else {
            Some(self.samples[self.next - 1])
        }
    }

    /// Total samples ever pushed (not capped by the window).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Renders the window as a sparkline, one glyph per sample, scaled
    /// between the window min and max. A flat (or empty) window renders
    /// as the lowest glyph so the string width still equals `len()`.
    #[expect(clippy::indexing_slicing, reason = "glyph index is clamped with `.min(len - 1)`")]
    pub fn sparkline(&self) -> String {
        let values = self.values();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &values {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        let span = hi - lo;
        values
            .iter()
            .map(|&v| {
                if !v.is_finite() || span <= 0.0 || !span.is_finite() {
                    SPARK_GLYPHS[0]
                } else {
                    let t = ((v - lo) / span * (SPARK_GLYPHS.len() - 1) as f64).round();
                    SPARK_GLYPHS[(t as usize).min(SPARK_GLYPHS.len() - 1)]
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_keeps_newest_samples() {
        let mut ts = TimeSeries::with_capacity(4);
        for i in 0..7 {
            ts.push(i as f64);
        }
        assert_eq!(ts.values(), vec![3.0, 4.0, 5.0, 6.0]);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.last(), Some(6.0));
        assert_eq!(ts.pushed(), 7);
    }

    #[test]
    fn partial_window_preserves_order() {
        let mut ts = TimeSeries::with_capacity(8);
        ts.push(1.0);
        ts.push(2.0);
        assert_eq!(ts.values(), vec![1.0, 2.0]);
        assert_eq!(ts.last(), Some(2.0));
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::with_capacity(4);
        assert!(ts.is_empty());
        assert_eq!(ts.last(), None);
        assert_eq!(ts.sparkline(), "");
    }

    #[test]
    fn sparkline_scales_between_extremes() {
        let mut ts = TimeSeries::with_capacity(4);
        for v in [0.0, 1.0, 2.0, 3.0] {
            ts.push(v);
        }
        assert_eq!(ts.sparkline(), "▁▃▆█");
    }

    #[test]
    fn sparkline_flat_and_nonfinite_are_lowest_glyph() {
        let mut ts = TimeSeries::with_capacity(3);
        for _ in 0..3 {
            ts.push(5.0);
        }
        assert_eq!(ts.sparkline(), "▁▁▁");
        let mut ts = TimeSeries::with_capacity(3);
        ts.push(1.0);
        ts.push(f64::NAN);
        ts.push(2.0);
        let line = ts.sparkline();
        assert_eq!(line.chars().count(), 3);
        assert_eq!(line.chars().nth(1), Some('▁'));
    }
}
