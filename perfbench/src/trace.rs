//! Span recording for the traced run, and the order statistics every metric
//! uses.
//!
//! A [`Tracer`] keeps its spans in memory; threads record into their own
//! tracer and the run merges them and writes them out once, at the end.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Marks a span with no parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's time origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the merged trace, or [`ROOT`].
    pub parent: u32,
    /// The request (or probe) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`Tracer::close`]. Returns its index.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Time `call` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = call();
        self.close(id);
        out
    }

    /// Append another thread's spans, re-pointing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// A latency histogram with 0.1% wide logarithmic buckets from 100 ns to
/// 10 s: fixed memory however many requests a run completes, so a faster
/// program does not grow the benchmark's own share of `peak_rss_mb`.
pub struct Histogram {
    counts: Vec<u64>,
    len: usize,
}

const BUCKET_BASE_NS: f64 = 100.0;
const BUCKET_GROWTH: f64 = 1.001;
const BUCKETS: usize = 18_500;

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            len: 0,
        }
    }

    pub fn record(&mut self, d: Duration) {
        let ns = (d.as_nanos() as f64).max(BUCKET_BASE_NS);
        let bucket = ((ns / BUCKET_BASE_NS).ln() / BUCKET_GROWTH.ln()) as usize;
        self.counts[bucket.min(BUCKETS - 1)] += 1;
        self.len += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.len += other.len;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Nearest-rank quantile, in ms, at the bucket's geometric middle (0 when
    /// empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let rank = ((q * self.len as f64).ceil() as usize).clamp(1, self.len.max(1));
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count as usize;
            if seen >= rank && count > 0 {
                return BUCKET_BASE_NS * BUCKET_GROWTH.powf(bucket as f64 + 0.5) / 1e6;
            }
        }
        0.0
    }
}

/// Sub-windows per measured window. A latency or rate is reported as the
/// median of its per-sub-window values, so a disturbance from outside the
/// benchmark that covers a minority of them moves nothing.
pub const SUBWINDOWS: usize = 10;

/// One latency histogram per sub-window.
pub struct Windows {
    pub hists: Vec<Histogram>,
}

impl Windows {
    pub fn new() -> Windows {
        Windows {
            hists: (0..SUBWINDOWS).map(|_| Histogram::new()).collect(),
        }
    }

    pub fn merge(&mut self, other: &Windows) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Samples in sub-windows `subs`.
    pub fn len(&self, subs: std::ops::Range<usize>) -> usize {
        self.hists[subs].iter().map(Histogram::len).sum()
    }

    /// Median over sub-windows `subs` of each one's `q` quantile, in ms.
    pub fn quantile_ms(&self, q: f64, subs: std::ops::Range<usize>) -> f64 {
        let per: Vec<f64> = self.hists[subs].iter().map(|h| h.quantile_ms(q)).collect();
        median(&per)
    }

    /// The `q` tail, in ms: the median of the sub-windows' tails when each
    /// sub-window has at least ten samples beyond it, else the tail of all
    /// samples pooled.
    pub fn tail_ms(&self, q: f64, subs: std::ops::Range<usize>) -> f64 {
        let fewest = self.hists[subs.clone()].iter().map(Histogram::len).min();
        if fewest.is_some_and(|n| n as f64 * (1.0 - q) >= 10.0) {
            return self.quantile_ms(q, subs);
        }
        let mut pooled = Histogram::new();
        for h in &self.hists[subs] {
            pooled.merge(h);
        }
        pooled.quantile_ms(q)
    }

    /// Median over sub-windows `subs` of samples per second of `sub_len`.
    pub fn rate(&self, sub_len: Duration, subs: std::ops::Range<usize>) -> f64 {
        let per: Vec<f64> = self.hists[subs]
            .iter()
            .map(|h| h.len() as f64 / sub_len.as_secs_f64())
            .collect();
        median(&per)
    }
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_quantiles_within_a_bucket() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile_ms(0.5);
        assert!((p50 - 0.5).abs() < 0.001, "{p50}");
        assert!((h.quantile_ms(0.99) - 0.99).abs() < 0.002);
        assert_eq!(Histogram::new().quantile_ms(0.5), 0.0);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.span("x", ROOT, 0, || ());
        let mut b = Tracer::new(origin);
        let outer = b.open("outer", ROOT, 1);
        b.span("inner", outer, 1, || ());
        b.close(outer);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.durations("inner").len(), 1);
    }
}
