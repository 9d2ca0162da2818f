//! Spans recorded around calls into the program's layers, kept in
//! memory allocated before the timed phase and written out at the end.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Every span the benchmark records, with the span that encloses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole timed step (a still frame, or a serve tick).
    Step,
    /// `Sensor::recapture`.
    Capture,
    /// `Sensor::capture_pooled_into`.
    Pool,
    /// `Detector::detect_with_scratch`.
    Detect,
    /// `hirise::roi::detections_to_rois_into`.
    RoiMap,
    /// `Sensor::read_rois_into`.
    RoiRead,
    /// `ServeEngine::tick`.
    Tick,
    /// `ServeEngine::serve_parallel`.
    Serve,
    /// `ServeEngine::summary`.
    Summary,
    /// `ServeEngine::snapshot`.
    Snapshot,
}

impl Layer {
    /// Span name as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Step => "step",
            Layer::Capture => "sensor.capture",
            Layer::Pool => "sensor.pool",
            Layer::Detect => "detect",
            Layer::RoiMap => "roi.map",
            Layer::RoiRead => "sensor.roi_read",
            Layer::Tick => "serve.tick",
            Layer::Serve => "serve.serve",
            Layer::Summary => "serve.summary",
            Layer::Snapshot => "recover.snapshot",
        }
    }

    /// The enclosing span (`None` for the step itself).
    pub fn parent(self) -> Option<Layer> {
        match self {
            Layer::Step => None,
            _ => Some(Layer::Step),
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    step: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Fixed-capacity span store: recording never allocates; spans past the
/// capacity are counted and dropped.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// Room for `capacity` spans, allocated now.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { epoch: Instant::now(), spans: Vec::with_capacity(capacity), dropped: 0 }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `layer` over `[start, end]` within timed step `step`.
    pub fn record(&mut self, layer: Layer, step: u32, start: Instant, end: Instant) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        let span = Span { layer, step, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.push(span);
    }

    /// Durations of every recorded `layer` span, ms.
    pub fn durations_ms(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as tab-separated `name parent step start_ns
    /// end_ns` rows after a `#`-prefixed header line.
    pub fn write_tsv(&self, path: &str, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header} dropped_spans={}", self.dropped)?;
        writeln!(out, "name\tparent\tstep\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.layer.parent().map_or("-", Layer::name);
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}",
                s.layer.name(),
                s.step,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Time spent rendering frames inside the engine's worker threads, where
/// a `&mut Tracer` cannot reach: two counters, switched on per step.
#[derive(Debug, Default)]
pub struct RenderClock {
    on: AtomicBool,
    nanos: AtomicU64,
    frames: AtomicU64,
}

impl RenderClock {
    /// Starts or stops counting.
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Runs `render`, counting its time while the clock is on.
    pub fn time<T>(&self, render: impl FnOnce() -> T) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return render();
        }
        let start = Instant::now();
        let out = render();
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.frames.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Mean render time per counted frame, ms (0 before any frame).
    pub fn mean_ms(&self) -> f64 {
        let frames = self.frames.load(Ordering::Relaxed);
        if frames == 0 {
            return 0.0;
        }
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6 / frames as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_never_grows_past_its_capacity() {
        let mut tracer = Tracer::with_capacity(2);
        let t = Instant::now();
        for step in 0..5 {
            tracer.record(Layer::Pool, step, t, t);
        }
        assert_eq!(tracer.durations_ms(Layer::Pool).len(), 2);
        assert_eq!(tracer.dropped, 3);
        assert_eq!(tracer.spans.capacity(), 2);
    }

    #[test]
    fn render_clock_counts_only_while_on() {
        let clock = RenderClock::default();
        assert_eq!(clock.time(|| 7), 7);
        assert_eq!(clock.mean_ms(), 0.0);
        clock.set(true);
        clock.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(clock.mean_ms() >= 2.0);
    }
}
