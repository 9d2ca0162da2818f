//! The still-frame workloads: `HirisePipeline::run_with_scratch` over a
//! seeded stream of DHD-campus-like scenes, a new scene every step.

use std::time::{Duration, Instant};

use hirise::roi::detections_to_rois_into;
use hirise::{HiriseConfig, HirisePipeline, PipelineScratch, RunReport};
use hirise_detect::DetectorScratch;
use hirise_imaging::rect::UnionScratch;
use hirise_imaging::{FramePool, GrayImage, Image, Plane, Rect, RgbImage};
use hirise_scene::{DatasetSpec, SceneGenerator};
use hirise_sensor::Sensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calib::{normalised_s, Bracketed, Calibrator};
use crate::digest::Digest;
use crate::stats::{median, MIN_STEPS};
use crate::trace::{Layer, Tracer};
use crate::{Check, EndToEnd, Layers, Opts, Outcome, DEFAULT_SEED, SETUPS};

/// One still-frame workload.
#[derive(Debug, Clone, Copy)]
pub struct Still {
    /// Array width.
    pub width: u32,
    /// Array height.
    pub height: u32,
    /// In-sensor pooling factor.
    pub k: u32,
    /// Sensor row shards (threads used by capture and pooling).
    pub shards: u32,
    /// Scenes in the default seed's reference set; the exact metrics are
    /// means over it.
    pub reference_scenes: usize,
    /// Output digest of the default seed's reference set.
    pub recorded: u64,
}

/// 640×480, k = 2, one thread: pool and detect carry most of the frame.
pub const VGA: Still = Still {
    width: 640,
    height: 480,
    k: 2,
    shards: 1,
    reference_scenes: 24,
    recorded: 0xe547_14f5_0758_a437,
};

/// The paper's 2560×1920, k = 8 array with two capture shards: capture
/// and ROI readout carry most of the frame, and it is the only workload
/// that drives `ShardPool`.
pub const FIVE_MP: Still = Still {
    width: 2560,
    height: 1920,
    k: 8,
    shards: 2,
    reference_scenes: 4,
    recorded: 0x94e9_b2aa_ad29_4ccb,
};

/// Warm-up frames of a set-up: enough for every buffer to reach its
/// working size.
const WARMUP_FRAMES: usize = 2;

/// What the reference pass recorded for one scene.
struct Reference {
    report: RunReport,
    detections: usize,
}

/// The seed's scene stream: scene `i` is the `i`-th draw of one seeded
/// generator, so a seed fixes every scene a run can reach.
struct Scenes {
    generator: SceneGenerator,
    rng: StdRng,
    width: u32,
    height: u32,
}

impl Scenes {
    fn new(still: &Still, seed: u64) -> Self {
        Self {
            generator: SceneGenerator::new(DatasetSpec::dhdcampus_like()),
            rng: StdRng::seed_from_u64(seed),
            width: still.width,
            height: still.height,
        }
    }

    fn next(&mut self) -> RgbImage {
        self.generator.generate(self.width, self.height, &mut self.rng).image
    }
}

/// A workload instance ready for its timed phase.
struct Prepared {
    pipeline: HirisePipeline,
    scratch: PipelineScratch,
    scenes: Scenes,
}

impl Still {
    fn config(&self) -> HiriseConfig {
        HiriseConfig::builder(self.width, self.height)
            .pooling(self.k)
            .sensor_shards(self.shards)
            .build()
            .expect("static workload configuration is valid")
    }

    /// Builds the pipeline, warms it on the default seed's first scenes
    /// (so set-up is the same work whatever the seed) and opens the
    /// seed's own scene stream for the timed phase.
    fn prepare(&self, seed: u64) -> Prepared {
        let pipeline = HirisePipeline::new(self.config());
        let mut scratch = PipelineScratch::new();
        let mut warmup = Scenes::new(self, DEFAULT_SEED);
        for _ in 0..WARMUP_FRAMES {
            pipeline.run_with_scratch(&warmup.next(), &mut scratch).expect("warm-up frame runs");
        }
        Prepared { pipeline, scratch, scenes: Scenes::new(self, seed) }
    }

    /// One pass over the first `reference_scenes` scenes of `seed`: the
    /// per-scene results and the digest of the whole pass.
    fn reference(&self, seed: u64) -> (Vec<Reference>, u64) {
        let pipeline = HirisePipeline::new(self.config());
        let mut scratch = PipelineScratch::new();
        let mut scenes = Scenes::new(self, seed);
        let mut digest = Digest::default();
        let refs = (0..self.reference_scenes)
            .map(|_| {
                let report = pipeline
                    .run_with_scratch(&scenes.next(), &mut scratch)
                    .expect("reference frame runs");
                digest.frame(&report, scratch.rois());
                Reference { report, detections: scratch.detections().len() }
            })
            .collect();
        (refs, digest.value())
    }
}

/// The still frame composed from the layers' public calls, each timed as
/// its own span: the same calls, in the same order, as
/// `run_with_scratch` makes.
struct Composed {
    sensor: Sensor,
    analog: Plane,
    pooled: Image,
    detector: DetectorScratch,
    order: Vec<u32>,
    rois: Vec<Rect>,
    images: Vec<RgbImage>,
    pool: FramePool,
    union: UnionScratch,
}

impl Composed {
    fn new(config: &HiriseConfig, first: &RgbImage) -> Self {
        Self {
            sensor: Sensor::capture(first, config.sensor),
            analog: Plane::new(1, 1),
            pooled: Image::Gray(GrayImage::new(1, 1)),
            detector: DetectorScratch::new(),
            order: Vec::new(),
            rois: Vec::new(),
            images: Vec::new(),
            pool: FramePool::new(),
            union: UnionScratch::new(),
        }
    }

    fn frame(
        &mut self,
        pipeline: &HirisePipeline,
        scene: &RgbImage,
        tracer: &mut Tracer,
        step: u32,
    ) -> Result<RunReport, String> {
        let c = pipeline.config();
        let t0 = Instant::now();
        self.sensor.recapture(scene);
        let t1 = Instant::now();
        let stage1 = self
            .sensor
            .capture_pooled_into(c.pooling_k, c.stage1_color, &mut self.analog, &mut self.pooled)
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let detections = pipeline.detector().detect_with_scratch(&self.pooled, &mut self.detector);
        let t3 = Instant::now();
        detections_to_rois_into(
            detections,
            c.pooling_k,
            c.roi_margin,
            c.array_width,
            c.array_height,
            c.max_rois,
            &mut self.order,
            &mut self.rois,
        );
        let t4 = Instant::now();
        let stage2 = self
            .sensor
            .read_rois_into(&self.rois, &mut self.images, &mut self.pool, &mut self.union)
            .map_err(|e| e.to_string())?;
        let t5 = Instant::now();
        for (layer, from, to) in [
            (Layer::Capture, t0, t1),
            (Layer::Pool, t1, t2),
            (Layer::Detect, t2, t3),
            (Layer::RoiMap, t3, t4),
            (Layer::RoiRead, t4, t5),
            (Layer::Step, t0, t5),
        ] {
            tracer.record(layer, step, from, to);
        }
        let bits = c.sensor.adc_bits;
        Ok(RunReport {
            stage1,
            stage2,
            pooling_outputs: stage1.conversions,
            stage1_image_bytes: self.pooled.storage_bytes(bits),
            stage2_image_bytes: self.images.iter().map(|img| img.storage_bytes(bits)).sum(),
            roi_count: self.rois.len(),
            timings: Default::default(),
        })
    }
}

impl Composed {
    /// [`Composed::frame`] plus its wall time, ms.
    fn timed(
        &mut self,
        pipeline: &HirisePipeline,
        scene: &RgbImage,
        tracer: &mut Tracer,
        visit: usize,
    ) -> (Result<RunReport, String>, f64) {
        let t0 = Instant::now();
        let out = self.frame(pipeline, scene, tracer, visit as u32);
        (out, ms(t0.elapsed()))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs a still workload: set-up (repeated [`SETUPS`] times), the timed
/// phase, then the output checks.
pub fn run(still: &Still, opts: &Opts) -> Outcome {
    let mut calibrator = Calibrator::new(still.shards as usize);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // Drop the previous instance first so set-up never holds two.
        drop(prepared.take());
        let (p, s) = normalised_s(&mut calibrator, || still.prepare(opts.seed));
        prepared = Some(p);
        setup_s.push(s);
    }
    let Prepared { pipeline, mut scratch, mut scenes } = prepared.expect("at least one set-up");

    // A traced run visits each scene twice, once untraced and once
    // composed from the layers' calls, swapping the order from scene to
    // scene so host drift hits both alike. A probe sensor at the other
    // shard count times capture outside the steps for the shard speed-up.
    let first = scenes.next();
    let mut composed = opts.trace.then(|| Composed::new(pipeline.config(), &first));
    let mut probe = opts.trace.then(|| {
        let mut config = pipeline.config().sensor;
        config.shards = if still.shards == 1 { 2 } else { 1 };
        Sensor::capture(&first, config)
    });
    let mut tracer = Tracer::with_capacity(if opts.trace { 1 << 18 } else { 0 });
    let mut untraced = Bracketed::new(calibrator);
    let mut traced = Vec::with_capacity(1 << 16);
    let mut probe_ms = Vec::with_capacity(1 << 16);
    let mut render_ms = Vec::with_capacity(1 << 16);
    let (mut digest, mut traced_digest) = (Digest::default(), Digest::default());
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mut scene = first;
    let mut visit = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds || untraced.len() < MIN_STEPS {
        if visit > 0 {
            // Inputs are rendered between steps and kept out of the
            // pipeline's time.
            let t = Instant::now();
            scene = scenes.next();
            render_ms.push(ms(t.elapsed()));
        }
        // Traced runs alternate which of the two goes first.
        let composed_first = visit % 2 == 1;
        let mut traced_out = None;
        if composed_first {
            traced_out = composed.as_mut().map(|c| c.timed(&pipeline, &scene, &mut tracer, visit));
        }
        let t0 = Instant::now();
        let out = pipeline.run_with_scratch(&scene, &mut scratch);
        let step_ms = ms(t0.elapsed());
        if !composed_first {
            traced_out = composed.as_mut().map(|c| c.timed(&pipeline, &scene, &mut tracer, visit));
        }
        attempted += 1;
        match &out {
            Ok(report) => digest.frame(report, scratch.rois()),
            Err(_) => failed += 1,
        }
        if let (Some((traced_report, traced_ms)), Some(layers)) = (traced_out, composed.as_ref()) {
            attempted += 1;
            traced.push(traced_ms);
            match (traced_report, &out) {
                (Ok(r), Ok(report)) if r == *report && layers.rois == scratch.rois() => {
                    traced_digest.frame(&r, &layers.rois);
                }
                _ => failed += 1,
            }
        }
        if let Some(sensor) = probe.as_mut() {
            let t = Instant::now();
            sensor.recapture(&scene);
            probe_ms.push(ms(t.elapsed()));
        }
        // Samples the calibration kernel after the step.
        untraced.step(step_ms);
        visit += 1;
    }
    let peak_rss_mib = crate::peak_rss_mib();

    let mut layers = Layers::default();
    if opts.trace {
        let cap = median(&tracer.durations_ms(Layer::Capture));
        let probe = median(&probe_ms);
        layers.capture_ms = cap;
        layers.shard_speedup = if still.shards == 1 { cap / probe } else { probe / cap };
        layers.pool_ms = median(&tracer.durations_ms(Layer::Pool));
        layers.detect_ms = median(&tracer.durations_ms(Layer::Detect));
        layers.roi_map_ms = median(&tracer.durations_ms(Layer::RoiMap));
        layers.roi_read_ms = median(&tracer.durations_ms(Layer::RoiRead));
        layers.render_ms = median(&render_ms);
        layers.untraced_p50 = median(&untraced.raw);
        layers.traced_p50 = median(&traced);
        layers.span_sum_ms = layers.capture_ms
            + layers.pool_ms
            + layers.detect_ms
            + layers.roi_map_ms
            + layers.roi_read_ms;
        if let Some(path) = &opts.trace_out {
            let header = format!("workload={} seed={}", opts.workload, opts.seed);
            if let Err(e) = tracer.write_tsv(path, &header) {
                eprintln!("perfbench: cannot write trace {path}: {e}");
            }
        }
    }

    // The default seed's reference pass checks the recorded digest and
    // gives the exact modelled metrics, so those repeat bit-for-bit
    // whatever the seed. The run's own state is dropped first.
    drop((pipeline, scratch, scene, composed, probe));
    let (refs, default_digest) = still.reference(DEFAULT_SEED);
    let check = Check {
        digest: digest.value(),
        traced: opts.trace.then(|| traced_digest.value()),
        default_seed: default_digest,
        recorded: still.recorded,
    };
    let frames = refs.len() as f64;
    let mean = |f: &dyn Fn(&Reference) -> f64| refs.iter().map(f).sum::<f64>() / frames;
    layers.factor = untraced.run_factor();
    let end_to_end = EndToEnd {
        frames_per_s: untraced.len() as f64 / (untraced.normalised.iter().sum::<f64>() / 1e3),
        raw_p50: median(&untraced.raw),
        kernel_ms: untraced.kernel_ms(),
        steps: untraced.normalised,
        setups: setup_s,
        peak_rss_mib,
        energy_uj_per_frame: mean(&|r| r.report.sensor_energy_mj_default() * 1e3),
        transfer_kb_per_frame: mean(&|r| r.report.total_transfer_kb()),
        peak_image_kb: mean(&|r| r.report.peak_image_bytes() as f64) / 1e3,
    };
    if opts.trace {
        layers.stage1_conversions = mean(&|r| r.report.stage1.conversions as f64);
        layers.stage2_conversions = mean(&|r| r.report.stage2.conversions as f64);
        let detections: usize = refs.iter().map(|r| r.detections).sum();
        let rois: usize = refs.iter().map(|r| r.report.roi_count).sum();
        layers.detections = detections as f64 / frames;
        layers.roi_keep_frac = rois as f64 / detections.max(1) as f64;
    }
    Outcome { attempted, failed, check, end_to_end, layers }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Still =
        Still { width: 160, height: 120, k: 2, shards: 2, reference_scenes: 3, recorded: 0 };

    #[test]
    fn digest_is_stable_across_runs_and_seeded() {
        let (refs, digest) = SMALL.reference(5);
        assert_eq!(refs.len(), 3);
        assert_eq!(digest, SMALL.reference(5).1);
        assert_ne!(digest, SMALL.reference(6).1);
    }

    #[test]
    fn composed_layers_reproduce_run_with_scratch() {
        let Prepared { pipeline, mut scratch, mut scenes } = SMALL.prepare(5);
        let first = scenes.next();
        let mut layers = Composed::new(pipeline.config(), &first);
        let mut tracer = Tracer::with_capacity(64);
        let mut scene = first;
        for visit in 0..4 {
            let expected = pipeline.run_with_scratch(&scene, &mut scratch).expect("frame runs");
            let (report, _) = layers.timed(&pipeline, &scene, &mut tracer, visit);
            assert_eq!(report.expect("frame runs"), expected);
            assert_eq!(layers.rois, scratch.rois());
            scene = scenes.next();
        }
        assert_eq!(tracer.durations_ms(Layer::Step).len(), 4);
    }
}
