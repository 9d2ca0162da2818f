//! Allocation accounting for the frame path (verification layer 5).
//!
//! A counting `#[global_allocator]` wrapper proves the tentpole property
//! of the scratch-buffer architecture: after warm-up,
//! [`HirisePipeline::run_with_scratch`] performs **zero heap allocations
//! per frame**, while the legacy allocating path (`run`) pays thousands.
//!
//! The counter is process-wide, so allocations on shard-pool and serve
//! worker threads count as well as the caller's. Every test holds
//! [`SERIAL`] for its whole body, so the libtest harness (which runs
//! tests on parallel threads) cannot perturb another test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use hirise::{HiriseConfig, HirisePipeline, PipelineScratch, SensorConfig};
use hirise_imaging::{draw, Rect, RgbImage};

/// Counts the process's allocation events (`alloc`, `alloc_zeroed`, and
/// every `realloc` — growing or shrinking — count; `dealloc` does not)
/// and forwards to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Held by every test for its whole body: one measurement at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the next test still measures.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bump() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: a pure pass-through to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic counter bump,
// and `bump()` itself never allocates, so there is no reentrancy into
// the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded
    // verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    // SAFETY: caller upholds the contract; forwarded verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller upholds the contract (`ptr` from this allocator
    // with this `layout`); forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller upholds the contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation events on any thread of the process during `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// A busy scene: several textured objects so the frame exercises the
/// detector, part grouping, NMS, ROI mapping and multi-ROI readout.
fn scene(w: u32, h: u32, shift: u32) -> RgbImage {
    let mut img = RgbImage::from_fn(w, h, |_, _| (0.35, 0.35, 0.35));
    for (i, (ox, oy)) in
        [(w / 6, h / 5), (w / 2, h / 3), (2 * w / 3, 2 * h / 3)].into_iter().enumerate()
    {
        let obj = Rect::new(ox + shift, oy, w / 8 + 4 * i as u32, h / 4);
        draw::fill_rect_rgb(&mut img, obj, (0.9, 0.4, 0.2));
        let [pr, _, _] = img.planes_mut();
        draw::fill_stripes(pr, obj, 2, 0.95, 0.55);
    }
    img
}

fn pipeline() -> HirisePipeline {
    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    let config = HiriseConfig::builder(192, 144)
        .pooling(2)
        .sensor(SensorConfig::default())
        .detector(detector)
        .max_rois(4)
        .build()
        .unwrap();
    HirisePipeline::new(config)
}

#[test]
fn scratch_path_is_allocation_free_after_warmup() {
    let _serial = serial();
    let pipeline = pipeline();
    let frames: Vec<RgbImage> = (0..8).map(|i| scene(192, 144, i)).collect();
    let mut scratch = PipelineScratch::new();

    // Warm-up: every buffer (and the ROI crop pool, whose plane↔size
    // pairings shuffle while ROI counts vary) grows to its high-water
    // capacity over the working set. Two passes bound the pool shuffling.
    for _ in 0..2 {
        for frame in &frames {
            pipeline.run_with_scratch(frame, &mut scratch).unwrap();
        }
    }

    for (i, frame) in frames.iter().enumerate() {
        let mut timed = hirise::StageTimings::default();
        let count = allocations_during(|| {
            let report = pipeline.run_with_scratch(frame, &mut scratch).unwrap();
            // The per-stage profiler rides along on every frame; reading
            // it back must not change the allocation count either.
            timed = report.timings;
        });
        assert_eq!(count, 0, "frame {i}: scratch path allocated {count} times");
        assert!(
            timed.capture + timed.pool > std::time::Duration::ZERO,
            "frame {i}: stage timings missing from the zero-allocation path"
        );
    }
}

#[test]
fn keyed_row_sharded_path_is_allocation_free_after_warmup() {
    let _serial = serial();
    // The row-sharded keyed frame path must preserve the zero-allocation
    // contract: the shard workers are spawned once (during warm-up, when
    // the scratch sensor is first built) and every later dispatch hands
    // the stack-held job over without touching the heap on this thread.
    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    let config = HiriseConfig::builder(192, 144)
        .pooling(2)
        .sensor(SensorConfig { shards: 2, ..Default::default() })
        .detector(detector)
        .max_rois(4)
        .build()
        .unwrap();
    let pipeline = HirisePipeline::new(config);
    let frames: Vec<RgbImage> = (0..8).map(|i| scene(192, 144, i)).collect();
    let mut scratch = PipelineScratch::new();
    for _ in 0..2 {
        for frame in &frames {
            pipeline.run_with_scratch(frame, &mut scratch).unwrap();
        }
    }
    for (i, frame) in frames.iter().enumerate() {
        let count = allocations_during(|| {
            pipeline.run_with_scratch(frame, &mut scratch).unwrap();
        });
        assert_eq!(count, 0, "frame {i}: sharded keyed path allocated {count} times");
    }
}

#[test]
fn tracked_non_keyframes_are_allocation_free_after_warmup() {
    let _serial = serial();
    // The temporal pipeline's whole point is that non-keyframes are
    // cheap: capture + predicted-ROI readout only. That steady state
    // must also uphold the zero-allocation contract — tracks, candidate
    // boxes, association tables and ROI buffers all live in the reusable
    // TrackerState/PipelineScratch pair.
    use hirise::temporal::{TrackerState, TrackingPipeline};
    use hirise::{FrameKind, TemporalConfig};

    // Drift disabled (threshold 1.0 can never fire on unit-range data),
    // so measured frames split cleanly into scheduled keyframes and
    // pure tracked frames.
    let temporal =
        TemporalConfig::default().keyframe_interval(4).drift_threshold(1.0).min_track_iou(0.2);
    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    let config = HiriseConfig::builder(192, 144)
        .pooling(2)
        .sensor(SensorConfig::default())
        .detector(detector)
        .max_rois(4)
        .roi_margin(2)
        .build()
        .unwrap();
    let tracker = TrackingPipeline::new(config, temporal).unwrap();
    let frames: Vec<RgbImage> = (0..8).map(|i| scene(192, 144, i)).collect();
    let mut state = TrackerState::new();
    let mut scratch = PipelineScratch::new();

    // Warm-up: two passes grow every buffer (tracks, ROI crops, pool
    // pairings) to its high-water size; the tracker state carries on —
    // resetting it would also reset the keyframe schedule.
    for _ in 0..2 {
        for frame in &frames {
            tracker.run_frame(frame, &mut state, &mut scratch).unwrap();
        }
    }

    let mut tracked = 0u64;
    for (i, frame) in frames.iter().enumerate() {
        let mut kind = FrameKind::Keyframe;
        let count = allocations_during(|| {
            kind = tracker.run_frame(frame, &mut state, &mut scratch).unwrap().kind;
        });
        assert_ne!(kind, FrameKind::DriftRefresh, "frame {i}: drift fired with threshold 1.0");
        if kind == FrameKind::Tracked {
            tracked += 1;
            assert_eq!(count, 0, "frame {i}: tracked frame allocated {count} times");
        }
    }
    assert!(tracked >= 4, "too few tracked frames measured ({tracked})");
}

#[test]
fn tracked_frames_stay_allocation_free_on_a_defect_heavy_scenario() {
    let _serial = serial();
    // The defect-heavy fleet scenario (hot pixels stuck bright + per-row
    // keyed noise) is the adversarial input for the tracked path: extra
    // high-contrast features and row-correlated noise must not push any
    // buffer past its warmed high-water mark mid-sequence. Frames come
    // from the scenario generator itself, so this holds the contract on
    // exactly what the scenario benchmark measures.
    use hirise::temporal::{TrackerState, TrackingPipeline};
    use hirise::{FrameKind, TemporalConfig};
    use hirise_scene::{ScenarioGenerator, ScenarioSpec};

    let temporal =
        TemporalConfig::default().keyframe_interval(4).drift_threshold(1.0).min_track_iou(0.2);
    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    let config = HiriseConfig::builder(192, 144)
        .pooling(2)
        .sensor(SensorConfig::default())
        .detector(detector)
        .max_rois(4)
        .roi_margin(2)
        .build()
        .unwrap();
    let tracker = TrackingPipeline::new(config, temporal).unwrap();
    let frames = ScenarioGenerator::new(ScenarioSpec::defects(), 192, 144, 0x5CE2).images(8);
    let mut state = TrackerState::new();
    let mut scratch = PipelineScratch::new();

    for _ in 0..2 {
        for frame in &frames {
            tracker.run_frame(frame, &mut state, &mut scratch).unwrap();
        }
    }

    let mut tracked = 0u64;
    for (i, frame) in frames.iter().enumerate() {
        let mut kind = FrameKind::Keyframe;
        let count = allocations_during(|| {
            kind = tracker.run_frame(frame, &mut state, &mut scratch).unwrap().kind;
        });
        if kind == FrameKind::Tracked {
            tracked += 1;
            assert_eq!(count, 0, "frame {i}: tracked defect frame allocated {count} times");
        }
    }
    assert!(tracked >= 4, "too few tracked frames measured ({tracked})");
}

#[test]
fn legacy_path_allocation_count_is_documented() {
    let _serial = serial();
    let pipeline = pipeline();
    let frame = scene(192, 144, 0);
    // One throwaway run so lazy one-time setup doesn't skew the count.
    pipeline.run(&frame).unwrap();
    let count = allocations_during(|| {
        pipeline.run(&frame).unwrap();
    });
    // The allocating wrapper rebuilds the sensor planes, pooled image,
    // feature stack, candidate buffers, and ROI crops every frame. The
    // exact figure varies with scene content; the point of record is the
    // contrast with the scratch path's zero.
    println!("legacy run(): {count} heap allocations for one 192x144 frame");
    assert!(
        count > 50,
        "legacy path unexpectedly lean ({count} allocations) — \
         update the scratch-vs-legacy documentation"
    );
}

#[test]
fn detector_scratch_alone_is_allocation_free() {
    let _serial = serial();
    use hirise_detect::{Detector, DetectorScratch};
    use hirise_imaging::{color, Image};

    let detector = Detector::default();
    let rgb: Image = scene(96, 96, 0).into();
    let gray: Image = color::to_gray(&rgb).into();
    let mut scratch = DetectorScratch::new();
    // Warm up both colour modes, then alternating them must stay
    // allocation-free (the saturation table is retained across gray
    // frames rather than dropped).
    detector.detect_with_scratch(&rgb, &mut scratch);
    detector.detect_with_scratch(&gray, &mut scratch);
    for image in [&rgb, &gray, &rgb, &gray] {
        let count = allocations_during(|| {
            detector.detect_with_scratch(image, &mut scratch);
        });
        assert_eq!(count, 0, "detector scratch path allocated {count} times");
    }
}

#[test]
fn serve_engine_steady_state_is_allocation_free_per_tick() {
    let _serial = serial();
    // The serve layer's tentpole memory claim: a warmed engine serving
    // clip-backed sessions at constant shed level runs whole tick
    // cycles — retire scan, load/shed computation, arrivals into the
    // bounded queues, and round-robin frame serving — without touching
    // the heap on any thread. Frames are borrowed from the clips
    // (Cow::Borrowed), the queues and latency reservoirs are
    // preallocated rings, and the engine keeps its worker threads and
    // one PipelineScratch per worker across ticks. Two workers split
    // the two-slot slab one session each, so the pool worker serves too.
    use hirise::TemporalConfig;
    use hirise_serve::{FrameSource, ServeConfig, ServeEngine, SessionSpec};

    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    let pipeline = HiriseConfig::builder(96, 72)
        .pooling(2)
        .sensor(SensorConfig::default())
        .detector(detector)
        .max_rois(4)
        .roi_margin(2)
        .build()
        .unwrap();
    for workers in [1usize, 2] {
        // Drift disabled and the fleet at (not past) rated load: every
        // measured tick serves at shed level 0, so no mid-measurement
        // policy swap rebuilds a pipeline.
        let config = ServeConfig::new(pipeline.clone())
            .temporal(TemporalConfig::default().keyframe_interval(4).drift_threshold(1.0))
            .rated_sessions(2)
            .max_sessions(2);
        let mut engine = ServeEngine::new(config).unwrap();
        for s in 0..2u32 {
            // Sessions far longer than the test: nothing retires
            // (retiring legitimately allocates its report) and the clip
            // cycles.
            let spec = SessionSpec::default().name(format!("alloc{s}")).frames(10_000);
            let frames: Vec<RgbImage> = (0..8).map(|i| scene(96, 72, 4 * s + i)).collect();
            engine.admit(spec, FrameSource::Frames(frames)).unwrap();
        }

        // Warm-up: two full clip cycles per session grow every buffer
        // (ROI crop pool pairings included) to its high-water capacity;
        // the first pass also starts the worker pool.
        for _ in 0..16 {
            engine.tick();
            engine.serve_parallel(workers).unwrap();
        }

        // One frame per session per tick from tick 16 on: the served
        // frame index equals the tick index, so ticks not on the
        // keyframe cadence serve tracked frames only.
        for tick in 16u64..28 {
            let count = allocations_during(|| {
                engine.tick();
                engine.serve_parallel(workers).unwrap();
            });
            if tick % 4 != 0 {
                assert_eq!(
                    count, 0,
                    "{workers} workers, tick {tick}: tracked-frame serve cycle allocated {count} times"
                );
            }
        }
        let summary = engine.summary();
        assert_eq!(summary.frames, 2 * 28, "both sessions should have served one frame per tick");
        assert_eq!(summary.dropped, 0);
        assert_eq!(summary.max_shed_level, 0, "a fleet at rated load must not shed");
    }
}
