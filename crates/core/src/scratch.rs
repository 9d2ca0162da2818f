//! Reusable per-frame working memory for the steady-state pipeline path.
//!
//! One [`HirisePipeline::run`](crate::HirisePipeline::run) call allocates
//! every intermediate of the frame — the captured pixel array, the pooled
//! image, the detector's feature stack, the ROI list and the ROI crops.
//! For a deployed camera those costs repeat every frame, which is exactly
//! the steady-state churn the paper's in-sensor design philosophy tries to
//! avoid on the hardware side. [`PipelineScratch`] owns all of those
//! buffers instead: after a warm-up frame (or two, while ROI crop buffers
//! grow to their high-water sizes),
//! [`HirisePipeline::run_with_scratch`](crate::HirisePipeline::run_with_scratch)
//! performs **zero heap allocations per frame** — a property enforced by a
//! counting-allocator test (`tests/alloc.rs`).
//!
//! A scratch is not tied to one pipeline: scene sizes may change freely
//! between calls (buffers reshape within their grown capacity), and
//! different configurations are *correct* but not free — only one sensor
//! state and one pooled-image variant are retained, so alternating
//! pipelines with different sensor configs or colour modes through a
//! single scratch rebuilds those (large) buffers on every alternation.
//! For the zero-allocation steady state, give each worker thread its
//! own scratch and route only same-configuration pipelines through it
//! (as `hirise_serve::ServeEngine` does). The per-frame results stay
//! readable on the scratch until the next call.

use hirise_detect::{Detection, DetectorScratch};
use hirise_imaging::rect::UnionScratch;
use hirise_imaging::{FramePool, GrayImage, Image, Plane, Rect, RgbImage};
use hirise_sensor::Sensor;

use crate::pipeline::PipelineRun;
use crate::report::RunReport;

/// Owns every buffer the frame path touches; see the module docs.
#[derive(Debug, Clone)]
pub struct PipelineScratch {
    /// The sensor is recaptured in place each frame (`None` until the
    /// first frame, and replaced when the sensor configuration changes).
    pub(crate) sensor: Option<Sensor>,
    /// Analog pooling output, one channel at a time.
    pub(crate) analog: Plane,
    /// The stage-1 pooled image.
    pub(crate) pooled: Image,
    /// Detector feature stack, candidate and sorting buffers; also holds
    /// the frame's final detections after a run.
    pub(crate) detector: DetectorScratch,
    /// Full-resolution ROI rectangles requested from the sensor.
    pub(crate) rois: Vec<Rect>,
    /// Index buffer for the stable score sort in ROI selection.
    pub(crate) roi_order: Vec<u32>,
    /// The ROI crops the sensor returned.
    pub(crate) roi_images: Vec<RgbImage>,
    /// Free list recycling ROI crop planes across frames.
    pub(crate) pool: FramePool,
    /// Coordinate-compression buffers for the stage-2 union sweep.
    pub(crate) union: UnionScratch,
}

impl Default for PipelineScratch {
    fn default() -> Self {
        Self {
            sensor: None,
            analog: Plane::new(1, 1),
            pooled: Image::Gray(GrayImage::new(1, 1)),
            detector: DetectorScratch::new(),
            rois: Vec::new(),
            roi_order: Vec::new(),
            roi_images: Vec::new(),
            pool: FramePool::new(),
            union: UnionScratch::new(),
        }
    }
}

/// A set of ROI crop buffers: the crops a frame reads and the free list
/// that recycles their planes. Their capacities follow the ROI sizes of
/// the frames they served, so a caller that interleaves many sequences
/// on one scratch can keep one set per sequence and swap it in with
/// [`PipelineScratch::swap_roi_crops`]: each set then reaches its
/// high-water mark on its own sequence, whichever scratch serves it.
#[derive(Debug, Clone, Default)]
pub struct RoiCrops {
    images: Vec<RgbImage>,
    pool: FramePool,
}

impl PipelineScratch {
    /// Creates an empty scratch; buffers grow to their steady-state sizes
    /// during the first frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exchanges this scratch's ROI crop buffers with `crops`. The frame
    /// results in [`PipelineScratch::roi_images`] move with them.
    pub fn swap_roi_crops(&mut self, crops: &mut RoiCrops) {
        std::mem::swap(&mut self.roi_images, &mut crops.images);
        std::mem::swap(&mut self.pool, &mut crops.pool);
    }

    /// The stage-1 pooled image of the most recent frame.
    pub fn pooled_image(&self) -> &Image {
        &self.pooled
    }

    /// The stage-1 detections of the most recent frame (pooled
    /// coordinates).
    pub fn detections(&self) -> &[Detection] {
        self.detector.detections()
    }

    /// The full-resolution ROI rectangles of the most recent frame.
    pub fn rois(&self) -> &[Rect] {
        &self.rois
    }

    /// The full-resolution ROI crops of the most recent frame.
    pub fn roi_images(&self) -> &[RgbImage] {
        &self.roi_images
    }

    /// Consumes the scratch, moving the frame results into an owned
    /// [`PipelineRun`] (used by the allocating `run` wrapper).
    pub(crate) fn into_pipeline_run(self, report: RunReport) -> PipelineRun {
        PipelineRun {
            pooled_image: self.pooled,
            // The allocating wrapper owns its results, so one copy out of
            // the detector scratch is paid here, not on the hot path.
            detections: self.detector.detections().to_vec(),
            rois: self.rois,
            roi_images: self.roi_images,
            report,
        }
    }
}
