//! # hirise
//!
//! The HiRISE system: **hi**gh-**r**esolution **i**mage **s**caling for
//! **e**dge ML via in-sensor compression and selective ROI — the core
//! library of this reproduction of Reidy et al., DAC 2024.
//!
//! A HiRISE camera never converts or ships its full-resolution frame.
//! Instead it:
//!
//! 1. **compresses in the analog domain** — a resistive source-follower
//!    network averages `k×k` (optionally `×3` RGB) pixels before the ADC,
//! 2. runs a **stage-1 detector** on the small pooled image,
//! 3. sends only the detected **box coordinates** back to the sensor,
//! 4. reads out the **full-resolution ROIs** selectively for the stage-2
//!    task (e.g. face/expression recognition).
//!
//! This crate orchestrates the substrate crates into that end-to-end
//! pipeline with complete cost accounting:
//!
//! * [`HiriseConfig`] — builder-style system configuration,
//! * [`HirisePipeline`] — the two-stage pipeline over a
//!   [`hirise_sensor::Sensor`]; its
//!   [`run_with_scratch`](HirisePipeline::run_with_scratch) entry point
//!   reuses a [`PipelineScratch`] for a zero-allocation steady state,
//! * [`temporal`] — the video extension: a [`TrackingPipeline`] that
//!   persists ROIs across frames and re-runs the full stage-1 pool +
//!   detect only on keyframes or drift, so steady-state video frames do
//!   capture + selective ROI readout alone,
//! * [`summary`] — the counters-only [`SequenceSummary`] fold over a
//!   tracked sequence's per-frame reports,
//! * [`baseline`] — the conventional full-frame system and the
//!   in-processor-scaling variant the paper compares against,
//! * [`analytical`] — the closed-form Table-1 model,
//! * [`report::RunReport`] — per-run transfer/memory/conversion/energy
//!   accounting aligned with the paper's metrics.
//!
//! # Quickstart
//!
//! ```
//! use hirise::{ColorMode, HiriseConfig, HirisePipeline};
//! use hirise_imaging::RgbImage;
//!
//! # fn main() -> Result<(), hirise::HiriseError> {
//! let scene = RgbImage::from_fn(256, 192, |x, y| {
//!     ((x % 16) as f32 / 16.0, (y % 16) as f32 / 16.0, 0.4)
//! });
//! let config = HiriseConfig::builder(256, 192)
//!     .pooling(8)
//!     .stage1_color(ColorMode::Gray)
//!     .build()?;
//! let pipeline = HirisePipeline::new(config);
//! let run = pipeline.run(&scene)?;
//! assert_eq!(run.pooled_image.width(), 32);
//! println!("{}", run.report);
//! # Ok(())
//! # }
//! ```

pub mod analytical;
pub mod baseline;
pub mod config;
pub mod pipeline;
pub mod recover;
pub mod report;
pub mod roi;
pub mod scratch;
pub mod summary;
pub mod temporal;
pub mod timing;

mod error;

pub use config::{HiriseConfig, HiriseConfigBuilder, TemporalConfig};
pub use error::HiriseError;
pub use pipeline::{HirisePipeline, PipelineRun};
pub use recover::RecoverError;
pub use report::{FrameKind, RunReport, TemporalFrameReport};
pub use scratch::PipelineScratch;
pub use summary::SequenceSummary;
pub use temporal::{TrackerCheckpoint, TrackerState, TrackingPipeline};
pub use timing::StageTimings;

// Re-export the substrate vocabulary users need at the top level.
pub use hirise_detect::{Detection, Detector, DetectorConfig};
pub use hirise_energy::{AdcEnergy, PoolingEnergy, RoiConversionModel};
pub use hirise_imaging::{Image, Rect, RgbImage};
pub use hirise_sensor::{ColorMode, ReadoutStats, Sensor, SensorConfig};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HiriseError>;
