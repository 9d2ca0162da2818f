//! # hirise-detect
//!
//! Stage-1 detection substrate: a real (non-neural) multi-scale object
//! detector plus a COCO-style mAP evaluator.
//!
//! The paper's stage-1 model is YOLOv8-Nano. What Table 2 actually tests is
//! *parity*: whether a detector trained/calibrated on digitally scaled
//! images performs identically on analog in-sensor scaled images, and how
//! accuracy scales with resolution. Any detector whose score is a smooth
//! function of pixel statistics exposes both effects, so this crate
//! implements a classical pipeline that is fully deterministic and fast:
//!
//! * [`integral::IntegralImage`] — O(1) window sums,
//! * [`features::FeatureMaps`] — luminance, variance, gradient-energy and
//!   colour-saturation maps,
//! * [`detector::Detector`] — multi-scale sliding windows scored by
//!   centre–surround contrast, texture energy and saturation, pruned by
//!   [`nms::nms`], with a threshold-calibration routine standing in for the
//!   paper's per-dataset training,
//! * [`eval`] — greedy IoU matching, precision/recall, 101-point
//!   interpolated average precision, per-class and mean AP,
//! * [`associate`] — allocation-free greedy IoU box association for the
//!   cross-frame ROI tracker in `hirise::temporal`.
//!
//! # Example
//!
//! ```
//! use hirise_detect::eval::{average_precision, Detection, GroundTruth};
//! use hirise_imaging::Rect;
//!
//! let gts = vec![vec![GroundTruth { class: 0, bbox: Rect::new(10, 10, 20, 20) }]];
//! let dets = vec![vec![Detection { class: 0, bbox: Rect::new(11, 11, 20, 20), score: 0.9 }]];
//! let ap = average_precision(&dets, &gts, 0, 0.5);
//! assert!(ap > 0.99);
//! ```

pub mod associate;
pub mod detector;
pub mod eval;
pub mod features;
pub mod integral;
pub mod nms;

pub use associate::{greedy_iou_associate, AssociateScratch};
pub use detector::{Detector, DetectorConfig, DetectorConfigError, DetectorScratch, ScanStats};
pub use eval::{evaluate, Detection, EvalResult, GroundTruth};
pub use features::{FeatureMaps, FeatureScratch};
pub use integral::IntegralImage;
