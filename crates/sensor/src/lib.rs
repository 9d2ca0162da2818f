//! # hirise-sensor
//!
//! Behavioural model of the HiRISE image sensor: a high-resolution CMOS
//! pixel array that can
//!
//! 1. **read out conventionally** — every sub-pixel converted by the ADC
//!    (the paper's baseline),
//! 2. **pool in-sensor** — the analog averaging circuit of `hirise-analog`
//!    compresses `k×k` sites (optionally folding RGB to gray) *before* any
//!    conversion, so only `n·m/k²` (or `n·m·3/k²`) conversions happen,
//! 3. **read selective ROIs** — an address encoder converts only the pixels
//!    inside requested bounding boxes at full resolution.
//!
//! Analog fidelity is carried by three ingredients, each traceable to the
//! transistor-level simulation in `hirise-analog`:
//!
//! * the fitted linear transfer of the pooling circuit (gain/offset from
//!   [`hirise_analog::behavior::calibrated`]), inverted digitally after
//!   conversion,
//! * a residual systematic nonlinearity bounded by the circuit fit,
//! * pixel temporal/fixed-pattern noise and ADC quantisation/INL.
//!
//! The counts that drive every paper metric (conversions, transferred
//! bits, stored bytes) are accumulated in [`ReadoutStats`].
//!
//! # Example
//!
//! ```
//! use hirise_imaging::RgbImage;
//! use hirise_sensor::{ColorMode, Sensor, SensorConfig};
//!
//! # fn main() -> Result<(), hirise_sensor::SensorError> {
//! let scene = RgbImage::from_fn(64, 48, |x, y| {
//!     ((x % 7) as f32 / 7.0, (y % 5) as f32 / 5.0, 0.5)
//! });
//! let mut sensor = Sensor::new(scene, SensorConfig::default());
//! let (pooled, stats) = sensor.capture_pooled(4, ColorMode::Gray)?;
//! assert_eq!((pooled.width(), pooled.height()), (16, 12));
//! assert_eq!(stats.conversions, 16 * 12);
//!
//! // Selective readout: only the requested box is converted, at full
//! // resolution (3 sub-pixels per site), plus the coordinate words sent
//! // back to the sensor.
//! let roi = hirise_imaging::Rect::new(8, 8, 16, 16);
//! let (crops, roi_stats) = sensor.read_rois(&[roi])?;
//! assert_eq!(crops[0].dimensions(), (16, 16));
//! assert_eq!(roi_stats.conversions, 16 * 16 * 3);
//! # Ok(())
//! # }
//! ```

pub mod adc;
pub mod array;
pub mod noise;
pub mod pixel;
pub mod pooling;
pub mod roi;
pub mod sensor;
pub mod shard;

mod error;

pub use adc::Adc;
pub use array::PixelArray;
pub use error::SensorError;
pub use noise::NoiseRngMode;
pub use pixel::PixelParams;
pub use pooling::PoolingConfig;
pub use sensor::{ColorMode, ReadoutStats, Sensor, SensorConfig};
pub use shard::ShardPool;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SensorError>;
