//! # hirise-repro
//!
//! Workspace umbrella crate for the HiRISE reproduction (Reidy et al.,
//! "HiRISE: High-Resolution Image Scaling for Edge ML via In-Sensor
//! Compression and Selective ROI", DAC 2024).
//!
//! This crate exists to host the cross-crate integration tests (`tests/`)
//! and the runnable examples (`examples/`); the implementation lives in
//! the `crates/` members:
//!
//! | crate | contents |
//! |---|---|
//! | [`hirise`] | the core two-stage pipeline, configuration, analytics, temporal tracking |
//! | [`hirise_analog`] | SPICE-like circuit simulation of the pooling circuit |
//! | [`hirise_sensor`] | behavioural pixel array, ADC, selective ROI readout |
//! | [`hirise_imaging`] | image buffers, scaling, drawing, PPM/PGM IO |
//! | [`hirise_scene`] | synthetic dataset generation |
//! | [`hirise_detect`] | stage-1 detector and mAP evaluation |
//! | [`hirise_nn`] | tiny-ML layers, arena memory planner, trainable MLP |
//! | [`hirise_energy`] | Table-1 cost model and calibrated energies |
//!
//! See `README.md` for a tour and `DESIGN.md` for the experiment index.

pub use hirise;
pub use hirise_analog;
pub use hirise_detect;
pub use hirise_energy;
pub use hirise_imaging;
pub use hirise_nn;
pub use hirise_scene;
pub use hirise_sensor;
