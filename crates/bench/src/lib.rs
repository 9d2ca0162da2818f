//! # hirise-bench
//!
//! Shared experiment harness for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index); this library holds the pieces
//! they share:
//!
//! * [`classifier::CropClassifier`] — a trained MLP that assigns classes
//!   to detection crops (the reproduction's analogue of YOLO's
//!   classification head),
//! * [`table2`] — the in-processor vs in-sensor mAP experiment,
//! * [`stats`] — dataset ROI statistics used by the Fig. 7 / Fig. 8 /
//!   Table 3 binaries,
//! * [`record`] — the one benchmark record type (`{bench, config,
//!   metrics}`), its canonical text form and strict reader, and the
//!   [`record::Bench`] trait every record builder implements,
//! * [`stages`], [`video`], [`scenario`], [`serve`], [`chaos`] and
//!   [`recover`] — one record builder each (still frame, tracked video,
//!   scenario fleet, multi-tenant serving, fault recovery, crash
//!   recovery), shared by its `*_stages` binary, which writes the
//!   committed record under `results/`, and by `bench_compare`, which
//!   rebuilds every committed record and gates each fact exactly,
//! * [`args`] — tiny CLI-flag helpers shared by the binaries.

pub mod args;
pub mod chaos;
pub mod classifier;
pub mod record;
pub mod recover;
pub mod scenario;
pub mod serve;
pub mod stages;
pub mod stats;
pub mod table2;
pub mod video;
