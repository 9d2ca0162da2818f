//! The still-frame benchmark shared by the `pipeline_stages` and
//! `bench_compare` binaries.
//!
//! One record runs the two-stage pipeline once over a generated
//! surveillance scene and keeps the paper's cost facts from its
//! [`hirise::RunReport`]: ROI count, stage-1/stage-2 conversions,
//! transfer bits, peak image bytes and sensor energy. Every one is a
//! pure function of the scene seed and the config. `pipeline_stages`
//! writes the record as `results/BENCH_pipeline.json`.

use hirise::{HiriseConfig, HirisePipeline};
use hirise_scene::{DatasetSpec, SceneGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::record::{Bench, Record, MAX_SIDE};

/// Configuration of the still-frame benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageBenchConfig {
    /// Array width in pixels.
    pub width: u32,
    /// Array height in pixels.
    pub height: u32,
    /// In-sensor pooling factor.
    pub pooling_k: u32,
}

impl Default for StageBenchConfig {
    /// The committed point: 640×480, k = 2.
    fn default() -> Self {
        Self { width: 640, height: 480, pooling_k: 2 }
    }
}

impl StageBenchConfig {
    fn pipeline_config(&self) -> hirise::Result<HiriseConfig> {
        HiriseConfig::builder(self.width, self.height).pooling(self.pooling_k).max_rois(8).build()
    }
}

impl Bench for StageBenchConfig {
    const NAME: &'static str = "pipeline_stages";

    fn from_record(record: &Record) -> Result<Self, String> {
        let (width, height) = record.config_array()?;
        let config =
            Self { width, height, pooling_k: record.config_int("pooling_k", 1..=MAX_SIDE)? };
        config.pipeline_config().map_err(|e| e.to_string())?;
        Ok(config)
    }

    fn header(&self) -> Record {
        Record::new(Self::NAME)
            .with_config("array", format!("{}x{}", self.width, self.height))
            .with_config("pooling_k", self.pooling_k)
    }

    fn record(&self) -> Record {
        let generator = SceneGenerator::new(DatasetSpec::dhdcampus_like());
        let mut rng = StdRng::seed_from_u64(77);
        let scene = generator.generate(self.width, self.height, &mut rng).image;
        let config = self.pipeline_config().expect("valid stage-bench configuration");
        let report = HirisePipeline::new(config).run(&scene).expect("frame succeeds").report;
        self.header()
            .with_count("rois", report.roi_count as u64)
            .with_count("stage1_conversions", report.stage1.conversions)
            .with_count("stage2_conversions", report.stage2.conversions)
            .with_metric("transfer_bits", report.total_transfer_bits(), "bit")
            .with_metric("peak_image_bytes", report.peak_image_bytes(), "B")
            .with_metric("sensor_energy_mj", report.sensor_energy_mj_default(), "mJ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_through_the_emitted_format() {
        // The config survives the text form, so bench_compare rebuilds
        // exactly the measured config from a committed record.
        let config = StageBenchConfig { width: 320, height: 240, pooling_k: 4 };
        let text = config.header().to_text();
        let parsed = Record::parse(&text).expect("the header parses");
        assert_eq!(StageBenchConfig::from_record(&parsed), Ok(config));
        let bad = text.replace("\"pooling_k\": 4", "\"pooling_k\": 7");
        let err = StageBenchConfig::from_record(&Record::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("pooling 7 does not tile 320x240"), "{err}");
    }

    #[test]
    fn measurement_produces_consistent_numbers() {
        let config = StageBenchConfig { width: 64, height: 48, pooling_k: 2 };
        let r = config.record();
        // Stage 1 converts every pooled RGB site once.
        assert_eq!(r.int("stage1_conversions"), Some(32 * 24 * 3));
        assert!(r.int("rois").unwrap() <= 8);
        assert!(r.int("transfer_bits").unwrap() > 0);
        assert!(r.int("peak_image_bytes").unwrap() > 0);
        assert!(r.float("sensor_energy_mj").unwrap() > 0.0);
        assert_eq!(config.record(), r, "the record is a pure function of the config");
    }
}
