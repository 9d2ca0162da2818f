//! Quickstart: run the HiRISE two-stage pipeline on one synthetic scene
//! and compare it against the conventional full-readout baseline.
//!
//! Also regenerates the paper's Fig.-1 comparison qualitatively: the ROI
//! as a processor-scaled low-resolution crop vs the in-sensor
//! full-resolution crop, written as PPM images under `results/`.
//!
//! Run: `cargo run --release --example quickstart`

use hirise::baseline::ConventionalPipeline;
use hirise::{ColorMode, HiriseConfig, HirisePipeline, SensorConfig};
use hirise_imaging::{io, ops};
use hirise_scene::{DatasetSpec, SceneGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A CrowdHuman-like scene on a 1280x960 array (scale the config up to
    // 2560x1920 for the paper's exact numbers; everything is proportional).
    let generator = SceneGenerator::new(DatasetSpec::crowdhuman_like());
    let mut rng = StdRng::seed_from_u64(2024);
    let scene = generator.generate(1280, 960, &mut rng);
    println!("scene: 1280x960 with {} annotated objects", scene.objects.len());

    let config = HiriseConfig::builder(1280, 960)
        .pooling(4) // stage-1 sees 320x240
        .stage1_color(ColorMode::Rgb)
        .max_rois(16)
        .build()?;
    let pipeline = HirisePipeline::new(config);
    let run = pipeline.run(&scene.image)?;

    println!(
        "stage-1: {}x{} pooled image, {} detections, {} ROIs requested",
        run.pooled_image.width(),
        run.pooled_image.height(),
        run.detections.len(),
        run.rois.len()
    );
    println!("{}", run.report);

    let baseline = ConventionalPipeline::new(SensorConfig::default())?;
    let (_, base_report) = baseline.run(&scene.image);
    println!(
        "conventional baseline: transfer {:.1} kB, energy {:.3} mJ",
        base_report.total_transfer_kb(),
        base_report.sensor_energy_mj_default()
    );
    println!(
        "reductions: transfer {:.1}x, conversions {:.1}x, peak image memory {:.1}x",
        base_report.total_transfer_bits() as f64 / run.report.total_transfer_bits() as f64,
        base_report.conversions() as f64 / run.report.conversions() as f64,
        base_report.peak_image_bytes() as f64 / run.report.peak_image_bytes() as f64
    );

    // Fig.-1 style comparison for the first ROI.
    if let (Some(roi_rect), Some(roi_img)) = (run.rois.first(), run.roi_images.first()) {
        std::fs::create_dir_all("results")?;
        // (a) the crop a low-resolution system would have: cut from the
        // pooled image and blown back up.
        if let Some(pooled_rgb) = run.pooled_image.as_rgb() {
            let low = roi_rect.scaled(1, 4).clamped(pooled_rgb.width(), pooled_rgb.height());
            if !low.is_degenerate() {
                let crop = pooled_rgb.crop(low)?;
                let up = ops::resize_rgb(&crop, roi_rect.w, roi_rect.h)?;
                io::save_ppm(&up, "results/fig1_in_processor_roi.ppm")?;
            }
        }
        // (b) the HiRISE full-resolution ROI.
        io::save_ppm(roi_img, "results/fig1_hirise_roi.ppm")?;
        println!(
            "wrote results/fig1_in_processor_roi.ppm and results/fig1_hirise_roi.ppm (ROI {roi_rect})"
        );
    }
    Ok(())
}
