//! Regenerates **Table 3**: the end-to-end system analysis across pixel
//! array sizes for MCUNetV2-like and MobileNetV2-like stage-2 models —
//! expression-recognition accuracy, peak SRAM, data transfer and energy,
//! baseline vs HiRISE.
//!
//! * ROI per array size: the CrowdHuman-like head median (≈4.375 % of the
//!   array width, 14×14 at 320×240 up to 112×112 at 2560×1920), j = 16.
//! * Accuracy: a real classifier (MLP from `hirise-nn`) trained per ROI
//!   size on RAF-DB-like synthetic expression patches rendered at 112 px
//!   and downscaled to the ROI, 8-bit quantised — reproducing the
//!   resolution/accuracy saturation curve. Inputs larger than 64 px are
//!   resized down (model input cap), where accuracy has saturated anyway.
//! * Stage-1 is always pooled to 320×240 RGB, as in the paper.
//!
//! Run: `cargo run --release -p hirise-bench --bin table3 [--quick|--full]`

use hirise_bench::args::{Flags, RunSize};
use hirise_energy::{AdcEnergy, PoolingEnergy, SystemParams};
use hirise_imaging::{color, ops};
use hirise_nn::train::TrainConfig;
use hirise_nn::{zoo, Mlp};
use hirise_scene::{Expression, FacePatchGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KB: f64 = 1024.0;
/// Model input cap: ROIs larger than this are resized down before the
/// classifier (both reference models resize their inputs too; accuracy has
/// saturated well before this size, as in the paper's 1600→2560 rows).
const INPUT_CAP: u32 = 32;

/// Renders a labelled expression dataset at one ROI size, 8-bit quantised
/// grayscale, flattened for the MLP.
///
/// Difficulty knobs mirror deployment reality: the stage-1 detector does
/// not centre heads perfectly (random crop misalignment), illumination
/// varies (brightness/contrast jitter), and everything is quantised by the
/// 8-bit ADC. Misalignment hurts disproportionately at small ROI sizes,
/// which is exactly the Table-3 mechanism.
fn expression_dataset(roi: u32, per_class: usize, seed: u64) -> Vec<(Vec<f32>, usize)> {
    use rand::Rng;
    let generator = FacePatchGenerator::new(112);
    let mut rng = StdRng::seed_from_u64(seed);
    let side = roi.clamp(4, INPUT_CAP);
    let mut out = Vec::with_capacity(per_class * Expression::ALL.len());
    for _ in 0..per_class {
        for expr in Expression::ALL {
            let patch = generator.generate(expr, &mut rng);
            let gray = color::rgb_to_gray_mean(&patch);
            // Detector misalignment: crop 88–100 % of the patch at a random
            // offset before the optical downscale.
            let frac: f32 = rng.gen_range(0.88..1.0);
            let cw = ((112.0 * frac) as u32).clamp(8, 112);
            let cx = rng.gen_range(0..=(112 - cw));
            let cy = rng.gen_range(0..=(112 - cw));
            let cropped = gray
                .crop(hirise_imaging::Rect::new(cx, cy, cw, cw))
                .expect("crop stays inside the patch");
            // Optical size at this array: downscale to the ROI, then to the
            // model input size.
            let at_roi = ops::resize_gray(&cropped, roi.max(4), roi.max(4)).expect("nonzero roi");
            let input = ops::resize_gray(&at_roi, side, side).expect("nonzero side");
            // Illumination jitter + 8-bit ADC quantisation, centred for SGD.
            let gain: f32 = rng.gen_range(0.9..1.1);
            let offset: f32 = rng.gen_range(-0.05..0.05);
            let features: Vec<f32> = input
                .plane()
                .as_slice()
                .iter()
                .map(|&v| {
                    let lit = (v * gain + offset).clamp(0.0, 1.0);
                    (lit * 255.0).round() / 255.0 - 0.5
                })
                .collect();
            out.push((features, expr.id()));
        }
    }
    out
}

/// Trains and evaluates one stage-2 classifier; returns mean accuracy over
/// `repeats` independent train/test draws (paired across ROI sizes by the
/// shared base seed).
fn accuracy_at(roi: u32, hidden: usize, train_pc: usize, test_pc: usize, seed: u64) -> f64 {
    let repeats = 3;
    let mut total = 0.0;
    for rep in 0..repeats {
        let rep_seed = seed.wrapping_add(rep as u64 * 0x9E37);
        let train = expression_dataset(roi, train_pc, rep_seed);
        let test = expression_dataset(roi, test_pc, rep_seed ^ 0xDEAD);
        let features = train[0].0.len();
        let mut rng = StdRng::seed_from_u64(rep_seed ^ 0xBEEF);
        let mut mlp = Mlp::new(features, hidden, Expression::ALL.len(), &mut rng)
            .expect("dimensions are valid");
        // Learning rate scaled inversely with input dimensionality so SGD
        // is stable from 196-feature (14 px) up to 1024-feature inputs.
        let cfg = TrainConfig {
            epochs: 25,
            learning_rate: (6.0 / features as f32).min(0.05),
            weight_decay: 1e-4,
        };
        mlp.train(&train, &cfg, &mut rng).expect("training data is well-formed");
        total += mlp.accuracy(&test).expect("test data is well-formed");
    }
    total / repeats as f64
}

fn main() {
    let size = Flags::from_env().run_size();
    let arrays: Vec<(u64, u64)> = match size {
        RunSize::Quick => vec![(320, 240), (960, 720), (2560, 1920)],
        _ => vec![
            (320, 240),
            (640, 480),
            (960, 720),
            (1280, 960),
            (1600, 1200),
            (1920, 1440),
            (2240, 1680),
            (2560, 1920),
        ],
    };
    let train_pc = size.pick(20, 40, 60);
    let test_pc = size.pick(10, 20, 30);

    let adc = AdcEnergy::PAPER_45NM_8BIT;
    let pooling = PoolingEnergy::PAPER_45NM;
    let stage1_kb = 320.0 * 240.0 * 3.0 / KB; // RGB stage-1 image

    println!("Table 3 — end-to-end system, stage-1 pooled to 320x240 RGB, j = 16 head ROIs");
    println!(
        "{:<14} {:>11} {:>8} {:>6} | {:>9} {:>10} {:>10} | {:>9} {:>9} | {:>8} {:>8}",
        "model",
        "array",
        "roi",
        "acc%",
        "peakAct",
        "SRAM base",
        "SRAM hirise",
        "DT base",
        "DT hirise",
        "E base",
        "E hirise"
    );

    for (model_name, hidden) in [("MCUNetV2", 32usize), ("MobileNetV2", 96)] {
        for &(n, m) in &arrays {
            let roi = ((n as f64 * 0.04375).round() as u32).max(4);
            // One shared seed: every array size sees the same underlying
            // faces, so rows differ only by resolution (paired design).
            let acc = accuracy_at(roi, hidden, train_pc, test_pc, 0x7AB3);

            let graph = match model_name {
                "MCUNetV2" => zoo::mcunet_v2_classifier(roi as usize),
                _ => zoo::mobilenet_v2_classifier(roi as usize),
            };
            let peak_kb = graph.peak_activation_bytes() as f64 / KB;
            let image_base_kb = (n * m * 3) as f64 / KB;
            let sram_base = image_base_kb + peak_kb;
            let sram_hirise = stage1_kb + peak_kb;

            // Transfer / energy: stage-1 at the pooling factor reaching
            // 320x240, 16 disjoint head ROIs.
            let k = n / 320;
            let roi_area = roi as u64 * roi as u64;
            let params =
                SystemParams::paper_default(n, m, k).with_rois(16, 16 * roi_area, 16 * roi_area);
            let base = params.conventional();
            let hirise = params.hirise_total();
            println!(
                "{:<14} {:>6}x{:<4} {:>4}x{:<3} {:>5.1} | {:>8.1}k {:>9.0}k {:>10.1}k | {:>8.0}k {:>8.0}k | {:>7.3} {:>7.3}",
                model_name,
                n,
                m,
                roi,
                roi,
                100.0 * acc,
                peak_kb,
                sram_base,
                sram_hirise,
                base.total_transfer_kb(),
                hirise.total_transfer_kb(),
                base.sensor_energy_mj(&adc, &pooling),
                hirise.sensor_energy_mj(&adc, &pooling)
            );
        }
        println!();
    }

    println!("paper reference at 2560x1920 (MCUNetV2): 81.2 % acc, 398 kB vs 14,913 kB SRAM (37.5x), 833 kB vs 14,746 kB transfer, 0.104 vs 1.843 mJ (17.7x)");
    println!("expected shape: accuracy rises with ROI size and saturates; the wider model wins at every size; SRAM/energy reductions grow with the array");
}
