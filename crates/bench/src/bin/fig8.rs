//! Regenerates **Fig. 8**: median sensor energy per image under pooling
//! levels 2/4/8 for RGB (left) and grayscale (right) stage-1 capture,
//! across the three dataset presets, on the 2560×1920 array.
//!
//! The baseline converts the full frame (1.85 mJ). Stage-2 conversions
//! cover the *union* of the detected ROIs (each physical pixel converted
//! once); the analog pooling circuit's own energy is reported separately
//! to confirm it is negligible, as the paper notes.
//!
//! Run: `cargo run --release -p hirise-bench --bin fig8 [--quick]`

use hirise_bench::args::Flags;
use hirise_bench::stats::DatasetRoiStats;
use hirise_energy::{AdcEnergy, ColorChannels, PoolingEnergy, SystemParams};
use hirise_scene::{DatasetSpec, ObjectClass};

const N: u64 = 2560;
const M: u64 = 1920;

fn main() {
    let size = Flags::from_env().run_size();
    let images = size.pick(8, 24, 48);
    let adc = AdcEnergy::PAPER_45NM_8BIT;
    let pooling = PoolingEnergy::PAPER_45NM;

    let baseline = SystemParams::paper_default(N, M, 2).conventional();
    println!(
        "baseline (full-frame conversion): {:.3} mJ (paper: 1.85 mJ)",
        baseline.sensor_energy_mj(&adc, &pooling)
    );
    println!();
    println!(
        "{:<18} {:>6} | {:>22} | {:>22}",
        "dataset", "k", "RGB mJ (s1/s2, red.)", "Gray mJ (s1/s2, red.)"
    );

    let mut pool_energy_min = f64::INFINITY;
    let mut pool_energy_max = 0.0f64;
    for spec in DatasetSpec::paper_presets() {
        let class =
            if spec.name.starts_with("crowdhuman") { Some(ObjectClass::Person) } else { None };
        let stats = DatasetRoiStats::measure(&spec, class, images, 0xF188);
        let (j, sum, union) = stats.at_array(N, M);
        for k in [2u64, 4, 8] {
            let mut cells = Vec::new();
            for color in [ColorChannels::Rgb, ColorChannels::Gray] {
                let params =
                    SystemParams { stage1_color: color, ..SystemParams::paper_default(N, M, k) }
                        .with_rois(j, sum, union);
                let s1 = params.hirise_stage1();
                let s2 = params.hirise_stage2();
                let total = params.hirise_total();
                let e1 = s1.sensor_energy_mj(&adc, &pooling);
                let e2 = s2.sensor_energy_mj(&adc, &pooling);
                let e = total.sensor_energy_mj(&adc, &pooling);
                let reduction = baseline.sensor_energy_mj(&adc, &pooling) / e;
                cells.push(format!("{e:.3} ({e1:.2}/{e2:.2}, {reduction:.1}x)"));
                let ep = pooling.energy_joules(s1.pooling_outputs) * 1e9;
                pool_energy_min = pool_energy_min.min(ep);
                pool_energy_max = pool_energy_max.max(ep);
            }
            println!("{:<18} {:>4}x{} | {:>22} | {:>22}", spec.name, k, k, cells[0], cells[1]);
        }
    }
    println!();
    println!(
        "analog pooling circuit energy across all configurations: {:.2} .. {:.1} nJ (paper: 1.71 .. 91.4 nJ) — orders of magnitude below ADC energy",
        pool_energy_min, pool_energy_max
    );
    println!("paper reference (Crowdhuman RGB): 0.63 / 0.28 / 0.20 mJ for k = 2 / 4 / 8 (3.0x / 6.5x / 9.4x reductions)");
}
