//! Regenerates **Fig. 7**: total data transfer vs pixel array size for
//! pooling levels 2/4/8 against the single-stage baseline, with the
//! D1 (pooled image) / D2 (ROI crops) breakdown.
//!
//! ROI statistics are *measured* on generated CrowdHuman-like scenes (the
//! paper reports the CrowdHuman medians as the largest transfer case).
//!
//! Run: `cargo run --release -p hirise-bench --bin fig7 [--quick]`

use hirise_bench::args::Flags;
use hirise_bench::stats::DatasetRoiStats;
use hirise_energy::{ColorChannels, SystemParams};
use hirise_scene::{DatasetSpec, ObjectClass};

fn main() {
    let size = Flags::from_env().run_size();
    let images = size.pick(8, 24, 48);
    let stats = DatasetRoiStats::measure(
        &DatasetSpec::crowdhuman_like(),
        Some(ObjectClass::Person),
        images,
        0xF167,
    );
    println!(
        "measured crowdhuman-like ROI stats over {images} scenes: j = {}, sum area = {:.1} % of frame, union = {:.1} %",
        stats.boxes,
        100.0 * stats.sum_area_frac,
        100.0 * stats.union_area_frac
    );
    println!("(paper back-solved: sum ≈ 27 %, union ≈ 9 %)");
    println!();

    let arrays: [(u64, u64); 5] =
        [(640, 480), (1280, 960), (1600, 1200), (1920, 1440), (2560, 1920)];
    println!(
        "{:>12} | {:>12} | {:>26} | {:>26} | {:>26}",
        "array",
        "baseline kB",
        "k=2: D1+D2 kB (red., D1%)",
        "k=4: D1+D2 kB (red., D1%)",
        "k=8: D1+D2 kB (red., D1%)"
    );
    for (n, m) in arrays {
        let (j, sum, union) = stats.at_array(n, m);
        let mut row = format!("{:>7}x{:<4} | {:>12.0}", n, m, (n * m * 3) as f64 / 1000.0);
        for k in [2u64, 4, 8] {
            let params = SystemParams {
                stage1_color: ColorChannels::Rgb,
                ..SystemParams::paper_default(n, m, k)
            }
            .with_rois(j, sum, union);
            let base = params.conventional().total_transfer_bits() as f64;
            let s1 = params.hirise_stage1();
            let s2 = params.hirise_stage2();
            let total = params.hirise_total().total_transfer_bits() as f64;
            let d1_kb = s1.transfer_bits_s2p as f64 / 8000.0;
            let d2_kb = s2.transfer_bits_s2p as f64 / 8000.0;
            row.push_str(&format!(
                " | {:>8.0}+{:<8.0} ({:>4.1}x, {:>4.1}%)",
                d1_kb,
                d2_kb,
                base / total,
                100.0 * s1.transfer_bits_s2p as f64 / total
            ));
        }
        println!("{row}");
    }
    println!();
    println!("paper shape: reductions ≈ 1.9x / 3.0x / 3.5x with D1 shares ≈ 48 % / 19 % / 5 %, at every array size");
}
