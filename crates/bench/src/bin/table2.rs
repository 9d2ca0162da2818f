//! Regenerates **Table 2**: mAP of in-processor vs in-sensor scaling on
//! the three dataset presets across resolutions and colour modes.
//!
//! Run: `cargo run --release -p hirise-bench --bin table2 [--quick|--full]`
//!
//! Expected shape (paper): the two paths match within fractions of a
//! point in every cell; accuracy rises with resolution (most strongly for
//! the VisDrone-like preset); gray trails RGB by a small gap.

use hirise_bench::args::{Flags, RunSize};
use hirise_bench::table2::{format_table, run_dataset, Table2Config};
use hirise_scene::DatasetSpec;

fn main() {
    let size = Flags::from_env().run_size();
    let mut config = match size {
        RunSize::Quick => Table2Config::quick(),
        RunSize::Standard => Table2Config::standard(),
        RunSize::Full => {
            let mut c = Table2Config::standard();
            c.eval_images = 16;
            c.cal_images = 6;
            c
        }
    };
    // Keep the VisDrone-like sweep tractable on small machines.
    if matches!(size, RunSize::Quick) {
        config.ks = vec![4, 2];
    }

    println!(
        "Table 2 run: array {}x{}, k = {:?}, {} cal + {} eval images per dataset",
        config.array.0, config.array.1, config.ks, config.cal_images, config.eval_images
    );

    let mut rows = Vec::new();
    for spec in DatasetSpec::paper_presets() {
        let row = run_dataset(&spec, &config, |line| println!("  {line}"));
        rows.push(row);
    }

    println!();
    println!("{}", format_table(&rows, config.array, &config.ks));
    println!("paper reference (2560x1920): Crowdhuman 55/71/79 %, DHDCampus 50/68/81 %, VisDrone 19/37/51 % (RGB, rising resolution)");

    // Shape checks, reported not asserted (binaries print; tests assert).
    for row in &rows {
        let mut parity_worst = 0.0f64;
        for c in &row.cells {
            parity_worst = parity_worst.max((c.map_in_processor - c.map_in_sensor).abs());
        }
        println!(
            "[check] {}: worst in-proc vs in-sensor gap = {:.2} pp",
            row.dataset,
            100.0 * parity_worst
        );
    }
}
