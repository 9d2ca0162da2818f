//! Regenerates **Fig. 5**: SPICE-style transients of the analog averaging
//! circuit — (a) two analog inputs, (b) four digital inputs — plus the
//! paper's "extended to 192 inputs" check as a DC sweep.
//!
//! Waveform CSVs are written to `results/fig5a.csv` and `results/fig5b.csv`
//! (columns: time, inputs, avg, ideal).
//!
//! Run: `cargo run --release -p hirise-bench --bin fig5 [--quick]`

use std::fs;

use hirise_analog::testbench::{extended_dc, fig5a, fig5b};
use hirise_analog::Waveform;
use hirise_bench::args::Flags;

fn main() {
    let size = Flags::from_env().run_size();
    fs::create_dir_all("results").expect("can create results directory");

    println!("Fig. 5(a): two analog PWL inputs, 2-input Fig.-4 circuit");
    let a = fig5a().expect("fig5a bench converges");
    println!(
        "  fitted behaviour: gain {:.4}, offset {:.4} V, nonlinearity {:.2} mV",
        a.behavior.gain,
        a.behavior.offset,
        a.behavior.max_residual * 1e3
    );
    println!(
        "  dynamic tracking error |avg - (gain*mean+offset)| max = {:.2} mV over {} points",
        a.max_tracking_error * 1e3,
        a.avg.len()
    );
    let file = fs::File::create("results/fig5a.csv").expect("can create csv");
    Waveform::write_csv(
        std::io::BufWriter::new(file),
        &[("inp1", &a.inputs[0]), ("inp2", &a.inputs[1]), ("avg", &a.avg), ("ideal", &a.ideal)],
    )
    .expect("csv write succeeds");
    println!("  wrote results/fig5a.csv");

    println!("Fig. 5(b): four digital pulse inputs, 4-input circuit");
    let b = fig5b().expect("fig5b bench converges");
    println!(
        "  avg excursion {:.3} .. {:.3} V (expected {:.3} .. {:.3} V at the all-low/all-high codes)",
        b.avg.min(),
        b.avg.max(),
        b.behavior.apply(0.3),
        b.behavior.apply(0.9)
    );
    println!(
        "  tracking error: {:.2} mV settled / {:.1} mV incl. edge settling transients",
        b.settled_tracking_error * 1e3,
        b.max_tracking_error * 1e3
    );
    let file = fs::File::create("results/fig5b.csv").expect("can create csv");
    let mut columns: Vec<(&str, &Waveform)> = vec![
        ("inp1", &b.inputs[0]),
        ("inp2", &b.inputs[1]),
        ("inp3", &b.inputs[2]),
        ("inp4", &b.inputs[3]),
    ];
    columns.push(("avg", &b.avg));
    columns.push(("ideal", &b.ideal));
    Waveform::write_csv(std::io::BufWriter::new(file), &columns).expect("csv write succeeds");
    println!("  wrote results/fig5b.csv");

    // The paper: "extended to accommodate 192 inputs and demonstrated
    // flawless performance" (8x8 pooling x 3 channels).
    let n = size.pick(48, 192, 192);
    let vectors = size.pick(2, 4, 8);
    println!("Extended bench: {n}-input circuit, {vectors} random DC vectors");
    let ext = extended_dc(n, vectors).expect("extended bench converges");
    println!(
        "  recovered-mean error max = {:.2} mV ({:.2} % of the 600 mV swing)",
        ext.max_error * 1e3,
        100.0 * ext.max_error / 0.6
    );
    println!(
        "  fitted gain {:.4} (ideal divider 0.5), offset {:.4} V",
        ext.behavior.gain, ext.behavior.offset
    );
}
