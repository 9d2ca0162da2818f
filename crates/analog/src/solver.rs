//! Modified nodal analysis: nonlinear DC operating point (Newton–Raphson)
//! and backward-Euler transient analysis.
//!
//! The unknown vector is `[v_1 .. v_{n-1}, i_src_1 .. i_src_m]` — all node
//! voltages except ground, followed by the branch currents of independent
//! voltage sources. The matrix is dense; HiRISE pooling circuits stay in
//! the hundreds of unknowns, where dense LU with partial pivoting is both
//! simple and fast enough.

use crate::device::nmos_eval;
use crate::netlist::{Circuit, NodeId, SourceId};
use crate::waveform::Waveform;
use crate::{AnalogError, Result};

/// Shunt conductance from every node to ground, stabilising floating
/// nodes (SPICE's GMIN).
const GMIN: f64 = 1e-12;
/// Maximum Newton–Raphson iterations per solve point.
const MAX_ITERATIONS: usize = 200;
/// Convergence tolerance on the max node-voltage update, volts.
const TOLERANCE: f64 = 1e-9;
/// Maximum per-iteration voltage step, volts (Newton damping).
const MAX_STEP: f64 = 0.5;

/// DC operating point.
#[derive(Debug, Clone)]
pub struct DcSolution {
    voltages: Vec<f64>,
    currents: Vec<f64>,
    /// Newton iterations used.
    pub iterations: usize,
}

impl DcSolution {
    /// Voltage at `node` in volts.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.0 == 0 {
            0.0
        } else {
            self.voltages[node.0 - 1]
        }
    }

    /// Branch current through a voltage source, in amperes (flowing from the
    /// positive terminal through the source to the negative terminal).
    pub fn source_current(&self, src: SourceId) -> f64 {
        self.currents[src.0]
    }
}

/// Result of a transient run: node voltages at every accepted time point.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `samples[step][node]`, ground included at index 0.
    samples: Vec<Vec<f64>>,
}

impl TransientResult {
    /// Simulated time points, seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when the run produced no points.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage of `node` at step index `i`.
    pub fn voltage_at(&self, i: usize, node: NodeId) -> f64 {
        self.samples[i][node.0]
    }

    /// Extracts a single node's trace as a [`Waveform`].
    pub fn waveform(&self, node: NodeId) -> Waveform {
        Waveform::from_samples(
            self.times.clone(),
            self.samples.iter().map(|row| row[node.0]).collect(),
        )
        .expect("times and samples have identical length by construction")
    }
}

/// Dense LU solve with partial pivoting; consumes `a` and `b`.
fn solve_dense(a: &mut [Vec<f64>], b: &mut [f64]) -> Result<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot selection.
        let mut pivot = col;
        let mut best = a[col][col].abs();
        for (row, arow) in a.iter().enumerate().skip(col + 1) {
            let mag = arow[col].abs();
            if mag > best {
                best = mag;
                pivot = row;
            }
        }
        if best < 1e-300 {
            return Err(AnalogError::SingularMatrix { pivot: col });
        }
        if pivot != col {
            a.swap(col, pivot);
            b.swap(col, pivot);
        }
        let diag = a[col][col];
        for row in col + 1..n {
            let factor = a[row][col] / diag;
            if factor == 0.0 {
                continue;
            }
            a[row][col] = 0.0;
            // Manual split to appease the borrow checker.
            let (upper, lower) = a.split_at_mut(row);
            let src = &upper[col];
            let dst = &mut lower[0];
            for k in col + 1..n {
                dst[k] -= factor * src[k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in row + 1..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

/// MNA simulator borrowing a [`Circuit`].
#[derive(Debug, Clone)]
pub struct Simulator<'c> {
    circuit: &'c Circuit,
}

impl<'c> Simulator<'c> {
    /// Creates a simulator.
    pub fn new(circuit: &'c Circuit) -> Self {
        Self { circuit }
    }

    fn unknown_count(&self) -> usize {
        (self.circuit.node_count() - 1) + self.circuit.vsource_count()
    }

    /// Solves one (possibly nonlinear) operating point.
    ///
    /// * `t` — time at which stimuli are evaluated.
    /// * `cap_state` — previous node voltages (raw node indexing, ground at
    ///   0) and timestep for the capacitor companion model; `None` performs
    ///   a pure DC solve with capacitors open.
    /// * `x0` — initial guess for the unknown vector.
    fn solve_point(
        &self,
        t: f64,
        cap_state: Option<(&[f64], f64)>,
        x0: &[f64],
    ) -> Result<Vec<f64>> {
        let nn = self.circuit.node_count() - 1;
        let n = self.unknown_count();
        let mut x = x0.to_vec();
        debug_assert_eq!(x.len(), n);

        let volt = |x: &[f64], raw: usize| -> f64 {
            if raw == 0 {
                0.0
            } else {
                x[raw - 1]
            }
        };

        for iter in 0..MAX_ITERATIONS {
            let mut a = vec![vec![0.0; n]; n];
            let mut b = vec![0.0; n];

            // GMIN from every node to ground.
            for (i, row) in a.iter_mut().enumerate().take(nn) {
                row[i] += GMIN;
            }

            let stamp_g = |a: &mut Vec<Vec<f64>>, p: usize, q: usize, g: f64| {
                if p > 0 {
                    a[p - 1][p - 1] += g;
                }
                if q > 0 {
                    a[q - 1][q - 1] += g;
                }
                if p > 0 && q > 0 {
                    a[p - 1][q - 1] -= g;
                    a[q - 1][p - 1] -= g;
                }
            };

            for r in &self.circuit.resistors {
                stamp_g(&mut a, r.a, r.b, r.conductance);
            }

            if let Some((v_prev, h)) = cap_state {
                for c in &self.circuit.capacitors {
                    let g = c.farads / h;
                    stamp_g(&mut a, c.a, c.b, g);
                    let v_ab_prev = v_prev[c.a] - v_prev[c.b];
                    if c.a > 0 {
                        b[c.a - 1] += g * v_ab_prev;
                    }
                    if c.b > 0 {
                        b[c.b - 1] -= g * v_ab_prev;
                    }
                }
            }

            for i in &self.circuit.isources {
                let val = i.stimulus.at(t);
                if i.from > 0 {
                    b[i.from - 1] -= val;
                }
                if i.to > 0 {
                    b[i.to - 1] += val;
                }
            }

            for (j, v) in self.circuit.vsources.iter().enumerate() {
                let row = nn + j;
                if v.pos > 0 {
                    a[row][v.pos - 1] += 1.0;
                    a[v.pos - 1][row] += 1.0;
                }
                if v.neg > 0 {
                    a[row][v.neg - 1] -= 1.0;
                    a[v.neg - 1][row] -= 1.0;
                }
                b[row] = v.stimulus.at(t);
            }

            for m in &self.circuit.mosfets {
                let v_gs = volt(&x, m.gate) - volt(&x, m.source);
                let v_ds = volt(&x, m.drain) - volt(&x, m.source);
                let (id, gm, gds, _) = nmos_eval(&m.params, v_gs, v_ds);
                let ieq = id - gm * v_gs - gds * v_ds;
                // Drain KCL: I_D = gm*vgs + gds*vds + ieq leaves the node.
                if m.drain > 0 {
                    if m.gate > 0 {
                        a[m.drain - 1][m.gate - 1] += gm;
                    }
                    a[m.drain - 1][m.drain - 1] += gds;
                    if m.source > 0 {
                        a[m.drain - 1][m.source - 1] -= gm + gds;
                    }
                    b[m.drain - 1] -= ieq;
                }
                // Source KCL: I_D enters the node.
                if m.source > 0 {
                    if m.gate > 0 {
                        a[m.source - 1][m.gate - 1] -= gm;
                    }
                    if m.drain > 0 {
                        a[m.source - 1][m.drain - 1] -= gds;
                    }
                    a[m.source - 1][m.source - 1] += gm + gds;
                    b[m.source - 1] += ieq;
                }
            }

            let z = solve_dense(&mut a, &mut b)?;

            // Damped Newton update on the voltage unknowns.
            let mut max_dv = 0.0f64;
            for i in 0..nn {
                max_dv = max_dv.max((z[i] - x[i]).abs());
            }
            let alpha = if max_dv > MAX_STEP { MAX_STEP / max_dv } else { 1.0 };
            for i in 0..n {
                x[i] += alpha * (z[i] - x[i]);
            }

            if max_dv < TOLERANCE {
                // One clean full-step solve already converged.
                return Ok(x);
            }
            if iter == MAX_ITERATIONS - 1 {
                return Err(AnalogError::NoConvergence {
                    iterations: MAX_ITERATIONS,
                    residual: max_dv,
                });
            }
        }
        unreachable!("loop either returns or errors on the final iteration")
    }

    /// Computes the DC operating point (stimuli evaluated at `t = 0`,
    /// capacitors open).
    ///
    /// # Errors
    ///
    /// [`AnalogError::NoConvergence`] if Newton fails,
    /// [`AnalogError::SingularMatrix`] for degenerate topologies.
    pub fn dc(&self) -> Result<DcSolution> {
        self.dc_at(0.0)
    }

    /// DC operating point with stimuli evaluated at an arbitrary time.
    ///
    /// # Errors
    ///
    /// See [`Simulator::dc`].
    pub fn dc_at(&self, t: f64) -> Result<DcSolution> {
        let n = self.unknown_count();
        let x = self.solve_point(t, None, &vec![0.0; n])?;
        let nn = self.circuit.node_count() - 1;
        Ok(DcSolution { voltages: x[..nn].to_vec(), currents: x[nn..].to_vec(), iterations: 0 })
    }

    /// Backward-Euler transient from `0` to `stop` with fixed step `step`.
    /// The initial condition is the DC operating point at `t = 0`.
    ///
    /// # Errors
    ///
    /// [`AnalogError::InvalidTransient`] for a non-positive step/stop,
    /// plus any DC-solve failure at a time point.
    pub fn transient(&self, step: f64, stop: f64) -> Result<TransientResult> {
        if !(step > 0.0) || !(stop > 0.0) || step > stop {
            return Err(AnalogError::InvalidTransient { step, stop });
        }
        let nn = self.circuit.node_count() - 1;
        let n = self.unknown_count();

        let dc = self.dc()?;
        let mut x: Vec<f64> =
            dc.voltages.iter().copied().chain(dc.currents.iter().copied()).collect();
        debug_assert_eq!(x.len(), n);

        let mut times = vec![0.0];
        let mut samples = vec![{
            let mut row = vec![0.0; nn + 1];
            row[1..].copy_from_slice(&dc.voltages);
            row
        }];

        let steps = (stop / step).round() as usize;
        for k in 1..=steps {
            let t = k as f64 * step;
            let prev_raw: Vec<f64> = {
                let mut row = vec![0.0; nn + 1];
                row[1..].copy_from_slice(&x[..nn]);
                row
            };
            x = self.solve_point(t, Some((&prev_raw, step)), &x)?;
            let mut row = vec![0.0; nn + 1];
            row[1..].copy_from_slice(&x[..nn]);
            times.push(t);
            samples.push(row);
        }
        Ok(TransientResult { times, samples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MosParams, Stimulus};

    fn divider() -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new();
        let vin = c.add_node("vin");
        let out = c.add_node("out");
        c.add_voltage_source(vin, Circuit::gnd(), Stimulus::Dc(2.0)).unwrap();
        c.add_resistor(vin, out, 1_000.0).unwrap();
        c.add_resistor(out, Circuit::gnd(), 3_000.0).unwrap();
        (c, vin, out)
    }

    #[test]
    fn resistive_divider_dc() {
        let (c, vin, out) = divider();
        let dc = Simulator::new(&c).dc().unwrap();
        // GMIN (1e-12 S per node) perturbs the exact value at the 1e-9 level.
        assert!((dc.voltage(vin) - 2.0).abs() < 1e-6);
        assert!((dc.voltage(out) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn source_current_matches_ohms_law() {
        let mut c = Circuit::new();
        let a = c.add_node("a");
        let src = c.add_voltage_source(a, Circuit::gnd(), Stimulus::Dc(1.0)).unwrap();
        c.add_resistor(a, Circuit::gnd(), 500.0).unwrap();
        let dc = Simulator::new(&c).dc().unwrap();
        // 2 mA flows out of the + terminal through the resistor; the branch
        // current convention makes it -2 mA through the source.
        assert!((dc.source_current(src).abs() - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let a = c.add_node("a");
        c.add_current_source(Circuit::gnd(), a, Stimulus::Dc(1e-3)).unwrap();
        c.add_resistor(a, Circuit::gnd(), 2_000.0).unwrap();
        let dc = Simulator::new(&c).dc().unwrap();
        assert!((dc.voltage(a) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn floating_node_is_singular_without_gmin() {
        let mut c = Circuit::new();
        let a = c.add_node("a");
        let b = c.add_node("b");
        c.add_voltage_source(a, Circuit::gnd(), Stimulus::Dc(1.0)).unwrap();
        // b floats entirely; gmin keeps the matrix solvable.
        let _ = b;
        let dc = Simulator::new(&c).dc().unwrap();
        assert_eq!(dc.voltage(b), 0.0);
    }

    #[test]
    fn nmos_source_follower_dc() {
        // Classic SF: drain at VDD, gate driven, source through resistor to
        // ground. V_out ≈ V_in - V_TH - sqrt(2 I / k).
        let mut c = Circuit::new();
        let vdd = c.add_node("vdd");
        let vin = c.add_node("vin");
        let out = c.add_node("out");
        c.add_voltage_source(vdd, Circuit::gnd(), Stimulus::Dc(1.8)).unwrap();
        c.add_voltage_source(vin, Circuit::gnd(), Stimulus::Dc(1.2)).unwrap();
        let p = MosParams { vth: 0.4, k: 400e-6, lambda: 0.0 };
        c.add_nmos(vdd, vin, out, p).unwrap();
        c.add_resistor(out, Circuit::gnd(), 100_000.0).unwrap();
        let dc = Simulator::new(&c).dc().unwrap();
        let vout = dc.voltage(out);
        // Solve analytically: I = k/2 (vin - vout - vth)^2 = vout / R
        // => vout ≈ 0.655 V for these numbers.
        let vov = 1.2 - vout - 0.4;
        let i_dev = 0.5 * 400e-6 * vov * vov;
        let i_res = vout / 100_000.0;
        assert!((i_dev - i_res).abs() / i_res < 1e-3, "KCL mismatch: {i_dev} vs {i_res}");
        assert!(vout > 0.3 && vout < 1.2 - 0.4, "vout {vout} out of follower range");
    }

    #[test]
    fn nmos_follower_tracks_input_linearly() {
        // Sweep the gate and confirm monotone, near-unity incremental gain.
        let p = MosParams { vth: 0.4, k: 800e-6, lambda: 0.0 };
        let mut previous = None;
        for vin_mv in (800..=1600).step_by(200) {
            let vin = vin_mv as f64 / 1000.0;
            let mut c = Circuit::new();
            let vdd = c.add_node("vdd");
            let g = c.add_node("g");
            let s = c.add_node("s");
            c.add_voltage_source(vdd, Circuit::gnd(), Stimulus::Dc(1.8)).unwrap();
            c.add_voltage_source(g, Circuit::gnd(), Stimulus::Dc(vin)).unwrap();
            c.add_nmos(vdd, g, s, p).unwrap();
            c.add_resistor(s, Circuit::gnd(), 50_000.0).unwrap();
            let dc = Simulator::new(&c).dc().unwrap();
            let vout = dc.voltage(s);
            if let Some(prev) = previous {
                let gain = (vout - prev) / 0.2;
                assert!(gain > 0.8 && gain < 1.05, "incremental gain {gain}");
            }
            previous = Some(vout);
        }
    }

    #[test]
    fn rc_transient_charges_exponentially() {
        let mut c = Circuit::new();
        let vin = c.add_node("vin");
        let out = c.add_node("out");
        // The step fires one timestep in so the DC initial condition is the
        // discharged state.
        c.add_voltage_source(
            vin,
            Circuit::gnd(),
            Stimulus::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 10e-6,
                rise: 0.0,
                fall: 0.0,
                width: 1.0,
                period: 0.0,
            },
        )
        .unwrap();
        c.add_resistor(vin, out, 1_000.0).unwrap();
        c.add_capacitor(out, Circuit::gnd(), 1e-6).unwrap(); // tau = 1 ms
        let sim = Simulator::new(&c);
        let tr = sim.transient(10e-6, 5e-3).unwrap();
        let wave = tr.waveform(out);
        // After 1 tau the capacitor reaches ~63% (backward Euler slightly lags).
        let v_tau = wave.sample_at(1e-3 + 10e-6);
        assert!((v_tau - 0.632).abs() < 0.02, "v(tau) = {v_tau}");
        // After ~5 tau it is essentially full.
        assert!(wave.sample_at(5e-3) > 0.98);
    }

    #[test]
    fn transient_rejects_bad_window() {
        let (c, _, _) = divider();
        let sim = Simulator::new(&c);
        assert!(sim.transient(0.0, 1.0).is_err());
        assert!(sim.transient(1.0, -1.0).is_err());
        assert!(sim.transient(2.0, 1.0).is_err());
    }

    #[test]
    fn transient_first_sample_is_dc() {
        let (c, _, out) = divider();
        let sim = Simulator::new(&c);
        let tr = sim.transient(1e-6, 1e-5).unwrap();
        assert_eq!(tr.times()[0], 0.0);
        assert!((tr.voltage_at(0, out) - 1.5).abs() < 1e-6);
        assert_eq!(tr.len(), 11);
    }

    #[test]
    fn dense_solver_random_system() {
        // Verify LU against a hand-computed 3x3 system.
        let mut a = vec![vec![2.0, 1.0, -1.0], vec![-3.0, -1.0, 2.0], vec![-2.0, 1.0, 2.0]];
        let mut b = vec![8.0, -11.0, -3.0];
        let x = solve_dense(&mut a, &mut b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((x[2] - -1.0).abs() < 1e-9);
    }

    #[test]
    fn dense_solver_detects_singular() {
        let mut a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let mut b = vec![1.0, 2.0];
        assert!(matches!(solve_dense(&mut a, &mut b), Err(AnalogError::SingularMatrix { .. })));
    }

    #[test]
    fn vsource_pwl_followed_in_transient() {
        let mut c = Circuit::new();
        let a = c.add_node("a");
        c.add_voltage_source(a, Circuit::gnd(), Stimulus::Pwl(vec![(0.0, 0.0), (1e-3, 1.0)]))
            .unwrap();
        c.add_resistor(a, Circuit::gnd(), 1_000.0).unwrap();
        let tr = Simulator::new(&c).transient(1e-4, 1e-3).unwrap();
        let w = tr.waveform(a);
        assert!((w.sample_at(5e-4) - 0.5).abs() < 1e-6);
        assert!((w.sample_at(1e-3) - 1.0).abs() < 1e-6);
    }
}
