//! `ladder400`: the one sweep deck above the simulator's dense-solver
//! size limit, so the only place the sparse LU runs.
//!
//! A 400-stage RC ladder carries the input bias and AC stimulus to the
//! gate of a common-source stage whose drain is `out`. Every eighth ladder
//! node has a reverse-biased shunt diode, which keeps the DC solve
//! nonlinear. The gate bias (0.4 · VDD) keeps the stage in saturation at
//! the grid midpoint, so gain and supply power there are positive.

/// Ladder stages; the MNA system has 405 unknowns.
const STAGES: usize = 400;

/// The sizing deck, generated rather than stored: four `.sizeparam` axes
/// (stage resistance, stage capacitance, stage width, load resistance).
pub fn deck() -> String {
    let mut lines = vec![
        format!("ladder{STAGES} rc ladder into a common-source stage bsim45"),
        ".process 45".to_string(),
        ".corners nominal".to_string(),
        ".sizeparam rstage 5 50 STEP 10".to_string(),
        ".sizeparam cstage 1e-14 1e-12 STEP 10".to_string(),
        ".sizeparam w_cs 1e-6 20e-6 STEP 20".to_string(),
        ".sizeparam rload 1e3 2e4 STEP 20".to_string(),
        ".goal gain_db >= 10".to_string(),
        ".goal power_w <= 5e-4".to_string(),
        ".param vb=0.4*{vdd}".to_string(),
        "VDD vdd 0 DC {vdd}".to_string(),
        "VIN n0 0 DC {vb} AC 1".to_string(),
    ];
    for k in 1..=STAGES {
        lines.push(format!("R{k} n{} n{k} {{rstage}}", k - 1));
        lines.push(format!("C{k} n{k} 0 {{cstage}}"));
        if k % 8 == 0 {
            lines.push(format!("D{k} 0 n{k} dshunt"));
        }
    }
    lines.extend([
        format!("M1 out n{STAGES} 0 0 nch W={{w_cs}} L=1.8e-7"),
        "RL vdd out {rload}".to_string(),
        "CL out 0 1e-13".to_string(),
        ".model dshunt D (IS=1e-14)".to_string(),
        ".end".to_string(),
    ]);
    lines.join("\n") + "\n"
}
