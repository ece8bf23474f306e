//! Bit-level goldens for every learning path.
//!
//! `tests/parallel.rs` proves that one build agrees with itself across
//! thread counts; these digests pin the numbers themselves. A change to
//! the network kernels, the optimizers, the gradient guard or the
//! planner that moves a single bit of any outcome fails here, on every
//! agent that trains a network:
//!
//! * the trust-region agent and the three model-free baselines on a 3-D
//!   bowl, clean and under 30% injected simulator faults;
//! * the framework on a two-corner bowl, which plans through
//!   `McPlanner::propose_multi`;
//! * the PVT engine under each corner strategy on a five-corner bowl,
//!   out of budget and run to success;
//! * the trust-region agent warm-started from a finished run's center
//!   and model (Table II's porting hand-off), and from a warm center of
//!   the wrong dimension;
//! * a push/fit/predict sequence on the SPICE approximator that drives
//!   the gradient guard through its clipping and non-finite paths;
//! * the model-free agents' policy and value heads, and a ReLU network,
//!   trained step by step. A campaign outcome is a coarse summary (a
//!   grid point and a few counters), so these pin the weights
//!   themselves.
//!
//! Each expected value is the FNV-1a digest of the outcome's `{:?}` with
//! every float replaced by its IEEE-754 bit pattern, so the digests do
//! not depend on how the toolchain formats floats. Re-pin one only for a
//! deliberate change of the numerics, and say so where the change is
//! recorded.

use asdex::baselines::rl::{A2c, Policy, Ppo, Trpo, ValueNet};
use asdex::core::{
    Framework, FrameworkConfig, LocalExplorer, PvtExplorer, PvtStrategy, SpiceApproximator,
    WarmStart,
};
use asdex::env::circuits::synthetic::Bowl;
use asdex::env::{
    fnv1a, FaultConfig, FaultInjectingEvaluator, PvtCorner, PvtSet, SearchBudget, Searcher,
    SizingProblem,
};
use asdex::nn::{mse_output_grad, Activation, Adam, Mlp, Optimizer, Sgd};
use asdex_rng::rngs::StdRng;
use asdex_rng::SeedableRng;
use std::fmt::Debug;
use std::sync::Arc;

/// `debug` with every float literal replaced by the 16-hex-digit bit
/// pattern it parses to. Rust prints a float with the fewest digits that
/// parse back to the same bits, so the rewrite is exact; integers, `NaN`
/// and `inf` pass through unchanged.
fn floats_as_bits(debug: &str) -> String {
    let b = debug.as_bytes();
    let mut out = String::with_capacity(debug.len());
    let mut i = 0;
    while i < b.len() {
        let after_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        let digit_at = |k: usize| k < b.len() && b[k].is_ascii_digit();
        if !after_ident && (digit_at(i) || (b[i] == b'-' && digit_at(i + 1))) {
            let mut j = i + 1;
            while j < b.len()
                && (b[j].is_ascii_digit()
                    || b[j] == b'.'
                    || b[j] == b'e'
                    || (b[j] == b'-' && b[j - 1] == b'e'))
            {
                j += 1;
            }
            let token = &debug[i..j];
            if token.contains(['.', 'e']) {
                let v: f64 = token.parse().expect("a float literal");
                out.push_str(&format!("{:016x}", v.to_bits()));
            } else {
                out.push_str(token);
            }
            i = j;
        } else {
            out.push(char::from(b[i]));
            i += 1;
        }
    }
    out
}

fn digest(value: &impl Debug) -> u64 {
    fnv1a(&floats_as_bits(&format!("{value:?}")))
}

/// The 3-D bowl of `tests/parallel.rs`, optionally under deterministic
/// fault injection.
fn bowl(faults: Option<FaultConfig>) -> SizingProblem {
    let mut p = Bowl::problem(3, 0.2).expect("bowl builds");
    if let Some(config) = faults {
        p.evaluator = Arc::new(FaultInjectingEvaluator::new(p.evaluator.clone(), config));
    }
    p
}

/// Runs `agent` on the bowl at budget 300, seed 1, and returns the
/// outcome's digest.
fn campaign(mut agent: Box<dyn Searcher>, faults: Option<FaultConfig>) -> u64 {
    digest(&agent.search(&bowl(faults), SearchBudget::new(300), 1))
}

fn agents() -> Vec<(&'static str, Box<dyn Searcher>)> {
    vec![
        ("trm", Box::new(LocalExplorer::default())),
        ("a2c", Box::new(A2c::new())),
        ("ppo", Box::new(Ppo::new())),
        ("trpo", Box::new(Trpo::new())),
    ]
}

fn assert_digests(got: &[(&str, u64)], want: &[(&str, u64)]) {
    let show = |d: &[(&str, u64)]| {
        d.iter().map(|(n, v)| format!("(\"{n}\", 0x{v:016x})")).collect::<Vec<_>>().join(", ")
    };
    assert_eq!(show(got), show(want), "learning-path digests moved");
}

// PPO and TRPO start from the same networks and first rollout. On the
// clean bowl nothing after their first updates moves the best point or
// a counter, so their digests coincide; the faulted runs and the
// network-heads golden tell their updates apart.
#[test]
fn agents_on_a_clean_bowl_match_their_goldens() {
    let got: Vec<_> = agents().into_iter().map(|(n, a)| (n, campaign(a, None))).collect();
    assert_digests(
        &got,
        &[
            ("trm", 0xfb1c_f53e_e5dd_1f33),
            ("a2c", 0x9540_5ec3_e14b_8c58),
            ("ppo", 0x54c8_b0af_a056_65d7),
            ("trpo", 0x54c8_b0af_a056_65d7),
        ],
    );
}

#[test]
fn agents_under_faults_match_their_goldens() {
    let got: Vec<_> = agents()
        .into_iter()
        .map(|(n, a)| (n, campaign(a, Some(FaultConfig::new(0.3, 7)))))
        .collect();
    assert_digests(
        &got,
        &[
            ("trm", 0xc3cc_7a04_a581_a8a2),
            ("a2c", 0x4d59_23e1_e609_2348),
            ("ppo", 0x1381_eaf9_2947_2556),
            ("trpo", 0xaba8_dbaa_3d7f_2df9),
        ],
    );
}

#[test]
fn two_corner_framework_matches_its_golden() {
    // The two-corner bowl of the framework's multi-corner routing test.
    let mut problem = Bowl::problem(2, 0.25).expect("bowl builds");
    problem.corners = PvtSet::new(vec![
        PvtCorner::nominal(),
        PvtCorner { temp_celsius: 70.0, ..PvtCorner::nominal() },
    ]);
    let out = Framework::new(FrameworkConfig::default(), 2).search(&problem).expect("runs");
    assert!(!out.ledger.is_empty(), "the campaign went through the PVT path");
    assert_digests(&[("framework", digest(&out))], &[("framework", 0x30bf_ff8a_f288_2cdd)]);
}

/// The five-corner bowl of the PVT engine's unit tests (nominal plus four
/// temperatures): one hard pair of corners pulling in opposite directions
/// plus three mild ones.
fn five_corner_bowl() -> SizingProblem {
    let mut p = Bowl::problem(3, 0.2).expect("bowl builds");
    p.corners = PvtSet::new(
        [27.0, 120.0, -60.0, 60.0, -20.0]
            .into_iter()
            .map(|t| PvtCorner { temp_celsius: t, ..PvtCorner::nominal() })
            .collect(),
    );
    p
}

// At budget 40 brute force and the hardest-corner start run out, with
// every probe batch admitted whole, and the random start succeeds; at
// 5000 all three succeed.
#[test]
fn pvt_strategies_on_the_five_corner_bowl_match_their_goldens() {
    let problem = five_corner_bowl();
    let mut got = Vec::new();
    for (name, strategy) in [
        ("brute-force", PvtStrategy::BruteForce),
        ("progressive-random", PvtStrategy::ProgressiveRandom),
        ("progressive-hardest", PvtStrategy::ProgressiveHardest),
    ] {
        for budget in [40, 5000] {
            let out = PvtExplorer::new(strategy).run(&problem, SearchBudget::new(budget), 3);
            got.push((name, digest(&out)));
        }
    }
    assert_digests(
        &got,
        &[
            ("brute-force", 0x4429_eba5_26d9_ac9a),
            ("brute-force", 0x1cfa_025a_37ed_f7c7),
            ("progressive-random", 0x900a_7164_ddb0_5498),
            ("progressive-random", 0x900a_7164_ddb0_5498),
            ("progressive-hardest", 0xb40f_eb57_ea55_392d),
            ("progressive-hardest", 0x1d13_7ac3_5a14_a117),
        ],
    );
}

#[test]
fn warm_started_explorer_matches_its_golden() {
    // Table II's porting hand-off: a finished run's center and model seed
    // a run on a tighter bowl. The finished run's outcome is the "trm"
    // golden above; its artifacts are pinned here.
    let agent = LocalExplorer::default();
    let (_, cold) = agent.run(&bowl(None), 0, SearchBudget::new(300), 1, &WarmStart::default());
    let warm = WarmStart { center: Some(cold.center.clone()), model: Some(cold.model.clone()) };
    let tight = Bowl::problem(3, 0.1).expect("bowl builds");
    let ported = agent.run(&tight, 0, SearchBudget::new(300), 2, &warm);
    assert!(ported.0.simulations > 1, "the ported run searches past its warm center");
    let dry = agent.run(&tight, 0, SearchBudget::new(3), 2, &warm);
    assert!(!dry.0.success, "three simulations are not enough");
    // A warm center of the wrong dimension falls back to mid-grid.
    let wrong = WarmStart { center: Some(vec![0.4; 5]), model: None };
    let fallback = agent.run(&bowl(None), 0, SearchBudget::new(300), 5, &wrong);
    assert_eq!(fallback.0.stats.snap_fallbacks, 1);
    assert_digests(
        &[
            ("cold", digest(&cold)),
            ("ported", digest(&ported)),
            ("dry", digest(&dry)),
            ("fallback", digest(&fallback)),
        ],
        &[
            ("cold", 0x92fd_21f4_8260_cefd),
            ("ported", 0x00c2_9569_da23_df1f),
            ("dry", 0x6d91_9914_abc1_c69d),
            ("fallback", 0xc5d2_5b3b_178f_0407),
        ],
    );
}

#[test]
fn approximator_sequence_through_the_guard_matches_its_golden() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = SpiceApproximator::new(3, 2, 12, 0.003, &mut rng);
    let point = |k: usize| {
        let t = k as f64 / 17.0;
        vec![t, (3.0 * t).sin() * 0.5 + 0.5, 1.0 - t * t]
    };
    let measure = |x: &[f64]| vec![1e4 * (x[0] - x[1] * x[2]), -1e-3 * x[1].exp()];
    let mut record = Vec::new();
    let clean = |model: &mut SpiceApproximator, record: &mut Vec<String>, from: usize| {
        for k in from..from + 9 {
            let x = point(k);
            let y = measure(&x);
            model.push(x, y);
        }
        // 40 epochs over the window take Adam past the step where its
        // first-moment bias correction rounds to exactly 1.
        model.fit(40);
        record.push(format!("{:?}", model.last_fit()));
        record.push(format!("{:?} {:?}", model.predict(&point(3)), model.weights()));
    };
    clean(&mut model, &mut record, 0);

    // Large weights: every gradient is finite but far over the guard's
    // ceiling, so the fit clips.
    let n = model.weights().len();
    let big: Vec<f64> = (0..n).map(|k| if k % 3 == 0 { -40.0 } else { 55.0 }).collect();
    model.set_weights(&big);
    model.fit(2);
    let clipped = model.last_fit();
    record.push(format!("{clipped:?} {:?}", model.weights()));

    // Huge weights: the backward pass overflows, so the fit skips
    // non-finite updates.
    let huge: Vec<f64> = (0..n).map(|k| if k % 2 == 0 { 1e160 } else { -3e159 }).collect();
    model.set_weights(&huge);
    model.fit(1);
    let nonfinite = model.last_fit();
    record.push(format!("{nonfinite:?}"));

    // Back to sane weights: the optimizer resets and training resumes.
    model.set_weights(&big.iter().map(|w| w * 1e-3).collect::<Vec<_>>());
    model.reset_optimizer();
    model.reset_health();
    clean(&mut model, &mut record, 9);

    assert!(clipped.clipped > 0, "the large-weight fit must clip: {clipped:?}");
    assert!(
        nonfinite.nonfinite > 0,
        "the huge-weight fit must see non-finite updates: {nonfinite:?}"
    );
    assert_digests(
        &[("approximator", digest(&record))],
        &[("approximator", 0xc649_c2a0_b375_b3c1)],
    );
}

#[test]
fn network_heads_train_to_their_golden() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut policy = Policy::new(4, 2, 16, &mut rng);
    let mut value = ValueNet::new(4, 16, &mut rng);
    let mut relu = Mlp::new(&[4, 9, 3], Activation::Relu, &mut rng);
    let (mut policy_opt, mut value_opt) = (Adam::new(3e-3), Sgd::with_momentum(1e-2, 0.9));
    let mut relu_opt = Sgd::new(5e-2);
    let obs = |k: usize| -> Vec<f64> {
        (0..4).map(|i| ((k * 5 + i * 3) % 7) as f64 / 3.0 - 1.0).collect()
    };
    let mut record = Vec::new();
    for step in 0..60 {
        let (o, o2) = (obs(step), obs(step + 1));
        let old_logits = policy.logits(&o2);
        let mut g = policy.policy_gradient(&o, &[step % 3, (step / 3) % 3], 0.7, 0.01);
        g.add(&policy.kl_gradient(&o2, &old_logits));
        g.scale(0.5);
        policy_opt.step(policy.net_mut(), g.flat());
        let vg = value.td_gradient(&o, (step % 5) as f64 * 0.25);
        value_opt.step(value.net_mut(), vg.flat());
        let trace = relu.forward_trace(&o);
        let target = [o[0] - o[1], o[2] * 0.5, -o[3]];
        let rg = relu.backward(&trace, &mse_output_grad(trace.output(), &target));
        relu_opt.step(&mut relu, rg.flat());
        if step % 20 == 19 {
            record.push(format!("{:?} {:?}", g.input_grad, rg.input_grad));
        }
    }
    record.push(format!("{:?}", policy.flat_params()));
    record.push(format!("{:?}", value.flat_params()));
    record.push(format!("{:?} {:?}", relu.flat_params(), relu.forward(&obs(3))));
    assert_digests(&[("heads", digest(&record))], &[("heads", 0xf5f4_b56b_3ba5_2e31)]);
}

#[test]
fn float_rewrite_is_exact_and_leaves_other_tokens_alone() {
    let s = format!("{:?}", (0.1f64, -0.0f64, 1e-310f64, 3usize, f64::NAN, -f64::INFINITY, "x2"));
    assert_eq!(
        floats_as_bits(&s),
        format!(
            "({:016x}, {:016x}, {:016x}, 3, NaN, -inf, \"x2\")",
            0.1f64.to_bits(),
            (-0.0f64).to_bits(),
            1e-310f64.to_bits()
        )
    );
}
