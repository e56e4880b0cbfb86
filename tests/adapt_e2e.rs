//! Adaptive-controller end-to-end guarantees.
//!
//! Three pins that keep the adaptive and predicted executors honest:
//!
//! 1. **Adaptation off is the static machine, bit for bit.** Every
//!    script in the golden corpus replays identically — same outcome,
//!    same timeline, exact float equality, no tolerance — through
//!    `run_adaptive_traced` with the controller disabled.
//! 2. **A predictor that never fires is the static machine too.** At
//!    recall 0 (hence no false alarms either) both predicted executors
//!    reproduce `run_to_completion`'s outcome on every script, overlaps
//!    of failures and outages included.
//! 3. **The censored MLE converges** at the `1/√n` rate its CI claims:
//!    across independent exponential failure streams the estimate
//!    lands within a z-scaled standard error of the true MTBF.

use dck::model::{ControllerConfig, EstimatorConfig, MtbfEstimator, PredictorSpec};
use dck::sim::{
    run_adaptive_predicted_to_completion, run_adaptive_traced, run_predicted_to_completion,
    run_to_completion, run_to_completion_traced, AdaptiveRunConfig,
};
use dck::simcore::RngFactory;
use dck_testkit::load_cases;
use rand::Rng;

#[test]
fn adaptation_off_is_bit_identical_across_the_golden_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let cases = load_cases(&dir).expect("load golden corpus");
    assert!(
        cases.len() >= 10,
        "corpus unexpectedly small: {} scripts",
        cases.len()
    );
    for case in &cases {
        let compiled = case.script.compile().expect(&case.name);
        let (expected, expected_tl) = run_to_completion_traced(
            &compiled.config,
            compiled.work,
            &mut compiled.trace.replay(),
        )
        .expect(&case.name);
        let adaptive = AdaptiveRunConfig {
            base: compiled.config,
            // A wildly wrong prior must not matter when adaptation is
            // off.
            prior_mtbf: compiled.config.mtbf * 100.0,
            controller: ControllerConfig {
                enabled: false,
                ..ControllerConfig::default()
            },
        };
        let (out, tl) = run_adaptive_traced(&adaptive, compiled.work, &mut compiled.trace.replay())
            .expect(&case.name);
        // Exact equality — the disabled adaptive path delegates to the
        // static machine, so even the last bit must agree.
        assert_eq!(out.run, expected, "outcome diverged on {}", case.name);
        assert_eq!(tl, expected_tl, "timeline diverged on {}", case.name);
        assert_eq!(out.retunes, 0, "{}", case.name);
    }
}

#[test]
fn zero_recall_prediction_is_the_static_machine_across_the_golden_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let cases = load_cases(&dir).expect("load golden corpus");
    let predictor = PredictorSpec::new(1.0, 0.0, 60.0);
    for (i, case) in cases.iter().enumerate() {
        let compiled = case.script.compile().expect(&case.name);
        let expected = run_to_completion(
            &compiled.config,
            compiled.work,
            &mut compiled.trace.replay(),
        )
        .expect(&case.name);
        let rng = || RngFactory::new(0x5EED).component_stream("predictor", i as u64);
        let predicted = run_predicted_to_completion(
            &compiled.config,
            &predictor,
            compiled.work,
            &mut compiled.trace.replay(),
            &mut rng(),
        )
        .expect(&case.name);
        assert_eq!(
            predicted.run, expected,
            "predicted diverged on {}",
            case.name
        );
        assert_eq!(predicted.alarms, 0, "{}", case.name);
        // Controller live but gated: it observes every failure and
        // never retunes.
        let gated = AdaptiveRunConfig {
            base: compiled.config,
            prior_mtbf: compiled.config.mtbf,
            controller: ControllerConfig {
                min_failures: u64::MAX,
                predictor: Some(predictor),
                ..ControllerConfig::default()
            },
        };
        let adaptive = run_adaptive_predicted_to_completion(
            &gated,
            compiled.work,
            &mut compiled.trace.replay(),
            &mut rng(),
        )
        .expect(&case.name);
        assert_eq!(
            adaptive.run, expected,
            "adaptive predicted diverged on {}",
            case.name
        );
        assert_eq!(adaptive.retunes, 0, "{}", case.name);
    }
}

#[test]
fn censored_mle_converges_at_the_ci_rate() {
    let mtbf = 1800.0;
    let n = 400usize;
    // Relative standard error of the exponential-MTBF MLE is 1/√n;
    // judge each stream against 4 standard errors (P(miss) ~ 6e-5 per
    // stream) and the ensemble mean against 2 (independent streams
    // shrink it by √streams).
    let se = mtbf / (n as f64).sqrt();
    let streams = 8u64;
    let mut errors = Vec::new();
    for s in 0..streams {
        let mut rng = RngFactory::new(0xE57).component_stream("mle", s);
        let mut est = MtbfEstimator::new(EstimatorConfig::default()).unwrap();
        let mut t = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() * mtbf;
            est.record_failure(t).unwrap();
        }
        let fit = est.estimate(t).unwrap().expect("n > 0");
        assert_eq!(fit.failures, n as u64);
        assert!(
            (fit.mtbf - mtbf).abs() < 4.0 * se,
            "stream {s}: estimate {} vs true {mtbf} (4se = {})",
            fit.mtbf,
            4.0 * se
        );
        errors.push(fit.mtbf - mtbf);
    }
    let mean_err = errors.iter().sum::<f64>() / streams as f64;
    assert!(
        mean_err.abs() < 2.0 * se / (streams as f64).sqrt(),
        "ensemble bias {mean_err} exceeds 2 pooled standard errors"
    );
}
