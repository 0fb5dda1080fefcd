//! The paper's central claim: ApproxIt guarantees final output quality
//! while single-mode approximation and the PID baseline do not.

use approxit::prelude::*;
use approxit::PidStrategy;
use iter_solvers::datasets::{gaussian_blobs, PoissonSource};
use iter_solvers::metrics::hamming_distance;
use iter_solvers::{GaussianMixture, Jacobi};

fn profile() -> EnergyProfile {
    EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
}

fn workload(seed: u64) -> (iter_solvers::datasets::ClusterDataset, GaussianMixture) {
    let data = gaussian_blobs(
        "qg",
        &[60, 60, 60],
        &[vec![0.0, 0.0], vec![4.8, 0.8], vec![1.8, 4.4]],
        &[1.05, 1.05, 1.05],
        seed,
    );
    let gmm = GaussianMixture::from_dataset(&data, 1e-7, 400, seed ^ 0xA5);
    (data, gmm)
}

#[test]
fn reconfiguration_matches_truth_across_seeds() {
    for seed in [11u64, 29, 47] {
        let (_, gmm) = workload(seed);
        let table = characterize(&gmm, &profile(), 4);
        let mut ctx = QcsContext::with_profile(profile());
        let truth = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
        assert!(truth.report.converged, "seed {seed}: truth stuck");
        let truth_labels = gmm.assignments(&truth.state);

        let strategies: Vec<Box<dyn ReconfigStrategy>> = vec![
            Box::new(IncrementalStrategy::from_characterization(&table)),
            Box::new(AdaptiveAngleStrategy::from_characterization(&table, 1)),
        ];
        for mut strategy in strategies {
            let outcome = RunConfig::new(&gmm, &mut ctx).execute(strategy.as_mut());
            assert!(
                outcome.report.converged,
                "seed {seed}: {} stuck",
                outcome.report.strategy
            );
            let qem = hamming_distance(&gmm.assignments(&outcome.state), &truth_labels, 3);
            assert_eq!(
                qem, 0,
                "seed {seed}: {} broke the quality guarantee",
                outcome.report.strategy
            );
        }
    }
}

#[test]
fn adaptive_meets_truth_quality_under_soft_errors() {
    // The guarantee must survive a realistic soft-error environment:
    // SEU rates up to 1e-3 per operation on the datapath, with the
    // resilient watchdog active. The Truth-convergence criterion is the
    // same one the clean runs are held to.
    let (_, gmm) = workload(11);
    let table = characterize(&gmm, &profile(), 4);
    let mut ctx = QcsContext::with_profile(profile());
    let truth = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
    let truth_labels = gmm.assignments(&truth.state);

    for rate in [1e-4, 1e-3] {
        let mut faulty = FaultInjector::new(QcsContext::with_profile(profile()), rate, 8, 321);
        let mut strategy = AdaptiveAngleStrategy::from_characterization(&table, 1);
        let outcome = RunConfig::new(&gmm, &mut faulty)
            .with_watchdog(WatchdogConfig::resilient())
            .execute(&mut strategy);
        assert!(
            faulty.faults_injected() > 0,
            "rate {rate}: no faults were injected"
        );
        assert!(outcome.report.converged, "rate {rate}: adaptive stuck");
        let qem = hamming_distance(&gmm.assignments(&outcome.state), &truth_labels, 3);
        assert_eq!(qem, 0, "rate {rate}: adaptive broke the quality guarantee");
    }
}

#[test]
fn level1_single_mode_breaks_quality() {
    // The contrast case: the same hardware without reconfiguration
    // produces garbage (the paper's Figure 3(e)).
    let (_, gmm) = workload(11);
    let mut ctx = QcsContext::with_profile(profile());
    let truth = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
    let truth_labels = gmm.assignments(&truth.state);
    let l1 = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::new(AccuracyLevel::Level1));
    let qem = hamming_distance(&gmm.assignments(&l1.state), &truth_labels, 3);
    assert!(qem > 0, "level1 unexpectedly matched Truth");
    // Level 1 freezes almost immediately (the truncation quantum exceeds
    // the data scale), leaving the mixture far from the optimum in
    // objective terms even when the lucky initial Voronoi cells happen
    // to cover many points.
    assert!(
        l1.report.final_objective > truth.report.final_objective + 0.1,
        "level1 objective {} vs truth {}",
        l1.report.final_objective,
        truth.report.final_objective
    );
    assert!(
        l1.report.iterations < truth.report.iterations / 2,
        "level1 should falsely stop early"
    );
}

#[test]
fn reconfiguration_never_ends_below_its_starting_accuracy() {
    let (_, gmm) = workload(29);
    let table = characterize(&gmm, &profile(), 4);
    let mut ctx = QcsContext::with_profile(profile());
    let mut strategy = IncrementalStrategy::from_characterization(&table);
    let outcome = RunConfig::new(&gmm, &mut ctx).execute(&mut strategy);
    // Incremental may only raise accuracy.
    for w in outcome.report.level_schedule.windows(2) {
        assert!(w[0] <= w[1]);
    }
    assert_eq!(
        outcome.report.level_schedule.first().copied(),
        Some(AccuracyLevel::Level1)
    );
}

#[test]
fn pid_baseline_lacks_the_guarantee_mechanisms() {
    // The PID controller has no rollback and no convergence veto: its
    // runs may stop at whatever point the plant happens to freeze. We
    // don't assert it *fails* (gains could luck out on a given dataset)
    // — we assert the structural difference: it never rolls back even
    // when the objective rises.
    let (_, gmm) = workload(47);
    let mut ctx = QcsContext::with_profile(profile());
    let mut pid = PidStrategy::default();
    let outcome = RunConfig::new(&gmm, &mut ctx).execute(&mut pid);
    assert_eq!(outcome.report.rollbacks, 0, "PID should never roll back");
}

#[test]
fn energy_accounting_cannot_be_negative_or_free() {
    let (_, gmm) = workload(11);
    let table = characterize(&gmm, &profile(), 3);
    let mut ctx = QcsContext::with_profile(profile());
    let mut strategy = AdaptiveAngleStrategy::from_characterization(&table, 1);
    let outcome = RunConfig::new(&gmm, &mut ctx).execute(&mut strategy);
    assert!(outcome.report.approx_energy > 0.0);
    assert!(outcome.report.total_energy >= outcome.report.approx_energy);
    assert!(outcome.report.energy_per_iteration.iter().all(|&e| e > 0.0));
}

#[test]
fn poisson_jacobi_reaches_truth_quality_on_the_fixed_point_datapath() {
    // On the Q15.16 datapath Truth must converge (no rounding-sustained
    // limit cycle), and both strategies must climb out of the level-1
    // zero field instead of accepting it as converged.
    let n = 15;
    let b = PoissonSource::Sine { amplitude: 8.0 }.rhs(n);
    let pde = Jacobi::new(CsrMatrix::poisson5(n, n), b, 0.9, 1e-7, 5000);
    let profile = EnergyProfile::paper_default();
    let table = characterize(&pde, &profile, 5);
    let mut ctx = QcsContext::with_profile(profile);
    let truth = RunConfig::new(&pde, &mut ctx).execute(&mut SingleMode::accurate());
    assert!(
        truth.report.converged && truth.report.iterations < 5000,
        "truth stuck after {} sweeps",
        truth.report.iterations
    );

    let strategies: Vec<Box<dyn ReconfigStrategy>> = vec![
        Box::new(IncrementalStrategy::from_characterization(&table)),
        Box::new(AdaptiveAngleStrategy::from_characterization(&table, 1)),
    ];
    for mut strategy in strategies {
        let outcome = RunConfig::new(&pde, &mut ctx).execute(strategy.as_mut());
        let name = &outcome.report.strategy;
        assert!(outcome.report.converged, "{name} stuck");
        let deviation = outcome
            .state
            .iter()
            .zip(&truth.state)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            deviation <= 1e-3,
            "{name}: deviation {deviation} from Truth after {} sweeps",
            outcome.report.iterations
        );
    }
}
