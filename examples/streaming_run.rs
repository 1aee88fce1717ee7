//! Online calibration: open a streaming calibrator over a durable
//! store, feed it observation windows as they "arrive", park it, then
//! reopen and continue — and verify the streamed posterior is
//! bit-identical to a batch run over the same windows.
//!
//! Run with: `cargo run --release --example streaming_run`

use epismc::prelude::*;

fn main() {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).expect("params");

    let config = CalibrationConfig::builder()
        .n_params(160)
        .n_replicates(6)
        .resample_size(320)
        .seed(11)
        // Optional: layer covariance-scaled PMMH moves over the paper's
        // uniform jitter. The default (UniformJitter) changes nothing.
        .rejuvenation(RejuvenationKernel::Pmmh(PmmhConfig::default()))
        .build();
    let jitter_theta = vec![JitterKernel::symmetric(0.10, 0.05, 0.8)];
    let jitter_rho = JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0);
    let calibrator =
        || SequentialCalibrator::new(&simulator, config.clone(), jitter_theta.clone(), jitter_rho);

    // Fortnightly windows over the scenario horizon, arriving one at a
    // time. The stream opens with only the warm-up days before the
    // first window on hand.
    let plan = WindowPlan::paper(scenario.horizon);
    let first_day = plan.windows()[0].start;
    let warmup =
        ObservedData::cases_only(truth.observed_cases[..(first_day - 1) as usize].to_vec());

    let dir = std::env::temp_dir().join(format!("epismc-streaming-run-{}", std::process::id()));
    let store = DirStore::open(&dir).expect("open store");
    let policy = CheckpointPolicy::every_window();

    let mut stream =
        StreamingCalibrator::open(calibrator(), Priors::paper(), warmup, &store, policy)
            .expect("open stream");

    // First half of the campaign: windows arrive, each append advances
    // the SIS pass and persists the window inline before returning.
    let half = plan.len() / 2;
    for &window in &plan.windows()[..half] {
        let arriving = ObservedSeries {
            start_day: window.start,
            values: truth.observed_cases[window.start as usize - 1..window.end as usize].to_vec(),
        };
        let result = stream.append_window(&arriving).expect("append");
        let moves = result
            .rejuvenation
            .map(|s| format!(", pmmh acceptance {:.2}", s.acceptance_rate()))
            .unwrap_or_default();
        println!(
            "window {:>2} days [{:>2}, {:>2}]  theta = {:.3} +/- {:.3}{moves}",
            stream.next_window_index() - 1,
            result.window.start,
            result.window.end,
            result.posterior.mean_theta(0),
            result.posterior.sd_theta(0),
        );
    }
    drop(stream); // the process "exits" between arrivals

    // Days later: reopen from the durable store and keep going. The
    // newest snapshot carries the full calibration state; the observed
    // data seen so far rides along (the snapshot's v5 fingerprint
    // refuses to continue on silently edited history).
    let seen = plan.windows()[half - 1].end as usize;
    let mut stream = StreamingCalibrator::open(
        calibrator(),
        Priors::paper(),
        ObservedData::cases_only(truth.observed_cases[..seen].to_vec()),
        &store,
        policy,
    )
    .expect("reopen stream");
    let report = stream.resume().expect("resumed from a snapshot");
    println!(
        "reopened at window {} ({} damaged record(s) skipped)",
        report.resumed_window, report.recoveries
    );
    for &window in &plan.windows()[half..] {
        let arriving = ObservedSeries {
            start_day: window.start,
            values: truth.observed_cases[window.start as usize - 1..window.end as usize].to_vec(),
        };
        stream.append_window(&arriving).expect("append");
    }

    // The invariant: the streamed campaign is bit-identical to a batch
    // run that saw all the data up front.
    let batch = calibrator()
        .run(
            &Priors::paper(),
            &ObservedData::cases_only(truth.observed_cases.clone()),
            &plan,
        )
        .expect("batch run");
    let streamed = stream.latest_posterior().expect("streamed posterior");
    let identical = streamed
        .particles()
        .iter()
        .zip(batch.final_posterior().particles())
        .all(|(p, q)| {
            p.theta[0].to_bits() == q.theta[0].to_bits() && p.rho.to_bits() == q.rho.to_bits()
        });
    println!(
        "streaming == batch, bit for bit: {identical} (total log marginal {:.3})",
        stream.total_log_marginal()
    );
    assert!(identical);

    std::fs::remove_dir_all(&dir).ok();
}
