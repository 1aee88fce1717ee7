//! Regenerates the paper's **HPC claims** (Sections I and III-B):
//!
//! 1. **Strong scaling** — one calibration window's trajectory ensemble is
//!    embarrassingly parallel; wall time vs thread count.
//! 2. **Checkpoint savings** — restarting window `m` from a checkpoint
//!    costs O(window) simulation days, while replaying from day 0 costs
//!    O(elapsed); the gap grows with epidemic length.

use epibench::{row, section, Args};
use epidata::{generate_ground_truth, io::Table};
use epismc_core::simulator::{CovidSimulator, TrajectorySimulator};
use epismc_core::sis::{ObservedData, Priors, SingleWindowIs};
use epismc_core::window::TimeWindow;
use std::time::Instant;

fn main() {
    // Scaling runs use a smaller grid by default so each point is quick.
    let defaults = Args {
        n_params: 300,
        n_replicates: 8,
        resample_size: 500,
        ..Args::default()
    };
    let args = Args::parse("scaling", defaults);
    let scenario = args.scenario();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params.clone()).expect("params");
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let window = TimeWindow::new(20, 33);

    // --- 1. Strong scaling. ---
    section("strong scaling of one SIS window");
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let mut thread_counts = vec![1usize];
    while *thread_counts.last().unwrap() * 2 <= max_threads {
        thread_counts.push(thread_counts.last().unwrap() * 2);
    }
    println!(
        "ensemble: {} x {} trajectories to day {}, machine has {max_threads} cores",
        args.n_params, args.n_replicates, window.end
    );
    let widths = [8, 10, 10, 12];
    println!(
        "{}",
        row(
            &["threads", "time_s", "speedup", "efficiency%"].map(String::from),
            &widths
        )
    );
    let mut base_time = 0.0f64;
    let mut scaling_rows: Vec<[f64; 4]> = Vec::new();
    for &t in &thread_counts {
        let mut cfg = args.config();
        cfg.threads = Some(t);
        let driver = SingleWindowIs::new(&simulator, cfg);
        let start = Instant::now();
        let res = driver
            .run(&Priors::paper(), &observed, window)
            .expect("calibration");
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(res.posterior.len());
        if t == 1 {
            base_time = secs;
        }
        let speedup = base_time / secs;
        let eff = 100.0 * speedup / t as f64;
        println!(
            "{}",
            row(
                &[
                    format!("{t}"),
                    format!("{secs:.2}"),
                    format!("{speedup:.2}"),
                    format!("{eff:.0}"),
                ],
                &widths
            )
        );
        scaling_rows.push([t as f64, secs, speedup, eff]);
    }

    // --- 2. Checkpoint restart vs full replay. ---
    section("checkpoint restart vs replay-from-day-0");
    // Continue a single trajectory across successive windows both ways and
    // time the simulation cost per window.
    let theta = vec![0.3];
    let reps = 40u64;
    let widths = [12, 14, 12, 9];
    println!(
        "{}",
        row(
            &["window_end", "checkpoint_ms", "replay_ms", "savings"].map(String::from),
            &widths
        )
    );
    let mut ck_rows: Vec<[f64; 4]> = Vec::new();
    let boundaries = [33u32, 47, 61, 90, 120, 180];
    for (i, &end) in boundaries.iter().enumerate().skip(1) {
        let prev = boundaries[i - 1];
        // Checkpoint path: run to prev once, then time continuations.
        let (_, ck) = simulator.run_fresh(&theta, 1, prev).expect("run");
        let start = Instant::now();
        for r in 0..reps {
            std::hint::black_box(simulator.run_from(&ck, &theta, r, end).expect("run"));
        }
        let ck_ms = start.elapsed().as_secs_f64() * 1000.0 / reps as f64;
        // Replay path: from day 0 to end each time.
        let start = Instant::now();
        for r in 0..reps {
            std::hint::black_box(simulator.run_fresh(&theta, r, end).expect("run"));
        }
        let replay_ms = start.elapsed().as_secs_f64() * 1000.0 / reps as f64;
        let savings = replay_ms / ck_ms.max(1e-9);
        println!(
            "{}",
            row(
                &[
                    format!("{end}"),
                    format!("{ck_ms:.2}"),
                    format!("{replay_ms:.2}"),
                    format!("{savings:.1}x"),
                ],
                &widths
            )
        );
        ck_rows.push([end as f64, ck_ms, replay_ms, savings]);
    }
    println!(
        "(savings grow with elapsed epidemic length: checkpoint cost is O(window), replay is O(elapsed))"
    );

    let scale_table = Table::from_pairs(vec![
        ("threads", scaling_rows.iter().map(|r| r[0]).collect()),
        ("seconds", scaling_rows.iter().map(|r| r[1]).collect()),
        ("speedup", scaling_rows.iter().map(|r| r[2]).collect()),
        (
            "efficiency_pct",
            scaling_rows.iter().map(|r| r[3]).collect(),
        ),
    ]);
    let p1 = args.out_dir.join("scaling_threads.csv");
    scale_table.write_csv(&p1).expect("write csv");

    let ck_table = Table::from_pairs(vec![
        ("window_end", ck_rows.iter().map(|r| r[0]).collect()),
        ("checkpoint_ms", ck_rows.iter().map(|r| r[1]).collect()),
        ("replay_ms", ck_rows.iter().map(|r| r[2]).collect()),
        ("savings_factor", ck_rows.iter().map(|r| r[3]).collect()),
    ]);
    let p2 = args.out_dir.join("scaling_checkpoint.csv");
    ck_table.write_csv(&p2).expect("write csv");
    println!("\nwrote {} and {}", p1.display(), p2.display());
}
