//! Layer probes, run only in the traced run, each on inputs the
//! workload itself produced: a final-posterior particle's checkpoint
//! restored under the workload's model (`epistats::dist`,
//! `episim::engine`), and the workload's newest snapshot record
//! (`epismc::persist::format`). Each probe is one span.

use std::hint::black_box;
use std::ops::Range;

use episim::covid::{CovidModel, CovidParams};
use episim::engine::{BinomialChainStepper, CompiledSpec, StepScratch, Stepper};
use epismc_core::persist::format;
use epistats::dist::HazardSampler;
use epistats::rng::Xoshiro256PlusPlus;

use crate::trace::{self, Kind};
use crate::workloads::ProbeInput;

/// Time each probe gets.
const BUDGET_NS: u64 = 250_000_000;

/// Days advanced per stepper repetition (one paper window).
const DAYS_PER_REP: u32 = 14;

/// Probe results; the format probes read 0 for a workload without a
/// store.
pub struct Probes {
    pub draw_ns: f64,
    pub day_ns: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
}

pub fn run(input: &ProbeInput) -> Result<Probes, String> {
    let model = CovidModel::new(CovidParams {
        transmission_rate: input.theta[0],
        ..input.params.clone()
    })?;
    let compiled = CompiledSpec::new(model.spec()).map_err(|e| e.to_string())?;
    let (encode, decode) = match &input.record {
        Some(record) => (
            spanned(2, || encode_ms(record))?,
            spanned(3, || decode_ms(record))?,
        ),
        None => (0.0, 0.0),
    };
    Ok(Probes {
        draw_ns: spanned(0, || draw_ns(input, &compiled))?,
        day_ns: spanned(1, || day_ns(input, &compiled))?,
        encode_ms: encode,
        decode_ms: decode,
    })
}

fn spanned(id: u32, probe: impl FnOnce() -> Result<f64, String>) -> Result<f64, String> {
    let start = trace::now();
    let out = probe();
    trace::record(Kind::Probe, start, trace::now(), id, 0);
    out
}

/// Repeat `rep` until the budget is spent; `rep` returns the CPU
/// nanoseconds it measured ([`trace::cpu_now`], so hypervisor steal does
/// not enter) and the units of work it did.
fn repeat(mut rep: impl FnMut(u64) -> Result<(u64, u64), String>) -> Result<f64, String> {
    let started = trace::now();
    let (mut nanos, mut units) = (0u64, 0u64);
    let mut i = 0;
    while i < 3 || trace::now() - started < BUDGET_NS {
        let (n, u) = rep(i)?;
        nanos += n;
        units += u;
        i += 1;
    }
    Ok(nanos as f64 / units as f64)
}

/// `HazardSampler::draw_many` over the restored stage counts, one batch
/// per progression with the chain stepper's daily exit probability:
/// nanoseconds per draw.
fn draw_ns(input: &ProbeInput, compiled: &CompiledSpec) -> Result<f64, String> {
    let state = input
        .checkpoint
        .restore(&compiled.spec)
        .map_err(|e| e.to_string())?;
    let batches: Vec<(HazardSampler, Range<usize>)> = compiled
        .spec
        .progressions
        .iter()
        .zip(&compiled.stage_rates)
        .map(|(p, &rate)| {
            let hazard = -(-rate).exp_m1();
            (
                HazardSampler::new(hazard),
                compiled.offsets[p.from]..compiled.offsets[p.from + 1],
            )
        })
        .collect();
    let per_rep: usize = batches.iter().map(|(_, r)| r.len()).sum();
    let mut out = vec![0u64; state.stage_counts.len()];
    let mut rng = Xoshiro256PlusPlus::new(input.checkpoint.rng_state[0]);
    repeat(|_| {
        let start = trace::cpu_now();
        for _ in 0..1_000 {
            for (sampler, range) in &batches {
                sampler.draw_many(
                    &mut rng,
                    black_box(&state.stage_counts[range.clone()]),
                    &mut out[range.clone()],
                );
            }
            black_box(&out);
        }
        Ok((trace::cpu_now() - start, 1_000 * per_rep as u64))
    })
}

/// `Stepper::advance_day` with the simulator's daily chain-binomial
/// stepper from the restored checkpoint: nanoseconds per simulated day.
fn day_ns(input: &ProbeInput, compiled: &CompiledSpec) -> Result<f64, String> {
    let stepper = BinomialChainStepper::daily();
    let mut state = input
        .checkpoint
        .restore(&compiled.spec)
        .map_err(|e| e.to_string())?;
    let mut flows = vec![0u64; compiled.spec.flows.len()];
    let mut scratch = StepScratch::new();
    repeat(|rep| {
        input
            .checkpoint
            .restore_into_with_seed(&compiled.spec, &mut state, rep)
            .map_err(|e| e.to_string())?;
        let start = trace::cpu_now();
        for _ in 0..DAYS_PER_REP {
            stepper.advance_day(compiled, &mut state, &mut flows, &mut scratch);
        }
        black_box(&state);
        Ok((trace::cpu_now() - start, u64::from(DAYS_PER_REP)))
    })
}

/// `encode_record` on the decoded newest record: milliseconds per encode.
fn encode_ms(record: &[u8]) -> Result<f64, String> {
    let snap = format::decode_record(record).map_err(|e| e.to_string())?;
    let ns = repeat(|_| {
        let start = trace::cpu_now();
        black_box(format::encode_record(black_box(&snap)));
        Ok((trace::cpu_now() - start, 1))
    })?;
    Ok(ns * 1e-6)
}

/// `decode_record` on the newest record: milliseconds per decode.
fn decode_ms(record: &[u8]) -> Result<f64, String> {
    let ns = repeat(|_| {
        let start = trace::cpu_now();
        let snap = format::decode_record(black_box(record)).map_err(|e| e.to_string())?;
        black_box(snap);
        Ok((trace::cpu_now() - start, 1))
    })?;
    Ok(ns * 1e-6)
}
