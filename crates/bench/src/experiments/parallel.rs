//! Parallel fleet-drive experiment: drive a 16-device fleet through an
//! open-loop burst (every arrival due at cycle 0, so the run is one
//! dispatch fixpoint followed by one fleet-wide drain phase), once
//! stepping one device at a time and once on the scoped worker pool, and
//! prove the pool is **pure execution strategy**: the `ServeReport` and
//! the recorded `RunTrace` are asserted bit-equal.
//!
//! The wall-clock speedup is reported, never asserted: it depends on the
//! host's free cores and load, not on the simulator's correctness. The
//! `serve_fleet` bench tracks it as data.

use std::time::Instant;

use mcbp::prelude::*;
use mcbp::serve::{DispatchPolicy, Request, Workload};

use crate::{render_table, SEED, STANDARD_KEEP};

const DEVICES: usize = 16;
const REQUESTS: u64 = 384;

/// Open-loop burst: every request due at cycle 0. The whole workload
/// dispatches in the initial fixpoint and the fleet drains in one
/// parallel phase — the shape that isolates per-device stepping cost.
fn burst() -> Workload {
    let task = Task::mnli().with_decode(32);
    let requests = (0..REQUESTS)
        .map(|i| Request::from_task(i, &task, 0.0))
        .collect();
    Workload {
        requests,
        closed_loop: None,
    }
}

fn mk() -> impl FnMut() -> Box<dyn mcbp::serve::Scheduler> {
    || Box::new(ContinuousBatchScheduler::new()) as Box<dyn mcbp::serve::Scheduler>
}

/// One-step vs worker-pool fleet drive: bit-exact reports and traces,
/// with the wall-clock speedup reported.
#[must_use]
pub fn serving_parallel() -> String {
    let engine = Engine::new(LlmConfig::opt1b3(), SEED);
    let load = burst();
    let fleet = vec![DeviceProfile::uniform(); DEVICES];
    let policy = DispatchPolicy::JoinShortestQueue;
    let cores: usize = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = cores.clamp(2, DEVICES);

    let seq_sim = engine.serve_sim(STANDARD_KEEP, ServeConfig::default());
    let par_sim = engine.serve_sim(
        STANDARD_KEEP,
        ServeConfig {
            fleet_workers: Some(workers),
            ..ServeConfig::default()
        },
    );

    // Warm both cost caches on a small prefix of the load so the timed
    // runs compare stepping, not first-touch cost modelling.
    let warm = Workload {
        requests: load.requests[..DEVICES.min(load.requests.len())].to_vec(),
        closed_loop: None,
    };
    let _ = seq_sim.run_fleet_profiles(&warm, &fleet, policy, &mut mk());
    let _ = par_sim.run_fleet_profiles(&warm, &fleet, policy, &mut mk());

    let t0 = Instant::now();
    let seq = seq_sim.run_fleet_profiles(&load, &fleet, policy, &mut mk());
    let seq_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let par = par_sim.run_fleet_profiles(&load, &fleet, policy, &mut mk());
    let par_s = t1.elapsed().as_secs_f64();

    assert_eq!(seq, par, "parallel fleet drive diverged from sequential");
    assert_eq!(seq.completed, REQUESTS as usize);

    // The traced runs must agree event for event as well.
    let (seq_traced, seq_trace) =
        seq_sim.run_fleet_profiles_traced(&load, &fleet, policy, &mut mk());
    let (par_traced, par_trace) =
        par_sim.run_fleet_profiles_traced(&load, &fleet, policy, &mut mk());
    assert_eq!(seq_traced, seq, "tracing must be a pure observer");
    assert_eq!(seq_traced, par_traced);
    assert_eq!(seq_trace, par_trace, "parallel trace diverged");

    let speedup = seq_s / par_s.max(1e-12);
    let rows = vec![
        vec![
            "sequential".into(),
            "1".into(),
            format!("{:.1}", seq_s * 1e3),
            "1.00".into(),
        ],
        vec![
            "parallel".into(),
            format!("{workers}"),
            format!("{:.1}", par_s * 1e3),
            format!("{speedup:.2}"),
        ],
    ];
    let mut out = render_table(
        &format!(
            "Parallel fleet drive: {DEVICES} devices, {REQUESTS}-request burst, {policy:?} \
             (report + trace bit-exact)"
        ),
        &["drive", "workers", "wall ms", "speedup"],
        &rows,
    );
    out.push_str(&format!(
        "\nspeedup {speedup:.2}x with {workers} workers on {cores} cores \
         (reported, not asserted)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The experiment's asserts are the acceptance criteria; running it
    /// end-to-end is the test.
    #[test]
    fn serving_parallel_is_bit_exact() {
        let out = serving_parallel();
        assert!(out.contains("bit-exact"));
    }
}
