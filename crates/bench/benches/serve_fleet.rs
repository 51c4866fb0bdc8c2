//! Fleet-drive micro-benchmark: wall time of a 16-device open-loop
//! burst simulation on the sequential reference drive versus the
//! parallel scoped-worker drive. Besides the criterion timings, a
//! custom `main` writes `BENCH_serving_fleet.json` next to the target
//! directory with the measured wall times, the speedup, the host's
//! available parallelism, and a bit-exactness flag so CI can track the
//! subsystem's headline numbers as data. (On a single-core runner the
//! speedup is ≤1 by construction — the JSON records what was actually
//! measured; no test or experiment asserts a speedup.)

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use mcbp::prelude::*;
use mcbp::serve::{DispatchPolicy, Request, Workload};

const SEED: u64 = 0x4d43_4250;
const DEVICES: usize = 16;

/// Open-loop burst: every request due at cycle 0, so the fleet drains
/// in one parallel phase (the shape that isolates per-device stepping).
fn burst(count: u64) -> Workload {
    let task = Task::mnli().with_decode(32);
    Workload {
        requests: (0..count)
            .map(|i| Request::from_task(i, &task, 0.0))
            .collect(),
        closed_loop: None,
    }
}

fn mk() -> impl FnMut() -> Box<dyn mcbp::serve::Scheduler> {
    || Box::new(ContinuousBatchScheduler::new()) as Box<dyn mcbp::serve::Scheduler>
}

fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .clamp(2, DEVICES)
}

fn bench_fleet(c: &mut Criterion) {
    let engine = Engine::new(LlmConfig::opt1b3(), SEED);
    let seq_sim = engine.serve_sim(0.3, ServeConfig::default());
    let par_sim = engine.serve_sim(
        0.3,
        ServeConfig {
            fleet_workers: Some(workers()),
            ..ServeConfig::default()
        },
    );
    let load = burst(192);
    let fleet = vec![DeviceProfile::uniform(); DEVICES];
    let policy = DispatchPolicy::JoinShortestQueue;

    let mut group = c.benchmark_group("serve_fleet");
    group.sample_size(10);
    group.bench_function("sequential_drive", |b| {
        b.iter(|| seq_sim.run_fleet_profiles(&load, &fleet, policy, &mut mk()))
    });
    group.bench_function("parallel_drive", |b| {
        b.iter(|| par_sim.run_fleet_profiles(&load, &fleet, policy, &mut mk()))
    });
    group.finish();
}

criterion_group!(benches, bench_fleet);

/// One headline measurement, dumped as JSON for CI trend tracking.
fn write_summary() {
    let engine = Engine::new(LlmConfig::opt1b3(), SEED);
    let n_workers = workers();
    let seq_sim = engine.serve_sim(0.3, ServeConfig::default());
    let par_sim = engine.serve_sim(
        0.3,
        ServeConfig {
            fleet_workers: Some(n_workers),
            ..ServeConfig::default()
        },
    );
    let load = burst(384);
    let fleet = vec![DeviceProfile::uniform(); DEVICES];
    let policy = DispatchPolicy::JoinShortestQueue;

    // Warm the cost caches so the timed runs compare stepping cost.
    let warm = burst(DEVICES as u64);
    let _ = seq_sim.run_fleet_profiles(&warm, &fleet, policy, &mut mk());
    let _ = par_sim.run_fleet_profiles(&warm, &fleet, policy, &mut mk());

    let t0 = Instant::now();
    let seq = seq_sim.run_fleet_profiles(&load, &fleet, policy, &mut mk());
    let seq_wall_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let par = par_sim.run_fleet_profiles(&load, &fleet, policy, &mut mk());
    let par_wall_s = t1.elapsed().as_secs_f64();
    assert_eq!(seq, par, "parallel fleet drive diverged from sequential");

    let cores: usize = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        concat!(
            "{{\"experiment\":\"serving_fleet\",",
            "\"devices\":{},\"requests\":{},\"workers\":{},\"host_cores\":{},",
            "\"seq_wall_s\":{},\"par_wall_s\":{},\"speedup\":{},",
            "\"steps\":{},\"bit_exact\":true}}"
        ),
        DEVICES,
        load.requests.len(),
        n_workers,
        cores,
        seq_wall_s,
        par_wall_s,
        seq_wall_s / par_wall_s.max(1e-12),
        seq.steps.steps,
    );
    std::fs::write("BENCH_serving_fleet.json", &json).expect("write summary");
    println!("wrote BENCH_serving_fleet.json: {json}");
}

fn main() {
    benches();
    write_summary();
}
