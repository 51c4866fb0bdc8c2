//! Integration tests for the deterministic parallel fleet drive on the
//! real cycle-level engine: `ServeConfig::fleet_workers` must be pure
//! execution strategy — every dispatch policy, heterogeneous fleet,
//! preemption regime, prefix-reuse pattern, and closed-loop population
//! must produce the bit-exact `ServeReport` *and* `RunTrace` of the
//! sequential reference — plus regressions for the fleet-merge
//! aggregation fixes that ride along (busy-span-weighted pool means).

use mcbp::prelude::*;
use mcbp::serve::{
    ArrivalProcess, DeviceView, DispatchPolicy, LoadGenerator, PreemptConfig, RequestClass, Router,
    ServeConfig, Workload,
};
use mcbp::workloads::Derated;

fn engine() -> Engine {
    Engine::new(LlmConfig::opt1b3(), 7)
}

fn bursty_trace(count: usize, seed: u64, prefix: Option<SharedPrefix>) -> Workload {
    LoadGenerator {
        task_mix: vec![Task::mnli().with_decode(24), Task::cola().with_decode(24)],
        class_mix: vec![RequestClass::interactive(0.5, 0.05), RequestClass::batch()],
        prefix_mix: vec![prefix],
        count,
        process: ArrivalProcess::Bursty {
            rate_rps: 24.0,
            burst_factor: 8.0,
            burst_len: 8,
            seed,
        },
    }
    .generate()
}

fn mk() -> impl FnMut() -> Box<dyn mcbp::serve::Scheduler> {
    || Box::new(PriorityScheduler::new()) as Box<dyn mcbp::serve::Scheduler>
}

/// The acceptance matrix: all five dispatch policies, on a uniform and a
/// mixed-generation fleet, under pool pressure (preemption) and shared
/// prefixes, traced — the parallel drive must reproduce the sequential
/// reference bit for bit, for two worker counts.
#[test]
fn parallel_drive_matches_sequential_across_policies_and_fleets() {
    let engine = engine();
    let model = LlmConfig::opt1b3();
    let task_ctx = Task::mnli().with_decode(24).final_context();
    // Tight enough that admission stalls and preemption actually occur.
    let budget = model.kv_cache_bytes(task_ctx, 1) * 3;
    let base = ServeConfig {
        kv_budget_bytes: Some(budget),
        preempt: PreemptConfig::default(),
        ..ServeConfig::default()
    };
    let old_gen = Derated::new(engine.simulator(), 3.0);
    let load = bursty_trace(28, 11, Some(SharedPrefix::new(4, 192)));
    for workers in [2usize, 3] {
        let seq_sim = engine.serve_sim(0.3, base.clone());
        let par_sim = engine.serve_sim(
            0.3,
            ServeConfig {
                fleet_workers: Some(workers),
                ..base.clone()
            },
        );
        for policy in DispatchPolicy::ALL {
            for hetero in [false, true] {
                let fleet = if hetero {
                    vec![
                        DeviceProfile::uniform().with_throughput(3.0),
                        DeviceProfile::uniform()
                            .with_accel(&old_gen)
                            .with_throughput(1.0),
                        DeviceProfile::uniform().with_throughput(3.0),
                    ]
                } else {
                    vec![DeviceProfile::uniform(); 3]
                };
                let (seq, seq_trace) =
                    seq_sim.run_fleet_profiles_traced(&load, &fleet, policy, &mut mk());
                let (par, par_trace) =
                    par_sim.run_fleet_profiles_traced(&load, &fleet, policy, &mut mk());
                assert_eq!(
                    seq, par,
                    "{policy:?} hetero={hetero} workers={workers}: report diverged"
                );
                assert_eq!(
                    seq_trace, par_trace,
                    "{policy:?} hetero={hetero} workers={workers}: trace diverged"
                );
                assert_eq!(seq.completed + seq.dropped, 28);
            }
        }
    }
}

/// Closed-loop fleets serialize their release-coupled phase and
/// parallelize the drain tail; either way the population accounting and
/// the full report/trace must match the sequential loop exactly.
#[test]
fn parallel_drive_matches_sequential_on_closed_loop_fleets() {
    let engine = engine();
    let load = LoadGenerator::uniform(
        Task::mnli().with_decode(24),
        18,
        ArrivalProcess::ClosedLoop { concurrency: 6 },
    )
    .generate();
    let seq_sim = engine.serve_sim(0.3, ServeConfig::default());
    let par_sim = engine.serve_sim(
        0.3,
        ServeConfig {
            fleet_workers: Some(3),
            ..ServeConfig::default()
        },
    );
    for policy in [
        DispatchPolicy::JoinShortestQueue,
        DispatchPolicy::RoundRobin,
    ] {
        let fleet = vec![DeviceProfile::uniform(); 3];
        let (seq, seq_trace) = seq_sim.run_fleet_profiles_traced(&load, &fleet, policy, &mut mk());
        let (par, par_trace) = par_sim.run_fleet_profiles_traced(&load, &fleet, policy, &mut mk());
        assert_eq!(seq, par, "{policy:?}: closed-loop report diverged");
        assert_eq!(
            seq_trace, par_trace,
            "{policy:?}: closed-loop trace diverged"
        );
        assert_eq!(seq.completed, 18);
    }
}

/// Pins a request id to a device: everything to device 0 except the
/// first and last requests, which go to device 1 — so device 1 serves
/// briefly, idles across most of the run, and fast-forwards to the final
/// arrival.
struct PinRouter {
    last: u64,
}

impl Router for PinRouter {
    fn name(&self) -> &str {
        "pin"
    }

    fn route(&mut self, request: &mcbp::serve::Request, _fleet: &[DeviceView]) -> usize {
        usize::from(request.id == 0 || request.id == self.last)
    }
}

/// The busy-span aggregation fix: a device that idles through most of
/// the run must (a) report a mean residency over its *serving* windows,
/// not a mean diluted by the idle gap its clock fast-forwarded across,
/// and (b) carry only its busy span as weight in the fleet mean. The
/// report exposes `busy_span_seconds` so the fleet identity is checkable
/// from the outside.
#[test]
fn fleet_pool_mean_weights_devices_by_busy_span_not_clock_span() {
    let engine = engine();
    let sim = engine.serve_sim(0.3, ServeConfig::default());
    let load = LoadGenerator {
        task_mix: vec![Task::mnli().with_decode(24)],
        class_mix: vec![RequestClass::batch()],
        prefix_mix: vec![None],
        count: 14,
        process: ArrivalProcess::Poisson {
            rate_rps: 12.0,
            seed: 9,
        },
    }
    .generate();
    let mut router = PinRouter {
        last: load.requests.len() as u64 - 1,
    };
    let fleet = vec![DeviceProfile::uniform(); 2];
    let report = sim
        .run_spec(&load, RunSpec::routed(&fleet, &mut router), &mut mk())
        .expect("valid fleet run")
        .report;
    assert_eq!(report.completed, 14);
    let d0 = &report.devices[0].pool;
    let d1 = &report.devices[1].pool;
    // Device 1 served two requests with a long fast-forwarded idle gap in
    // between: its busy span is a small fraction of the run.
    assert!(
        d1.busy_span_seconds < 0.5 * report.duration_seconds,
        "device 1 should be mostly idle: busy {} of {}",
        d1.busy_span_seconds,
        report.duration_seconds
    );
    // Its mean residency reflects the windows it was actually serving —
    // an idle-diluted mean would be a sliver of the peak.
    assert!(
        d1.mean_resident_bytes > 0.3 * d1.peak_resident_bytes as f64,
        "idle gap must not dilute the device mean: mean {} vs peak {}",
        d1.mean_resident_bytes,
        d1.peak_resident_bytes
    );
    // Fleet aggregates: the busy span adds, and the fleet mean is each
    // device's mean weighted by its busy span over the fleet span.
    assert_eq!(
        report.pool.busy_span_seconds,
        d0.busy_span_seconds + d1.busy_span_seconds
    );
    let expect = (d0.mean_resident_bytes * d0.busy_span_seconds
        + d1.mean_resident_bytes * d1.busy_span_seconds)
        / report.duration_seconds;
    let err = (report.pool.mean_resident_bytes - expect).abs();
    assert!(
        err <= 1e-6 * expect.max(1.0),
        "fleet mean must be busy-span weighted: {} vs {}",
        report.pool.mean_resident_bytes,
        expect
    );
}

/// The fleet peak concurrency is a true simultaneous peak: with every
/// request pinned to alternating devices at low offered rate, per-device
/// peaks of 1 at different instants must not add up.
#[test]
fn fleet_peak_concurrency_is_not_a_sum_of_device_peaks() {
    let engine = engine();
    let sim = engine.serve_sim(0.3, ServeConfig::default());
    // One request at a time, globally: closed loop with concurrency 1.
    let load = LoadGenerator::uniform(
        Task::cola().with_decode(16),
        8,
        ArrivalProcess::ClosedLoop { concurrency: 1 },
    )
    .generate();
    let report = sim
        .run_spec(
            &load,
            RunSpec::uniform(3, DispatchPolicy::RoundRobin),
            &mut mk(),
        )
        .expect("valid fleet run")
        .report;
    assert_eq!(report.completed, 8);
    // Every device served work, so the old per-device-peak sum would
    // report 3; only one request is ever in flight.
    assert!(report.devices.iter().all(|d| d.dispatched > 0));
    assert_eq!(report.peak_concurrency, 1);
}
