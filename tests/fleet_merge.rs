//! Regressions for the fleet merge on the real cycle-level engine: the
//! pool residency mean weights each device by its busy span, and the
//! fleet peak concurrency is a true simultaneous peak.

use mcbp::prelude::*;
use mcbp::serve::{
    ArrivalProcess, DeviceView, DispatchPolicy, LoadGenerator, RequestClass, Router, ServeConfig,
};

fn engine() -> Engine {
    Engine::new(LlmConfig::opt1b3(), 7)
}

fn mk() -> impl FnMut() -> Box<dyn mcbp::serve::Scheduler> {
    || Box::new(PriorityScheduler::new()) as Box<dyn mcbp::serve::Scheduler>
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
