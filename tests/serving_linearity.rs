//! Holds the serving core linear in traffic. Each run returns
//! deterministic [`WorkCounts`] beside its report: queue entries summed
//! for routing, admission candidates examined, scheduler rows built, and
//! router views built. On an overloaded device and on a 16-device fleet,
//! each count per request must stay within ±25 % from 4k to 16k
//! requests; on a JSQ fleet it must also stay within ±25 % from 4 to 64
//! devices at the same load per device. The counts need no clock, so the
//! tests hold on any host and core count.
//!
//! A queued-token count that summed every waiting request on every
//! route would grow with the queue (about 1.3k entries per request at 4k
//! requests and 5.1k at 16k on one device) and fail here. The low point
//! is 4k rather than 1k because at 1k requests the fleet is still filling
//! its queues, so its admission candidates per request are still rising.
//! A drive that re-ran admission on every device after every step would
//! re-examine each blocked queue head once per step anywhere in the
//! fleet, and its candidates per request would grow with the width.

use mcbp::prelude::*;
use mcbp::serve::{WorkCounts, Workload};

/// MNLI-shaped prompt with 32 decoded tokens.
fn task() -> Task {
    Task::mnli().with_decode(32)
}

/// Drop-and-recompute preemption under a KV budget of eight dense
/// requests (about 26 at keep 0.3).
fn overload_cfg() -> ServeConfig {
    let budget = LlmConfig::opt1b3().kv_cache_bytes(task().final_context(), 1) * 8;
    ServeConfig {
        kv_budget_bytes: Some(budget),
        preempt: PreemptConfig {
            policy: EvictionPolicy::DropRecompute,
            ..PreemptConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Poisson arrivals, one interactive request per three batch.
fn load(count: usize, rate_rps: f64) -> Workload {
    LoadGenerator::uniform(
        task(),
        count,
        ArrivalProcess::Poisson { rate_rps, seed: 42 },
    )
    .with_classes(vec![
        RequestClass::interactive(0.5, 0.05),
        RequestClass::batch(),
        RequestClass::batch(),
        RequestClass::batch(),
    ])
    .generate()
}

/// Each work count of one run, per request, with its name.
fn per_request(work: WorkCounts, requests: usize) -> [(&'static str, f64); 4] {
    let n = requests as f64;
    [
        ("queue entries", work.queue_entries as f64 / n),
        ("admission candidates", work.admission_candidates as f64 / n),
        ("scheduler rows", work.sched_entries as f64 / n),
        ("router views", work.router_views as f64 / n),
    ]
}

/// The work counts of `count` requests at `rate_rps` on `devices`
/// JSQ-routed devices.
fn work(sim: &ServeSim<'_>, devices: usize, count: usize, rate_rps: f64) -> WorkCounts {
    let out = sim
        .run_spec(
            &load(count, rate_rps),
            RunSpec::uniform(devices, DispatchPolicy::JoinShortestQueue),
            &mut || Box::new(PriorityScheduler::new()),
        )
        .expect("valid fleet and workload");
    assert_eq!(out.report.completed + out.report.dropped, count);
    out.work
}

/// Checks that every count moves by at most 25 % from the `low` run to
/// the `high` one.
fn assert_within_a_quarter(
    setup: &str,
    [low_name, high_name]: [&str; 2],
    low: [(&str, f64); 4],
    high: [(&str, f64); 4],
) {
    for ((name, lo), (_, hi)) in low.into_iter().zip(high) {
        println!("{setup}, {name}: {lo:.2} at {low_name}, {hi:.2} at {high_name}");
        assert!(lo > 0.0, "{setup}: no {name} counted");
        assert!(
            (0.75..=1.25).contains(&(hi / lo)),
            "{setup}: {name} moved from {lo:.2} at {low_name} to {hi:.2} at {high_name}"
        );
    }
}

/// Runs 4k and then 16k requests on `devices` JSQ-routed devices at
/// `rate_rps`, and checks that every count per request moves by at most
/// 25 % between the two.
fn assert_work_per_request_is_flat(devices: usize, rate_rps: f64) {
    let engine = Engine::new(LlmConfig::opt1b3(), 7);
    let sim = engine.serve_sim(0.3, overload_cfg());
    let [low, high] =
        [4_000, 16_000].map(|count| per_request(work(&sim, devices, count, rate_rps), count));
    let setup = format!("{devices} device(s)");
    assert_within_a_quarter(&setup, ["4k requests", "16k requests"], low, high);
}

#[test]
fn one_overloaded_device_does_flat_work_per_request() {
    assert_work_per_request_is_flat(1, 40.0);
}

#[test]
fn sixteen_device_jsq_fleet_does_flat_work_per_request() {
    assert_work_per_request_is_flat(16, 640.0);
}

/// 4 and then 64 JSQ-routed devices, each offered 125 requests at 40
/// rps: admission candidates and scheduler rows per request must not
/// grow with the width. Every route sees every device, so queue entries
/// and router views per request grow with the width by design; divided by
/// it they must stay flat too.
#[test]
fn jsq_fleet_work_per_request_does_not_grow_with_width() {
    let engine = Engine::new(LlmConfig::opt1b3(), 7);
    let sim = engine.serve_sim(0.3, overload_cfg());
    let [narrow, wide] = [4, 64].map(|devices| {
        let count = 125 * devices;
        let [(_, queue), candidates, rows, (_, views)] =
            per_request(work(&sim, devices, count, 40.0 * devices as f64), count);
        let width = devices as f64;
        [
            ("queue entries per device", queue / width),
            candidates,
            rows,
            ("router views per device", views / width),
        ]
    });
    assert_within_a_quarter("JSQ fleet", ["4 devices", "64 devices"], narrow, wide);
}
