//! Integration tests of the serving subsystem over the real cycle-level
//! accelerator model: conservation, KV-budget safety, the continuous
//! batching advantage on bursty traffic, determinism (including the
//! preemption/SLO counters), and drop-and-recompute victim conservation.

use mcbp::prelude::*;
use mcbp::serve::{
    request_kv_bytes, ArrivalProcess, LoadGenerator, RequestId, RequestState, SchedEntry,
    SchedView, Scheduler, ServeConfig, StepPlan, Workload,
};

fn engine() -> Engine {
    Engine::new(LlmConfig::opt1b3(), 7)
}

fn serve_task() -> Task {
    Task::mnli().with_decode(24)
}

fn bursty(count: usize) -> Workload {
    LoadGenerator::uniform(
        serve_task(),
        count,
        ArrivalProcess::Bursty {
            rate_rps: 6.0,
            burst_factor: 10.0,
            burst_len: 8,
            seed: 21,
        },
    )
    .generate()
}

/// Conservation: every admitted request completes with exactly its task's
/// token count, under both schedulers.
#[test]
fn every_admitted_request_completes_with_exact_token_counts() {
    let engine = engine();
    let sim = engine.serve_sim(0.3, ServeConfig::default());
    let load = bursty(16);
    for (name, report) in [
        ("fcfs", sim.run(&load, &mut FcfsScheduler::new())),
        ("cb", sim.run(&load, &mut ContinuousBatchScheduler::new())),
    ] {
        assert_eq!(report.completed, 16, "{name}: all requests must complete");
        assert_eq!(report.dropped, 0, "{name}");
        assert_eq!(report.records.len(), 16, "{name}");
        for rec in &report.records {
            assert_eq!(
                rec.tokens,
                serve_task().decode_len,
                "{name}: request {}",
                rec.request.id
            );
            assert!(rec.completed_cycle >= rec.first_token_cycle, "{name}");
            assert!(rec.first_token_cycle >= rec.admitted_cycle, "{name}");
        }
    }
}

/// The KV pool's byte budget is never exceeded, either by reservations
/// (admission control) or by actual residency, even when the pool is far
/// too small for the offered concurrency.
#[test]
fn kv_pool_budget_is_never_exceeded() {
    let engine = engine();
    let model = LlmConfig::opt1b3();
    // Room for only two dense requests at a time.
    let budget = model.kv_cache_bytes(serve_task().final_context(), 1) * 2;
    let cfg = ServeConfig {
        kv_budget_bytes: Some(budget),
        ..ServeConfig::default()
    };
    let sim = engine.serve_sim(1.0, cfg);
    let report = sim.run(&bursty(12), &mut ContinuousBatchScheduler::new());
    assert_eq!(
        report.completed, 12,
        "tight pool must still drain the queue"
    );
    assert!(report.pool.peak_reserved_bytes <= report.pool.budget_bytes);
    assert!(report.pool.peak_resident_bytes <= report.pool.budget_bytes);
    assert!(
        u64::from(report.peak_concurrency as u32) <= 2,
        "{}",
        report.peak_concurrency
    );
    assert!(
        report.pool.admission_stall_seconds > 0.0,
        "a 2-wide pool must stall admission"
    );
}

/// Continuous batching sustains at least FCFS goodput on a bursty trace
/// (strictly more here: bursts pile up decode streams it can coalesce).
#[test]
fn continuous_batching_beats_fcfs_on_bursty_traffic() {
    let engine = engine();
    let sim = engine.serve_sim(0.3, ServeConfig::default());
    let load = bursty(24);
    let fcfs = sim.run(&load, &mut FcfsScheduler::new());
    let cb = sim.run(&load, &mut ContinuousBatchScheduler::new());
    assert!(
        cb.goodput_tokens_per_s > fcfs.goodput_tokens_per_s,
        "cb {} vs fcfs {}",
        cb.goodput_tokens_per_s,
        fcfs.goodput_tokens_per_s
    );
    assert!(
        cb.mean_decode_batch > 1.5,
        "bursts must actually coalesce: {}",
        cb.mean_decode_batch
    );
    assert!(
        cb.ttft.p95 <= fcfs.ttft.p95,
        "coalescing must not worsen tail TTFT here: cb {} vs fcfs {}",
        cb.ttft.p95,
        fcfs.ttft.p95
    );
}

/// Identical seeds replay bit-identically: workload generation and the
/// full serving simulation are pure functions of their seeds.
#[test]
fn identical_seeds_are_bit_identical() {
    let engine = engine();
    let sim = engine.serve_sim(0.3, ServeConfig::default());
    let a = sim.run(&bursty(12), &mut ContinuousBatchScheduler::new());
    let b = sim.run(&bursty(12), &mut ContinuousBatchScheduler::new());
    assert_eq!(a, b);
    // And a different arrival seed produces a different (but valid) run.
    let other = LoadGenerator::uniform(
        serve_task(),
        12,
        ArrivalProcess::Bursty {
            rate_rps: 6.0,
            burst_factor: 10.0,
            burst_len: 8,
            seed: 22,
        },
    )
    .generate();
    let c = sim.run(&other, &mut ContinuousBatchScheduler::new());
    assert_ne!(a.duration_seconds.to_bits(), c.duration_seconds.to_bits());
}

/// A preemption-heavy configuration: a mixed-class bursty trace on a pool
/// two dense requests wide, so interactive arrivals keep evicting
/// batch-class victims. `step_budget` switches the schedulers between the
/// phase-alternating baseline (`None`) and budgeted mixed steps — the
/// conservation and determinism guarantees must hold identically when
/// victims are mid-flight inside mixed steps.
fn preemption_heavy(policy: EvictionPolicy, step_budget: Option<usize>) -> ServeReport {
    preemption_heavy_under(policy, step_budget, &mut PriorityScheduler::new())
}

/// [`preemption_heavy`] planned by `scheduler`.
fn preemption_heavy_under(
    policy: EvictionPolicy,
    step_budget: Option<usize>,
    scheduler: &mut dyn Scheduler,
) -> ServeReport {
    let engine = engine();
    let model = LlmConfig::opt1b3();
    let keep = 0.3;
    let budget = request_kv_bytes(&model, serve_task().final_context(), 1.0) * 2;
    let cfg = ServeConfig {
        kv_budget_bytes: Some(budget),
        step_token_budget: step_budget,
        preempt: PreemptConfig {
            policy,
            ..PreemptConfig::default()
        },
        ..ServeConfig::default()
    };
    // Moderately spread bursts (factor 4, length 4): back-to-back bursts
    // would only ever evict just-admitted victims with no prefilled work
    // (free under drop-and-recompute — chunked admission makes that the
    // common case), whereas this spacing lets batch victims prefill and
    // decode before the next interactive arrival preempts them, so the
    // replay path is actually exercised.
    let load = LoadGenerator::uniform(
        serve_task(),
        16,
        ArrivalProcess::Bursty {
            rate_rps: 12.0,
            burst_factor: 4.0,
            burst_len: 4,
            seed: 21,
        },
    )
    .with_classes(vec![
        RequestClass::interactive(0.5, 0.05),
        RequestClass::batch(),
        RequestClass::batch(),
    ])
    .generate();
    engine.serve_sim(keep, cfg).run(&load, scheduler)
}

/// The same `ServeConfig` + seed run twice yields a byte-identical
/// `ServeReport`, including the preemption and SLO counters — under both
/// eviction policies, with and without budgeted mixed steps.
#[test]
fn preemptive_runs_replay_byte_identically() {
    for step_budget in [None, Some(768)] {
        for policy in [EvictionPolicy::DropRecompute, EvictionPolicy::Swap] {
            let a = preemption_heavy(policy, step_budget);
            let b = preemption_heavy(policy, step_budget);
            assert!(
                a.preempt.preemptions > 0,
                "{policy:?}/{step_budget:?}: the scenario must actually preempt"
            );
            assert_eq!(a, b, "{policy:?}/{step_budget:?}");
            // Spot-check byte identity of the float aggregates (PartialEq
            // on f64 is bitwise only up to NaN/-0.0 subtleties; these must
            // be exactly the same bits).
            assert_eq!(
                a.duration_seconds.to_bits(),
                b.duration_seconds.to_bits(),
                "{policy:?}/{step_budget:?}"
            );
            assert_eq!(
                a.slo_goodput_tokens_per_s.to_bits(),
                b.slo_goodput_tokens_per_s.to_bits(),
                "{policy:?}/{step_budget:?}"
            );
            assert_eq!(
                a.preempt.overhead_seconds().to_bits(),
                b.preempt.overhead_seconds().to_bits(),
                "{policy:?}/{step_budget:?}"
            );
        }
    }
}

/// Conservation under preemption: every drop-and-recompute victim is
/// eventually resumed and completes with exactly its task's token count;
/// nothing is lost or double-counted across evictions — including when
/// victims are mid-flight inside budgeted mixed steps.
#[test]
fn drop_recompute_victims_complete_with_exact_token_counts() {
    for step_budget in [None, Some(768)] {
        let report = preemption_heavy(EvictionPolicy::DropRecompute, step_budget);
        assert!(
            report.preempt.preemptions > 0,
            "{step_budget:?}: scenario must preempt"
        );
        assert!(
            report.records.iter().any(|r| r.preemptions > 0),
            "{step_budget:?}: some victim must have been evicted and resumed"
        );
        assert_eq!(
            report.completed + report.dropped,
            16,
            "{step_budget:?}: no request may vanish"
        );
        assert_eq!(
            report.dropped, 0,
            "{step_budget:?}: every request fits this pool"
        );
        assert_eq!(report.preempt.swap_out_bytes, 0, "drop never swaps");
        assert!(report.preempt.recompute_seconds > 0.0, "{step_budget:?}");
        if step_budget.is_some() {
            assert!(
                report.steps.mixed_steps > 0,
                "the budgeted variant must exercise mixed steps: {:?}",
                report.steps
            );
        }
        for rec in &report.records {
            assert_eq!(rec.state, RequestState::Completed);
            assert_eq!(
                rec.tokens, rec.request.decode_len,
                "{step_budget:?}: request {} (evicted {} times)",
                rec.request.id, rec.preemptions
            );
        }
        // Swap conserves too, and restores exactly what it spilled.
        let swap = preemption_heavy(EvictionPolicy::Swap, step_budget);
        assert_eq!(swap.completed, 16, "{step_budget:?}");
        assert_eq!(swap.preempt.swap_in_bytes, swap.preempt.swap_out_bytes);
        for rec in &swap.records {
            assert_eq!(rec.tokens, rec.request.decode_len);
        }
    }
}

/// Wraps a scheduler and pads each id of its plans with ids the
/// simulator must ignore: before it, an id from the other phase's view
/// and an id no request has (`u64::MAX`); after it, a repeat.
struct Padded(Box<dyn Scheduler>);

impl Scheduler for Padded {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn plan(&mut self, view: &SchedView<'_>) -> StepPlan {
        let plan = self.0.plan(view);
        let pad = |ids: &[RequestId], other_phase: &[SchedEntry]| {
            let mut padded = Vec::new();
            for (k, &id) in ids.iter().enumerate() {
                padded.extend(other_phase.get(k).map(|e| e.id));
                padded.extend([u64::MAX, id, id]);
            }
            padded
        };
        StepPlan::mixed(
            pad(&plan.prefill, view.decoding),
            pad(&plan.decode, view.waiting_prefill),
        )
    }
}

/// The plan-clamping contract: the simulator advances each planned
/// request of the planned phase once, ignores every other id, and counts
/// only members toward the coalescing width. Padding every plan with
/// ignored ids leaves a preemption-heavy run's report bit-identical,
/// under both coalescing schedulers, with and without mixed steps.
#[test]
fn ids_outside_the_phase_and_repeats_leave_the_run_bit_identical() {
    let schedulers: [fn() -> Box<dyn Scheduler>; 2] = [
        || Box::new(ContinuousBatchScheduler::new()),
        || Box::new(PriorityScheduler::new()),
    ];
    for make in schedulers {
        for step_budget in [None, Some(768)] {
            let policy = EvictionPolicy::DropRecompute;
            let plain = preemption_heavy_under(policy, step_budget, &mut *make());
            let padded = preemption_heavy_under(policy, step_budget, &mut Padded(make()));
            let case = format!("{} / {step_budget:?}", plain.scheduler);
            assert!(plain.preempt.preemptions > 0, "{case}: must preempt");
            // Debug prints every float to its exact bits (`-0.0` too).
            assert!(
                format!("{padded:?}") == format!("{plain:?}"),
                "{case}: padded plans changed the report"
            );
        }
    }
}

/// The serving experiments dispatch through the repro harness.
#[test]
fn serving_experiment_ids_dispatch() {
    use mcbp_bench::experiments;
    assert!(experiments::all_ids().contains(&"serving"));
    assert!(experiments::all_ids().contains(&"serving_capacity"));
    assert!(experiments::all_ids().contains(&"serving_slo"));
    assert!(experiments::all_ids().contains(&"serving_mixed"));
}
