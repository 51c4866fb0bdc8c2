//! Integration tests for budgeted mixed prefill+decode steps on the real
//! cycle-level model: decode streams keep advancing through long
//! prefills, preemption stays conservation-correct when a victim is
//! mid-flight inside a mixed step, and budgeted fleet runs stay
//! deterministic and conserving.

use mcbp::prelude::*;
use mcbp::serve::{
    request_kv_bytes, ArrivalProcess, DispatchPolicy, LoadGenerator, Request, RequestClass,
    Scheduler, ServeConfig, ServeReport, Workload,
};

const CLOCK_HZ: f64 = 1e9;

fn engine() -> Engine {
    Engine::new(LlmConfig::opt1b3(), 7)
}

fn budgeted(budget: usize) -> ServeConfig {
    ServeConfig {
        step_token_budget: Some(budget),
        ..ServeConfig::default()
    }
}

/// A batch-class decode stream rides through an 8k prefill: with a step
/// budget its tokens piggyback on every chunk step (mixed steps), so its
/// inter-token gap during the prefill shrinks versus the alternating
/// baseline — and nothing about completion counts or token totals moves.
#[test]
fn piggybacked_decodes_advance_through_a_long_prefill() {
    let engine = engine();
    // The stream prefills first, then the 8k prompt arrives and chunks.
    let stream = Request::from_task(0, &Task::mnli().with_decode(48), 0.0);
    let probe = engine.serve_sim(0.3, ServeConfig::default());
    let long_arrival = 2.0 * probe.cost_model().prefill_cost(512, 1).cycles;
    let long = Request::from_task(1, &Task::dolly().with_decode(8), long_arrival);
    let w = Workload {
        requests: vec![stream, long],
        closed_loop: None,
    };
    let run = |cfg: ServeConfig| {
        engine
            .serve_sim(0.3, cfg)
            .run(&w, &mut ContinuousBatchScheduler::new())
    };
    let mixed = run(budgeted(1024));
    let alternating = run(ServeConfig::default());
    for r in [&mixed, &alternating] {
        assert_eq!(r.completed, 2);
        for rec in &r.records {
            assert_eq!(rec.tokens, rec.request.decode_len);
        }
    }
    assert!(
        mixed.steps.mixed_steps > 0,
        "chunk steps must carry piggybacked decodes: {:?}",
        mixed.steps
    );
    assert_eq!(alternating.steps.mixed_steps, 0);
    let stream_tpot = |r: &ServeReport| {
        r.records
            .iter()
            .find(|rec| rec.request.id == 0)
            .expect("stream record")
            .tpot_cycles()
    };
    assert!(
        stream_tpot(&mixed) < stream_tpot(&alternating),
        "piggybacking must cut the stream's TPOT: {} vs {} cycles",
        stream_tpot(&mixed),
        stream_tpot(&alternating)
    );
}

/// The mid-mixed-step preemption scenario: an 8k batch prompt chunks
/// through mixed steps (a decode stream piggybacking on every chunk)
/// until an interactive arrival evicts it mid-prefill under
/// drop-and-recompute. The victim's cursor is whatever the last mixed
/// step left behind, so its resume must replay exactly the completed
/// chunks — not the whole 8k prompt — and every request must still
/// complete with its full token count.
fn mixed_preemption_run(engine: &Engine) -> ServeReport {
    let model = LlmConfig::opt1b3();
    let keep = 0.3;
    let stream_task = Task::mnli().with_decode(64);
    let victim_task = Task::dolly().with_decode(8);
    // Room for the decode stream and the 8k victim, but the interactive
    // arrival only fits after evicting the (younger) victim.
    let budget = request_kv_bytes(&model, stream_task.final_context(), keep)
        + request_kv_bytes(&model, victim_task.final_context(), keep)
        + 4096;
    let cfg = ServeConfig {
        kv_budget_bytes: Some(budget),
        preempt: PreemptConfig::drop_recompute(),
        ..budgeted(768)
    };
    let sim = engine.serve_sim(keep, cfg);
    let probe = engine.serve_sim(keep, ServeConfig::default());
    let chunk_cycles = probe.cost_model().prefill_cost(512, 1).cycles;
    let stream = Request::from_task(0, &stream_task, 0.0);
    let victim = Request::from_task(1, &victim_task, 1.0e6);
    let interactive =
        Request::from_task(2, &Task::cola().with_decode(4), 1.0e6 + 3.5 * chunk_cycles)
            .with_priority(Priority::Interactive);
    let w = Workload {
        requests: vec![stream, victim, interactive],
        closed_loop: None,
    };
    sim.run(&w, &mut PriorityScheduler::new())
}

#[test]
fn mixed_step_victim_replays_only_completed_chunks() {
    let engine = engine();
    let report = mixed_preemption_run(&engine);
    assert_eq!(report.completed, 3);
    assert_eq!(report.dropped, 0);
    assert!(
        report.steps.mixed_steps > 0,
        "the victim must have chunked through mixed steps: {:?}",
        report.steps
    );
    assert!(report.preempt.preemptions >= 1, "contention must evict");
    let victim = report
        .records
        .iter()
        .find(|rec| rec.request.id == 1)
        .expect("victim record");
    assert!(victim.preemptions >= 1, "the 8k prompt was the victim");
    // Partial replay: far below a full 8k prefill's worth of recompute.
    let probe = engine.serve_sim(0.3, ServeConfig::default());
    let full_prefill_s = probe.cost_model().prefill_cost(8192, 1).cycles / CLOCK_HZ;
    assert!(
        report.preempt.recompute_seconds > 0.0,
        "completed chunks must replay"
    );
    assert!(
        report.preempt.recompute_seconds < 0.5 * full_prefill_s,
        "replay {} s must cover only the completed chunks, not the whole \
         8k prefill ({} s)",
        report.preempt.recompute_seconds,
        full_prefill_s
    );
    // Conservation: every request decodes every token exactly once.
    for rec in &report.records {
        assert_eq!(rec.tokens, rec.request.decode_len);
    }
    // And the whole scenario replays byte-identically.
    assert_eq!(report, mixed_preemption_run(&engine));
}

/// Budgeted fleet runs: per-device mixed-step accounting merges into the
/// fleet report, requests are conserved across devices, and every policy
/// replays bit-identically with a budget configured.
#[test]
fn budgeted_fleet_runs_conserve_and_replay() {
    let engine = engine();
    let sim = engine.serve_sim(0.3, budgeted(1024));
    let load = LoadGenerator {
        task_mix: vec![Task::dolly().with_decode(8), Task::mnli().with_decode(24)],
        class_mix: vec![RequestClass::batch()],
        prefix_mix: vec![None],
        count: 12,
        process: ArrivalProcess::Poisson {
            rate_rps: 40.0,
            seed: 9,
        },
    }
    .generate();
    for policy in DispatchPolicy::ALL {
        let mut mk: Box<dyn FnMut() -> Box<dyn Scheduler>> =
            Box::new(|| Box::new(ContinuousBatchScheduler::new()));
        let mut run = || {
            sim.run_spec(&load, RunSpec::uniform(2, policy), &mut mk)
                .expect("valid fleet run")
                .report
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "{policy:?} must replay bit-identically");
        assert_eq!(a.completed, 12, "{policy:?}");
        assert!(a.steps.mixed_steps > 0, "{policy:?}: {:?}", a.steps);
        // The fleet aggregate is the sum of the device lanes.
        let lane_steps: u64 = a.devices.iter().map(|d| d.steps.steps).sum();
        let lane_mixed: u64 = a.devices.iter().map(|d| d.steps.mixed_steps).sum();
        assert_eq!(a.steps.steps, lane_steps, "{policy:?}");
        assert_eq!(a.steps.mixed_steps, lane_mixed, "{policy:?}");
        assert!(a.steps.mean_budget_utilization > 0.0, "{policy:?}");
        assert!(a.steps.mean_budget_utilization <= 1.0, "{policy:?}");
    }
}
