//! Integration tests for the two PR-3 serving features on the real
//! cycle-level model: chunked prefill (TTFT protection behind long
//! prompts, partial-replay accounting) and per-device fleet dispatch
//! (conservation and pool safety under join-shortest-queue).

use mcbp::prelude::*;
use mcbp::serve::{
    request_kv_bytes, ArrivalProcess, DispatchPolicy, LoadGenerator, Request, RequestState,
    Scheduler, ServeConfig, Workload,
};

const CLOCK_HZ: f64 = 1e9;

fn engine() -> Engine {
    Engine::new(LlmConfig::opt1b3(), 7)
}

fn unchunked() -> ServeConfig {
    ServeConfig {
        prefill_chunk: None,
        ..ServeConfig::default()
    }
}

/// A short interactive request arriving while an 8k-token batch prompt is
/// prefilling. With monolithic prefill the interactive prompt waits for
/// the whole 8k invocation; with 512-token chunks (and the priority
/// scheduler) its own prefill cuts in at the next chunk boundary, so its
/// TTFT improves by roughly the remaining prefill length.
#[test]
fn chunked_prefill_cuts_interactive_ttft_behind_long_prompt() {
    let engine = engine();
    let long = Request::from_task(0, &Task::dolly().with_decode(8), 0.0);
    let run = |cfg: ServeConfig, arrival: f64| {
        let sim = engine.serve_sim(0.3, cfg);
        let short = Request::from_task(1, &Task::cola().with_decode(8), arrival)
            .with_priority(Priority::Interactive);
        let w = Workload {
            requests: vec![long.clone(), short],
            closed_loop: None,
        };
        sim.run(&w, &mut PriorityScheduler::new())
    };
    // Land the arrival mid-prefill: two and a half chunks into the 8k
    // prompt (the chunk duration comes from the cost model itself, so the
    // test does not hard-code cycle figures).
    let probe = engine.serve_sim(0.3, ServeConfig::default());
    let arrival = 2.5 * probe.cost_model().prefill_cost(512, 1).cycles;
    let chunked = run(ServeConfig::default(), arrival);
    let mono = run(unchunked(), arrival);
    assert_eq!(chunked.completed, 2);
    assert_eq!(mono.completed, 2);
    let ttft = |r: &mcbp::serve::ServeReport| {
        r.records
            .iter()
            .find(|rec| rec.request.priority == Priority::Interactive)
            .expect("interactive record")
            .ttft_cycles()
    };
    assert!(
        ttft(&chunked) * 4.0 < ttft(&mono),
        "chunked TTFT {} must be far below unchunked {} (the interactive \
         prompt must not wait out the whole 8k prefill)",
        ttft(&chunked),
        ttft(&mono)
    );
    // The long prompt still completes with its full token count.
    assert!(chunked
        .records
        .iter()
        .all(|rec| rec.tokens == rec.request.decode_len));
}

/// A drop-and-recompute victim evicted mid-prefill replays only the
/// chunks it had completed — the unprefilled remainder is first-time
/// work, not replay — whereas an unchunked victim (evictable only after
/// its monolithic prefill) replays the entire prompt.
#[test]
fn mid_prefill_drop_replays_only_completed_chunks() {
    let engine = engine();
    let model = LlmConfig::opt1b3();
    let keep = 0.3;
    let victim_task = Task::dolly().with_decode(8);
    // The pool fits the 8k victim xor the interactive request.
    let budget = request_kv_bytes(&model, victim_task.final_context(), keep) + 4096;
    let run = |chunk: Option<usize>, arrival: f64| {
        let cfg = ServeConfig {
            kv_budget_bytes: Some(budget),
            prefill_chunk: chunk,
            preempt: PreemptConfig::drop_recompute(),
            ..ServeConfig::default()
        };
        let sim = engine.serve_sim(keep, cfg);
        let victim = Request::from_task(0, &victim_task, 0.0);
        let interactive = Request::from_task(1, &Task::cola().with_decode(4), arrival)
            .with_priority(Priority::Interactive);
        let w = Workload {
            requests: vec![victim, interactive],
            closed_loop: None,
        };
        sim.run(&w, &mut PriorityScheduler::new())
    };
    let probe = engine.serve_sim(keep, ServeConfig::default());
    let chunk_cycles = probe.cost_model().prefill_cost(512, 1).cycles;
    let full_prefill_s = probe.cost_model().prefill_cost(8192, 1).cycles / CLOCK_HZ;
    // Mid-third-chunk arrival: the eviction lands at a chunk boundary with
    // exactly 3 of 16 chunks completed.
    let partial = run(Some(512), 2.5 * chunk_cycles);
    assert_eq!(partial.completed, 2);
    assert!(partial.preempt.preemptions >= 1, "contention must evict");
    assert!(
        partial.preempt.recompute_seconds > 0.0,
        "completed chunks must replay"
    );
    assert!(
        partial.preempt.recompute_seconds < 0.5 * full_prefill_s,
        "replay {} s must cover only the ~3 completed chunks, not the whole \
         8k prefill ({} s)",
        partial.preempt.recompute_seconds,
        full_prefill_s
    );
    // Unchunked control: eviction can only land after the monolithic
    // prefill, so the entire prompt replays.
    let full = run(None, 2.5 * chunk_cycles);
    assert!(full.preempt.preemptions >= 1);
    assert!(
        full.preempt.recompute_seconds > 0.9 * full_prefill_s,
        "unchunked replay {} s must re-run the whole prefill ({} s)",
        full.preempt.recompute_seconds,
        full_prefill_s
    );
    assert!(
        partial.preempt.recompute_seconds < 0.5 * full.preempt.recompute_seconds,
        "partial replay {} vs full replay {}",
        partial.preempt.recompute_seconds,
        full.preempt.recompute_seconds
    );
    // Conservation: the victim still decodes every token.
    for rec in &partial.records {
        assert_eq!(rec.tokens, rec.request.decode_len);
    }
}

/// Per-device pool conservation under join-shortest-queue dispatch: every
/// request lands on exactly one device, every device honors its own
/// budget, and nothing is lost or double-served.
#[test]
fn jsq_fleet_conserves_requests_and_per_device_budgets() {
    let engine = engine();
    let model = LlmConfig::opt1b3();
    let task = Task::mnli().with_decode(24);
    // Each device's pool holds two dense requests.
    let budget = model.kv_cache_bytes(task.final_context(), 1) * 2;
    let cfg = ServeConfig {
        kv_budget_bytes: Some(budget),
        ..ServeConfig::default()
    };
    let sim = engine.serve_sim(1.0, cfg);
    let load = LoadGenerator::uniform(
        task.clone(),
        24,
        ArrivalProcess::Bursty {
            rate_rps: 18.0,
            burst_factor: 6.0,
            burst_len: 6,
            seed: 21,
        },
    )
    .generate();
    let mut mk: Box<dyn FnMut() -> Box<dyn Scheduler>> =
        Box::new(|| Box::new(ContinuousBatchScheduler::new()));
    let report = sim
        .run_spec(
            &load,
            RunSpec::uniform(3, DispatchPolicy::JoinShortestQueue),
            &mut mk,
        )
        .expect("valid fleet run")
        .report;
    assert_eq!(report.devices.len(), 3);
    // Conservation: 24 requests in, 24 records out, ids unique and served
    // exactly once.
    assert_eq!(report.completed + report.dropped, 24);
    assert_eq!(report.dropped, 0, "every request fits a device pool");
    let mut ids: Vec<u64> = report.records.iter().map(|r| r.request.id).collect();
    ids.dedup();
    assert_eq!(ids.len(), 24, "no request may vanish or be double-served");
    for rec in &report.records {
        assert_eq!(rec.state, RequestState::Completed);
        assert_eq!(rec.tokens, task.decode_len, "request {}", rec.request.id);
    }
    // Per-device invariants: dispatch covers the workload and every pool
    // stays within its own budget.
    let dispatched: usize = report.devices.iter().map(|d| d.dispatched).sum();
    let completed: usize = report.devices.iter().map(|d| d.completed).sum();
    assert_eq!(dispatched, 24);
    assert_eq!(completed, 24);
    for lane in &report.devices {
        assert_eq!(lane.pool.budget_bytes, budget, "per-device budget");
        assert!(lane.pool.peak_reserved_bytes <= lane.pool.budget_bytes);
        assert!(lane.pool.peak_resident_bytes <= lane.pool.budget_bytes);
        assert!(
            lane.dispatched >= 1,
            "JSQ must spread a 24-request burst over all 3 devices"
        );
    }
    // Fleet goodput must beat one device serving the same trace alone.
    let single = sim.run(&load, &mut ContinuousBatchScheduler::new());
    assert!(
        report.goodput_tokens_per_s > single.goodput_tokens_per_s,
        "fleet {} vs single {}",
        report.goodput_tokens_per_s,
        single.goodput_tokens_per_s
    );
}

/// Fleet runs replay bit-identically, per policy, and different policies
/// produce genuinely different assignments on skewed traffic.
#[test]
fn fleet_dispatch_is_deterministic_per_policy() {
    let engine = engine();
    let cfg = ServeConfig::default();
    let sim = engine.serve_sim(0.3, cfg);
    // Alternate long and short requests so load-aware policies diverge
    // from round-robin (which would pin all the long ones to one device).
    let load = LoadGenerator {
        task_mix: vec![Task::dolly().with_decode(8), Task::cola().with_decode(8)],
        class_mix: vec![mcbp::serve::RequestClass::batch()],
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
    }
}
