//! Integration tests for the heterogeneous-fleet / prefix-routing layer
//! on the real cycle-level model: uniform [`DeviceProfile`] fleets must
//! reproduce the classic uniform fleet bit-exactly, mixed-generation
//! profiles must route work where it drains fastest, and cross-request
//! prefix reuse must cut prefill work without losing a byte of pool
//! accounting.

use mcbp::prelude::*;
use mcbp::serve::{
    ArrivalProcess, DispatchPolicy, LoadGenerator, Request, ServeConfig, ServeConfigError, Workload,
};
use mcbp::workloads::Derated;

fn engine() -> Engine {
    Engine::new(LlmConfig::opt1b3(), 7)
}

fn skewed_trace(count: usize, seed: u64) -> Workload {
    LoadGenerator {
        task_mix: vec![Task::mnli().with_decode(32), Task::cola().with_decode(32)],
        class_mix: vec![RequestClass::batch()],
        prefix_mix: vec![None],
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

/// The acceptance regression: a fleet of N uniform profiles — including
/// profiles that *explicitly* restate the simulator's own accelerator,
/// keep ratio, and budget (exercising the per-device owned cost model) —
/// reproduces the classic uniform fleet bit-exactly for every
/// pre-existing dispatch policy.
#[test]
fn uniform_profiles_reproduce_run_fleet_bit_exactly() {
    let engine = engine();
    let model = LlmConfig::opt1b3();
    let budget = model.kv_cache_bytes(Task::mnli().with_decode(32).final_context(), 1) * 4;
    let cfg = ServeConfig {
        kv_budget_bytes: Some(budget),
        ..ServeConfig::default()
    };
    let sim = engine.serve_sim(0.3, cfg);
    let load = skewed_trace(24, 11);
    let mut mk = || Box::new(ContinuousBatchScheduler::new()) as Box<dyn mcbp::serve::Scheduler>;
    for policy in [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::JoinShortestQueue,
        DispatchPolicy::LeastLoadedPool,
    ] {
        let classic = sim
            .run_spec(&load, RunSpec::uniform(3, policy), &mut mk)
            .expect("valid fleet run")
            .report;
        let uniform = vec![DeviceProfile::uniform(); 3];
        let profiled = sim.run_fleet_profiles(&load, &uniform, policy, &mut mk);
        assert_eq!(
            classic, profiled,
            "{policy:?}: uniform profiles must be bit-exact"
        );
        // Explicit overrides equal to the inherited values take the
        // owned-cost-model path and must still agree bit for bit.
        let explicit = vec![
            DeviceProfile::uniform()
                .with_accel(engine.simulator())
                .with_keep(0.3)
                .with_kv_budget(budget);
            3
        ];
        let owned = sim.run_fleet_profiles(&load, &explicit, policy, &mut mk);
        assert_eq!(
            classic, owned,
            "{policy:?}: explicit uniform overrides must be bit-exact"
        );
    }
}

/// Weighted JSQ with unit throughput weights is plain JSQ: identical
/// per-request routing, so identical records and device lanes (only the
/// report's policy label differs).
#[test]
fn weighted_jsq_degenerates_to_jsq_on_a_uniform_fleet() {
    let engine = engine();
    let sim = engine.serve_sim(0.3, ServeConfig::default());
    let load = skewed_trace(24, 13);
    let mut mk = || Box::new(ContinuousBatchScheduler::new()) as Box<dyn mcbp::serve::Scheduler>;
    let mut run = |policy| {
        sim.run_spec(&load, RunSpec::uniform(2, policy), &mut mk)
            .expect("valid fleet run")
            .report
    };
    let jsq = run(DispatchPolicy::JoinShortestQueue);
    let wjsq = run(DispatchPolicy::WeightedJsq);
    assert_eq!(jsq.records, wjsq.records);
    assert_eq!(jsq.devices, wjsq.devices);
}

/// A two-generation fleet under weighted JSQ: the fast device drains more
/// of the workload than the derated one, plain JSQ splits closer to
/// evenly, and the weighted policy's goodput is at least as high.
#[test]
fn weighted_jsq_feeds_the_fast_generation() {
    let engine = engine();
    let old_gen = Derated::new(engine.simulator(), 3.0);
    let sim = engine.serve_sim(0.3, ServeConfig::default());
    let probe = sim.cost_model();
    let fast = probe.decode_rate(512, 8);
    let slow = fast / 3.0; // the derated generation scales every latency by 3
    let fleet = [
        DeviceProfile::uniform().with_throughput(fast),
        DeviceProfile::uniform()
            .with_accel(&old_gen)
            .with_throughput(slow),
    ];
    let load = skewed_trace(32, 17);
    let mut mk = || Box::new(ContinuousBatchScheduler::new()) as Box<dyn mcbp::serve::Scheduler>;
    let wjsq = sim.run_fleet_profiles(&load, &fleet, DispatchPolicy::WeightedJsq, &mut mk);
    let jsq = sim.run_fleet_profiles(&load, &fleet, DispatchPolicy::JoinShortestQueue, &mut mk);
    assert_eq!(wjsq.completed + wjsq.dropped, 32);
    assert_eq!(jsq.completed + jsq.dropped, 32);
    assert!(
        wjsq.devices[0].dispatched > wjsq.devices[1].dispatched,
        "weighted JSQ must favor the fast device: {} vs {}",
        wjsq.devices[0].dispatched,
        wjsq.devices[1].dispatched
    );
    assert!(
        wjsq.devices[0].dispatched > jsq.devices[0].dispatched,
        "plain JSQ is throughput-blind: weighted sends more to the fast device ({} vs {})",
        wjsq.devices[0].dispatched,
        jsq.devices[0].dispatched
    );
    assert!(
        wjsq.goodput_tokens_per_s >= jsq.goodput_tokens_per_s,
        "weighted JSQ must not lose to plain JSQ on a mixed fleet: {} vs {}",
        wjsq.goodput_tokens_per_s,
        jsq.goodput_tokens_per_s
    );
    // Replays bit-identically.
    let again = sim.run_fleet_profiles(&load, &fleet, DispatchPolicy::WeightedJsq, &mut mk);
    assert_eq!(wjsq, again);
}

/// Cross-request prefix reuse end to end on one device: the same trace
/// with a declared shared prefix completes with every decode token
/// intact, reports hits and reused tokens, and delivers strictly better
/// TTFT than the prefix-blind run (only the unshared suffix prefills).
#[test]
fn prefix_reuse_cuts_prefill_work_and_reports_it() {
    let engine = engine();
    let sim = engine.serve_sim(0.3, ServeConfig::default());
    let prefix = SharedPrefix::new(1, 384);
    let base = LoadGenerator {
        task_mix: vec![Task::mnli().with_decode(16)], // 512-token prompts
        class_mix: vec![RequestClass::batch()],
        prefix_mix: vec![None],
        count: 8,
        process: ArrivalProcess::Poisson {
            rate_rps: 50.0,
            seed: 3,
        },
    };
    let blind = base.clone().generate();
    let shared = base.with_prefixes(vec![Some(prefix)]).generate();
    let r_blind = sim.run(&blind, &mut ContinuousBatchScheduler::new());
    let r_shared = sim.run(&shared, &mut ContinuousBatchScheduler::new());
    assert_eq!(r_shared.completed, 8);
    for rec in &r_shared.records {
        assert_eq!(rec.tokens, rec.request.decode_len);
    }
    // First arrival materializes the prefix (miss), the rest reuse it.
    assert_eq!(r_shared.prefix.misses, 1);
    assert_eq!(r_shared.prefix.hits, 7);
    assert_eq!(r_shared.prefix.reused_tokens, 7 * 384);
    assert_eq!(r_blind.prefix.hits + r_blind.prefix.misses, 0);
    // Reuse removes 384 of 512 prefill tokens for 7 of 8 requests: the
    // run must finish faster and with better mean TTFT.
    assert!(
        r_shared.ttft.mean < r_blind.ttft.mean,
        "prefix reuse must cut TTFT: {} vs {}",
        r_shared.ttft.mean,
        r_blind.ttft.mean
    );
    assert!(r_shared.duration_seconds < r_blind.duration_seconds);
    // The per-device lane carries the same counters (single-lane run).
    assert_eq!(r_shared.devices[0].prefix, r_shared.prefix);
    // Replays bit-identically.
    let again = sim.run(&shared, &mut ContinuousBatchScheduler::new());
    assert_eq!(r_shared, again);
}

/// Prefix reuse composes with preemption: under both eviction policies a
/// prefix-carrying trace on a tight pool completes every token, conserves
/// swap bytes, and replays bit-identically.
#[test]
fn prefix_reuse_survives_preemption_deterministically() {
    let engine = engine();
    let model = LlmConfig::opt1b3();
    let task = Task::mnli().with_decode(24);
    let keep = 0.3;
    let budget = mcbp::serve::request_kv_bytes(&model, task.final_context(), keep) * 3;
    for policy in [EvictionPolicy::DropRecompute, EvictionPolicy::Swap] {
        let cfg = ServeConfig {
            kv_budget_bytes: Some(budget),
            preempt: PreemptConfig {
                policy,
                ..PreemptConfig::default()
            },
            ..ServeConfig::default()
        };
        let sim = engine.serve_sim(keep, cfg);
        let load = LoadGenerator {
            task_mix: vec![task.clone()],
            class_mix: vec![
                RequestClass::interactive(0.5, 0.05),
                RequestClass::batch(),
                RequestClass::batch(),
            ],
            prefix_mix: vec![Some(SharedPrefix::new(9, 384))],
            count: 18,
            process: ArrivalProcess::Bursty {
                rate_rps: 40.0,
                burst_factor: 8.0,
                burst_len: 6,
                seed: 5,
            },
        }
        .generate();
        let a = sim.run(&load, &mut PriorityScheduler::new());
        let b = sim.run(&load, &mut PriorityScheduler::new());
        assert_eq!(a, b, "{policy:?} must replay bit-identically with prefixes");
        assert_eq!(a.completed + a.dropped, 18, "{policy:?}");
        for rec in a.records.iter().filter(|r| r.completed()) {
            assert_eq!(rec.tokens, rec.request.decode_len, "{policy:?}");
        }
        assert!(a.prefix.hits > 0, "{policy:?} must still reuse the prefix");
        if policy == EvictionPolicy::Swap {
            assert_eq!(
                a.preempt.swap_in_bytes, a.preempt.swap_out_bytes,
                "every spilled byte is restored"
            );
        }
    }
}

/// The typed validation surface: empty fleets, zero-throughput profiles,
/// and prefixes longer than their prompt are rejected with
/// `ServeConfigError`s instead of panics.
#[test]
fn fleet_and_workload_validation_returns_typed_errors() {
    let engine = engine();
    let sim = engine.serve_sim(0.3, ServeConfig::default());
    let load = skewed_trace(4, 1);
    let mut mk = || Box::new(ContinuousBatchScheduler::new()) as Box<dyn mcbp::serve::Scheduler>;
    assert_eq!(
        sim.run_spec(
            &load,
            RunSpec::fleet(&[], DispatchPolicy::RoundRobin),
            &mut mk
        )
        .err(),
        Some(ServeConfigError::EmptyFleet)
    );
    let bad = [
        DeviceProfile::uniform(),
        DeviceProfile::uniform().with_throughput(-1.0),
    ];
    assert_eq!(
        sim.run_spec(
            &load,
            RunSpec::fleet(&bad, DispatchPolicy::WeightedJsq),
            &mut mk
        )
        .err(),
        Some(ServeConfigError::ZeroThroughputProfile { device: 1 })
    );
    let oversized = Workload {
        requests: vec![Request::from_task(0, &Task::cola().with_decode(4), 0.0)
            .with_prefix(SharedPrefix::new(2, 1 << 20))],
        closed_loop: None,
    };
    let err = ServeSim::validate_workload(&oversized).unwrap_err();
    assert!(matches!(
        err,
        ServeConfigError::PrefixExceedsPrompt { request: 0, prefix_tokens, .. }
            if prefix_tokens == 1 << 20
    ));
    assert_eq!(
        sim.run_spec(
            &oversized,
            RunSpec::fleet(&[DeviceProfile::uniform()], DispatchPolicy::PrefixAffinity),
            &mut mk
        )
        .err(),
        Some(err)
    );
    // One content-addressed id must name one prefix: conflicting lengths
    // are rejected up front, not deep inside admission.
    let conflicted = Workload {
        requests: vec![
            Request::from_task(0, &Task::mnli().with_decode(4), 0.0)
                .with_prefix(SharedPrefix::new(3, 128)),
            Request::from_task(1, &Task::mnli().with_decode(4), 1.0)
                .with_prefix(SharedPrefix::new(3, 64)),
        ],
        closed_loop: None,
    };
    assert_eq!(
        ServeSim::validate_workload(&conflicted).err(),
        Some(ServeConfigError::PrefixLengthConflict {
            prefix: 3,
            tokens_a: 128,
            tokens_b: 64
        })
    );
    // An arrival that can never be served is rejected, not silently left
    // out of the records; so is a request with no token to serve.
    let arriving = |arrivals: [f64; 3], closed_loop| Workload {
        requests: arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| Request::from_task(i as u64, &Task::cola().with_decode(4), a))
            .collect(),
        closed_loop,
    };
    let sized = |lens: [(usize, usize); 3]| Workload {
        requests: lens
            .iter()
            .enumerate()
            .map(|(i, &(prompt, decode))| {
                let task = Task::cola().with_prompt(prompt).with_decode(decode);
                Request::from_task(i as u64, &task, i as f64)
            })
            .collect(),
        closed_loop: None,
    };
    // Request ids key the pool and every ledger: a repeated id is
    // rejected whether its two copies would overlap on the device (the
    // second arrives while the first is in flight) or not (it arrives a
    // simulated thousand seconds later).
    let repeated = |second_arrival: f64| Workload {
        requests: vec![
            Request::from_task(0, &Task::cola().with_decode(4), 0.0),
            Request::from_task(0, &Task::cola().with_decode(4), second_arrival),
        ],
        closed_loop: None,
    };
    let single = [DeviceProfile::uniform()];
    for (w, expected) in [
        (
            repeated(1.0),
            ServeConfigError::DuplicateRequestId { request: 0 },
        ),
        (
            repeated(1e12),
            ServeConfigError::DuplicateRequestId { request: 0 },
        ),
        (
            arriving([0.0, f64::NAN, 2.0], None),
            ServeConfigError::InvalidArrival { request: 1 },
        ),
        (
            arriving([0.0, 1.0, -1.0], Some(2)),
            ServeConfigError::InvalidArrival { request: 2 },
        ),
        (
            arriving([0.0, 1.0, f64::INFINITY], None),
            ServeConfigError::NeverArrives { request: 2 },
        ),
        (
            arriving([f64::INFINITY; 3], Some(3)),
            ServeConfigError::ClosedLoopNeverStarts,
        ),
        (
            sized([(0, 0), (0, 4), (4, 0)]),
            ServeConfigError::EmptyRequest { request: 0 },
        ),
    ] {
        assert_eq!(ServeSim::validate_workload(&w).err(), Some(expected));
        assert_eq!(
            sim.run_spec(
                &w,
                RunSpec::fleet(&single, DispatchPolicy::RoundRobin),
                &mut mk
            )
            .err(),
            Some(expected)
        );
    }
    // A closed loop that starts one request releases the rest, and
    // `-0.0` is a valid start. A prompt-only or decode-only request is
    // servable.
    assert_eq!(
        ServeSim::validate_workload(&arriving([-0.0, f64::INFINITY, f64::INFINITY], Some(1))),
        Ok(())
    );
    let servable = sized([(0, 4), (4, 0), (4, 4)]);
    assert_eq!(ServeSim::validate_workload(&servable), Ok(()));
    assert!(sim
        .run_spec(
            &servable,
            RunSpec::fleet(&single, DispatchPolicy::RoundRobin),
            &mut mk
        )
        .is_ok());
}
