//! Serving walkthrough: drive one MCBP device under multi-request load
//! with the `mcbp::serve` subsystem.
//!
//! Nine acts:
//!  1. The same Poisson trace under FCFS vs continuous batching —
//!     coalescing amortizes the per-step weight stream, so continuous
//!     batching sustains strictly higher goodput.
//!  2. The same KV byte budget at dense attention vs BGPP keep=0.3 —
//!     pruned KV residency admits more concurrent streams and lifts
//!     goodput further.
//!  3. Tensor-parallel scale-up: the §5.3 multi-device scaling model
//!     makes one serving instance faster on the same trace.
//!  4. Priority classes, SLOs, and preemption: an overloaded mixed-class
//!     trace where drop-and-recompute eviction of batch-class victims
//!     keeps the interactive class inside its TTFT/TPOT deadlines.
//!  5. Per-device fleet dispatch: the same trace across independent
//!     devices (own KV pools, schedulers, clocks) under round-robin vs
//!     join-shortest-queue, with per-device goodput/utilization lanes.
//!  6. Chunked prefill: a short interactive prompt stuck behind an
//!     8k-token prefill — 512-token chunks let it cut in between chunks
//!     instead of waiting out the whole prompt.
//!  7. Budgeted mixed steps: a shared per-step token budget lets decode
//!     tokens piggyback on every prefill chunk (Sarathi-style), so a
//!     decode stream's inter-token latency stops stalling behind an
//!     8k-token prefill entirely.
//!  8. Heterogeneous fleets + prefix routing: a mixed-generation fleet
//!     described by per-device `DeviceProfile`s, where prefix-affinity
//!     routing keeps each tenant's shared system prompt resident on one
//!     device — arriving requests prefill only their unshared suffix.
//!  9. Trace record/replay + sampled simulation: record a diurnal run,
//!     round-trip it through the binary trace format on disk, replay it
//!     bit-exactly, then estimate full-run metrics from a few
//!     k-means-selected representative slices (`mcbp::trace`).
//!
//! Run with: `cargo run --release --example serving`

use mcbp::prelude::*;
use mcbp::serve::{
    request_kv_bytes, ArrivalProcess, DispatchPolicy, LoadGenerator, Request, ServeConfig, Workload,
};
use mcbp::trace::{load_trace, save_trace, verify_replay, SampledSim, SamplerConfig, TraceStats};
use mcbp::workloads::Derated;
use mcbp::Fleet;

fn main() {
    let model = LlmConfig::opt1b3();
    let engine = Engine::new(model.clone(), 42);
    let task = Task::mnli().with_decode(32);

    // A tight KV pool: eight dense requests' worth of bytes, so admission
    // control has to do real work.
    let budget = model.kv_cache_bytes(task.final_context(), 1) * 8;
    let cfg = ServeConfig {
        kv_budget_bytes: Some(budget),
        ..ServeConfig::default()
    };

    let load = LoadGenerator::uniform(
        task.clone(),
        48,
        ArrivalProcess::Poisson {
            rate_rps: 8.0,
            seed: 0x4d43_4250,
        },
    )
    .generate();

    // ----- 1. FCFS vs continuous batching, same trace, same keep -----
    println!("=== act 1: scheduler (keep = 0.3, same trace, same pool) ===");
    let sim = engine.serve_sim(0.3, cfg.clone());
    let fcfs = sim.run(&load, &mut FcfsScheduler::new());
    let cb = sim.run(&load, &mut ContinuousBatchScheduler::new());
    println!("{fcfs}\n");
    println!("{cb}\n");
    assert!(
        cb.goodput_tokens_per_s > fcfs.goodput_tokens_per_s,
        "continuous batching must sustain higher goodput"
    );
    println!(
        "continuous batching sustains {:.2}x the goodput of FCFS\n",
        cb.goodput_tokens_per_s / fcfs.goodput_tokens_per_s
    );

    // ----- 2. BGPP attention-keep vs admissible concurrency -----
    println!("=== act 2: BGPP keep ratio (continuous batching, same pool budget) ===");
    let dense = engine
        .serve_sim(1.0, cfg.clone())
        .run(&load, &mut ContinuousBatchScheduler::new());
    let pruned = cb; // keep = 0.3 from act 1
    println!(
        "dense  (keep 1.0): peak concurrency {:2}, goodput {:7.2} tok/s",
        dense.peak_concurrency, dense.goodput_tokens_per_s
    );
    println!(
        "pruned (keep 0.3): peak concurrency {:2}, goodput {:7.2} tok/s",
        pruned.peak_concurrency, pruned.goodput_tokens_per_s
    );
    assert!(
        pruned.peak_concurrency > dense.peak_concurrency,
        "lower keep must admit more concurrent streams under the same budget"
    );
    println!(
        "BGPP keep=0.3 admits {:.1}x the concurrent streams of dense attention\n",
        pruned.peak_concurrency as f64 / dense.peak_concurrency as f64
    );

    // ----- 3. Tensor-parallel scale-up -----
    println!("=== act 3: tensor-parallel scale-up (8-chip instance, keep = 0.3) ===");
    let fleet_cfg = ServeConfig {
        fleet: Fleet {
            devices: 8,
            scaling_efficiency: Fleet::efficiency_for(8),
        },
        ..cfg.clone()
    };
    let heavy = LoadGenerator::uniform(
        task.clone(),
        48,
        ArrivalProcess::Poisson {
            rate_rps: 64.0,
            seed: 0x4d43_4250,
        },
    )
    .generate();
    let fleet = engine
        .serve_sim(0.3, fleet_cfg)
        .run(&heavy, &mut ContinuousBatchScheduler::new());
    println!("{fleet}\n");

    // ----- 4. Priority classes, SLOs, and preemption -----
    println!("=== act 4: SLOs + priority preemption (overloaded, tight pool) ===");
    // Overload a two-request-wide pool with a 1:3 interactive:batch mix;
    // interactive requests carry TTFT/TPOT deadlines.
    let tight = ServeConfig {
        kv_budget_bytes: Some(model.kv_cache_bytes(task.final_context(), 1) * 2),
        ..ServeConfig::default()
    };
    let mixed = LoadGenerator::uniform(
        task,
        32,
        ArrivalProcess::Bursty {
            rate_rps: 24.0,
            burst_factor: 8.0,
            burst_len: 8,
            seed: 0x4d43_4250,
        },
    )
    .with_classes(vec![
        RequestClass::interactive(0.5, 0.05),
        RequestClass::batch(),
        RequestClass::batch(),
        RequestClass::batch(),
    ])
    .generate();
    let blocked = engine
        .serve_sim(0.3, tight.clone())
        .run(&mixed, &mut ContinuousBatchScheduler::new());
    let preempting = engine
        .serve_sim(
            0.3,
            ServeConfig {
                preempt: PreemptConfig::drop_recompute(),
                ..tight
            },
        )
        .run(&mixed, &mut PriorityScheduler::new());
    println!("{blocked}\n");
    println!("{preempting}\n");
    let inter = |r: &ServeReport| r.slo_goodput_for(Priority::Interactive);
    assert!(
        inter(&preempting) > inter(&blocked),
        "priority preemption must raise interactive SLO-goodput"
    );
    println!(
        "priority preemption lifts interactive SLO-goodput {:.2}x ({:.1} -> {:.1} tok/s) \
         at the cost of {} eviction(s) ({:.3} s of replay)\n",
        inter(&preempting) / inter(&blocked).max(1e-9),
        inter(&blocked),
        inter(&preempting),
        preempting.preempt.preemptions,
        preempting.preempt.recompute_seconds
    );

    // ----- 5. Per-device fleet dispatch -----
    println!("=== act 5: per-device fleet dispatch (2 devices, rr vs jsq) ===");
    // A 2:1 length mix: round-robin pins long requests onto unlucky
    // devices, join-shortest-queue balances by queued tokens.
    let skewed = LoadGenerator {
        task_mix: vec![Task::mnli().with_decode(32), Task::cola().with_decode(32)],
        class_mix: vec![RequestClass::batch()],
        prefix_mix: vec![None],
        count: 48,
        process: ArrivalProcess::Bursty {
            rate_rps: 24.0,
            burst_factor: 8.0,
            burst_len: 8,
            seed: 0x4d43_4250,
        },
    }
    .generate();
    let sim = engine.serve_sim(0.3, cfg.clone());
    let fleet_run = |policy| {
        sim.run_spec(&skewed, RunSpec::uniform(2, policy), &mut || {
            Box::new(ContinuousBatchScheduler::new())
        })
        .expect("a valid two-device fleet")
        .report
    };
    let rr = fleet_run(DispatchPolicy::RoundRobin);
    let jsq = fleet_run(DispatchPolicy::JoinShortestQueue);
    println!("{rr}\n");
    println!("{jsq}\n");
    assert!(
        jsq.goodput_tokens_per_s >= rr.goodput_tokens_per_s,
        "load-aware dispatch must not lose to round-robin here"
    );
    println!(
        "join-shortest-queue serves {:.2}x the goodput of round-robin on the skewed trace\n",
        jsq.goodput_tokens_per_s / rr.goodput_tokens_per_s
    );

    // ----- 6. Chunked prefill -----
    println!("=== act 6: chunked prefill (interactive prompt behind an 8k prefill) ===");
    let long = Request::from_task(0, &Task::dolly().with_decode(8), 0.0);
    // Arrive two and a half chunks into the long prompt's prefill.
    let arrival = 2.5
        * engine
            .serve_sim(0.3, ServeConfig::default())
            .cost_model()
            .prefill_cost(512, 1)
            .cycles;
    let short = Request::from_task(1, &Task::cola().with_decode(8), arrival)
        .with_priority(Priority::Interactive);
    let contended = Workload {
        requests: vec![long, short],
        closed_loop: None,
    };
    let ttft_of = |chunk: Option<usize>| {
        let cfg = ServeConfig {
            prefill_chunk: chunk,
            ..ServeConfig::default()
        };
        let report = engine
            .serve_sim(0.3, cfg)
            .run(&contended, &mut PriorityScheduler::new());
        report
            .records
            .iter()
            .find(|r| r.request.priority == Priority::Interactive)
            .expect("interactive record")
            .ttft_cycles()
            / 1e9
    };
    let chunked_ttft = ttft_of(Some(512));
    let mono_ttft = ttft_of(None);
    assert!(chunked_ttft < mono_ttft);
    println!(
        "interactive TTFT: {:.1} ms chunked vs {:.1} ms unchunked ({:.1}x faster first token)",
        chunked_ttft * 1e3,
        mono_ttft * 1e3,
        mono_ttft / chunked_ttft
    );

    // ----- 7. Budgeted mixed steps -----
    println!("\n=== act 7: mixed steps (decode piggybacks on prefill chunks) ===");
    // A decode stream is mid-generation when an 8k prompt arrives. With
    // alternating steps the stream only advances between chunks; with a
    // step token budget its tokens ride every chunk invocation's weight
    // stream at incremental cost.
    let stream = Request::from_task(0, &Task::mnli().with_decode(48), 0.0);
    let long = Request::from_task(1, &Task::dolly().with_decode(8), arrival);
    let contended = Workload {
        requests: vec![stream, long],
        closed_loop: None,
    };
    let stream_tpot = |budget: Option<usize>| {
        let cfg = ServeConfig {
            step_token_budget: budget,
            ..ServeConfig::default()
        };
        let report = engine
            .serve_sim(0.3, cfg)
            .run(&contended, &mut ContinuousBatchScheduler::new());
        let tpot = report
            .records
            .iter()
            .find(|r| r.request.id == 0)
            .expect("stream record")
            .tpot_cycles()
            / 1e9;
        (tpot, report.steps.mixed_fraction())
    };
    let (mixed_tpot, mixed_fraction) = stream_tpot(Some(1024));
    let (alt_tpot, _) = stream_tpot(None);
    assert!(mixed_tpot < alt_tpot);
    println!(
        "stream TPOT behind the 8k prefill: {:.2} ms budgeted (budget 1024, {:.0}% mixed steps) \
         vs {:.2} ms alternating ({:.1}x faster tokens)",
        mixed_tpot * 1e3,
        mixed_fraction * 100.0,
        alt_tpot * 1e3,
        alt_tpot / mixed_tpot
    );

    // ----- 8. Heterogeneous fleets + prefix-affinity routing -----
    println!("\n=== act 8: mixed-generation fleet + prefix-affinity routing ===");
    // A previous-generation device: the same accelerator at 2.5x the
    // latency (energy unchanged).
    let old_gen = Derated::new(engine.simulator(), 2.5);
    // Two tenants share 7680 of their 8192 prompt tokens; each device's
    // pool holds exactly one resident prefix.
    let prefix_bytes = request_kv_bytes(&model, 7680, 0.3);
    let working = request_kv_bytes(&model, Task::dolly().with_decode(16).final_context(), 0.3);
    let tight = ServeConfig {
        kv_budget_bytes: Some(prefix_bytes + working / 2),
        ..ServeConfig::default()
    };
    let sim = engine.serve_sim(0.3, tight);
    let fast = sim.cost_model().decode_rate(512, 8);
    let fleet_profiles = [
        DeviceProfile::uniform().with_throughput(fast),
        DeviceProfile::uniform()
            .with_accel(&old_gen)
            .with_throughput(fast / 2.5),
    ];
    let tenants = LoadGenerator {
        task_mix: vec![Task::dolly().with_decode(16)],
        class_mix: vec![RequestClass::interactive(2.0, 0.1)],
        prefix_mix: vec![
            Some(SharedPrefix::new(0, 7680)),
            Some(SharedPrefix::new(1, 7680)),
        ],
        count: 32,
        process: ArrivalProcess::Poisson {
            rate_rps: 0.6,
            seed: 0x4d43_4250,
        },
    }
    .generate();
    let routed = |policy: DispatchPolicy| {
        sim.run_fleet_profiles(&tenants, &fleet_profiles, policy, &mut || {
            Box::new(ContinuousBatchScheduler::new())
        })
    };
    let blind = routed(DispatchPolicy::WeightedJsq);
    let affine = routed(DispatchPolicy::PrefixAffinity);
    assert!(affine.prefix.hits > blind.prefix.hits);
    println!(
        "affinity-blind wjsq: {}/{} prefix hits, mean TTFT {:.2} s",
        blind.prefix.hits,
        blind.prefix.hits + blind.prefix.misses,
        blind.ttft.mean
    );
    println!(
        "prefix affinity:     {}/{} prefix hits, mean TTFT {:.2} s \
         ({} prefill tokens never recomputed)",
        affine.prefix.hits,
        affine.prefix.hits + affine.prefix.misses,
        affine.ttft.mean,
        affine.prefix.reused_tokens
    );
    assert!(affine.ttft.mean < blind.ttft.mean);

    // ----- 9. Trace record/replay + sampled simulation -----
    println!("\n=== act 9: trace record/replay + sampled simulation ===");
    // A day-scale diurnal trace: the arrival rate swings ±70% around its
    // mean on an hour-long period, so the run has real peak/trough phases
    // for the sampler to find.
    let day = LoadGenerator {
        task_mix: vec![Task::mnli().with_decode(32)],
        class_mix: vec![RequestClass::interactive(1.0, 0.1), RequestClass::batch()],
        prefix_mix: vec![None],
        count: 768,
        process: ArrivalProcess::Diurnal {
            rate_rps: 0.15,
            amplitude: 0.7,
            period_s: 3600.0,
            seed: 0x4d43_4250,
        },
    }
    .generate();
    let sim = engine.serve_sim(0.3, ServeConfig::default());
    let (full, trace) = sim.run_traced(&day, &mut PriorityScheduler::new());

    // Round-trip the recording through the on-disk binary format…
    let path = std::env::temp_dir().join("mcbp_serving_example.trace");
    save_trace(&path, &trace).expect("trace saves");
    let restored = load_trace(&path).expect("trace loads");
    let encoded = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_file(&path).ok();
    assert_eq!(trace, restored);
    println!("{}", TraceStats::collect(&restored, encoded));

    // …replay it: the simulator is deterministic, so re-driving the
    // recorded workload reproduces the original report bit-for-bit.
    let replayed = verify_replay(&restored, &full, |w| {
        sim.run(w, &mut PriorityScheduler::new())
    })
    .expect("replay is bit-exact");
    assert_eq!(replayed, full);
    println!("replay: bit-exact ({} steps reproduced)", full.steps.steps);

    // …and estimate the whole day from a few representative slices.
    let sampled = SampledSim::new(SamplerConfig {
        windows: 48,
        clusters: 4,
        ..SamplerConfig::default()
    })
    .run(&restored, &mut |w| {
        sim.run(w, &mut PriorityScheduler::new())
    })
    .expect("sampling succeeds");
    println!(
        "sampled sim: {} of {} steps ({:.1}%), goodput {:.2} vs {:.2} tok/s ({:.1}% err)",
        sampled.simulated_steps,
        full.steps.steps,
        sampled.step_fraction() * 100.0,
        sampled.goodput_tokens_per_s,
        full.goodput_tokens_per_s,
        sampled.goodput_error(&full) * 100.0
    );
}
