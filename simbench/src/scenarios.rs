//! The three workloads: their inputs, their serving configurations, and
//! the calls one iteration makes.
//!
//! Every input is a materialized [`Workload`] generated from the seed
//! before timing starts; arrivals are on the simulated clock, so host
//! time never feeds back into load.

use mcbp::model::LlmConfig;
use mcbp::serve::{
    ArrivalProcess, ContinuousBatchScheduler, DeviceProfile, DispatchPolicy, EvictionPolicy,
    LoadGenerator, PreemptConfig, PriorityScheduler, RequestClass, RunTrace, Scheduler,
    ServeConfig, ServeReport, ServeSim, SharedPrefix, Workload,
};
use mcbp::workloads::Task;

use crate::spans::Tracer;

/// Keep points of the cold sweep, in the order `repro serving` visits them.
pub const SWEEP_KEEPS: [f64; 3] = [1.0, 0.5, 0.3];
/// Attention keep of the warm workloads and of the cold sweep's probe point.
pub const KEEP: f64 = 0.3;
pub const SWEEP_REQUESTS: usize = 48;
/// Independent request streams each keep point serves. One 48-request
/// stream reaches a seed-dependent set of batch sizes, so its cold-pass
/// cost and its p95 latencies swing widely between seeds; several streams
/// per point fill the cost cache close to its full key set and pool
/// enough requests for steady percentiles.
pub const SWEEP_STREAMS: usize = 384;
pub const OVERLOAD_REQUESTS: usize = 4000;
pub const FLEET_REQUESTS: usize = 8000;
pub const FLEET_DEVICES: usize = 16;
/// Shared-prefix tenants of the fleet workload and their prefix length.
const TENANTS: usize = 18;
const PREFIX_TOKENS: usize = 384;
/// Interactive-class deadlines (the `repro serving_slo` values).
const SLO_TTFT_S: f64 = 0.5;
const SLO_TPOT_S: f64 = 0.05;

pub fn model() -> LlmConfig {
    LlmConfig::opt1b3()
}

/// MNLI-shaped prompt with 32 decoded tokens.
pub fn task() -> Task {
    Task::mnli().with_decode(32)
}

/// A KV budget of `requests` dense requests of [`task`].
fn kv_budget(requests: u64) -> u64 {
    model().kv_cache_bytes(task().final_context(), 1) * requests
}

pub fn sweep_cfg() -> ServeConfig {
    ServeConfig {
        kv_budget_bytes: Some(kv_budget(8)),
        ..ServeConfig::default()
    }
}

pub fn overload_cfg() -> ServeConfig {
    ServeConfig {
        kv_budget_bytes: Some(kv_budget(8)),
        preempt: PreemptConfig {
            policy: EvictionPolicy::DropRecompute,
            ..PreemptConfig::default()
        },
        ..ServeConfig::default()
    }
}

pub fn fleet_cfg() -> ServeConfig {
    ServeConfig {
        kv_budget_bytes: Some(kv_budget(8)),
        ..ServeConfig::default()
    }
}

/// The same configuration driven by the parallel fleet drive.
pub fn with_two_workers(cfg: ServeConfig) -> ServeConfig {
    ServeConfig {
        fleet_workers: Some(2),
        ..cfg
    }
}

/// Poisson arrivals at 8 rps, all batch class.
pub fn sweep_load(count: usize, seed: u64) -> Workload {
    LoadGenerator::uniform(
        task(),
        count,
        ArrivalProcess::Poisson {
            rate_rps: 8.0,
            seed,
        },
    )
    .generate()
}

/// Seed of instance `k` of `count` generated for one run seed: distinct
/// run seeds give disjoint instance seeds.
pub fn sub_seed(seed: u64, k: usize, count: usize) -> u64 {
    seed.wrapping_mul(count as u64).wrapping_add(k as u64)
}

/// Poisson arrivals at 40 rps, one interactive request per three batch.
pub fn overload_load(seed: u64) -> Workload {
    LoadGenerator::uniform(
        task(),
        OVERLOAD_REQUESTS,
        ArrivalProcess::Poisson {
            rate_rps: 40.0,
            seed,
        },
    )
    .with_classes(vec![
        RequestClass::interactive(SLO_TTFT_S, SLO_TPOT_S),
        RequestClass::batch(),
        RequestClass::batch(),
        RequestClass::batch(),
    ])
    .generate()
}

/// Bursty arrivals at 120 rps (bursts of 16 at 4x), classes 1:1, and
/// three requests in four carrying one of the tenant prefixes.
pub fn fleet_load(seed: u64) -> Workload {
    let prefixes = (0..TENANTS / 3 * 4)
        .map(|slot| {
            (slot % 4 != 3).then(|| SharedPrefix::new((slot - slot / 4) as u64, PREFIX_TOKENS))
        })
        .collect();
    LoadGenerator {
        task_mix: vec![task()],
        class_mix: vec![
            RequestClass::interactive(SLO_TTFT_S, SLO_TPOT_S),
            RequestClass::batch(),
        ],
        prefix_mix: prefixes,
        count: FLEET_REQUESTS,
        process: ArrivalProcess::Bursty {
            rate_rps: 120.0,
            burst_factor: 4.0,
            burst_len: 16,
            seed,
        },
    }
    .generate()
}

/// The first `n` requests of a workload.
pub fn head(workload: &Workload, n: usize) -> Workload {
    Workload {
        requests: workload.requests[..n.min(workload.requests.len())].to_vec(),
        closed_loop: workload.closed_loop,
    }
}

/// One serving set-up seen through the two calls the benchmark makes on
/// it: an untraced run and a recorded run of a workload. With no
/// profiles it is one device (`ServeSim::run`); otherwise a fleet under
/// prefix-affinity routing.
pub struct Unit<'s, 'a> {
    sim: &'s ServeSim<'a>,
    profiles: &'s [DeviceProfile<'a>],
    sched: fn() -> Box<dyn Scheduler>,
    tracer: &'s Tracer,
}

impl<'s, 'a> Unit<'s, 'a> {
    pub fn new(
        sim: &'s ServeSim<'a>,
        profiles: &'s [DeviceProfile<'a>],
        sched: fn() -> Box<dyn Scheduler>,
        tracer: &'s Tracer,
    ) -> Self {
        Unit {
            sim,
            profiles,
            sched,
            tracer,
        }
    }

    pub fn run(&self, workload: &Workload) -> ServeReport {
        let (sim, tracer, mut sched) = (self.sim, self.tracer, self.sched);
        if self.profiles.is_empty() {
            return tracer.span("serve.sim", "ServeSim::run", || {
                sim.run(workload, sched().as_mut())
            });
        }
        tracer.span("serve.dispatch", "ServeSim::run_fleet_profiles", || {
            sim.run_fleet_profiles(workload, self.profiles, POLICY, &mut sched)
        })
    }

    pub fn run_traced(&self, workload: &Workload) -> (ServeReport, RunTrace) {
        let (sim, tracer, mut sched) = (self.sim, self.tracer, self.sched);
        if self.profiles.is_empty() {
            return tracer.span("serve.record", "ServeSim::run_traced", || {
                sim.run_traced(workload, sched().as_mut())
            });
        }
        tracer.span(
            "serve.record",
            "ServeSim::run_fleet_profiles_traced",
            || sim.run_fleet_profiles_traced(workload, self.profiles, POLICY, &mut sched),
        )
    }
}

/// Fleet routing of every fleet set-up.
const POLICY: DispatchPolicy = DispatchPolicy::PrefixAffinity;

pub fn continuous() -> Box<dyn Scheduler> {
    Box::new(ContinuousBatchScheduler::new())
}

pub fn priority() -> Box<dyn Scheduler> {
    Box::new(PriorityScheduler::new())
}

/// Records a run, round-trips the trace through the binary format, and
/// replays it. Returns the report, or what failed.
pub fn record_and_replay(
    unit: &Unit<'_, '_>,
    workload: &Workload,
    tracer: &Tracer,
) -> Result<ServeReport, String> {
    let (report, trace) = unit.run_traced(workload);
    let bytes = tracer
        .span("trace", "to_bytes", || mcbp::trace::to_bytes(&trace))
        .map_err(|e| format!("to_bytes: {e}"))?;
    let restored = tracer
        .span("trace", "from_bytes", || mcbp::trace::from_bytes(&bytes))
        .map_err(|e| format!("from_bytes: {e}"))?;
    if restored != trace {
        return Err("from_bytes(to_bytes(t)) != t".to_owned());
    }
    tracer
        .span("trace", "verify_replay", || {
            mcbp::trace::verify_replay(&restored, &report, |w| unit.run(w))
        })
        .map_err(|e| format!("verify_replay: {e}"))?;
    Ok(report)
}

/// Checks one iteration's report against the request count and against
/// the first report of the same input (recorded here if there is none).
pub fn check_report(
    report: &ServeReport,
    requests: usize,
    first: &mut Option<ServeReport>,
) -> Result<(), String> {
    if first.get_or_insert_with(|| report.clone()) != report {
        return Err("report differs from the first run of the same input".to_owned());
    }
    if report.completed + report.dropped != requests {
        return Err(format!(
            "completed {} + dropped {} != {requests} requests",
            report.completed, report.dropped
        ));
    }
    Ok(())
}
