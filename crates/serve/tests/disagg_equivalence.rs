//! Backward-compatibility equivalence for the disaggregation axis: a
//! fleet of explicitly `Unified` devices — even with an explicitly
//! configured (zero-cost) host link — must produce the **bit-exact**
//! `ServeReport` and `RunTrace` of the pre-disaggregation default
//! profiles, across every dispatch policy. `DeviceRole::Unified` is the
//! default precisely so that every pre-existing configuration replays
//! unchanged; this test pins that contract.

use std::sync::OnceLock;

use mcbp_serve::{
    DeviceProfile, DeviceRole, DispatchPolicy, Priority, Request, RequestId, ServeConfig, ServeSim,
    SloSpec, Workload,
};
use mcbp_workloads::{
    Accelerator, PhaseCost, RunReport, SparsityProfile, Task, TraceContext, WeightGenerator,
};

struct Toy;

impl Accelerator for Toy {
    fn name(&self) -> &str {
        "toy"
    }

    fn run(&self, ctx: &TraceContext) -> RunReport {
        let b = ctx.batch as f64;
        RunReport {
            prefill: PhaseCost {
                gemm_cycles: 10.0 * ctx.task.prompt_len as f64 * b,
                compute_pj: ctx.task.prompt_len as f64 * b,
                ..Default::default()
            },
            decode: PhaseCost {
                weight_load_cycles: 1_000_000.0,
                kv_load_cycles: 100.0 * ctx.task.prompt_len as f64 * b * ctx.task.decode_len as f64,
                compute_pj: b,
                ..Default::default()
            },
        }
    }
}

fn template() -> TraceContext {
    static TEMPLATE: OnceLock<TraceContext> = OnceLock::new();
    TEMPLATE
        .get_or_init(|| {
            let model = LlmConfig::opt1b3();
            let gen = WeightGenerator::for_model(&model);
            let profile = SparsityProfile::measure(&gen.quantized_sample(16, 64, 1), 4);
            TraceContext {
                model,
                task: Task::cola(),
                batch: 1,
                weight_profile: profile,
                attention_keep: 0.3,
            }
        })
        .clone()
}

use mcbp_model::LlmConfig;
use mcbp_serve::SharedPrefix;

/// A deterministic mixed workload: staggered arrivals, both priority
/// classes, a shared prefix, and a prompt-only request (no decode).
fn workload() -> Workload {
    let requests = (0..16u64)
        .map(|i| Request {
            id: i as RequestId,
            arrival_cycle: 40_000.0 * i as f64,
            prompt_len: 48 + 23 * (i as usize % 5),
            decode_len: if i % 7 == 3 { 0 } else { 2 + (i as usize % 6) },
            task_name: "equiv",
            priority: if i % 3 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            },
            slo: SloSpec::none(),
            prefix: (i % 4 == 1).then(|| SharedPrefix::new(9, 32)),
        })
        .collect();
    Workload {
        requests,
        closed_loop: None,
    }
}

fn sim(accel: &Toy) -> ServeSim<'_> {
    ServeSim::try_new(accel, template(), ServeConfig::default()).expect("valid config")
}

/// Explicit `Unified` roles (and an explicit link) are the identity: the
/// role axis is invisible until a fleet actually specializes.
#[test]
fn explicit_unified_roles_are_bit_exact_with_default_profiles() {
    let accel = Toy;
    let workload = workload();
    let baseline_profiles = [DeviceProfile::uniform(); 3];
    let unified_profiles = [
        DeviceProfile::uniform().with_role(DeviceRole::Unified),
        DeviceProfile::uniform()
            .with_role(DeviceRole::Unified)
            .with_host_link(f64::INFINITY),
        DeviceProfile::uniform().with_role(DeviceRole::Unified),
    ];
    let s = sim(&accel);
    for policy in DispatchPolicy::ALL {
        let mut mk =
            || -> Box<dyn mcbp_serve::Scheduler> { Box::new(mcbp_serve::PriorityScheduler::new()) };
        let (base_report, base_trace) =
            s.run_fleet_profiles_traced(&workload, &baseline_profiles, policy, &mut mk);
        let (uni_report, uni_trace) =
            s.run_fleet_profiles_traced(&workload, &unified_profiles, policy, &mut mk);
        assert_eq!(
            base_report, uni_report,
            "ServeReport diverged under {policy:?}"
        );
        assert_eq!(base_trace, uni_trace, "RunTrace diverged under {policy:?}");
        // The identity fleet never touches the handoff machinery.
        assert!(!uni_report.handoff.any());
        assert_eq!(uni_trace.handoff_count(), 0);
        assert_eq!(uni_report.completed, workload.requests.len());
    }
}

/// A genuinely split fleet over a zero-cost link completes the same
/// workload (prompt-only requests retire on the prefill side; everything
/// else crosses the link) and conserves every transferred byte.
#[test]
fn zero_cost_split_fleet_serves_everything_and_conserves_handoffs() {
    let accel = Toy;
    let workload = workload();
    let split_profiles = [
        DeviceProfile::uniform()
            .with_role(DeviceRole::Prefill)
            .with_host_link(f64::INFINITY),
        DeviceProfile::uniform().with_role(DeviceRole::Decode),
        DeviceProfile::uniform().with_role(DeviceRole::Decode),
    ];
    let decode_carrying = workload
        .requests
        .iter()
        .filter(|r| r.decode_len > 0)
        .count();
    for policy in DispatchPolicy::ALL {
        let mut mk =
            || -> Box<dyn mcbp_serve::Scheduler> { Box::new(mcbp_serve::PriorityScheduler::new()) };
        let report = sim(&accel).run_fleet_profiles(&workload, &split_profiles, policy, &mut mk);
        assert_eq!(report.completed, workload.requests.len());
        // Exactly the decode-carrying requests crossed the link, and the
        // zero-cost link charged no time for them.
        assert_eq!(report.handoff.handoffs_out as usize, decode_carrying);
        assert_eq!(report.handoff.handoffs_in, report.handoff.handoffs_out);
        assert_eq!(report.handoff.bytes_in, report.handoff.bytes_out);
        assert!(report.handoff.bytes_out > 0);
        assert_eq!(report.handoff.link_seconds, 0.0);
        // Decode lanes never hand out; the prefill lane never hands in.
        assert_eq!(report.devices[0].handoff.handoffs_in, 0);
        assert_eq!(report.devices[1].handoff.handoffs_out, 0);
        assert_eq!(report.devices[2].handoff.handoffs_out, 0);
    }
}
