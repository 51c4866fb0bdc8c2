//! Properties of the fleet drive over arbitrary arrival traces, fleet
//! widths, dispatch policies, schedulers, pool pressure (preemption),
//! shared prefixes, device roles, and open- versus closed-loop load: a
//! traced run's `ServeReport` and `WorkCounts` are **bit-exact** with an
//! untraced run of the same fleet (recording only observes), every
//! request is accounted for, and each fleet lane of the report is the
//! device-order fold of its per-device lanes.

use std::sync::OnceLock;

use mcbp_model::LlmConfig;
use mcbp_serve::{
    DeviceProfile, DeviceReport, DeviceRole, DispatchPolicy, HandoffReport, PoolReport,
    PreemptReport, PrefixReport, Priority, Request, RequestId, RunSpec, Scheduler, ServeConfig,
    ServeReport, ServeSim, SharedPrefix, SloSpec, StepReport, Workload,
};
use mcbp_workloads::{
    Accelerator, PhaseCost, RunReport, SparsityProfile, Task, TraceContext, WeightGenerator,
};
use proptest::prelude::*;

/// Analytic accelerator with the qualitative serving shape (see
/// `step_budget_properties.rs`): exact arithmetic, fast enough for
/// hundreds of simulated fleet runs.
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

/// The trace-context template, built once (weight-profile measurement is
/// the expensive part and is identical across cases).
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

/// One raw generated request: `((prompt_len, decode_len, arrival_gap),
/// (interactive, carries_prefix))` — nested because the vendored
/// proptest implements tuple strategies up to arity four.
type RawRequest = ((usize, usize, u32), (u8, u8));

/// Materializes an arbitrary trace. With `closed_concurrency` set, only
/// the first `c` requests arrive on the clock; the rest carry
/// `f64::INFINITY` and are released by completions — the fixed-population
/// closed loop. Requests flagged with a prefix share one 48-token prefix
/// (only when the prompt is long enough to hold it).
fn workload_from(raw: &[RawRequest], closed_concurrency: Option<usize>) -> Workload {
    let mut arrival = 0.0f64;
    let requests = raw
        .iter()
        .enumerate()
        .map(
            |(i, &((prompt_len, decode_len, gap), (class_bit, prefix_bit)))| {
                arrival += f64::from(gap);
                let closed_tail = closed_concurrency.is_some_and(|c| i >= c);
                Request {
                    id: i as RequestId,
                    arrival_cycle: if closed_tail { f64::INFINITY } else { arrival },
                    prompt_len,
                    decode_len,
                    task_name: "prop",
                    priority: if class_bit == 1 {
                        Priority::Interactive
                    } else {
                        Priority::Batch
                    },
                    slo: SloSpec::none(),
                    prefix: (prefix_bit == 1 && prompt_len >= 48).then(|| SharedPrefix::new(7, 48)),
                }
            },
        )
        .collect();
    Workload {
        requests,
        closed_loop: closed_concurrency,
    }
}

fn make_scheduler(priority: bool) -> Box<dyn Scheduler> {
    if priority {
        Box::new(mcbp_serve::PriorityScheduler::new())
    } else {
        Box::new(mcbp_serve::ContinuousBatchScheduler::new())
    }
}

/// Checks that every fleet lane of `report` folds its device lanes in
/// device order: integer fields add, `*_seconds` fields add left to
/// right, the budget utilization is the step-weighted mean, and the pool
/// residency mean is each device's busy-span mean weighted onto the fleet
/// span — within 1e-12 relative, since the simulator weights it in cycles
/// while the report carries seconds.
fn fleet_lanes_fold_devices(report: &ServeReport) -> Result<(), TestCaseError> {
    let lanes = &report.devices;
    let count = |f: fn(&DeviceReport) -> u64| lanes.iter().map(f).sum::<u64>();
    let seconds = |f: fn(&DeviceReport) -> f64| lanes.iter().map(f).fold(0.0, |a, b| a + b);
    let steps = count(|l| l.steps.steps);
    let weighted_util = seconds(|l| l.steps.mean_budget_utilization * l.steps.steps as f64);
    let mean_resident = if report.duration_seconds > 0.0 {
        lanes.iter().fold(0.0, |a, l| {
            a + l.pool.mean_resident_bytes * l.pool.busy_span_seconds / report.duration_seconds
        })
    } else {
        0.0
    };
    let got = report.pool.mean_resident_bytes;
    prop_assert!(
        (got - mean_resident).abs() <= 1e-12 * got.abs().max(mean_resident.abs()),
        "fleet mean residency {} vs device fold {}",
        got,
        mean_resident
    );
    prop_assert_eq!(
        report.pool,
        PoolReport {
            budget_bytes: count(|l| l.pool.budget_bytes),
            peak_resident_bytes: count(|l| l.pool.peak_resident_bytes),
            peak_reserved_bytes: count(|l| l.pool.peak_reserved_bytes),
            mean_resident_bytes: got,
            busy_span_seconds: seconds(|l| l.pool.busy_span_seconds),
            admission_stall_seconds: seconds(|l| l.pool.admission_stall_seconds),
        }
    );
    prop_assert_eq!(
        report.preempt,
        PreemptReport {
            preemptions: count(|l| l.preempt.preemptions),
            swap_out_bytes: count(|l| l.preempt.swap_out_bytes),
            swap_in_bytes: count(|l| l.preempt.swap_in_bytes),
            swap_seconds: seconds(|l| l.preempt.swap_seconds),
            recompute_seconds: seconds(|l| l.preempt.recompute_seconds),
            peak_swap_held_bytes: count(|l| l.preempt.peak_swap_held_bytes),
        }
    );
    prop_assert_eq!(
        report.handoff,
        HandoffReport {
            handoffs_out: count(|l| l.handoff.handoffs_out),
            handoffs_in: count(|l| l.handoff.handoffs_in),
            bytes_out: count(|l| l.handoff.bytes_out),
            bytes_in: count(|l| l.handoff.bytes_in),
            link_seconds: seconds(|l| l.handoff.link_seconds),
            peak_in_flight_bytes: count(|l| l.handoff.peak_in_flight_bytes),
        }
    );
    prop_assert_eq!(
        report.steps,
        StepReport {
            steps,
            prefill_steps: count(|l| l.steps.prefill_steps),
            decode_steps: count(|l| l.steps.decode_steps),
            mixed_steps: count(|l| l.steps.mixed_steps),
            mean_budget_utilization: if steps > 0 {
                weighted_util / steps as f64
            } else {
                0.0
            },
        }
    );
    prop_assert_eq!(
        report.prefix,
        PrefixReport {
            hits: count(|l| l.prefix.hits),
            misses: count(|l| l.prefix.misses),
            reused_tokens: count(|l| l.prefix.reused_tokens),
            reclaimed: count(|l| l.prefix.reclaimed),
            reclaimed_bytes: count(|l| l.prefix.reclaimed_bytes),
        }
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `hetero` skews per-device throughput weights; a tight pool budget
    /// exercises preemption on some cases; `roles` specializes the fleet
    /// into disaggregated prefill/decode pools (0 = all `Unified`, 1 =
    /// split `Prefill`/`Decode`, 2 = one `Prefill` device feeding
    /// `Unified` peers), so KV handoffs cross the fleet too.
    #[test]
    fn traced_fleet_runs_are_bit_exact_accounted_and_fold_their_lanes(
        raw in proptest::collection::vec(
            ((1usize..400, 0usize..10, 0u32..2_000_000), (0u8..2, 0u8..2)),
            1..20,
        ),
        devices in 2usize..=4,
        policy_ix in 0usize..DispatchPolicy::ALL.len(),
        priority_sched in 0u8..2,
        hetero in 0u8..2,
        tight_pool in 0u8..2,
        closed in 0u8..2,
        concurrency in 1usize..6,
        roles in 0u8..3,
    ) {
        let policy = DispatchPolicy::ALL[policy_ix];
        let workload = workload_from(&raw, (closed == 1).then_some(concurrency.min(raw.len())));
        let accel = Toy;
        let budget = (tight_pool == 1).then(|| {
            // Roughly two of the largest requests fit: admission stalls
            // and (priority) preemption become common, not exotic.
            mcbp_serve::request_kv_bytes(&template().model, 400 + 10, 0.3) * 2
        });
        let base = ServeConfig {
            kv_budget_bytes: budget,
            ..ServeConfig::default()
        };
        let sim = ServeSim::try_new(&accel, template(), base).expect("valid config");
        let profiles: Vec<DeviceProfile> = (0..devices)
            .map(|i| {
                let t = if hetero == 1 { 1.0 + 0.5 * i as f64 } else { 1.0 };
                let role = match roles {
                    // Fleet splits in half: low indices prefill, the rest
                    // decode (devices >= 2, so both pools are non-empty).
                    1 if i < devices / 2 => DeviceRole::Prefill,
                    1 => DeviceRole::Decode,
                    // One dedicated prefill device handing off to
                    // unified peers that also take their own prompts.
                    2 if i == 0 => DeviceRole::Prefill,
                    _ => DeviceRole::Unified,
                };
                DeviceProfile::uniform().with_throughput(t).with_role(role)
            })
            .collect();
        let mut mk = || make_scheduler(priority_sched == 1);
        let traced = sim
            .run_spec(&workload, RunSpec::fleet(&profiles, policy).traced(), &mut mk)
            .expect("valid fleet run");
        let untraced = sim
            .run_spec(&workload, RunSpec::fleet(&profiles, policy), &mut mk)
            .expect("valid fleet run");
        prop_assert_eq!(
            &traced.report, &untraced.report,
            "recording changed the report ({:?}, {} devices)",
            policy, devices
        );
        prop_assert_eq!(
            traced.work, untraced.work,
            "recording changed the work counts ({:?}, {} devices)",
            policy, devices
        );
        prop_assert!(traced.trace.is_some() && untraced.trace.is_none());
        // Sanity: the runs actually served the trace.
        prop_assert_eq!(traced.report.completed + traced.report.dropped, raw.len());
        fleet_lanes_fold_devices(&traced.report)?;
    }
}
