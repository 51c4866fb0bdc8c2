//! Golden digests of serving reports and traces.
//!
//! A fixed matrix of traced runs on the analytic A100 roofline covers the
//! serving core's report lanes: one device under continuous batching, under
//! priority preemption (drop-and-recompute and swap) and under a step token
//! budget; a three-device fleet with shared prefixes under every dispatch
//! policy; two disaggregated fleets; and a closed-loop fleet. Each case is
//! pinned by the FNV-1a-64 of its `ServeReport::to_json()` and of its
//! encoded `RunTrace`, so a refactor that moves any reported figure or any
//! recorded byte fails here, naming the case and printing its JSON.

use mcbp::baselines::GpuA100;
use mcbp::prelude::*;
use mcbp::serve::{request_kv_bytes, RunOutcome, Scheduler, Workload};
use mcbp::trace::to_bytes;

/// `(case, report digest, trace digest)`.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64); 12] = [
    ("single_cb_poisson", 0x76d9_1fa7_2c0f_8321, 0xc143_5964_3e07_bfbe),
    ("single_priority_drop_recompute", 0xb7cd_1832_d702_4b54, 0x957e_93f8_6cec_ad85),
    ("single_priority_swap", 0x840a_fe54_3663_c21e, 0x742a_52fb_11f8_60b3),
    ("single_step_budget", 0xc3f3_6bae_8fc6_97b3, 0x6a83_be60_b351_9b39),
    ("fleet3_prefix_rr", 0xff97_3e43_7876_20b5, 0xb702_7c8b_8161_ef92),
    ("fleet3_prefix_jsq", 0x4e2f_5f2e_0222_c76b, 0x82dc_de44_3825_057a),
    ("fleet3_prefix_llp", 0xd75d_28c0_9220_aa82, 0x5e5f_7630_a85a_54a7),
    ("fleet3_prefix_wjsq", 0xedb2_7d8f_4418_904c, 0x82dc_de44_3825_057a),
    ("fleet3_prefix_prefix", 0xd9bf_7cef_67c9_a392, 0x0192_eba7_453f_61fe),
    ("disagg_prefill_decode", 0x4815_d92e_3bc4_5f1c, 0xd675_e706_0427_bec6),
    ("disagg_prefill_unified_unified", 0x6b44_f93d_c77a_80e1, 0x3ab1_693e_acc5_f07e),
    ("closed_loop_fleet", 0x6a63_1b36_2337_4a29, 0x9752_802b_8272_8b6d),
];

const KEEP: f64 = 0.5;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn template() -> TraceContext {
    let model = LlmConfig::opt1b3();
    let gen = WeightGenerator::for_model(&model);
    TraceContext {
        weight_profile: SparsityProfile::measure(&gen.quantized_sample(16, 64, 1), 4),
        model,
        task: Task::cola(),
        batch: 1,
        attention_keep: KEEP,
    }
}

/// A pool holding the peak KV of `n` MNLI requests.
fn pool_of(n: u64) -> u64 {
    request_kv_bytes(
        &LlmConfig::opt1b3(),
        Task::mnli().with_decode(48).final_context(),
        KEEP,
    ) * n
}

/// Mixed MNLI/CoLA prompts in interactive and batch classes.
fn mixed(count: usize, process: ArrivalProcess) -> LoadGenerator {
    LoadGenerator {
        task_mix: vec![Task::mnli().with_decode(48), Task::cola().with_decode(32)],
        class_mix: vec![
            RequestClass::interactive(0.05, 0.01),
            RequestClass::batch(),
            RequestClass::batch(),
        ],
        prefix_mix: vec![None],
        count,
        process,
    }
}

fn poisson(rate_rps: f64, seed: u64) -> ArrivalProcess {
    ArrivalProcess::Poisson { rate_rps, seed }
}

/// Three tenant system prompts plus unique prompts.
fn prefixed(load: LoadGenerator) -> LoadGenerator {
    load.with_prefixes(vec![
        Some(SharedPrefix::new(1, 128)),
        Some(SharedPrefix::new(2, 192)),
        None,
        Some(SharedPrefix::new(3, 64)),
    ])
}

fn run(cfg: ServeConfig, workload: &Workload, spec: RunSpec<'_, '_>, priority: bool) -> RunOutcome {
    let gpu = GpuA100::dense();
    let sim = ServeSim::new(&gpu, template(), cfg);
    let mut make = || -> Box<dyn Scheduler> {
        if priority {
            Box::new(PriorityScheduler::new())
        } else {
            Box::new(ContinuousBatchScheduler::new())
        }
    };
    sim.run_spec(workload, spec.traced(), &mut make)
        .expect("valid fleet and workload")
}

fn single() -> RunSpec<'static, 'static> {
    RunSpec::fleet(&[DeviceProfile::uniform()], DispatchPolicy::RoundRobin)
}

fn tight(policy: EvictionPolicy) -> ServeConfig {
    ServeConfig {
        kv_budget_bytes: Some(pool_of(2)),
        preempt: PreemptConfig {
            policy,
            ..PreemptConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn roles(roles: &[DeviceRole]) -> Vec<DeviceProfile<'static>> {
    roles
        .iter()
        .map(|&r| DeviceProfile::uniform().with_role(r))
        .collect()
}

/// Every case of the matrix, in [`GOLDEN`] order.
fn matrix() -> Vec<(String, RunOutcome)> {
    let mut cases = Vec::new();
    let open = mixed(32, poisson(400.0, 11)).generate();
    cases.push((
        "single_cb_poisson".to_string(),
        run(ServeConfig::default(), &open, single(), false),
    ));
    let burst = mixed(32, poisson(60.0, 5)).generate();
    cases.push((
        "single_priority_drop_recompute".to_string(),
        run(tight(EvictionPolicy::DropRecompute), &burst, single(), true),
    ));
    cases.push((
        "single_priority_swap".to_string(),
        run(tight(EvictionPolicy::Swap), &burst, single(), true),
    ));
    let budgeted = ServeConfig {
        step_token_budget: Some(576),
        ..ServeConfig::default()
    };
    cases.push((
        "single_step_budget".to_string(),
        run(budgeted, &open, single(), false),
    ));
    let shared = prefixed(mixed(48, poisson(900.0, 3))).generate();
    let fleet_cfg = ServeConfig {
        kv_budget_bytes: Some(pool_of(3)),
        preempt: PreemptConfig::drop_recompute(),
        ..ServeConfig::default()
    };
    for policy in DispatchPolicy::ALL {
        cases.push((
            format!("fleet3_prefix_{}", policy.name()),
            run(
                fleet_cfg.clone(),
                &shared,
                RunSpec::uniform(3, policy),
                true,
            ),
        ));
    }
    let disagg = mixed(32, poisson(600.0, 7)).generate();
    for (name, fleet) in [
        (
            "disagg_prefill_decode",
            roles(&[DeviceRole::Prefill, DeviceRole::Decode]),
        ),
        (
            "disagg_prefill_unified_unified",
            roles(&[
                DeviceRole::Prefill,
                DeviceRole::Unified,
                DeviceRole::Unified,
            ]),
        ),
    ] {
        cases.push((
            name.to_string(),
            run(
                ServeConfig::default(),
                &disagg,
                RunSpec::fleet(&fleet, DispatchPolicy::JoinShortestQueue),
                false,
            ),
        ));
    }
    let closed = prefixed(mixed(24, ArrivalProcess::ClosedLoop { concurrency: 6 })).generate();
    cases.push((
        "closed_loop_fleet".to_string(),
        run(
            ServeConfig {
                kv_budget_bytes: Some(pool_of(2)),
                preempt: PreemptConfig::swap(),
                ..fleet_cfg
            },
            &closed,
            RunSpec::uniform(2, DispatchPolicy::PrefixAffinity),
            true,
        ),
    ));
    cases
}

#[test]
fn report_and_trace_digests_match_the_golden_table() {
    let cases = matrix();
    let names: Vec<&str> = cases.iter().map(|(n, _)| n.as_str()).collect();
    let golden: Vec<&str> = GOLDEN.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(names, golden, "the matrix and the golden table disagree");

    let mut mismatched = Vec::new();
    for ((name, out), &(_, report_digest, trace_digest)) in cases.iter().zip(&GOLDEN) {
        let json = out.report.to_json();
        let trace = out.trace.as_ref().expect("every case is traced");
        let got = (
            fnv1a64(json.as_bytes()),
            fnv1a64(&to_bytes(trace).expect("encode trace")),
        );
        if got != (report_digest, trace_digest) {
            eprintln!(
                "case {name}: report {:#018x} trace {:#018x} (golden {report_digest:#018x} \
                 {trace_digest:#018x})\n{json}\n",
                got.0, got.1
            );
            mismatched.push(name.as_str());
        }
    }

    // The matrix must exercise every lane the digests are meant to guard.
    let sum = |f: &dyn Fn(&ServeReport) -> f64| -> f64 {
        cases.iter().map(|(_, out)| f(&out.report)).sum()
    };
    let lanes: [(&str, f64); 6] = [
        ("swap bytes", sum(&|r| r.preempt.swap_out_bytes as f64)),
        ("recompute seconds", sum(&|r| r.preempt.recompute_seconds)),
        ("handoffs", sum(&|r| r.handoff.handoffs_out as f64)),
        ("prefix hits", sum(&|r| r.prefix.hits as f64)),
        ("prefix reclaims", sum(&|r| r.prefix.reclaimed as f64)),
        ("mixed steps", sum(&|r| r.steps.mixed_steps as f64)),
    ];
    for (lane, total) in lanes {
        assert!(total > 0.0, "the golden matrix never exercises {lane}");
    }
    assert!(
        mismatched.is_empty(),
        "report or trace digest moved for {mismatched:?}"
    );
}
