//! Property-based byte conservation for disaggregated KV handoffs: over
//! arbitrary traces, fleet shapes, dispatch policies, eviction policies
//! (drop-and-recompute and swap racing the handoffs), pool pressure, and
//! link speeds, every byte that leaves a prefill device's pool is
//! accounted for — it is either still in flight on the link or already
//! re-reserved (or dropped with a record) on the decode device — at every
//! point of the recorded event stream, and nothing is in flight once the
//! run drains.

use std::sync::OnceLock;

use mcbp_model::LlmConfig;
use mcbp_serve::{
    DeviceProfile, DeviceRole, DispatchPolicy, PreemptConfig, Priority, Request, RequestId,
    Scheduler, ServeConfig, ServeSim, SloSpec, TraceEvent, Workload,
};
use mcbp_workloads::{
    Accelerator, PhaseCost, RunReport, SparsityProfile, Task, TraceContext, WeightGenerator,
};
use proptest::prelude::*;

/// Analytic accelerator with the qualitative serving shape (see
/// `fleet_drive_properties.rs`): exact arithmetic, fast enough for
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
/// interactive)`.
type RawRequest = ((usize, usize, u32), u8);

fn workload_from(raw: &[RawRequest], closed_concurrency: Option<usize>) -> Workload {
    let mut arrival = 0.0f64;
    let requests = raw
        .iter()
        .enumerate()
        .map(|(i, &((prompt_len, decode_len, gap), class_bit))| {
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
                prefix: None,
            }
        })
        .collect();
    Workload {
        requests,
        closed_loop: closed_concurrency,
    }
}

/// One recorded handoff paired with its landing on the destination.
struct Flight {
    out_cycle: f64,
    in_cycle: f64,
    bytes: u64,
}

/// Walks the event stream and pairs every `Handoff` with the first
/// admission or drop of that request on the destination device — the
/// cycle at which the transferred bytes stop being "in flight". Panics
/// (failing the test) on any unlanded or ill-ordered handoff.
fn flights(events: &[TraceEvent]) -> Vec<Flight> {
    events
        .iter()
        .filter_map(|ev| {
            let &TraceEvent::Handoff {
                id,
                from,
                to,
                cycle,
                arrival_cycle,
                bytes,
            } = ev
            else {
                return None;
            };
            assert_ne!(from, to, "a handoff never targets its own source");
            assert!(
                arrival_cycle >= cycle,
                "handoff {id} arrives before it departs"
            );
            // The landing is the *earliest* admission or drop of `id` on
            // the destination: stage-1 routing never placed `id` there,
            // so every later admit is a preemption resume.
            let landing = events
                .iter()
                .filter_map(|ev| match *ev {
                    TraceEvent::Admit {
                        device,
                        cycle,
                        id: aid,
                        resumed,
                        ..
                    } if device == to && aid == id => {
                        assert!(resumed, "a handoff landing admits as a resume");
                        Some(cycle)
                    }
                    TraceEvent::Drop {
                        device,
                        cycle,
                        id: did,
                    } if device == to && did == id => Some(cycle),
                    _ => None,
                })
                .fold(f64::INFINITY, f64::min);
            assert!(
                landing.is_finite(),
                "handoff of request {id} to device {to} never landed"
            );
            assert!(
                landing >= arrival_cycle,
                "request {id} landed at {landing} before its link arrival {arrival_cycle}"
            );
            Some(Flight {
                out_cycle: cycle,
                in_cycle: landing,
                bytes,
            })
        })
        .collect()
}

/// The conservation invariant: replay the flights on a timeline and check
/// that in-flight bytes are non-negative at every instant and zero at the
/// end — bytes released on the prefill pool equal bytes in flight plus
/// bytes landed on the decode side, at every cycle.
fn assert_conserved(flights: &[Flight]) -> u64 {
    // +bytes at departure, -bytes at landing; at equal cycles process
    // departures first so transient in-flight mass is never understated.
    let mut deltas: Vec<(f64, i32, i64)> = Vec::with_capacity(flights.len() * 2);
    for f in flights {
        deltas.push((f.out_cycle, 0, f.bytes as i64));
        deltas.push((f.in_cycle, 1, -(f.bytes as i64)));
    }
    deltas.sort_by(|a, b| a.partial_cmp(b).expect("finite cycles"));
    let mut in_flight = 0i64;
    let mut peak = 0i64;
    for (cycle, _, delta) in deltas {
        in_flight += delta;
        peak = peak.max(in_flight);
        assert!(
            in_flight >= 0,
            "in-flight bytes went negative ({in_flight}) at cycle {cycle}"
        );
    }
    assert_eq!(in_flight, 0, "bytes still in flight after the run drained");
    peak as u64
}

fn make_scheduler(priority: bool) -> Box<dyn Scheduler> {
    if priority {
        Box::new(mcbp_serve::PriorityScheduler::new())
    } else {
        Box::new(mcbp_serve::ContinuousBatchScheduler::new())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The satellite conservation property from the issue: at every
    /// recorded cycle, bytes released on the prefill pool equal bytes in
    /// flight plus bytes landed on the decode pool — including cases
    /// where drop-and-recompute or swap preemption races a handoff on
    /// the destination, and where the destination pool is too small and
    /// the handoff drops on arrival.
    #[test]
    fn handoff_bytes_are_conserved_at_every_cycle(
        raw in proptest::collection::vec(
            ((1usize..400, 0usize..10, 0u32..2_000_000), 0u8..2),
            1..20,
        ),
        devices in 2usize..=4,
        split in 1usize..=3,
        policy_ix in 0usize..DispatchPolicy::ALL.len(),
        priority_sched in 0u8..2,
        evict in 0u8..3,
        tight_pool in 0u8..2,
        zero_link in 0u8..2,
        closed in 0u8..2,
        concurrency in 1usize..6,
    ) {
        let policy = DispatchPolicy::ALL[policy_ix];
        let workload = workload_from(&raw, (closed == 1).then_some(concurrency.min(raw.len())));
        let accel = Toy;
        let budget = (tight_pool == 1).then(|| {
            // Roughly two of the largest requests fit, so admission on
            // the decode side stalls behind in-flight handoffs and the
            // eviction policies get victims to preempt.
            mcbp_serve::request_kv_bytes(&template().model, 400 + 10, 0.3) * 2
        });
        let preempt = match evict {
            0 => PreemptConfig::default(),
            1 => PreemptConfig::drop_recompute(),
            _ => PreemptConfig::swap(),
        };
        let cfg = ServeConfig {
            kv_budget_bytes: budget,
            preempt,
            ..ServeConfig::default()
        };
        let sim = ServeSim::try_new(&accel, template(), cfg).expect("valid config");
        let split = split.min(devices - 1);
        let profiles: Vec<DeviceProfile> = (0..devices)
            .map(|i| {
                let role = if i < split { DeviceRole::Prefill } else { DeviceRole::Decode };
                let p = DeviceProfile::uniform().with_role(role);
                if zero_link == 1 { p.with_host_link(f64::INFINITY) } else { p }
            })
            .collect();
        let mut mk = || make_scheduler(priority_sched == 1);
        let (report, trace) =
            sim.run_fleet_profiles_traced(&workload, &profiles, policy, &mut mk);

        // Every request is accounted for.
        prop_assert_eq!(report.completed + report.dropped, raw.len());

        // Report-level conservation: the run drained, so every byte that
        // left a prefill pool landed (or was dropped with a record) on a
        // decode device — per handoff and per byte.
        let totals = &report.handoff;
        prop_assert_eq!(totals.handoffs_out, totals.handoffs_in);
        prop_assert_eq!(totals.bytes_out, totals.bytes_in);

        // Every decode-carrying request that survived its prompt hands
        // off exactly once: no Prefill-role device can decode.
        let handed = flights(&trace.events);
        prop_assert_eq!(handed.len() as u64, totals.handoffs_out);

        // Cycle-by-cycle conservation over the recorded timeline. The
        // ledger's peak measures custody in *execution order* while the
        // trace walk measures *simulated time* — device clocks advance
        // non-monotonically relative to each other, so the two peaks can
        // differ in either direction; both are bounded by the total and
        // both are non-zero exactly when anything crossed the link.
        let peak = assert_conserved(&handed);
        prop_assert!(peak <= totals.bytes_out);
        prop_assert!(totals.peak_in_flight_bytes <= totals.bytes_out);
        prop_assert_eq!(peak > 0, totals.bytes_out > 0);
        prop_assert_eq!(totals.peak_in_flight_bytes > 0, totals.bytes_out > 0);

        // Per-lane attribution: outbound bytes sit on prefill lanes,
        // inbound bytes on decode lanes, and the lanes sum to the totals.
        let mut lane_out = 0u64;
        let mut lane_in = 0u64;
        for (i, lane) in report.devices.iter().enumerate() {
            if i < split {
                prop_assert_eq!(lane.handoff.handoffs_in, 0);
            } else {
                prop_assert_eq!(lane.handoff.handoffs_out, 0);
            }
            lane_out += lane.handoff.bytes_out;
            lane_in += lane.handoff.bytes_in;
        }
        prop_assert_eq!(lane_out, totals.bytes_out);
        prop_assert_eq!(lane_in, totals.bytes_in);

        // A zero-cost link lands every handoff the cycle it departs.
        if zero_link == 1 {
            for f in &handed {
                prop_assert!((f.out_cycle - f.in_cycle).abs() < 1e-9 || f.in_cycle >= f.out_cycle);
            }
            for ev in &trace.events {
                if let TraceEvent::Handoff { cycle, arrival_cycle, .. } = *ev {
                    prop_assert!((arrival_cycle - cycle).abs() < 1e-12);
                }
            }
        }
    }
}

/// A deterministic non-vacuousness check: a `[Prefill, Decode]` pair
/// actually hands off every decode-carrying request, conserving bytes,
/// and a drop-and-recompute preemption mid-run never double-frees a
/// victim that raced a handoff.
#[test]
fn split_pair_hands_off_every_decode_request() {
    let accel = Toy;
    let cfg = ServeConfig {
        preempt: PreemptConfig::drop_recompute(),
        // Tight enough that landed handoffs contend with each other.
        kv_budget_bytes: Some(mcbp_serve::request_kv_bytes(&template().model, 300, 0.3) * 3),
        ..ServeConfig::default()
    };
    let sim = ServeSim::try_new(&accel, template(), cfg).expect("valid config");
    let raw: Vec<RawRequest> = (0..12)
        .map(|i| ((64 + 17 * i, 4, 50_000), (i % 3 == 0) as u8))
        .collect();
    let workload = workload_from(&raw, None);
    let profiles = [
        DeviceProfile::uniform().with_role(DeviceRole::Prefill),
        DeviceProfile::uniform().with_role(DeviceRole::Decode),
    ];
    let (report, trace) = sim.run_fleet_profiles_traced(
        &workload,
        &profiles,
        DispatchPolicy::RoundRobin,
        &mut || make_scheduler(true),
    );
    assert_eq!(report.completed + report.dropped, raw.len());
    let totals = &report.handoff;
    // Every request carries decode work, so every one that survived its
    // prompt crossed the link exactly once.
    assert_eq!(totals.handoffs_out, raw.len() as u64);
    assert_eq!(totals.handoffs_in, totals.handoffs_out);
    assert_eq!(totals.bytes_out, totals.bytes_in);
    assert!(totals.bytes_out > 0);
    assert!(totals.link_seconds > 0.0);
    let handed = flights(&trace.events);
    assert_eq!(handed.len(), raw.len());
    assert_conserved(&handed);
}
