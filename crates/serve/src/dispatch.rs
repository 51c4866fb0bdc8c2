//! Per-device fleet dispatch: routing one workload across N independently
//! simulated devices.
//!
//! Unlike the §5.3 tensor-parallel scaling in
//! [`ServeConfig::fleet`](crate::ServeConfig::fleet)
//! (which makes *one* serving instance faster), fleet dispatch models
//! **data parallelism across whole devices**: every device owns its own
//! [`crate::KvCachePool`], scheduler state, and clock, and a front-end
//! [`Router`] assigns each arriving request to exactly one device. Devices
//! are described by per-device [`crate::DeviceProfile`]s — accelerator
//! generation, BGPP keep ratio, pool budget, host link, and relative
//! throughput — so a fleet can mix device generations instead of cloning
//! one configuration N times.
//!
//! # Running a fleet
//!
//! Fleet runs go through one fallible entry point, [`ServeSim::run_spec`].
//! A [`RunSpec`] names the fleet's profiles, its router (a built-in
//! [`DispatchPolicy`] or a custom [`Router`]), and whether to record a
//! [`RunTrace`]. The call rejects an invalid fleet or workload with a
//! typed [`ServeConfigError`] and returns a [`RunOutcome`]: the report,
//! the trace, and the run's [`WorkCounts`].
//! [`ServeSim::run`] is the one-device convenience over the same drive
//! loop.
//!
//! # The router
//!
//! A [`Router`] sees one [`DeviceView`] per device — queued tokens, pool
//! headroom, profile throughput, and the device's **resident prefixes** —
//! and picks the target index. [`DispatchPolicy`] provides five built-in
//! routers:
//!
//! * [`DispatchPolicy::RoundRobin`] — load-blind baseline.
//! * [`DispatchPolicy::JoinShortestQueue`] — fewest queued tokens.
//! * [`DispatchPolicy::LeastLoadedPool`] — smallest reserved pool share.
//! * [`DispatchPolicy::WeightedJsq`] — queued tokens **normalized by the
//!   profile's throughput**, so a device at half the throughput is
//!   treated as holding twice the backlog per token: the policy that
//!   makes heterogeneous fleets pay off (SLIM-style load-aware placement).
//! * [`DispatchPolicy::PrefixAffinity`] — prefers the device already
//!   holding the longest matching resident [`crate::SharedPrefix`]
//!   (its KV can be reused, so only the unshared suffix prefills), and
//!   falls back to weighted JSQ when no device holds the prefix.
//!
//! Custom routers plug in through [`RunSpec::routed`].
//!
//! # The drive loop
//!
//! Devices advance asynchronously on their own clocks. The driver
//! repeatedly (1) runs admission on the devices whose queue, pool or
//! clock changed since their last admission, (2) dispatches every
//! arrival that is due — i.e. not later than the earliest clock among
//! busy devices (with all devices idle the next arrival dispatches
//! immediately and the target device fast-forwards to it) — and (3)
//! executes one step on the busy device with the earliest clock.
//! Admission runs to a fixpoint, and only a step, an enqueue or a routed
//! handoff can move a device off it, so each of those marks its device
//! for the next admission and an unmarked device costs one flag test:
//! a step re-examines the blocked queue head of its own device, not of
//! every device in the fleet.
//! Closed-loop workloads release their next request through the global
//! dispatcher whenever any device completes (or drops) one, so the
//! in-flight population is fleet-wide.
//!
//! Dispatch decisions read each device's state as of its *own* clock. A
//! device whose clock runs ahead of an arrival admits it at its next
//! boundary, exactly as a single device admits requests that arrive
//! mid-step — the modeled dispatcher observes queue contents, which only
//! change at step boundaries.
//!
//! Everything is deterministic: ties in every policy break toward the
//! lowest device index, so a `(workload, policy, profiles)` triple
//! replays bit-identically.
//!
//! # Two-stage routing for disaggregated fleets
//!
//! With [`crate::DeviceRole`]-specialized profiles, routing splits into
//! two stages (the DistServe/Splitwise-style prefill/decode
//! disaggregation):
//!
//! 1. **Stage 1 — prompt placement.** An arriving request is routed over
//!    the *prefill-capable* devices only (`Unified` or `Prefill`). The
//!    router sees the candidate subset renumbered to contiguous
//!    positions — position-based policies (round-robin) and
//!    identity-based ones (the JSQ family) both pick within the
//!    candidates, and the pick maps back to the fleet index. Candidate
//!    order preserves ascending fleet indices, so the "lowest index"
//!    tie-break is unchanged.
//! 2. **Stage 2 — decode placement.** A `Prefill`-role device finishes
//!    the prompt **and generates the request's first token** (the
//!    DistServe cut point: TTFT is produced entirely on the prefill
//!    side and never waits on a second admission). Then the request
//!    leaves its active set: its KV is released from the source pool and
//!    the driver routes the continuation over the *decode-capable* devices
//!    (same router instance, same renumbering scheme). The KV bytes
//!    ride the source device's host link
//!    ([`crate::PreemptConfig::transfer_cycles`]) — the transfer
//!    overlaps compute DMA-style, so the latency lands on the request's
//!    availability (TTFT), not on either device's clock — and are held
//!    by the destination's [`crate::HandoffLedger`] until its admission
//!    re-reserves them ([`TraceEvent::Handoff`] records the hop).
//!    `Unified` devices never hand off: they decode locally, which is
//!    why an all-`Unified` fleet takes the pre-disaggregation code
//!    paths bit-exactly.
//!
//! Prompt-only requests (`decode_len == 0`) and single-token requests
//! (`decode_len == 1`) complete on their prefill device — there is no
//! continuation to move. A handoff whose peak KV can never fit the
//! destination pool is dropped on arrival (the prefill pool may simply
//! be larger) with its delivered first token on the record; landed
//! handoffs compete for admission like any other candidate, keyed by
//! their link-arrival instant, and may themselves preempt victims.
//!
//! # Deterministic merge
//!
//! The merge builds every fleet aggregate in one of three ways: folded in
//! device-index order, computed by an order-independent sweep (the fleet
//! peak concurrency), or sorted by an explicit total order (the trace
//! timeline's `(cycle, device, kind, seq)` key — see
//! [`TraceEvent::order_key`]). Identical per-device end states therefore
//! merge into a bit-identical [`ServeReport`] and [`RunTrace`].

use std::collections::VecDeque;

use crate::arrival::Workload;
use crate::profile::DeviceProfile;
use crate::record::{merge_event_logs, RunTrace, TraceEvent};
use crate::report::{LatencyStats, PoolReport, ServeReport, StepReport};
use crate::request::{PrefixId, Request, RequestRecord, SharedPrefix};
use crate::scheduler::Scheduler;
use crate::sim::{DeviceSim, ServeConfigError, ServeSim};
use crate::CLOCK_HZ;

/// How the fleet front-end assigns an arriving request to a device.
///
/// All policies are deterministic; ties break toward the lowest device
/// index. Each policy is a ready-made [`Router`] (see
/// [`DispatchPolicy::router`]); custom routing plugs in through
/// [`RunSpec::routed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through devices in index order, ignoring load — the
    /// baseline that a load-aware policy must beat on skewed traffic.
    RoundRobin,
    /// Join shortest queue: pick the device with the fewest queued tokens
    /// (pending prompts and decodes plus unfinished admitted/suspended
    /// work) — see [`DeviceView::queued_tokens`]. Load-aware but
    /// throughput-blind: on a mixed-generation fleet it parks as much
    /// work on the slow device as on the fast one.
    JoinShortestQueue,
    /// Pick the device whose KV pool has the smallest reserved fraction —
    /// balances *memory* pressure rather than compute backlog, which
    /// matters when long-context requests dominate the pool.
    LeastLoadedPool,
    /// Weighted join-shortest-queue: pick the device minimizing
    /// `queued_tokens / throughput` ([`DeviceView::weighted_queue`]), so
    /// backlog is measured in the device's *time to drain* rather than
    /// raw tokens. On a uniform fleet this coincides with
    /// [`DispatchPolicy::JoinShortestQueue`]; on a heterogeneous one it
    /// keeps the fast generation fed.
    WeightedJsq,
    /// Prefix-affinity routing: send a request carrying a
    /// [`crate::SharedPrefix`] to the device already holding the longest
    /// matching resident prefix (ties by weighted queue, then lowest
    /// index); requests without a prefix — or whose prefix no device
    /// holds — fall back to [`DispatchPolicy::WeightedJsq`].
    PrefixAffinity,
}

impl DispatchPolicy {
    /// Short display label used in reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "rr",
            DispatchPolicy::JoinShortestQueue => "jsq",
            DispatchPolicy::LeastLoadedPool => "llp",
            DispatchPolicy::WeightedJsq => "wjsq",
            DispatchPolicy::PrefixAffinity => "prefix",
        }
    }

    /// A fresh stateful [`Router`] implementing this policy.
    #[must_use]
    pub fn router(&self) -> PolicyRouter {
        PolicyRouter::new(*self)
    }

    /// Every dispatch policy, for sweeps.
    pub const ALL: [DispatchPolicy; 5] = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::JoinShortestQueue,
        DispatchPolicy::LeastLoadedPool,
        DispatchPolicy::WeightedJsq,
        DispatchPolicy::PrefixAffinity,
    ];
}

/// One device's state as the router sees it at dispatch time: backlog,
/// pool pressure, profile throughput, and which shared prefixes its pool
/// holds resident.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceView {
    /// Device index within the fleet.
    pub device: usize,
    /// Remaining work queued on the device, in tokens (pending prompts
    /// and decodes, unfinished admitted/suspended work, and handoffs still
    /// on the host link toward it).
    pub queued_tokens: u64,
    /// The device's KV-pool byte budget.
    pub pool_budget_bytes: u64,
    /// Bytes currently reserved in the device's KV pool.
    pub pool_reserved_bytes: u64,
    /// The device profile's relative throughput weight.
    pub throughput: f64,
    /// Shared prefixes resident in the device's pool, as
    /// `(prefix id, prefix tokens)` pairs in id order.
    pub resident_prefixes: Vec<(PrefixId, usize)>,
}

impl DeviceView {
    /// Reserved fraction of the pool budget (1.0 for a zero budget) —
    /// the least-loaded-pool metric.
    #[must_use]
    pub fn pool_load(&self) -> f64 {
        if self.pool_budget_bytes == 0 {
            return 1.0;
        }
        self.pool_reserved_bytes as f64 / self.pool_budget_bytes as f64
    }

    /// Queued tokens normalized by the profile throughput — the
    /// weighted-JSQ metric (an estimate of the device's time to drain its
    /// backlog, in arbitrary but fleet-consistent units).
    #[must_use]
    pub fn weighted_queue(&self) -> f64 {
        self.queued_tokens as f64 / self.throughput
    }

    /// Tokens of `prefix` this device already holds resident (0 when the
    /// prefix is absent) — the prefix-affinity metric.
    #[must_use]
    pub fn matching_prefix_tokens(&self, prefix: &SharedPrefix) -> usize {
        self.resident_prefixes
            .iter()
            .find(|(id, _)| *id == prefix.id)
            .map_or(0, |(_, tokens)| (*tokens).min(prefix.tokens))
    }
}

/// A fleet front-end: assigns each arriving request to one device, given
/// a per-device [`DeviceView`] of the fleet.
///
/// Implementations must be deterministic functions of the observed views
/// (plus internal state) — no randomness, no wall clock — so fleet runs
/// replay exactly. The returned index must be within `fleet.len()` (the
/// driver asserts it).
pub trait Router {
    /// Display name used in reports.
    fn name(&self) -> &str;

    /// Picks the target device for one arriving request.
    fn route(&mut self, request: &Request, fleet: &[DeviceView]) -> usize;
}

/// The built-in stateful router behind each [`DispatchPolicy`].
#[derive(Debug, Clone)]
pub struct PolicyRouter {
    policy: DispatchPolicy,
    rr: usize,
}

impl PolicyRouter {
    /// A fresh router for the given policy.
    #[must_use]
    pub fn new(policy: DispatchPolicy) -> Self {
        PolicyRouter { policy, rr: 0 }
    }
}

/// The device minimizing `queued_tokens / throughput`, ties toward the
/// lowest index.
fn weighted_jsq(fleet: &[DeviceView]) -> usize {
    fleet
        .iter()
        .min_by(|a, b| {
            a.weighted_queue()
                .total_cmp(&b.weighted_queue())
                .then(a.device.cmp(&b.device))
        })
        .expect("non-empty fleet")
        .device
}

impl Router for PolicyRouter {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn route(&mut self, request: &Request, fleet: &[DeviceView]) -> usize {
        match self.policy {
            DispatchPolicy::RoundRobin => {
                let i = self.rr % fleet.len();
                self.rr += 1;
                i
            }
            DispatchPolicy::JoinShortestQueue => {
                fleet
                    .iter()
                    .min_by_key(|d| (d.queued_tokens, d.device))
                    .expect("non-empty fleet")
                    .device
            }
            DispatchPolicy::LeastLoadedPool => {
                fleet
                    .iter()
                    .min_by(|a, b| {
                        a.pool_load()
                            .total_cmp(&b.pool_load())
                            .then(a.device.cmp(&b.device))
                    })
                    .expect("non-empty fleet")
                    .device
            }
            DispatchPolicy::WeightedJsq => weighted_jsq(fleet),
            DispatchPolicy::PrefixAffinity => {
                let holder = request.prefix.as_ref().and_then(|p| {
                    fleet
                        .iter()
                        .filter(|d| d.matching_prefix_tokens(p) > 0)
                        // Longest match first; then shortest weighted
                        // queue; then lowest index.
                        .max_by(|a, b| {
                            a.matching_prefix_tokens(p)
                                .cmp(&b.matching_prefix_tokens(p))
                                .then(
                                    b.weighted_queue()
                                        .total_cmp(&a.weighted_queue())
                                        .then(b.device.cmp(&a.device)),
                                )
                        })
                        .map(|d| d.device)
                });
                holder.unwrap_or_else(|| weighted_jsq(fleet))
            }
        }
    }
}

/// The router a [`RunSpec`] spreads arrivals with.
enum Routing<'r> {
    /// A fresh router for a built-in policy.
    Policy(DispatchPolicy),
    /// A caller-owned custom router.
    Custom(&'r mut dyn Router),
}

/// What one serving run drives besides its workload and schedulers: the
/// fleet's per-device [`DeviceProfile`]s, the router that spreads
/// arrivals over them, and whether to record a [`RunTrace`]. Hand it to
/// [`ServeSim::run_spec`].
pub struct RunSpec<'r, 'a> {
    profiles: Vec<DeviceProfile<'a>>,
    routing: Routing<'r>,
    trace: bool,
}

impl<'r, 'a> RunSpec<'r, 'a> {
    /// A fleet of the given profiles under a built-in dispatch policy.
    #[must_use]
    pub fn fleet(profiles: &[DeviceProfile<'a>], policy: DispatchPolicy) -> Self {
        RunSpec {
            profiles: profiles.to_vec(),
            routing: Routing::Policy(policy),
            trace: false,
        }
    }

    /// `devices` identical [`DeviceProfile::uniform`] devices under a
    /// built-in dispatch policy — the classic uniform fleet.
    #[must_use]
    pub fn uniform(devices: usize, policy: DispatchPolicy) -> Self {
        RunSpec {
            profiles: vec![DeviceProfile::uniform(); devices],
            routing: Routing::Policy(policy),
            trace: false,
        }
    }

    /// A fleet of the given profiles under a custom [`Router`].
    #[must_use]
    pub fn routed(profiles: &[DeviceProfile<'a>], router: &'r mut dyn Router) -> Self {
        RunSpec {
            profiles: profiles.to_vec(),
            routing: Routing::Custom(router),
            trace: false,
        }
    }

    /// The same run, additionally recording its [`RunTrace`]. Recording
    /// only observes: the report is bit-exact with the untraced run's.
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// What [`ServeSim::run_spec`] returns: the merged report, the recorded
/// history when the [`RunSpec`] asked for one, and the run's work counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The merged report, with one [`DeviceReport`](crate::DeviceReport)
    /// lane per device.
    pub report: ServeReport,
    /// The run's recorded history: `Some` exactly when the spec was
    /// [`RunSpec::traced`].
    pub trace: Option<RunTrace>,
    /// How much per-request work the drive did, summed over the fleet.
    pub work: WorkCounts,
}

/// Deterministic counts of the drive's per-request work units, each
/// incremented where the work happens. They explain the simulator's host
/// time without a clock: a run whose counts per request stay flat as
/// traffic grows has no super-linear cliff. They sit beside the report,
/// not in it, so no report or trace digest depends on them, and recording
/// a trace leaves them unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Requests summed into a device's queued-token count, over every
    /// [`DeviceView`] built.
    pub queue_entries: u64,
    /// Waiting requests the admission passes examined as the next
    /// candidate.
    pub admission_candidates: u64,
    /// [`SchedEntry`](crate::SchedEntry) rows built for the schedulers.
    pub sched_entries: u64,
    /// [`DeviceView`]s built for routing decisions.
    pub router_views: u64,
}

impl WorkCounts {
    /// Adds `other`'s counts to these.
    fn absorb(&mut self, other: &WorkCounts) {
        self.queue_entries += other.queue_entries;
        self.admission_candidates += other.admission_candidates;
        self.sched_entries += other.sched_entries;
        self.router_views += other.router_views;
    }
}

impl<'a> ServeSim<'a> {
    /// Runs one workload on the fleet a [`RunSpec`] describes — the one
    /// fallible entry point behind every fleet, custom-routed, and traced
    /// run. Every device gets its own KV pool (its profile's budget, else
    /// [`ServeConfig::kv_budget_bytes`](crate::ServeConfig::kv_budget_bytes)),
    /// its own scheduler from `make_scheduler`, and its own clock; the
    /// merged [`ServeReport`] carries a per-device breakdown in
    /// [`ServeReport::devices`].
    ///
    /// ```
    /// use mcbp_model::LlmConfig;
    /// use mcbp_serve::{
    ///     ArrivalProcess, ContinuousBatchScheduler, DispatchPolicy, LoadGenerator, RunSpec,
    ///     ServeConfig, ServeSim,
    /// };
    /// use mcbp_sim::{McbpConfig, McbpSim};
    /// use mcbp_workloads::{SparsityProfile, Task, TraceContext, WeightGenerator};
    ///
    /// let model = LlmConfig::opt1b3();
    /// let gen = WeightGenerator::for_model(&model);
    /// let profile = SparsityProfile::measure(&gen.quantized_sample(32, 256, 1), 4);
    /// let template = TraceContext {
    ///     model, task: Task::cola(), batch: 1,
    ///     weight_profile: profile, attention_keep: 0.3,
    /// };
    /// let mcbp = McbpSim::new(McbpConfig::default());
    /// let sim = ServeSim::new(&mcbp, template, ServeConfig::default());
    /// let workload = LoadGenerator::uniform(
    ///     Task::cola(), 6, ArrivalProcess::ClosedLoop { concurrency: 6 },
    /// ).generate();
    /// let out = sim
    ///     .run_spec(
    ///         &workload,
    ///         RunSpec::uniform(2, DispatchPolicy::JoinShortestQueue).traced(),
    ///         &mut || Box::new(ContinuousBatchScheduler::new()),
    ///     )
    ///     .expect("a valid fleet and workload");
    /// assert_eq!(out.report.completed, 6);
    /// assert_eq!(out.report.devices.len(), 2);
    /// let dispatched: usize = out.report.devices.iter().map(|d| d.dispatched).sum();
    /// assert_eq!(dispatched, 6);
    /// assert_eq!(out.trace.expect("traced run").devices, 2);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first [`ServeConfigError`] the fleet violates (see
    /// [`DeviceProfile::validate_fleet`]), else the first the workload
    /// violates (see [`ServeSim::validate_workload`]).
    ///
    /// # Panics
    ///
    /// Panics on internal accounting violations or a scheduler or router
    /// contract violation.
    pub fn run_spec(
        &self,
        workload: &Workload,
        spec: RunSpec<'_, 'a>,
        make_scheduler: &mut dyn FnMut() -> Box<dyn Scheduler>,
    ) -> Result<RunOutcome, ServeConfigError> {
        DeviceProfile::validate_fleet(&spec.profiles)?;
        ServeSim::validate_workload(workload)?;
        let mut scheds: Vec<Box<dyn Scheduler>> =
            spec.profiles.iter().map(|_| make_scheduler()).collect();
        let mut refs: Vec<&mut dyn Scheduler> =
            scheds.iter_mut().map(|s| s.as_mut() as _).collect();
        let mut policy_router;
        let router: &mut dyn Router = match spec.routing {
            Routing::Policy(policy) => {
                policy_router = policy.router();
                &mut policy_router
            }
            Routing::Custom(router) => router,
        };
        Ok(drive(
            self,
            workload,
            &mut refs,
            &spec.profiles,
            router,
            spec.trace,
        ))
    }

    /// Runs one workload across a profiled fleet under a built-in
    /// dispatch policy: [`ServeSim::run_spec`] with [`RunSpec::fleet`].
    /// Kept only because the `simbench/` benchmark calls it; new code
    /// calls [`ServeSim::run_spec`].
    ///
    /// # Panics
    ///
    /// Panics where [`ServeSim::run_spec`] would return an error or panic.
    #[must_use]
    pub fn run_fleet_profiles(
        &self,
        workload: &Workload,
        profiles: &[DeviceProfile<'a>],
        policy: DispatchPolicy,
        make_scheduler: &mut dyn FnMut() -> Box<dyn Scheduler>,
    ) -> ServeReport {
        self.run_spec(workload, RunSpec::fleet(profiles, policy), make_scheduler)
            .unwrap_or_else(|e| panic!("invalid fleet run: {e}"))
            .report
    }

    /// Like [`ServeSim::run_fleet_profiles`], but also records the run's
    /// [`RunTrace`] ([`RunSpec::traced`]). Replaying the trace's workload
    /// under the same fleet, policy, and scheduler reproduces the report
    /// bit-exactly. Kept only because the `simbench/` benchmark calls it;
    /// new code calls [`ServeSim::run_spec`].
    ///
    /// # Panics
    ///
    /// Panics where [`ServeSim::run_fleet_profiles`] would.
    #[must_use]
    pub fn run_fleet_profiles_traced(
        &self,
        workload: &Workload,
        profiles: &[DeviceProfile<'a>],
        policy: DispatchPolicy,
        make_scheduler: &mut dyn FnMut() -> Box<dyn Scheduler>,
    ) -> (ServeReport, RunTrace) {
        let out = self
            .run_spec(
                workload,
                RunSpec::fleet(profiles, policy).traced(),
                make_scheduler,
            )
            .unwrap_or_else(|e| panic!("invalid fleet run: {e}"));
        (out.report, out.trace.expect("tracing was requested"))
    }
}

/// Releases the next closed-loop request (if any) into `pending` at the
/// given instant — a completion or a drop each vacate exactly one
/// population slot. The released entry is inserted in arrival order:
/// fleet devices complete on asynchronous clocks, so release instants are
/// *not* nondecreasing and a tail push would break the sorted-deque
/// invariant the front-gated dispatch loop relies on.
fn release_next_closed_loop(
    unreleased: &mut VecDeque<Request>,
    pending: &mut VecDeque<Request>,
    now: f64,
) {
    let Some(mut req) = unreleased.pop_front() else {
        return;
    };
    req.arrival_cycle = now;
    let pos = pending.partition_point(|r| r.arrival_cycle <= now);
    pending.insert(pos, req);
}

/// One device's [`DeviceView`] as of its own clock.
fn device_view(i: usize, d: &mut DeviceSim<'_, '_>) -> DeviceView {
    DeviceView {
        device: i,
        queued_tokens: d.queued_tokens(),
        pool_budget_bytes: d.pool.budget_bytes(),
        pool_reserved_bytes: d.pool.reserved_bytes(),
        throughput: d.throughput(),
        resident_prefixes: d
            .pool
            .resident_prefixes()
            .into_iter()
            .map(|(id, e)| (id, e.tokens))
            .collect(),
    }
}

/// The fleet indices eligible for each routing stage, plus whether the
/// fleet is role-specialized at all. An all-`Unified` fleet routes every
/// prompt over the whole fleet and never runs stage 2 (`Unified` devices
/// never hand off) — bit-exactness with pre-role fleets by construction.
struct StagePlan {
    prefill: Vec<usize>,
    decode: Vec<usize>,
    specialized: bool,
}

impl StagePlan {
    fn new(profiles: &[DeviceProfile<'_>]) -> Self {
        let prefill: Vec<usize> = profiles
            .iter()
            .enumerate()
            .filter(|(_, p)| p.role.can_prefill())
            .map(|(i, _)| i)
            .collect();
        let decode: Vec<usize> = profiles
            .iter()
            .enumerate()
            .filter(|(_, p)| p.role.can_decode())
            .map(|(i, _)| i)
            .collect();
        let specialized = prefill.len() < profiles.len() || decode.len() < profiles.len();
        StagePlan {
            prefill,
            decode,
            specialized,
        }
    }
}

/// Routes one request over the candidate subset `set` (ascending fleet
/// indices). The candidate views are renumbered to contiguous positions
/// so position-based policies (round-robin) and identity-based ones (the
/// JSQ family) both pick within the subset; preserving ascending order
/// keeps the "lowest index" tie-break intact. Returns the fleet index.
fn route_among(
    router: &mut dyn Router,
    req: &Request,
    set: &[usize],
    work: &mut WorkCounts,
    mut view_of: impl FnMut(usize) -> DeviceView,
) -> usize {
    let views: Vec<DeviceView> = set
        .iter()
        .enumerate()
        .map(|(pos, &i)| DeviceView {
            device: pos,
            ..view_of(i)
        })
        .collect();
    work.router_views += views.len() as u64;
    let pick = router.route(req, &views);
    assert!(
        pick < set.len(),
        "router `{}` picked candidate {pick} of {}",
        router.name(),
        set.len()
    );
    set[pick]
}

/// One fleet device and the scheduler planning its steps — the unit the
/// drive loop steps.
struct Slot<'s, 'a, 'x> {
    dev: DeviceSim<'s, 'a>,
    sched: &'x mut dyn Scheduler,
}

/// The drive loop's state: one slot per device, the global arrival
/// queue, the closed-loop slots not yet released, the routing plan, the
/// router's trace log, and the routing share of the work counts.
struct Drive<'s, 'a, 'x> {
    slots: Vec<Slot<'s, 'a, 'x>>,
    /// Undispatched requests with a finite arrival, kept arrival-sorted
    /// (generated workloads already are; sorting here makes hand-built
    /// ones safe too, and closed-loop releases insert their entry at its
    /// sorted position).
    pending: VecDeque<Request>,
    /// Closed-loop requests whose slot has not opened yet (the workload's
    /// `+∞` arrivals), released first in, first out.
    unreleased: VecDeque<Request>,
    plan: StagePlan,
    trace: bool,
    /// Routing decisions of a traced run (stage-1 routes and handoffs).
    route_log: Vec<TraceEvent>,
    /// The router views built; the devices' own counts join at the merge.
    work: WorkCounts,
}

impl<'s, 'a, 'x> Drive<'s, 'a, 'x> {
    fn new(
        sim: &'s ServeSim<'a>,
        workload: &Workload,
        scheds: &'x mut [&mut dyn Scheduler],
        profiles: &[DeviceProfile<'a>],
        trace: bool,
    ) -> Self {
        let slots = profiles
            .iter()
            .zip(scheds.iter_mut())
            .enumerate()
            .map(|(i, (profile, sched))| {
                let mut dev = DeviceSim::new(sim, profile);
                dev.device = i as u32;
                dev.log = trace.then(Vec::new);
                Slot {
                    dev,
                    sched: &mut **sched,
                }
            })
            .collect();
        let (mut pending, unreleased): (VecDeque<Request>, _) = workload
            .requests
            .iter()
            .cloned()
            .partition(|r| r.arrival_cycle.is_finite());
        pending
            .make_contiguous()
            .sort_by(|a, b| a.arrival_cycle.total_cmp(&b.arrival_cycle));
        Drive {
            slots,
            pending,
            unreleased,
            plan: StagePlan::new(profiles),
            trace,
            route_log: Vec::new(),
            work: WorkCounts::default(),
        }
    }

    /// Drives the fleet until it drains: the dispatch fixpoint, then one
    /// step of the earliest busy device, repeated.
    fn run(&mut self, router: &mut dyn Router) {
        loop {
            self.dispatch_fixpoint(router);
            if !self.step_earliest() {
                break; // drained
            }
        }
    }

    /// Admission on every changed device, stage-2 routing of finished
    /// prefills, and dispatch of every due arrival, repeated until nothing
    /// changes.
    /// An arrival is due at or before the earliest busy device clock;
    /// with the whole fleet idle the next arrival is due immediately (its
    /// device fast-forwards to it).
    fn dispatch_fixpoint(&mut self, router: &mut dyn Router) {
        loop {
            let mut progress = false;
            for i in 0..self.slots.len() {
                let drops = self.slots[i].dev.admit();
                if drops > 0 {
                    progress = true;
                    let now = self.slots[i].dev.now;
                    self.release(drops, now);
                }
            }
            // Stage 2: route finished prefills onto decode devices (the
            // admissions above and the advance step both produce them).
            if self.plan.specialized && self.route_handoffs(router) {
                progress = true;
            }
            while let Some(head) = self.pending.front() {
                let min_busy = self
                    .slots
                    .iter()
                    .filter(|s| s.dev.has_active())
                    .map(|s| s.dev.now)
                    .min_by(f64::total_cmp);
                if min_busy.is_some_and(|clock| head.arrival_cycle > clock) {
                    break;
                }
                let req = self.pending.pop_front().expect("head exists");
                // Stage 1: prompts route over the prefill-capable devices
                // (the whole fleet unless it is role-specialized).
                let target = route_among(router, &req, &self.plan.prefill, &mut self.work, |i| {
                    device_view(i, &mut self.slots[i].dev)
                });
                if self.trace {
                    self.route_log.push(TraceEvent::Route {
                        id: req.id,
                        device: target as u32,
                        cycle: req.arrival_cycle,
                    });
                }
                let dev = &mut self.slots[target].dev;
                dev.enqueue(req);
                let drops = dev.admit();
                let now = dev.now;
                self.release(drops, now);
                progress = true;
            }
            if !progress {
                break;
            }
        }
    }

    /// Vacates `count` closed-loop population slots at `now` — a
    /// completion or a drop each frees one; a no-op once every slot is
    /// released (always, on open-loop load).
    fn release(&mut self, count: usize, now: f64) {
        for _ in 0..count {
            release_next_closed_loop(&mut self.unreleased, &mut self.pending, now);
        }
    }

    /// Stage-2 routing: drains every device's finished prefills in device
    /// index order (then emission order), routes each over the
    /// decode-capable devices, books the transfer on the source's link and
    /// the destination's ledger, and logs the hop. Returns whether any
    /// handoff was routed (fixpoint progress).
    fn route_handoffs(&mut self, router: &mut dyn Router) -> bool {
        let mut routed = false;
        for src in 0..self.slots.len() {
            for h in self.slots[src].dev.take_outbound() {
                let req = &h.flight.req;
                let target = route_among(router, req, &self.plan.decode, &mut self.work, |i| {
                    device_view(i, &mut self.slots[i].dev)
                });
                let cycles = self.slots[src].dev.handoff_transfer_cycles(h.bytes);
                let arrival = h.ready_cycle + cycles;
                self.slots[src].dev.note_handoff_out(h.bytes, cycles);
                if self.trace {
                    self.route_log.push(TraceEvent::Handoff {
                        id: req.id,
                        from: src as u32,
                        to: target as u32,
                        cycle: h.ready_cycle,
                        arrival_cycle: arrival,
                        bytes: h.bytes,
                    });
                }
                self.slots[target].dev.receive_handoff(h, arrival);
                routed = true;
            }
        }
        routed
    }

    /// Steps the busy device with the earliest clock once (ties toward the
    /// lowest index), releasing one closed-loop slot per completion.
    /// Returns `false` when no device is busy.
    fn step_earliest(&mut self) -> bool {
        let Some(slot) = self
            .slots
            .iter_mut()
            .filter(|s| s.dev.has_active())
            .min_by(|a, b| a.dev.now.total_cmp(&b.dev.now))
        else {
            return false;
        };
        let completions = slot.dev.step(&mut *slot.sched);
        let now = slot.dev.now;
        self.release(completions, now);
        true
    }
}

/// The drive loop behind every run: one scheduler slice and one profile
/// per device. With `trace` set, every device logs its
/// admission/step/preemption events and the router's dispatch decisions
/// are logged too; the merged history — ordered by the explicit
/// `(cycle, device, kind, seq)` key — is returned as the [`RunTrace`].
/// Observation only: the simulated run itself, and its work counts, are
/// bit-exact with an untraced one.
pub(crate) fn drive<'a>(
    sim: &ServeSim<'a>,
    workload: &Workload,
    scheds: &mut [&mut dyn Scheduler],
    profiles: &[DeviceProfile<'a>],
    router: &mut dyn Router,
    trace: bool,
) -> RunOutcome {
    let n = scheds.len();
    assert!(n >= 1, "at least one device");
    assert_eq!(n, profiles.len(), "one profile per scheduler slice");
    let name = report_name(scheds, router);
    let mut fleet = Drive::new(sim, workload, scheds, profiles, trace);
    fleet.run(router);
    // Validation guarantees a closed loop starts at least one request, and
    // every completion or drop releases the next slot.
    debug_assert!(
        fleet.unreleased.is_empty() && fleet.slots.iter().all(|s| s.dev.is_drained()),
        "driver exited with undone work"
    );
    let devs = fleet.slots.into_iter().map(|s| s.dev).collect();
    merge_fleet(workload, devs, fleet.route_log, fleet.work, name, trace)
}

/// Display name of a fleet run's report.
fn report_name(scheds: &[&mut dyn Scheduler], router: &dyn Router) -> String {
    if scheds.len() == 1 {
        scheds[0].name().to_owned()
    } else {
        format!("{} [{}x {}]", scheds[0].name(), scheds.len(), router.name())
    }
}

/// The maximum number of simultaneously admitted, incomplete requests
/// across the fleet: a sweep over every device's admission (`+1`) and
/// departure (`-1`) deltas on the shared clock. Departures sort before
/// admissions at the same instant, so back-to-back turnover at one cycle
/// does not read as overlap (admission intervals are half-open). That
/// convention lets `live` dip negative *within* a cycle group — a
/// request admitted and evicted (or extracted) in the same admission
/// pass has its `-1` sorted ahead of its own `+1`, correctly
/// contributing zero occupancy — so non-negativity is asserted only at
/// group boundaries, where every departure's admission has been
/// counted. The sweep is order-independent across devices: it depends
/// only on the union of the per-device delta logs.
fn fleet_peak_concurrency(logs: &[&[(f64, i32)]]) -> usize {
    let mut deltas: Vec<(f64, i32)> = logs.iter().flat_map(|l| l.iter().copied()).collect();
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut live: i64 = 0;
    let mut peak: i64 = 0;
    let mut prev_cycle = f64::NEG_INFINITY;
    for (cycle, delta) in deltas {
        if cycle > prev_cycle {
            debug_assert!(
                live >= 0,
                "fleet concurrency sweep negative at cycle boundary {cycle}"
            );
            prev_cycle = cycle;
        }
        live += i64::from(delta);
        peak = peak.max(live);
    }
    debug_assert!(live >= 0, "fleet concurrency sweep ended negative");
    usize::try_from(peak).expect("peak is non-negative")
}

/// Merges drained per-device simulations into the fleet [`ServeReport`]
/// (and, when tracing, the [`RunTrace`]) — the one place a report is
/// built — and adds each device's work counts to the drive's `work`.
/// Every aggregate is either accumulated in device index order, computed
/// by an order-independent sweep, or sorted by an explicit total order,
/// so identical per-device end states merge into bit-identical reports.
fn merge_fleet(
    workload: &Workload,
    mut devs: Vec<DeviceSim<'_, '_>>,
    route_log: Vec<TraceEvent>,
    mut work: WorkCounts,
    name: String,
    trace: bool,
) -> RunOutcome {
    let n = devs.len();
    let duration_cycles = devs.iter().map(|d| d.now).fold(0.0, f64::max);
    let mut report = ServeReport {
        scheduler: name,
        duration_seconds: duration_cycles / CLOCK_HZ,
        offered_rps: workload.offered_rps(),
        ..ServeReport::default()
    };
    // The fleet peak is the true simultaneous maximum, not a sum of
    // per-device peaks reached at different local instants.
    let conc_logs: Vec<&[(f64, i32)]> = devs.iter().map(|d| d.conc_log.as_slice()).collect();
    report.peak_concurrency = fleet_peak_concurrency(&conc_logs);
    let mut device_logs: Vec<Vec<TraceEvent>> = Vec::new();
    let mut energy_pj = 0.0;
    let mut decode_invocations = 0u64;
    let mut decode_streams = 0u64;
    for (i, d) in devs.iter_mut().enumerate() {
        let lane = d.lane(i, duration_cycles);
        // Fleet lanes sum the device lanes: budgets, stalls, and counts
        // add, and the byte peaks are per-device maxima taken at
        // different local instants, so their sum bounds any fleet-wide
        // simultaneous figure. The two means add weighted terms: a
        // device's residency counts over its *busy* share of the fleet
        // span (a device that drained early, or idled forward waiting for
        // arrivals, held nothing in those windows), its budget
        // utilization by its step count (renormalized below).
        report.pool.absorb(&PoolReport {
            mean_resident_bytes: if duration_cycles > 0.0 {
                lane.pool.mean_resident_bytes * d.pool.busy_span_cycles() / duration_cycles
            } else {
                0.0
            },
            ..lane.pool
        });
        report.steps.absorb(&StepReport {
            mean_budget_utilization: lane.steps.mean_budget_utilization * lane.steps.steps as f64,
            ..lane.steps
        });
        report.preempt.absorb(&lane.preempt);
        report.handoff.absorb(&lane.handoff);
        report.prefix.absorb(&lane.prefix);
        report.devices.push(lane);
        energy_pj += d.energy_pj;
        decode_invocations += d.decode_invocations;
        decode_streams += d.decode_streams;
        work.absorb(&d.work);
        if let Some(log) = d.log.take() {
            device_logs.push(log);
        }
        report.records.append(&mut d.records);
    }
    if report.steps.steps > 0 {
        report.steps.mean_budget_utilization /= report.steps.steps as f64;
    }
    report.energy_joules = energy_pj * 1e-12;
    if decode_invocations > 0 {
        report.mean_decode_batch = decode_streams as f64 / decode_invocations as f64;
    }
    report.records.sort_by_key(|r| r.request.id);
    let completed: Vec<&RequestRecord> = report.records.iter().filter(|r| r.completed()).collect();
    let latency = |cycles: fn(&RequestRecord) -> f64| {
        LatencyStats::from_cycles(&completed.iter().map(|r| cycles(r)).collect::<Vec<_>>())
    };
    let met: Vec<&RequestRecord> = completed.iter().copied().filter(|r| r.slo_met()).collect();
    let tokens = |rs: &[&RequestRecord]| rs.iter().map(|r| r.tokens).sum::<usize>() as f64;
    let span = report.duration_seconds.max(1e-12);
    report.ttft = latency(RequestRecord::ttft_cycles);
    report.tpot = latency(RequestRecord::tpot_cycles);
    report.e2e = latency(RequestRecord::e2e_cycles);
    report.goodput_tokens_per_s = tokens(&completed) / span;
    report.slo_met = met.len();
    report.slo_goodput_tokens_per_s = tokens(&met) / span;
    report.throughput_rps = completed.len() as f64 / span;
    report.completed = completed.len();
    report.dropped = report.records.len() - completed.len();
    let run_trace = trace.then(|| {
        // Merge the route log and the per-device logs (each individually
        // in emission order) by the explicit `(cycle, device, kind, seq)`
        // total order — nothing depends on sort stability or on the
        // order the logs are handed over in.
        let mut logs = Vec::with_capacity(device_logs.len() + 1);
        logs.push(route_log);
        logs.append(&mut device_logs);
        RunTrace {
            workload: workload.clone(),
            devices: n as u32,
            events: merge_event_logs(logs),
        }
    });
    RunOutcome {
        report,
        trace: run_trace,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use mcbp_workloads::Task;

    #[test]
    fn out_of_order_releases_keep_the_pending_deque_sorted() {
        // Fleet devices complete on asynchronous clocks, so release
        // instants arrive out of order; each release must land at its
        // sorted position, not at the tail.
        let mut unreleased: VecDeque<Request> = (0..3)
            .map(|i| Request::from_task(i, &Task::cola(), f64::INFINITY))
            .collect();
        let mut pending = VecDeque::new();
        release_next_closed_loop(&mut unreleased, &mut pending, 110.0);
        release_next_closed_loop(&mut unreleased, &mut pending, 105.0);
        let arrivals: Vec<f64> = pending.iter().map(|r| r.arrival_cycle).collect();
        assert_eq!(arrivals, [105.0, 110.0]);
        assert_eq!(unreleased.len(), 1);
        // An early release sorts ahead of the released entries, and slots
        // release first in, first out; once every slot is released,
        // further releases are no-ops.
        release_next_closed_loop(&mut unreleased, &mut pending, 1.0);
        release_next_closed_loop(&mut unreleased, &mut pending, 120.0);
        assert_eq!(pending.len(), 3);
        assert!(unreleased.is_empty());
        let arrivals: Vec<f64> = pending.iter().map(|r| r.arrival_cycle).collect();
        assert_eq!(arrivals, [1.0, 105.0, 110.0]);
        let ids: Vec<u64> = pending.iter().map(|r| r.id).collect();
        assert_eq!(ids, [2, 1, 0]);
    }

    /// A hand-built fleet view for router unit tests.
    fn view(device: usize, queued: u64, reserved: u64, throughput: f64) -> DeviceView {
        DeviceView {
            device,
            queued_tokens: queued,
            pool_budget_bytes: 1_000,
            pool_reserved_bytes: reserved,
            throughput,
            resident_prefixes: Vec::new(),
        }
    }

    fn request() -> Request {
        Request::from_task(0, &Task::cola(), 0.0)
    }

    /// Exactly tied devices must deterministically dispatch to the lowest
    /// device id under every load-aware policy, so fleet runs replay
    /// identically across platforms (no dependence on iteration order or
    /// float comparison quirks). Extends the PR 4 tie-break regression to
    /// the weighted-JSQ and prefix-affinity routers.
    #[test]
    fn tied_devices_break_toward_the_lowest_id() {
        let fresh = || vec![view(0, 0, 0, 1.0), view(1, 0, 0, 1.0), view(2, 0, 0, 1.0)];
        for policy in [
            DispatchPolicy::JoinShortestQueue,
            DispatchPolicy::LeastLoadedPool,
            DispatchPolicy::WeightedJsq,
            DispatchPolicy::PrefixAffinity,
        ] {
            let mut router = policy.router();
            assert_eq!(router.route(&request(), &fresh()), 0, "{policy:?}");
        }
        // Load device 0; JSQ-family policies now prefer the still-empty
        // device 1, and a 1-vs-2 tie again breaks toward the lower id.
        let loaded = vec![
            view(0, 64, 100, 1.0),
            view(1, 0, 0, 1.0),
            view(2, 0, 0, 1.0),
        ];
        for policy in [
            DispatchPolicy::JoinShortestQueue,
            DispatchPolicy::LeastLoadedPool,
            DispatchPolicy::WeightedJsq,
            DispatchPolicy::PrefixAffinity,
        ] {
            let mut router = policy.router();
            assert_eq!(router.route(&request(), &loaded), 1, "{policy:?}");
        }
        // Weighted ties at *different* raw queue lengths: 100 tokens at
        // throughput 2.0 equals 50 tokens at throughput 1.0 — the tie
        // still breaks to the lowest id, not the rawest queue.
        let weighted_tie = vec![view(0, 100, 0, 2.0), view(1, 50, 0, 1.0)];
        let mut router = DispatchPolicy::WeightedJsq.router();
        assert_eq!(router.route(&request(), &weighted_tie), 0);
    }

    /// Pins the fleet-peak semantics: the peak is the maximum number of
    /// requests *simultaneously* in flight across the fleet, not a sum
    /// of per-device peaks reached at different instants, and a
    /// departure and an admission at the same cycle do not overlap
    /// (half-open intervals). The sweep must also be independent of the
    /// order devices are listed in.
    #[test]
    fn fleet_peak_concurrency_is_simultaneous_not_summed() {
        // Two devices, each peaking at 1, in disjoint windows: the old
        // per-device sum reported 2; the true simultaneous peak is 1.
        let d0: &[(f64, i32)] = &[(0.0, 1), (10.0, -1)];
        let d1: &[(f64, i32)] = &[(20.0, 1), (30.0, -1)];
        assert_eq!(fleet_peak_concurrency(&[d0, d1]), 1);
        // Back-to-back turnover at one cycle: d1 admits exactly when d0
        // retires — still no overlap.
        let d1_touching: &[(f64, i32)] = &[(10.0, 1), (30.0, -1)];
        assert_eq!(fleet_peak_concurrency(&[d0, d1_touching]), 1);
        // Genuine overlap across devices is counted...
        let d1_overlap: &[(f64, i32)] = &[(5.0, 1), (30.0, -1)];
        assert_eq!(fleet_peak_concurrency(&[d0, d1_overlap]), 2);
        // ...and the result is order-independent and empty-safe.
        assert_eq!(fleet_peak_concurrency(&[d1_overlap, d0]), 2);
        assert_eq!(fleet_peak_concurrency(&[]), 0);
        // Within one device the sweep reproduces the running maximum the
        // per-device sampled peak used to report, including same-cycle
        // turnover: the third admission lands as the first request
        // retires, so three requests never coexist.
        let busy: &[(f64, i32)] = &[
            (0.0, 1),
            (1.0, 1),
            (2.0, 1),
            (2.0, -1),
            (3.0, -1),
            (4.0, -1),
        ];
        assert_eq!(fleet_peak_concurrency(&[busy]), 2);
        let stacked: &[(f64, i32)] = &[
            (0.0, 1),
            (1.0, 1),
            (2.0, 1),
            (3.0, -1),
            (3.0, -1),
            (4.0, -1),
        ];
        assert_eq!(fleet_peak_concurrency(&[stacked]), 3);
    }

    #[test]
    fn weighted_jsq_normalizes_backlog_by_throughput() {
        // Device 0 holds fewer raw tokens, but at a quarter the
        // throughput its drain time is longer: weighted JSQ picks the
        // fast device where plain JSQ picks the slow one.
        let fleet = vec![view(0, 60, 0, 0.25), view(1, 100, 0, 1.0)];
        assert_eq!(
            DispatchPolicy::JoinShortestQueue
                .router()
                .route(&request(), &fleet),
            0
        );
        assert_eq!(
            DispatchPolicy::WeightedJsq
                .router()
                .route(&request(), &fleet),
            1
        );
    }

    #[test]
    fn prefix_affinity_prefers_the_longest_resident_match() {
        use crate::request::SharedPrefix;
        let mut fleet = vec![
            view(0, 0, 0, 1.0),
            view(1, 500, 0, 1.0),
            view(2, 900, 0, 1.0),
        ];
        fleet[1].resident_prefixes = vec![(7, 2048)];
        fleet[2].resident_prefixes = vec![(7, 2048)];
        let mut router = DispatchPolicy::PrefixAffinity.router();
        // A prefix-carrying request goes to a holder (shortest weighted
        // queue among holders), not to the empty non-holder.
        let req = request().with_prefix(SharedPrefix::new(7, 2048));
        assert_eq!(router.route(&req, &fleet), 1);
        // Equal-queue holders tie toward the lowest id.
        fleet[2].queued_tokens = 500;
        assert_eq!(router.route(&req, &fleet), 1);
        // No holder (different id) → weighted-JSQ fallback.
        let other = request().with_prefix(SharedPrefix::new(9, 2048));
        assert_eq!(router.route(&other, &fleet), 0);
        // No prefix at all → weighted-JSQ fallback.
        assert_eq!(router.route(&request(), &fleet), 0);
    }
}
