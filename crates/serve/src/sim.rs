//! The discrete-event serving core: one device's event loop, admission
//! control, and step execution.
//!
//! # The event loop
//!
//! A [`DeviceSim`] (crate-internal) owns one device's complete serving
//! state: its [`KvCachePool`], its waiting requests, its clock, and its
//! in-flight requests. The loop driven by [`crate::dispatch`] repeats
//! three phases per step:
//!
//! 1. **Admission** — every waiting request is a fresh arrival, an
//!    evicted victim, or a handoff landing from a prefill device, and all
//!    three wait in one queue ordered by (priority desc, arrival asc, id
//!    asc), where a handoff's arrival is its link-arrival instant. Entries
//!    the device clock has not reached wait apart, keyed by arrival, until
//!    it does. The first candidate reserves its *peak* KV residency or,
//!    failing that, preempts strictly lower-priority victims when the
//!    configured [`crate::EvictionPolicy`] allows. When it cannot be
//!    placed, admission blocks — later candidates never jump it.
//! 2. **Planning** — the pluggable [`Scheduler`] sees admitted prompts
//!    (with their prefill cursors) and decoding streams, and plans one
//!    batched invocation ([`StepPlan`]).
//! 3. **Execution** — the invocation is costed by the memoizing
//!    [`StepCostModel`], the device clock advances by its latency, KV
//!    residency grows, and completions retire (releasing their
//!    reservations).
//!
//! # Chunked prefill
//!
//! Each in-flight request carries a **prefill cursor**. A prefill
//! invocation advances the cursor by at most
//! [`ServeConfig::prefill_chunk`] tokens, costed incrementally by
//! [`StepCostModel::prefill_chunk_cost`], and the request's KV residency
//! grows *per chunk* (the bytes of the prefilled prefix) instead of
//! landing all at once. A request evicted mid-prefill under
//! drop-and-recompute replays **only its completed chunks** on resume —
//! the unprefilled remainder was never computed, so it is first-time
//! work, not replay; only the replayed share of each invocation is
//! attributed to `recompute_seconds`. A mid-prefill swap victim keeps its
//! cursor: swap preserves the prefix KV, so the prefill continues where
//! it stopped.
//!
//! # Reservation-ledger invariants
//!
//! Admission reserves a request's peak residency up front in the pool's
//! per-request ledger, so decode-time growth can never drive the pool
//! over budget, and releases/evictions free exactly what the ledger
//! recorded (see [`crate::pool`] — the pool asserts both invariants).
//! The simulator never reads a wall clock and draws no randomness, so a
//! `(workload, scheduler, config)` triple replays bit-identically.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use mcbp_workloads::{Accelerator, Fleet, TraceContext};

use crate::arrival::Workload;
use crate::cost::{StepCost, StepCostModel};
use crate::dispatch::{drive, DispatchPolicy, WorkCounts};
use crate::pool::{request_kv_bytes, KvCachePool};
use crate::preempt::{EvictionPolicy, HandoffLedger, PreemptConfig, SwapLedger};
use crate::profile::{DeviceProfile, DeviceRole};
use crate::record::{RunTrace, TraceEvent};
use crate::report::{
    DeviceReport, HandoffReport, PoolReport, PreemptReport, PrefixReport, ServeReport, StepReport,
};
use crate::request::{
    PrefixId, Priority, Request, RequestId, RequestRecord, RequestState, SharedPrefix,
};
use crate::scheduler::{SchedEntry, SchedView, Scheduler};

/// Configuration of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Maximum streams one batched invocation may coalesce (the
    /// continuous-batching width).
    pub max_batch: usize,
    /// Context-length quantization of the step-cost cache, in tokens
    /// (costs interpolate between bucket boundaries).
    pub ctx_bucket: usize,
    /// Maximum prefill tokens one invocation advances per request.
    /// `Some(n)` splits long prompts into `n`-token chunks that the
    /// coalescing schedulers interleave with decode steps; `None`
    /// prefills every prompt in a single monolithic invocation (the
    /// pre-chunking behavior, kept as the ablation baseline).
    pub prefill_chunk: Option<usize>,
    /// Shared per-step token budget. `Some(b)` makes every scheduler step
    /// a single budgeted invocation: prefill members count their chunk's
    /// tokens, decode members count one token each, and the coalescing
    /// schedulers pack decode streams into the budget left over by the
    /// prefill chunk (Sarathi-style mixed steps — decoding advances every
    /// step while a long prompt prefills). Requires chunked prefill with
    /// `prefill_chunk ≤ b` (validated; see [`ServeConfigError`]); the
    /// piggyback slack per chunk step is `b − prefill_chunk`. `None`
    /// disables budgeting: the schedulers alternate pure prefill and pure
    /// decode steps (the pre-budget behavior, kept bit-exact as the
    /// ablation baseline).
    pub step_token_budget: Option<usize>,
    /// KV-pool byte budget per device. `Some(bytes)` is used verbatim.
    /// `None` derives the budget from the HBM capacity minus the resident
    /// INT8 weights and scales it by [`ServeConfig::fleet`]'s device
    /// count via [`KvCachePool::from_memory_spec`] (the tensor-parallel
    /// group holds one KV shard per member).
    pub kv_budget_bytes: Option<u64>,
    /// §5.3 tensor-parallel scaling applied to every step *within* one
    /// simulated device: step latency divides by the group's effective
    /// speedup and energy pays the communication tax (see
    /// [`Fleet::scale`]). This models one multi-chip serving instance;
    /// for data-parallel serving across *independent* devices with their
    /// own pools and queues, see [`ServeSim::run_spec`].
    pub fleet: Fleet,
    /// Preemption/eviction policy and host-link bandwidth. Swap transfer
    /// latency is charged at the configured host link and is *not* scaled
    /// by the fleet (one host link per serving instance).
    pub preempt: PreemptConfig,
    /// Has no effect: the fleet drive is one sequential loop. The field
    /// remains only because the `simbench/` benchmark sets it, and goes
    /// once that caller stops setting it.
    pub fleet_workers: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            ctx_bucket: 256,
            prefill_chunk: Some(512),
            step_token_budget: None,
            kv_budget_bytes: None,
            fleet: Fleet::single(),
            preempt: PreemptConfig::default(),
            fleet_workers: None,
        }
    }
}

/// Why a [`ServeConfig`] is rejected by [`ServeConfig::validate`] — the
/// typed alternative to a downstream panic (a zero chunk would divide by
/// zero in the scheduler; a chunk wider than the step budget could never
/// be scheduled and would wedge the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `max_batch` is zero: no invocation could coalesce anything.
    ZeroMaxBatch,
    /// `ctx_bucket` is zero: the step-cost cache cannot quantize contexts.
    ZeroCtxBucket,
    /// `prefill_chunk == Some(0)`: a chunk invocation could never advance
    /// a prompt (use `None` for monolithic prefill instead).
    ZeroPrefillChunk,
    /// `step_token_budget == Some(0)`: no step could schedule any token.
    ZeroStepTokenBudget,
    /// The tensor-parallel [`ServeConfig::fleet`] has no device, or its
    /// scaling efficiency is not in `(0, 1]` (NaN included): step
    /// latencies and energies would come out infinite, negative, or NaN.
    InvalidTensorParallel,
    /// The prefill chunk does not fit the step token budget, so a chunk
    /// step could never be scheduled and waiting prompts would starve.
    ChunkExceedsBudget {
        /// Configured `prefill_chunk`.
        chunk: usize,
        /// Configured `step_token_budget`.
        budget: usize,
    },
    /// A step token budget with monolithic prefill
    /// (`prefill_chunk == None`): an unbounded prefill invocation cannot
    /// be packed under any finite budget.
    BudgetRequiresChunkedPrefill,
    /// A fleet run was given no device profiles: there is no device to
    /// dispatch to.
    EmptyFleet,
    /// A [`DeviceProfile`]'s throughput weight is zero, negative, or
    /// non-finite: weighted-JSQ dispatch would divide by it.
    ZeroThroughputProfile {
        /// Index of the offending profile within the fleet.
        device: usize,
    },
    /// A host-link bandwidth is zero, negative, or NaN: a swap or handoff
    /// transfer would divide by it. (`f64::INFINITY` is legal: an instant
    /// link.)
    NonPositiveHostLink {
        /// Index of the offending profile within the fleet, or `None` for
        /// [`ServeConfig::preempt`].
        device: Option<usize>,
    },
    /// An attention-keep ratio is not in `(0, 1]`: it scales every KV
    /// reservation, and a NaN keep would silently switch admission
    /// control off (or panic the cost model mid-run).
    InvalidKeep {
        /// Index of the offending [`DeviceProfile`] within the fleet, or
        /// `None` for the template given to [`ServeSim::try_new`].
        device: Option<usize>,
    },
    /// A role-specialized fleet with no prefill-capable device: stage-1
    /// routing would have no candidate and every prompt would wedge.
    NoPrefillCapableDevice,
    /// A role-specialized fleet with no decode-capable device: stage-2
    /// routing would have no candidate and every finished prefill with
    /// decode work would wedge mid-handoff.
    NoDecodeCapableDevice,
    /// A request declares a shared prefix longer than its own prompt —
    /// the prefix cannot be a prefix of that prompt.
    PrefixExceedsPrompt {
        /// The offending request.
        request: RequestId,
        /// Declared prefix length in tokens.
        prefix_tokens: usize,
        /// The request's prompt length in tokens.
        prompt_len: usize,
    },
    /// Two requests declare the same [`PrefixId`] with different lengths —
    /// ids are content-addressed, so one id must always name one prefix.
    PrefixLengthConflict {
        /// The conflicted prefix id.
        prefix: PrefixId,
        /// The first declared length, in tokens.
        tokens_a: usize,
        /// The conflicting declared length, in tokens.
        tokens_b: usize,
    },
    /// A request's arrival cycle is NaN or negative: it has no place on
    /// the simulated clock.
    InvalidArrival {
        /// The offending request.
        request: RequestId,
    },
    /// An open-loop request arrives at `+∞`: only a closed-loop release
    /// gives such a request a finite arrival, so it would never be served.
    NeverArrives {
        /// The offending request.
        request: RequestId,
    },
    /// A closed-loop workload whose every arrival is `+∞`: no request
    /// ever starts, so no completion ever releases the rest.
    ClosedLoopNeverStarts,
    /// A request has neither a prompt nor a decode token: no step could
    /// ever schedule it, so it would wedge its device.
    EmptyRequest {
        /// The offending request.
        request: RequestId,
    },
    /// Two requests share one id: the KV pool and every ledger key their
    /// bytes by request id, and the report would hold two records for it.
    DuplicateRequestId {
        /// The repeated id.
        request: RequestId,
    },
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::ZeroMaxBatch => write!(f, "coalescing width must be positive"),
            ServeConfigError::ZeroCtxBucket => write!(f, "context bucket must be positive"),
            ServeConfigError::ZeroPrefillChunk => {
                write!(f, "prefill chunk must be positive (use None for unchunked)")
            }
            ServeConfigError::ZeroStepTokenBudget => {
                write!(
                    f,
                    "step token budget must be positive (use None for alternating steps)"
                )
            }
            ServeConfigError::InvalidTensorParallel => write!(
                f,
                "a tensor-parallel fleet needs at least one device and a scaling \
                 efficiency in (0, 1]"
            ),
            ServeConfigError::ChunkExceedsBudget { chunk, budget } => write!(
                f,
                "prefill chunk ({chunk} tokens) exceeds the step token budget \
                 ({budget} tokens): no chunk step could ever be scheduled"
            ),
            ServeConfigError::BudgetRequiresChunkedPrefill => write!(
                f,
                "a step token budget requires chunked prefill (prefill_chunk = Some(..)): \
                 a monolithic prefill cannot be packed under a finite budget"
            ),
            ServeConfigError::EmptyFleet => {
                write!(f, "a fleet needs at least one device profile")
            }
            ServeConfigError::ZeroThroughputProfile { device } => write!(
                f,
                "device profile {device} has a non-positive throughput weight: \
                 weighted dispatch would divide by it"
            ),
            ServeConfigError::NonPositiveHostLink {
                device: Some(device),
            } => write!(
                f,
                "device profile {device} has a non-positive host link bandwidth: \
                 transfers would divide by it"
            ),
            ServeConfigError::NonPositiveHostLink { device: None } => write!(
                f,
                "host link bandwidth must be positive: transfers would divide by it"
            ),
            ServeConfigError::InvalidKeep {
                device: Some(device),
            } => write!(
                f,
                "device profile {device} has an attention keep outside (0, 1]: \
                 it would mis-scale every KV reservation"
            ),
            ServeConfigError::InvalidKeep { device: None } => write!(
                f,
                "attention keep must lie in (0, 1]: it would mis-scale every KV reservation"
            ),
            ServeConfigError::NoPrefillCapableDevice => write!(
                f,
                "a role-specialized fleet needs at least one prefill-capable \
                 device (Unified or Prefill)"
            ),
            ServeConfigError::NoDecodeCapableDevice => write!(
                f,
                "a role-specialized fleet needs at least one decode-capable \
                 device (Unified or Decode)"
            ),
            ServeConfigError::PrefixExceedsPrompt {
                request,
                prefix_tokens,
                prompt_len,
            } => write!(
                f,
                "request {request} declares a {prefix_tokens}-token shared prefix on a \
                 {prompt_len}-token prompt: a prefix cannot outgrow its prompt"
            ),
            ServeConfigError::PrefixLengthConflict {
                prefix,
                tokens_a,
                tokens_b,
            } => write!(
                f,
                "prefix {prefix} is declared with two different lengths ({tokens_a} and \
                 {tokens_b} tokens): one content-addressed id must name one prefix"
            ),
            ServeConfigError::InvalidArrival { request } => {
                write!(f, "request {request} has a NaN or negative arrival cycle")
            }
            ServeConfigError::NeverArrives { request } => write!(
                f,
                "request {request} arrives at +inf in an open-loop workload: \
                 nothing would ever release it"
            ),
            ServeConfigError::ClosedLoopNeverStarts => write!(
                f,
                "a closed-loop workload needs at least one finite arrival: \
                 otherwise no completion ever releases the rest"
            ),
            ServeConfigError::EmptyRequest { request } => write!(
                f,
                "request {request} has no prompt and no decode token: \
                 no step could ever serve it"
            ),
            ServeConfigError::DuplicateRequestId { request } => {
                write!(
                    f,
                    "request id {request} appears more than once in the workload"
                )
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

impl ServeConfig {
    /// Checks the configuration's internal consistency, returning the
    /// first violation as a typed [`ServeConfigError`] instead of letting
    /// it surface as a downstream panic or a silently wedged simulation.
    ///
    /// # Errors
    ///
    /// See [`ServeConfigError`] for the rejected shapes.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.max_batch == 0 {
            return Err(ServeConfigError::ZeroMaxBatch);
        }
        if self.ctx_bucket == 0 {
            return Err(ServeConfigError::ZeroCtxBucket);
        }
        if self.prefill_chunk == Some(0) {
            return Err(ServeConfigError::ZeroPrefillChunk);
        }
        let efficiency = self.fleet.scaling_efficiency;
        if self.fleet.devices == 0 || efficiency.is_nan() || efficiency <= 0.0 || efficiency > 1.0 {
            return Err(ServeConfigError::InvalidTensorParallel);
        }
        let link = self.preempt.host_link_bytes_per_cycle;
        if link.is_nan() || link <= 0.0 {
            return Err(ServeConfigError::NonPositiveHostLink { device: None });
        }
        match (self.step_token_budget, self.prefill_chunk) {
            (Some(0), _) => Err(ServeConfigError::ZeroStepTokenBudget),
            (Some(_), None) => Err(ServeConfigError::BudgetRequiresChunkedPrefill),
            (Some(budget), Some(chunk)) if chunk > budget => {
                Err(ServeConfigError::ChunkExceedsBudget { chunk, budget })
            }
            _ => Ok(()),
        }
    }
}

/// A request's progress: its timeline and prefill/decode cursors. It is
/// the one record a request carries through every state — active,
/// suspended, handed off, landing — and each of those wraps it with only
/// what that state adds. KV byte accounting lives in the [`KvCachePool`]
/// ledger, keyed by request id.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub(crate) req: Request,
    /// First admission instant, preserved across preemptions and
    /// handoffs (TTFT and stall accounting span them).
    admitted_cycle: f64,
    /// The prefill cursor: tokens of `prefill_target` already processed.
    prefill_done: usize,
    /// Tokens the pending prefill must cover: the prompt, plus any
    /// already-generated tokens when a drop-and-recompute victim replays.
    prefill_target: usize,
    /// Leading portion of `prefill_target` that recomputes KV an eviction
    /// discarded (0 for fresh prompts). Chunk invocations overlapping this
    /// region bill their share to `recompute_seconds`.
    replay_tokens: usize,
    /// Shared-prefix bytes the pool holds on this request's behalf in its
    /// refcounted prefix ledger — excluded from the request's own
    /// reservation and residency. Non-zero exactly while the request
    /// holds one reference on its prefix entry (a reusing request from
    /// admission on; a materializing request from the step whose cursor
    /// crossed the prefix boundary).
    prefix_bytes: u64,
    /// Decode cursor: tokens generated so far.
    tokens: usize,
    /// Clock at which token 1 was generated (the TTFT endpoint).
    first_token_cycle: f64,
    preemptions: usize,
}

impl InFlight {
    /// A fresh admission at `now`: nothing prefilled or generated yet.
    fn new(req: Request, now: f64) -> Self {
        InFlight {
            prefill_target: req.prompt_len,
            req,
            admitted_cycle: now,
            prefill_done: 0,
            replay_tokens: 0,
            prefix_bytes: 0,
            tokens: 0,
            first_token_cycle: 0.0,
            preemptions: 0,
        }
    }

    fn context(&self) -> usize {
        self.req.prompt_len + self.tokens
    }

    fn prefilled(&self) -> bool {
        self.prefill_done >= self.prefill_target
    }

    /// Whether the request belongs in the scheduler's decode view:
    /// prefilled, with tokens still to generate.
    fn decodes(&self) -> bool {
        self.prefilled() && self.tokens < self.req.decode_len
    }

    /// Tokens still to process: the unprefilled part of the prefill
    /// target plus the undecoded tokens.
    fn remaining_tokens(&self) -> usize {
        (self.prefill_target - self.prefill_done) + (self.req.decode_len - self.tokens)
    }

    /// The request's record as it leaves the device at `cycle`.
    fn into_record(self, state: RequestState, cycle: f64) -> RequestRecord {
        RequestRecord {
            state,
            admitted_cycle: self.admitted_cycle,
            first_token_cycle: self.first_token_cycle,
            completed_cycle: cycle,
            tokens: self.tokens,
            preemptions: self.preemptions,
            request: self.req,
        }
    }
}

/// A decode continuation leaving a [`DeviceRole::Prefill`] device. The
/// prefill device generates the request's *first token* before handing
/// off (the DistServe cut point — TTFT is produced entirely on the
/// prefill side, so it never waits on a second admission into the decode
/// pool), so the flight carries a finished prefill and a decode cursor of
/// at least 1. The source has already released the KV from its pool (and
/// dropped its prefix reference) — the bytes exist only here until the
/// driver routes the handoff and the destination's [`HandoffLedger`]
/// takes custody.
pub(crate) struct HandoffOut {
    pub(crate) flight: InFlight,
    /// Full KV bytes leaving the source pool — prefilled prompt plus the
    /// generated-token suffix: the request's own residency plus its
    /// shared-prefix share.
    pub(crate) bytes: u64,
    /// Source-device clock at extraction — the transfer departs here and
    /// lands `transfer_cycles(bytes)` later.
    pub(crate) ready_cycle: f64,
}

/// A request waiting on a device for admission. A fresh request has
/// only its [`Request`]; an evicted victim and a landing handoff carry the
/// progress they already made.
enum Waiting {
    /// A dispatched request never admitted here.
    Fresh(Request),
    /// An evicted request waiting to resume: its progress survives
    /// eviction, only its device-resident KV is gone (discarded or held in
    /// host memory). The prefill cursor stays as it was at eviction: a swap
    /// victim resumes from it (its prefix KV is preserved in host memory);
    /// a drop-and-recompute victim restarts from zero and replays exactly
    /// the completed tokens (plus its generated tokens when the prefill had
    /// finished).
    Suspended {
        flight: InFlight,
        /// KV bytes held in the swap ledger (0 under drop-and-recompute).
        swapped_bytes: u64,
    },
    /// A routed handoff riding the host link toward this device, admissible
    /// once the transfer lands. Its bytes are held by the destination's
    /// [`HandoffLedger`]; it is in neither device's active set, so victim
    /// selection cannot touch it (the ledger panics are the double-free
    /// backstop).
    Handoff(InFlight),
}

impl Waiting {
    fn req(&self) -> &Request {
        match self {
            Waiting::Fresh(req) => req,
            Waiting::Suspended { flight, .. } | Waiting::Handoff(flight) => &flight.req,
        }
    }

    /// Tokens still to process (the join-shortest-queue metric).
    fn remaining_tokens(&self) -> usize {
        match self {
            Waiting::Fresh(req) => req.prompt_len + req.decode_len,
            Waiting::Suspended { flight, .. } | Waiting::Handoff(flight) => {
                flight.remaining_tokens()
            }
        }
    }
}

/// A cycle as an order key. Clocks and arrivals are non-negative and never
/// NaN (see [`ServeSim::validate_workload`]), and such floats order like
/// their bit patterns once `-0.0` is folded into `0.0`.
fn cycle_key(cycle: f64) -> u64 {
    debug_assert!(cycle >= 0.0, "cycle {cycle} cannot key an order");
    (cycle + 0.0).to_bits()
}

/// The resident prefix entry a request can reuse, as `(id, tokens,
/// bytes)`, or `None` when it declares no prefix or the pool does not
/// hold it.
///
/// # Panics
///
/// Panics if the resident entry disagrees with the request's declared
/// prefix length — one [`PrefixId`] must always name one prefix.
fn resident_reuse(
    pool: &KvCachePool,
    prefix: Option<SharedPrefix>,
) -> Option<(PrefixId, usize, u64)> {
    let p = prefix.filter(|p| p.tokens > 0)?;
    let e = pool.prefix(p.id)?;
    assert_eq!(
        e.tokens, p.tokens,
        "prefix {} reused with a different declared length",
        p.id
    );
    Some((p.id, e.tokens, e.bytes))
}

/// Where a prefill of `target` tokens starts on `pool`, as `(cursor,
/// prefix bytes, prefix id)`: past a resident prefix the request declares,
/// else at zero. A request with no decode work left keeps at least one
/// unshared prompt token to execute (a fully-shared prompt-only request
/// would otherwise never appear in any scheduler view).
fn prefill_start(
    pool: &KvCachePool,
    prefix: Option<SharedPrefix>,
    target: usize,
    decode_remaining: usize,
) -> (usize, u64, Option<PrefixId>) {
    let Some((id, tokens, bytes)) = resident_reuse(pool, prefix) else {
        return (0, 0, None);
    };
    let start = tokens.min(target);
    let start = if decode_remaining == 0 {
        start.min(target.saturating_sub(1))
    } else {
        start
    };
    (start, bytes, Some(id))
}

/// The discrete-event serving simulator: drives an [`Accelerator`] under
/// multi-request load through a pluggable [`Scheduler`], with KV-pool
/// admission control, chunked prefill, priority-aware preemption, and
/// full latency accounting. Time is the simulated 1 GHz core clock; there
/// is no wall-clock dependence anywhere, so a `(workload, scheduler,
/// config)` triple replays bit-identically.
pub struct ServeSim<'a> {
    cost: StepCostModel<'a>,
    cfg: ServeConfig,
}

impl<'a> ServeSim<'a> {
    /// Builds a serving simulator over any accelerator model. `template`
    /// supplies model shapes, the measured weight profile, and the
    /// attention-keep operating point (its task/batch fields are replaced
    /// per scheduled step).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`ServeConfig::validate`])
    /// or attention keep; use [`ServeSim::try_new`] to handle the error
    /// instead.
    #[must_use]
    pub fn new(accel: &'a dyn Accelerator, template: TraceContext, cfg: ServeConfig) -> Self {
        match Self::try_new(accel, template, cfg) {
            Ok(sim) => sim,
            Err(e) => panic!("invalid ServeConfig: {e}"),
        }
    }

    /// Builds a serving simulator, rejecting inconsistent configurations
    /// with a typed error instead of a downstream panic.
    ///
    /// # Errors
    ///
    /// Returns the first [`ServeConfigError`] the configuration violates,
    /// else [`ServeConfigError::InvalidKeep`] when `template`'s attention
    /// keep is outside `(0, 1]`.
    pub fn try_new(
        accel: &'a dyn Accelerator,
        template: TraceContext,
        cfg: ServeConfig,
    ) -> Result<Self, ServeConfigError> {
        cfg.validate()?;
        let keep = template.attention_keep;
        if !(keep > 0.0 && keep <= 1.0) {
            return Err(ServeConfigError::InvalidKeep { device: None });
        }
        let cost = StepCostModel::new(accel, template, cfg.ctx_bucket);
        Ok(ServeSim { cost, cfg })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The step-cost model (exposed for diagnostics).
    #[must_use]
    pub fn cost_model(&self) -> &StepCostModel<'a> {
        &self.cost
    }

    /// Runs one workload under one scheduler to completion on a single
    /// device. Cross-request prefix reuse is live here too: a request
    /// whose [`crate::SharedPrefix`] is already resident in the device's
    /// pool prefills only its unshared suffix.
    ///
    /// # Panics
    ///
    /// Panics on an invalid workload (see [`ServeSim::validate_workload`]),
    /// internal accounting violations (the KV pool asserts its budget
    /// invariants), or a scheduler contract violation.
    #[must_use]
    pub fn run(&self, workload: &Workload, scheduler: &mut dyn Scheduler) -> ServeReport {
        if let Err(e) = ServeSim::validate_workload(workload) {
            panic!("invalid workload: {e}");
        }
        let mut router = DispatchPolicy::RoundRobin.router();
        drive(
            self,
            workload,
            &mut [scheduler],
            &[DeviceProfile::uniform()],
            &mut router,
            false,
        )
        .report
    }

    /// Like [`ServeSim::run`], but records the run's full
    /// arrival/admission/schedule/preemption history alongside the
    /// report. The traced run is bit-exact with the untraced one —
    /// recording only observes, never perturbs — and re-running the
    /// returned trace's workload under the same configuration and
    /// scheduler reproduces the report bit-exactly (the replay contract
    /// the `mcbp-trace` crate asserts).
    ///
    /// Kept only because the `simbench/` benchmark calls it; new code
    /// records through [`ServeSim::run_spec`] with
    /// [`crate::RunSpec::traced`].
    ///
    /// # Panics
    ///
    /// Panics where [`ServeSim::run`] would.
    #[must_use]
    pub fn run_traced(
        &self,
        workload: &Workload,
        scheduler: &mut dyn Scheduler,
    ) -> (ServeReport, RunTrace) {
        if let Err(e) = ServeSim::validate_workload(workload) {
            panic!("invalid workload: {e}");
        }
        let mut router = DispatchPolicy::RoundRobin.router();
        let out = drive(
            self,
            workload,
            &mut [scheduler],
            &[DeviceProfile::uniform()],
            &mut router,
            true,
        );
        (out.report, out.trace.expect("tracing was requested"))
    }

    /// Checks a workload's internal consistency: every arrival is a
    /// non-negative cycle or — in a closed-loop workload that starts at
    /// least one request on the clock — `+∞`, released by a completion;
    /// every request has at least one prompt or decode token; every
    /// declared [`crate::SharedPrefix`] must fit inside its request's
    /// prompt, and one [`PrefixId`] must always be declared with one
    /// length (ids are content-addressed); no two requests share an id.
    ///
    /// # Errors
    ///
    /// Returns [`ServeConfigError::InvalidArrival`],
    /// [`ServeConfigError::NeverArrives`],
    /// [`ServeConfigError::EmptyRequest`],
    /// [`ServeConfigError::PrefixExceedsPrompt`] or
    /// [`ServeConfigError::PrefixLengthConflict`] for the first
    /// offending request, else
    /// [`ServeConfigError::DuplicateRequestId`] for the least repeated id,
    /// else [`ServeConfigError::ClosedLoopNeverStarts`].
    pub fn validate_workload(workload: &Workload) -> Result<(), ServeConfigError> {
        let mut declared: std::collections::BTreeMap<PrefixId, usize> =
            std::collections::BTreeMap::new();
        // Generated workloads number their requests in order, so strictly
        // increasing ids are unique without a copy; only other orders are
        // sorted below.
        let mut increasing = true;
        let mut prev_id = None;
        for r in &workload.requests {
            increasing &= prev_id.is_none_or(|p| p < r.id);
            prev_id = Some(r.id);
            let a = r.arrival_cycle;
            if a.is_nan() || a < 0.0 {
                return Err(ServeConfigError::InvalidArrival { request: r.id });
            }
            if a.is_infinite() && workload.closed_loop.is_none() {
                return Err(ServeConfigError::NeverArrives { request: r.id });
            }
            if r.prompt_len == 0 && r.decode_len == 0 {
                return Err(ServeConfigError::EmptyRequest { request: r.id });
            }
            if let Some(p) = r.prefix {
                if p.tokens > r.prompt_len {
                    return Err(ServeConfigError::PrefixExceedsPrompt {
                        request: r.id,
                        prefix_tokens: p.tokens,
                        prompt_len: r.prompt_len,
                    });
                }
                match declared.insert(p.id, p.tokens) {
                    Some(prior) if prior != p.tokens => {
                        return Err(ServeConfigError::PrefixLengthConflict {
                            prefix: p.id,
                            tokens_a: prior,
                            tokens_b: p.tokens,
                        });
                    }
                    _ => {}
                }
            }
        }
        if !increasing {
            let mut ids: Vec<RequestId> = workload.requests.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
                return Err(ServeConfigError::DuplicateRequestId { request: w[0] });
            }
        }
        let starts = workload
            .requests
            .iter()
            .any(|r| r.arrival_cycle.is_finite());
        if workload.closed_loop.is_some() && !workload.requests.is_empty() && !starts {
            return Err(ServeConfigError::ClosedLoopNeverStarts);
        }
        Ok(())
    }

    /// The KV pool for one fleet device: the profile's explicit budget,
    /// else the [`ServeConfig::kv_budget_bytes`] behavior.
    pub(crate) fn pool_for(&self, profile: &DeviceProfile<'_>) -> KvCachePool {
        match profile.kv_budget_bytes.or(self.cfg.kv_budget_bytes) {
            Some(bytes) => KvCachePool::with_budget(bytes),
            None => KvCachePool::from_memory_spec(
                &mcbp_mem::HbmConfig::default(),
                &self.cost.template().model,
                self.cfg.fleet.devices,
            ),
        }
    }

    /// Applies the §5.3 tensor-parallel scaling model to one step: latency
    /// divides by the effective speedup, energy pays the communication tax
    /// (the same model as [`Fleet::scale`], applied per step — like it,
    /// the tax spares the bit-reorder component).
    fn fleet_scaled(&self, cost: StepCost) -> StepCost {
        let fleet = &self.cfg.fleet;
        if fleet.devices <= 1 {
            return cost;
        }
        let comm_tax = 2.0 - fleet.scaling_efficiency;
        StepCost {
            cycles: cost.cycles / fleet.speedup(),
            energy_pj: (cost.energy_pj - cost.reorder_pj) * comm_tax + cost.reorder_pj,
            reorder_pj: cost.reorder_pj,
        }
    }
}

/// One device's step-cost model: devices whose profile overrides neither
/// the accelerator nor the keep ratio share the simulator's memoized
/// model (so a uniform fleet costs each distinct invocation once,
/// fleet-wide); a heterogeneous device owns its own.
enum DeviceCost<'s, 'a> {
    Shared(&'s StepCostModel<'a>),
    Owned(Box<StepCostModel<'a>>),
}

/// One simulated device's complete serving state: waiting requests, KV
/// pool, clock, and counters. The dispatch driver
/// ([`crate::dispatch`]) owns one of these per fleet device — built from
/// its [`DeviceProfile`] — and steps whichever has runnable work and the
/// earliest clock.
pub(crate) struct DeviceSim<'s, 'a> {
    sim: &'s ServeSim<'a>,
    cost: DeviceCost<'s, 'a>,
    /// This device's preemption configuration (the simulator's, with the
    /// profile's host-link override applied).
    preempt: PreemptConfig,
    /// The profile's relative throughput weight (read by the router).
    throughput: f64,
    /// This device's dispatch role (`Unified` outside disaggregated
    /// fleets — the role gates handoff extraction, so an all-`Unified`
    /// fleet takes exactly the pre-disaggregation code paths).
    role: DeviceRole,
    pub(crate) pool: KvCachePool,
    ledger: SwapLedger,
    /// Custody of KV bytes riding the host link **into** this device
    /// (handoffs are accounted at their destination: the driver books
    /// `handoff_out` when it routes, admission books `handoff_in`).
    handoff_ledger: HandoffLedger,
    /// Finished prefills awaiting stage-2 routing (drained by the
    /// driver's dispatch fixpoint).
    outbound: Vec<HandoffOut>,
    /// Counts, kept straight in their report lanes; [`DeviceSim::lane`]
    /// adds the ledgers' byte totals and the cycle sums below.
    preemptions: u64,
    prefix: PrefixReport,
    steps: StepReport,
    /// Handoff counts: outbound ones on the source, inbound ones on the
    /// destination.
    handoff: HandoffReport,
    /// Cycle sums, converted to seconds once in [`DeviceSim::lane`]:
    /// swap-transfer stalls, replayed prefill, outbound host-link
    /// occupancy (handoffs overlap compute DMA-style — latency lands on
    /// the request, not on the device clock — so these cycles are
    /// attribution, not stall), and budgeted steps' executed-token
    /// utilization of the step budget.
    swap_cycles: f64,
    recompute_cycles: f64,
    link_cycles: f64,
    budget_utilization_sum: f64,
    /// Waiting requests the clock has not reached yet — dispatched ahead
    /// of it, or a handoff still on the link — keyed by `(arrival, id)`.
    arriving: BTreeMap<(u64, RequestId), Waiting>,
    /// Reached waiting requests in admission order: `(priority desc,
    /// arrival asc, id asc)`.
    ready: BTreeMap<(Reverse<Priority>, u64, RequestId), Waiting>,
    /// Remaining tokens of every entry in `arriving` and `ready`, updated
    /// where an entry enters or leaves them (moving from one map to the
    /// other leaves it unchanged), so routing never walks the queue.
    waiting_tokens: usize,
    /// Fresh requests among the waiting ones (the trace's queue depth).
    fresh_waiting: usize,
    active: Vec<InFlight>,
    pub(crate) records: Vec<RequestRecord>,
    /// This device's clock, in core cycles.
    pub(crate) now: f64,
    /// Cycles spent executing steps (plus swap stalls tallied
    /// separately), for utilization reporting.
    busy_cycles: f64,
    pub(crate) energy_pj: f64,
    pub(crate) decode_invocations: u64,
    pub(crate) decode_streams: u64,
    /// In-flight concurrency deltas on this device's clock: `(cycle, +1)`
    /// when a request enters the active set (fresh or resumed admission),
    /// `(cycle, -1)` when it leaves (eviction or completion). The fleet
    /// merge sweeps the union of every device's deltas for the true
    /// fleet-wide simultaneous peak — an order-independent reduction, so
    /// the peak does not depend on the order devices are merged in.
    pub(crate) conc_log: Vec<(f64, i32)>,
    pub(crate) dispatched: usize,
    /// Fleet index of this device (stamped onto recorded events).
    pub(crate) device: u32,
    /// Recorded event log of a traced run (`None` — the default — records
    /// nothing and keeps the untraced paths allocation-free).
    pub(crate) log: Option<Vec<TraceEvent>>,
    /// This device's share of the run's [`WorkCounts`].
    pub(crate) work: WorkCounts,
    /// Whether admission could change anything (see
    /// [`DeviceSim::admit`]).
    admit_due: bool,
    /// A step's buffers, cleared and refilled every step so that, once
    /// grown, a step allocates nothing but the scheduler's plan: the
    /// scheduler's two views, the plan's members as `active` indices
    /// (prefill members first), and each prefill member's chunk as
    /// `(index, cursor, chunk end, replay tokens)`.
    prefill_view: Vec<SchedEntry>,
    decode_view: Vec<SchedEntry>,
    members: Vec<usize>,
    spans: Vec<(usize, usize, usize, usize)>,
}

impl<'s, 'a> DeviceSim<'s, 'a> {
    pub(crate) fn new(sim: &'s ServeSim<'a>, profile: &DeviceProfile<'a>) -> Self {
        let cost = match (profile.accel, profile.attention_keep) {
            // Inherit everything: share the simulator's memoized model so
            // a uniform fleet costs each distinct invocation once,
            // fleet-wide.
            (None, None) => DeviceCost::Shared(&sim.cost),
            (accel, keep) => {
                let template = TraceContext {
                    attention_keep: keep.unwrap_or(sim.cost.template().attention_keep),
                    ..sim.cost.template().clone()
                };
                DeviceCost::Owned(Box::new(StepCostModel::new(
                    accel.unwrap_or_else(|| sim.cost.accel()),
                    template,
                    sim.cfg.ctx_bucket,
                )))
            }
        };
        let mut preempt = sim.cfg.preempt.clone();
        if let Some(link) = profile.host_link_bytes_per_cycle {
            preempt.host_link_bytes_per_cycle = link;
        }
        DeviceSim {
            pool: sim.pool_for(profile),
            sim,
            cost,
            preempt,
            role: profile.role,
            throughput: profile.throughput,
            ledger: SwapLedger::new(),
            handoff_ledger: HandoffLedger::new(),
            outbound: Vec::new(),
            preemptions: 0,
            prefix: PrefixReport::default(),
            steps: StepReport::default(),
            handoff: HandoffReport::default(),
            swap_cycles: 0.0,
            recompute_cycles: 0.0,
            link_cycles: 0.0,
            budget_utilization_sum: 0.0,
            arriving: BTreeMap::new(),
            ready: BTreeMap::new(),
            waiting_tokens: 0,
            fresh_waiting: 0,
            active: Vec::new(),
            records: Vec::new(),
            now: 0.0,
            busy_cycles: 0.0,
            energy_pj: 0.0,
            decode_invocations: 0,
            decode_streams: 0,
            conc_log: Vec::new(),
            dispatched: 0,
            device: 0,
            log: None,
            work: WorkCounts::default(),
            admit_due: false,
            prefill_view: Vec::new(),
            decode_view: Vec::new(),
            members: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// This device's step-cost model (its own for a heterogeneous
    /// profile, the simulator's shared one otherwise).
    fn cost(&self) -> &StepCostModel<'a> {
        match &self.cost {
            DeviceCost::Shared(cost) => cost,
            DeviceCost::Owned(cost) => cost,
        }
    }

    /// The profile's relative throughput weight (the router's
    /// weighted-JSQ denominator).
    pub(crate) fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Appends one event to a traced run's log (no-op when untraced, so
    /// the hook sites cost nothing on the ordinary paths).
    fn record(&mut self, ev: TraceEvent) {
        if let Some(log) = &mut self.log {
            log.push(ev);
        }
    }

    /// Hands this device a dispatched request; the next admission takes
    /// it once the clock reaches its arrival.
    pub(crate) fn enqueue(&mut self, req: Request) {
        self.dispatched += 1;
        self.fresh_waiting += 1;
        let key = (cycle_key(req.arrival_cycle), req.id);
        let w = Waiting::Fresh(req);
        self.waiting_tokens += w.remaining_tokens();
        self.arriving.insert(key, w);
        self.admit_due = true;
    }

    pub(crate) fn has_active(&self) -> bool {
        !self.active.is_empty()
    }

    /// Whether this device still holds undone work of any kind. With
    /// both waiting maps empty the running waiting-token count must be
    /// back at zero, so a missed subtraction shows here (a missed addition
    /// underflows first).
    pub(crate) fn is_drained(&self) -> bool {
        self.active.is_empty()
            && self.arriving.is_empty()
            && self.ready.is_empty()
            && self.waiting_tokens == 0
            && self.outbound.is_empty()
            && self.handoff_ledger.is_empty()
    }

    /// Drains the finished prefills awaiting stage-2 routing (called by
    /// the driver inside its dispatch fixpoint, in device-index order —
    /// the routing order is part of the deterministic replay contract).
    pub(crate) fn take_outbound(&mut self) -> Vec<HandoffOut> {
        std::mem::take(&mut self.outbound)
    }

    /// Host-link cycles one outbound handoff of `bytes` occupies on
    /// *this* (source) device's link.
    pub(crate) fn handoff_transfer_cycles(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.preempt.transfer_cycles(bytes)
        }
    }

    /// Books one outbound handoff on the source device's lane.
    pub(crate) fn note_handoff_out(&mut self, bytes: u64, link_cycles: f64) {
        self.handoff.handoffs_out += 1;
        self.handoff.bytes_out += bytes;
        self.link_cycles += link_cycles;
    }

    /// Accepts a routed handoff: the ledger takes custody of the bytes
    /// and the request queues for admission once the transfer lands at
    /// `arrival_cycle`.
    pub(crate) fn receive_handoff(&mut self, h: HandoffOut, arrival_cycle: f64) {
        let id = h.flight.req.id;
        self.handoff_ledger.handoff_out(id, h.bytes);
        let key = (cycle_key(arrival_cycle), id);
        let w = Waiting::Handoff(h.flight);
        self.waiting_tokens += w.remaining_tokens();
        self.arriving.insert(key, w);
        self.admit_due = true;
    }

    /// Remaining work queued on this device, in tokens (the unprefilled
    /// and undecoded tokens of every waiting and admitted request) — the
    /// join-shortest-queue dispatch metric. The waiting share is the
    /// running count, so only the admitted requests, which the KV budget
    /// bounds, are summed here.
    pub(crate) fn queued_tokens(&mut self) -> u64 {
        self.work.queue_entries += self.active.len() as u64;
        let active: usize = self.active.iter().map(InFlight::remaining_tokens).sum();
        (self.waiting_tokens + active) as u64
    }

    /// Runs admission to a fixpoint: reached waiting requests are admitted
    /// in admission order until the first one blocks. An idle device
    /// fast-forwards its clock to the next arrival.
    /// Returns the number of requests dropped (peak residency can never
    /// fit) — the driver releases one closed-loop slot per drop.
    ///
    /// A run leaves a fixpoint that a second run would find unchanged, so
    /// admission runs only while `admit_due` is set and clears it. Only
    /// three things can change what it would do, and each sets the flag:
    /// a step (it advances the clock and frees or grows pool bytes), an
    /// enqueue, and a routed handoff. Otherwise this returns 0 at once.
    pub(crate) fn admit(&mut self) -> usize {
        if !std::mem::take(&mut self.admit_due) {
            return 0;
        }
        let mut drops = 0;
        loop {
            self.admit_pass(&mut drops);
            if self.extract_finished_prefills() > 0 {
                // A fully-prefix-covered admission can complete its
                // prefill without a single step; its handoff frees pool
                // bytes that may unblock further admission.
                continue;
            }
            if self.active.is_empty() {
                // Admission into an idle pool cannot block, so every
                // reached request was admitted or dropped.
                debug_assert!(self.ready.is_empty(), "waiting work on an idle device");
                if let Some(&(arrival, _)) = self.arriving.keys().next() {
                    debug_assert!(f64::from_bits(arrival) > self.now, "unreached arrival");
                    self.now = f64::from_bits(arrival);
                    // The gap holds no admitted work (asserted above), so
                    // it is excluded from the occupancy mean entirely
                    // rather than diluting it.
                    self.pool.skip_idle(self.now);
                    continue;
                }
            }
            break;
        }
        drops
    }

    /// Moves every first-tokened request with remaining decode work off a
    /// [`DeviceRole::Prefill`] device into the outbound handoff buffer:
    /// the prefill device finishes the prompt *and generates token 1*
    /// (the DistServe cut — TTFT never crosses the link), then the decode
    /// continuation leaves. Its KV leaves this pool (the shared-prefix
    /// share stays resident as a warm line, its reference dropped) and
    /// the request's bytes exist only in the buffered [`HandoffOut`]
    /// until the driver routes it. Requests whose decode length is 1
    /// complete on the prefill device and never hand off. Returns the
    /// number extracted; a no-op on every other role.
    fn extract_finished_prefills(&mut self) -> usize {
        if self.role != DeviceRole::Prefill {
            return 0;
        }
        let mut extracted = 0;
        let mut i = 0;
        while i < self.active.len() {
            let ready = {
                let f = &self.active[i];
                f.prefilled() && f.req.decode_len > 0 && f.tokens >= 1
            };
            if !ready {
                i += 1;
                continue;
            }
            let mut f = self.active.remove(i);
            debug_assert_eq!(f.prefill_done, f.prefill_target, "cursor past its target");
            let bytes = self.release(&f) + f.prefix_bytes;
            self.conc_log.push((self.now, -1));
            // The decode device receives finished KV: it replays nothing
            // and holds no prefix reference.
            f.replay_tokens = 0;
            f.prefix_bytes = 0;
            self.outbound.push(HandoffOut {
                flight: f,
                bytes,
                ready_cycle: self.now,
            });
            extracted += 1;
        }
        extracted
    }

    /// One admission sweep at the current clock: the first reached
    /// waiting request is dropped if its peak can never fit, admitted if a
    /// reservation succeeds, and otherwise blocks the sweep.
    fn admit_pass(&mut self, drops: &mut usize) {
        let keep = self.cost().template().attention_keep;
        let model = self.cost().template().model.clone();
        loop {
            // Swap stalls advance the clock mid-sweep, so the reached set
            // is refreshed before every candidate.
            while let Some(entry) = self.arriving.first_entry() {
                let (arrival, id) = *entry.key();
                if f64::from_bits(arrival) > self.now {
                    break;
                }
                let w = entry.remove();
                self.ready
                    .insert((Reverse(w.req().priority), arrival, id), w);
            }
            let Some((&key, w)) = self.ready.first_key_value() else {
                break;
            };
            self.work.admission_candidates += 1;
            let (Reverse(prio), _, id) = key;
            let full_peak = request_kv_bytes(&model, w.req().final_context(), keep);
            // The resident prefix the admission reuses, as `(tokens,
            // bytes, id)` — a fresh or recomputing prefill starts its
            // cursor past those tokens; `None` drops a request whose peak
            // can never fit.
            let start = match w {
                // The drop decision uses the *full* peak: a request must be
                // servable even when its prefix is not resident, or a later
                // prefix reclamation could leave an admitted-only-by-reuse
                // victim unable to ever resume. A handoff the decode pool
                // can never hold (the prefill pool could) is dropped on
                // arrival, its transferred bytes discarded.
                Waiting::Fresh(_) | Waiting::Handoff(_) if !self.pool.can_ever_fit(full_peak) => {
                    None
                }
                // Prefix reuse: a resident prefix lets the prompt reserve
                // only its unshared suffix and start the prefill past the
                // shared region.
                Waiting::Fresh(req) => Some(prefill_start(
                    &self.pool,
                    req.prefix,
                    req.prompt_len,
                    req.decode_len,
                )),
                // Swap resume. The cursor reuse holds only if the victim's
                // own cursor already sat past its prefix at eviction (its
                // swapped KV is then suffix-only) and the prefix entry
                // survived reclamation.
                Waiting::Suspended {
                    flight: f,
                    swapped_bytes,
                } if *swapped_bytes > 0 => Some(
                    resident_reuse(&self.pool, f.req.prefix)
                        .filter(|&(_, tokens, _)| f.prefill_done >= tokens)
                        .map_or((0, 0, None), |(pid, tokens, bytes)| {
                            (tokens, bytes, Some(pid))
                        }),
                ),
                // Drop-and-recompute resume: the prefill restarts over
                // prompt + generated tokens, past a still-resident prefix.
                Waiting::Suspended { flight: f, .. } => Some(prefill_start(
                    &self.pool,
                    f.req.prefix,
                    f.req.prompt_len + f.tokens,
                    f.req.decode_len - f.tokens,
                )),
                Waiting::Handoff(_) => Some((0, 0, None)),
            };
            let Some((start, pbytes, keep_id)) = start else {
                let (_, w) = self.ready.pop_first().expect("the first entry exists");
                self.waiting_tokens -= w.remaining_tokens();
                let f = match w {
                    Waiting::Fresh(req) => {
                        self.fresh_waiting -= 1;
                        // Never admitted: every instant on the record is
                        // the drop's.
                        InFlight {
                            first_token_cycle: self.now,
                            ..InFlight::new(req, self.now)
                        }
                    }
                    // The source already delivered token 1, so the drop
                    // record keeps its TTFT; only the continuation is lost.
                    Waiting::Handoff(flight) => {
                        self.land_handoff(id);
                        flight
                    }
                    Waiting::Suspended { .. } => unreachable!("a victim has fit before"),
                };
                self.drop_request(f, drops);
                continue;
            };
            if !self.try_admit(id, full_peak - pbytes, prio, keep_id) {
                break;
            }
            // Victims rank strictly lower than the candidate, so it is
            // still first.
            let w = self
                .ready
                .remove(&key)
                .expect("the candidate is still waiting");
            self.waiting_tokens -= w.remaining_tokens();
            let resumed = !matches!(w, Waiting::Fresh(_));
            if let Some(pid) = keep_id {
                self.pool.ref_prefix(pid);
                self.prefix.reused_tokens += start as u64;
            }
            let mut f = match w {
                Waiting::Fresh(req) => {
                    self.fresh_waiting -= 1;
                    if keep_id.is_some() {
                        self.prefix.hits += 1;
                    } else if req.prefix.is_some_and(|p| p.tokens > 0) {
                        self.prefix.misses += 1;
                    }
                    InFlight {
                        prefill_done: start,
                        ..InFlight::new(req, self.now)
                    }
                }
                Waiting::Suspended {
                    flight: mut f,
                    swapped_bytes,
                } if swapped_bytes > 0 => {
                    // Swap-in: restore the victim's KV from host memory,
                    // stalling the device for the transfer.
                    let cycles = self.preempt.transfer_cycles(swapped_bytes);
                    self.now += cycles;
                    self.pool.advance_clock(self.now);
                    self.swap_cycles += cycles;
                    self.ledger.swap_in(id);
                    self.pool.grow_resident(id, swapped_bytes);
                    let had_prefix = f
                        .req
                        .prefix
                        .is_some_and(|p| p.tokens > 0 && f.prefill_done >= p.tokens);
                    if keep_id.is_none() && had_prefix {
                        // The victim's cursor leaned on a prefix that was
                        // reclaimed while it was suspended: the restored
                        // suffix KV is kept, but the missing prefix region
                        // must be re-prefilled (attributed as replay — the
                        // reclamation discarded computed KV).
                        let target = if f.prefilled() {
                            f.req.prefix.expect("had_prefix").tokens
                        } else {
                            f.prefill_target
                        };
                        f.replay_tokens = f.prefill_done.min(target);
                        f.prefill_target = target;
                        f.prefill_done = 0;
                    }
                    // Otherwise the cursor stands: the swapped KV, plus
                    // any reused prefix, covers everything done.
                    f
                }
                Waiting::Suspended { flight: mut f, .. } => {
                    // Replay covers exactly the work the eviction
                    // discarded: everything when the prefill had completed,
                    // otherwise only the chunks it had finished (or the
                    // replay region it was already re-running).
                    let target = f.req.prompt_len + f.tokens;
                    f.replay_tokens = if f.prefilled() {
                        target
                    } else {
                        f.replay_tokens.max(f.prefill_done).min(target)
                    };
                    f.prefill_done = start;
                    f.prefill_target = target;
                    f
                }
                Waiting::Handoff(f) => {
                    // The ledger hands the transferred bytes over: they
                    // become resident KV under the fresh reservation
                    // (capped by it — the pools may disagree on the keep
                    // ratio).
                    let bytes = self.land_handoff(id);
                    self.pool.grow_resident(id, bytes.min(full_peak));
                    f
                }
            };
            f.prefix_bytes = pbytes;
            self.activate(f, resumed, start);
        }
    }

    /// Moves `f` into the active set at the current clock and logs the
    /// admission (`resumed` for every admission but a fresh prompt's).
    fn activate(&mut self, f: InFlight, resumed: bool, reused_prefix_tokens: usize) {
        self.record(TraceEvent::Admit {
            device: self.device,
            cycle: self.now,
            id: f.req.id,
            resumed,
            reused_prefix_tokens: reused_prefix_tokens as u32,
            queue_depth: self.fresh_waiting as u32,
        });
        self.active.push(f);
        self.conc_log.push((self.now, 1));
    }

    /// Records `f` as dropped at the current clock — its peak KV can never
    /// fit this pool — freeing one closed-loop slot.
    fn drop_request(&mut self, f: InFlight, drops: &mut usize) {
        self.record(TraceEvent::Drop {
            device: self.device,
            cycle: self.now,
            id: f.req.id,
        });
        self.records
            .push(f.into_record(RequestState::Dropped, self.now));
        *drops += 1;
    }

    /// Takes a landed handoff's bytes out of the transfer ledger, counting
    /// it inbound.
    fn land_handoff(&mut self, id: RequestId) -> u64 {
        self.handoff.handoffs_in += 1;
        self.handoff_ledger.handoff_in(id)
    }

    /// Frees `f`'s reservation and drops its reference on its shared
    /// prefix (the entry itself stays resident as a warm cache line).
    /// Returns the resident bytes freed.
    fn release(&mut self, f: &InFlight) -> u64 {
        let freed = self.pool.release(f.req.id);
        if f.prefix_bytes > 0 {
            self.pool
                .unref_prefix(f.req.prefix.expect("prefix bytes imply a prefix").id);
        }
        freed.resident_bytes
    }

    /// Reserves `peak` bytes for candidate `id`, evicting strictly
    /// lower-priority victims if the configured policy allows and then —
    /// last — reclaiming unreferenced resident prefixes, when the
    /// combination would actually make room. `keep_prefix` names the
    /// prefix the candidate is about to reuse; it is spared from
    /// reclamation. Returns whether the reservation succeeded.
    ///
    /// Victims go before warm prefixes deliberately: a victim's KV serves
    /// only itself (and preemption exists to reorder exactly that work),
    /// while a resident prefix is shared state that keeps paying off
    /// across future arrivals — the serving-granularity analogue of the
    /// repetition reuse MCBP bets on.
    fn try_admit(
        &mut self,
        id: RequestId,
        peak: u64,
        priority: Priority,
        keep_prefix: Option<PrefixId>,
    ) -> bool {
        if self.pool.try_reserve(id, peak) {
            return true;
        }
        // Feasibility first: evicting every allowed victim and reclaiming
        // every warm prefix must make room, otherwise don't thrash the
        // pool for nothing.
        let evictable: u64 = if self.preempt.policy == EvictionPolicy::None {
            0
        } else {
            self.active
                .iter()
                .filter(|f| f.req.priority < priority)
                .map(|f| {
                    self.pool
                        .reservation(f.req.id)
                        .expect("active request holds a reservation")
                        .reserved_bytes
                })
                .sum()
        };
        let reclaimable = self.pool.reclaimable_prefix_bytes(keep_prefix);
        let free = self.pool.budget_bytes() - self.pool.reserved_bytes();
        if free + evictable + reclaimable < peak {
            return false;
        }
        while !self.pool.try_reserve(id, peak) {
            // Victim order: lowest class first; within it the youngest
            // admission (least sunk progress), ties broken by highest id.
            let victim = if self.preempt.policy == EvictionPolicy::None {
                None
            } else {
                self.active
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.req.priority < priority)
                    .min_by_key(|(_, f)| {
                        let admitted = cycle_key(f.admitted_cycle);
                        (f.req.priority, Reverse(admitted), Reverse(f.req.id))
                    })
                    .map(|(i, _)| i)
            };
            let Some(victim) = victim else {
                // Victims exhausted (or preemption disabled): reclaim one
                // unreferenced resident prefix — feasibility guaranteed
                // there is one to take.
                let (_, bytes) = self
                    .pool
                    .reclaim_unreferenced_prefix(keep_prefix)
                    .expect("feasibility guaranteed reclaimable bytes");
                self.prefix.reclaimed += 1;
                self.prefix.reclaimed_bytes += bytes;
                continue;
            };
            let mut f = self.active.remove(victim);
            // The victim's prefix reference drops with it; the resume
            // path re-evaluates reuse against the still-resident entry.
            let freed = self.release(&f);
            f.prefix_bytes = 0;
            f.preemptions += 1;
            self.preemptions += 1;
            let swapped_bytes = match self.preempt.policy {
                EvictionPolicy::None => unreachable!("victims require a policy"),
                EvictionPolicy::DropRecompute => 0,
                EvictionPolicy::Swap => {
                    if freed > 0 {
                        // Swap-out: spill the victim's KV to host memory,
                        // stalling the device for the transfer.
                        let cycles = self.preempt.transfer_cycles(freed);
                        self.now += cycles;
                        self.pool.advance_clock(self.now);
                        self.swap_cycles += cycles;
                        self.ledger.swap_out(f.req.id, freed);
                    }
                    freed
                }
            };
            let victim_id = f.req.id;
            let key = (
                Reverse(f.req.priority),
                cycle_key(f.req.arrival_cycle),
                victim_id,
            );
            let w = Waiting::Suspended {
                flight: f,
                swapped_bytes,
            };
            self.waiting_tokens += w.remaining_tokens();
            self.ready.insert(key, w);
            self.conc_log.push((self.now, -1));
            self.record(TraceEvent::Preempt {
                device: self.device,
                cycle: self.now,
                victim: victim_id,
                swapped_bytes,
            });
        }
        true
    }

    /// Plans and executes one batched step — pure prefill, pure decode,
    /// or a budgeted **mixed step** carrying a prefill chunk plus
    /// piggybacked decode streams — retiring completions. Returns the
    /// number of requests that completed — the driver releases one
    /// closed-loop slot per completion.
    ///
    /// In a mixed step the chunk members' KV residency grows to their new
    /// cursor and the piggybacked members' decode-token accounting (token
    /// counts, first-token stamps, per-token KV growth) lands in the same
    /// step; the step is costed as chunk cost plus incremental
    /// piggybacked-decode cost ([`StepCostModel::mixed_step_cost`]).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler returns an idle plan or selects no live
    /// request while work is visible, or schedules more tokens than
    /// [`ServeConfig::step_token_budget`] allows (contract violations —
    /// failing loudly beats silently losing in-flight requests).
    pub(crate) fn step(&mut self, scheduler: &mut dyn Scheduler) -> usize {
        self.admit_due = true;
        let step_start = self.now;
        let keep = self.cost().template().attention_keep;
        let model = self.cost().template().model.clone();
        let max_batch = self.sim.cfg.max_batch;
        self.prefill_view.clear();
        self.decode_view.clear();
        for f in &self.active {
            let (view, len, done) = if !f.prefilled() {
                (&mut self.prefill_view, f.prefill_target, f.prefill_done)
            } else if f.decodes() {
                (&mut self.decode_view, f.context(), f.context())
            } else {
                continue;
            };
            view.push(SchedEntry {
                id: f.req.id,
                len,
                done,
                generated: f.tokens,
                priority: f.req.priority,
            });
        }
        self.work.sched_entries += (self.prefill_view.len() + self.decode_view.len()) as u64;
        let view = SchedView {
            waiting_prefill: &self.prefill_view,
            decoding: &self.decode_view,
            max_batch,
            prefill_chunk: self.sim.cfg.prefill_chunk,
            step_token_budget: self.sim.cfg.step_token_budget,
        };
        let plan = scheduler.plan(&view);
        assert!(
            !plan.is_idle(),
            "scheduler `{}` returned an idle plan with {} prompt(s) waiting and {} stream(s) decoding",
            scheduler.name(),
            self.prefill_view.len(),
            self.decode_view.len()
        );
        // Prefill and decode members share the coalescing width.
        self.members.clear();
        let active = &self.active;
        resolve_members(
            active,
            &plan.prefill,
            |f| !f.prefilled(),
            max_batch,
            &mut self.members,
        );
        let prefills = self.members.len();
        resolve_members(
            active,
            &plan.decode,
            InFlight::decodes,
            max_batch,
            &mut self.members,
        );
        assert!(
            !self.members.is_empty(),
            "scheduler `{}` plan selected no live request",
            scheduler.name()
        );
        let (prefill_members, decode_members) = self.members.split_at(prefills);

        let chunk = self.sim.cfg.prefill_chunk.unwrap_or(usize::MAX);
        // Per-request chunk spans. The schedulers batch matching
        // (target, cursor) pairs so spans are uniform; a custom
        // scheduler mixing cursors is costed by its heaviest span.
        self.spans.clear();
        self.spans.extend(prefill_members.iter().map(|&i| {
            let f = &self.active[i];
            let upto = f.prefill_target.min(f.prefill_done.saturating_add(chunk));
            (i, f.prefill_done, upto, f.replay_tokens)
        }));
        let taken: usize = self.spans.iter().map(|&(_, d, u, _)| u - d).sum();
        // Budget contract: the executed step never exceeds the shared
        // token budget (chunk tokens + one per decode member).
        if let Some(budget) = self.sim.cfg.step_token_budget {
            let tokens = taken + decode_members.len();
            assert!(
                tokens <= budget,
                "scheduler `{}` scheduled {tokens} tokens over the {budget}-token step budget",
                scheduler.name()
            );
            self.budget_utilization_sum += tokens as f64 / budget as f64;
        }

        // ---- cost the invocation (chunk + piggybacked decodes) ----
        let chunk_cost = (!self.spans.is_empty()).then(|| {
            let (_, done, upto, _) = self
                .spans
                .iter()
                .copied()
                .max_by_key(|&(_, done, upto, _)| (upto - done, upto))
                .expect("non-empty");
            self.sim
                .fleet_scaled(self.cost().prefill_chunk_cost(done, upto, self.spans.len()))
        });
        let decode_cost = (!decode_members.is_empty()).then(|| {
            let mean_ctx = (decode_members
                .iter()
                .map(|&i| self.active[i].context())
                .sum::<usize>() as f64
                / decode_members.len() as f64)
                .round() as usize;
            // Piggybacked decodes ride the chunk's weight stream and pay
            // only their incremental cost; a pure decode step pays the
            // full invocation cost including the stream.
            let raw = if self.spans.is_empty() {
                self.cost()
                    .decode_cost(mean_ctx.max(1), decode_members.len())
            } else {
                self.cost()
                    .piggyback_decode_cost(mean_ctx.max(1), decode_members.len())
            };
            self.sim.fleet_scaled(raw)
        });
        let step_cycles =
            chunk_cost.map_or(0.0, |c| c.cycles) + decode_cost.map_or(0.0, |c| c.cycles);
        self.now += step_cycles;
        self.busy_cycles += step_cycles;
        // Integrate pre-step residency over the step before the step's
        // own growth lands, so the occupancy mean is not biased upward
        // by end-of-step byte arrivals.
        self.pool.advance_clock(self.now);
        self.energy_pj +=
            chunk_cost.map_or(0.0, |c| c.energy_pj) + decode_cost.map_or(0.0, |c| c.energy_pj);
        self.steps.steps += 1;
        match (chunk_cost.is_some(), decode_cost.is_some()) {
            (true, true) => self.steps.mixed_steps += 1,
            (true, false) => self.steps.prefill_steps += 1,
            (false, true) => self.steps.decode_steps += 1,
            (false, false) => unreachable!("empty plans are rejected above"),
        }

        // ---- apply the chunk members' cursor and KV growth ----
        if let Some(cost) = chunk_cost {
            // Attribute the replayed share of the chunk (not of the
            // piggybacked decodes) to recompute overhead
            // (drop-and-recompute's resume bill): the tokens of each span
            // overlapping its replay region.
            let replayed: usize = self
                .spans
                .iter()
                .map(|&(_, d, u, rep)| u.min(rep).saturating_sub(d))
                .sum();
            self.recompute_cycles += cost.cycles * replayed as f64 / taken as f64;
            for &(i, _, upto, _) in &self.spans {
                let f = &mut self.active[i];
                let id = f.req.id;
                f.prefill_done = upto;
                if f.prefilled() && f.req.decode_len == 0 && f.tokens == 0 {
                    f.first_token_cycle = self.now; // prompt-only request
                }
                // Residency grows per chunk: the KV bytes of the
                // prefilled prefix — minus any share the shared-prefix
                // ledger already holds — never past the peak reservation.
                let bytes = request_kv_bytes(&model, upto, keep).saturating_sub(f.prefix_bytes);
                self.pool.grow_resident_to(id, bytes);
                // Crossing the declared prefix boundary materializes the
                // shared prefix: its KV bytes move out of this request's
                // reservation into the pool's refcounted prefix ledger
                // (or, if another request got there first, the duplicate
                // copy is shed back to the pool).
                if let Some(p) = f.req.prefix {
                    if p.tokens > 0 && f.prefix_bytes == 0 && upto >= p.tokens {
                        let bytes = request_kv_bytes(&model, p.tokens, keep);
                        f.prefix_bytes = self.pool.promote_prefix(id, p.id, p.tokens, bytes);
                    }
                }
            }
        }

        // ---- apply the decode members' token accounting ----
        let decodes = decode_members.len();
        if decodes > 0 {
            self.decode_invocations += 1;
            self.decode_streams += decodes as u64;
            for &i in decode_members {
                let f = &mut self.active[i];
                let id = f.req.id;
                f.tokens += 1;
                if f.tokens == 1 {
                    f.first_token_cycle = self.now;
                }
                let bytes =
                    request_kv_bytes(&model, f.context(), keep).saturating_sub(f.prefix_bytes);
                self.pool.grow_resident_to(id, bytes);
            }
        }

        // ---- retire completions ----
        let mut completions = 0;
        let mut i = 0;
        while i < self.active.len() {
            let done = {
                let f = &self.active[i];
                f.prefilled() && f.tokens >= f.req.decode_len
            };
            if !done {
                i += 1;
                continue;
            }
            let f = self.active.remove(i);
            self.release(&f);
            self.records
                .push(f.into_record(RequestState::Completed, self.now));
            self.conc_log.push((self.now, -1));
            completions += 1;
        }
        // ---- extract finished prefills for decode-pool handoff ----
        // (After completions so prompt-only requests retire locally; the
        // Step event below then reflects the post-handoff device state.)
        self.extract_finished_prefills();
        if self.log.is_some() {
            self.record(TraceEvent::Step {
                device: self.device,
                start_cycle: step_start,
                end_cycle: self.now,
                prefill_streams: self.spans.len() as u32,
                decode_streams: decodes as u32,
                prefill_tokens: taken as u32,
                queue_depth: self.fresh_waiting as u32,
                active_streams: self.active.len() as u32,
                pool_reserved_bytes: self.pool.reserved_bytes(),
                completions: completions as u32,
            });
        }
        completions
    }

    /// This device's report lane in a fleet run of `duration_cycles`
    /// (goodput and utilization are shares of the fleet span): its
    /// counts, the byte totals and peaks its ledgers hold, and its cycle
    /// sums in seconds. Outbound handoff counts sit on the source device,
    /// inbound ones — and the transfer ledger — on the destination.
    pub(crate) fn lane(&self, device: usize, duration_cycles: f64) -> DeviceReport {
        let span_s = (duration_cycles / crate::CLOCK_HZ).max(1e-12);
        let completed = || self.records.iter().filter(|r| r.completed());
        let tokens: usize = completed().map(|r| r.tokens).sum();
        let stall_cycles: f64 = completed().map(RequestRecord::admission_stall_cycles).sum();
        let completed = completed().count();
        DeviceReport {
            device,
            dispatched: self.dispatched,
            completed,
            dropped: self.records.len() - completed,
            goodput_tokens_per_s: tokens as f64 / span_s,
            // Busy: executed steps plus swap stalls.
            utilization: if duration_cycles > 0.0 {
                (self.busy_cycles + self.swap_cycles) / duration_cycles
            } else {
                0.0
            },
            energy_joules: self.energy_pj * 1e-12,
            pool: PoolReport {
                budget_bytes: self.pool.budget_bytes(),
                peak_resident_bytes: self.pool.peak_resident_bytes(),
                peak_reserved_bytes: self.pool.peak_reserved_bytes(),
                mean_resident_bytes: self.pool.mean_resident_bytes(),
                busy_span_seconds: self.pool.busy_span_cycles() / crate::CLOCK_HZ,
                admission_stall_seconds: stall_cycles / crate::CLOCK_HZ,
            },
            preempt: PreemptReport {
                preemptions: self.preemptions,
                swap_out_bytes: self.ledger.total_out_bytes(),
                swap_in_bytes: self.ledger.total_in_bytes(),
                swap_seconds: self.swap_cycles / crate::CLOCK_HZ,
                recompute_seconds: self.recompute_cycles / crate::CLOCK_HZ,
                peak_swap_held_bytes: self.ledger.peak_held_bytes(),
            },
            handoff: HandoffReport {
                bytes_in: self.handoff_ledger.total_in_bytes(),
                link_seconds: self.link_cycles / crate::CLOCK_HZ,
                peak_in_flight_bytes: self.handoff_ledger.peak_in_flight_bytes(),
                ..self.handoff
            },
            steps: StepReport {
                mean_budget_utilization: if self.steps.steps == 0 {
                    0.0
                } else {
                    self.budget_utilization_sum / self.steps.steps as f64
                },
                ..self.steps
            },
            prefix: self.prefix,
        }
    }
}

/// Appends to `members` the `active` index of each planned id whose
/// request `in_phase` (the predicate that built the id's view) accepts,
/// in plan order, until `members` holds `max_batch`. An id outside the
/// view is ignored, and one already in `members` is skipped: a custom
/// scheduler naming the same stream twice advances it once, not twice.
/// The two phases' predicates are disjoint, so one list serves both.
fn resolve_members(
    active: &[InFlight],
    ids: &[RequestId],
    in_phase: fn(&InFlight) -> bool,
    max_batch: usize,
    members: &mut Vec<usize>,
) {
    // Plans list their ids mostly in view order, which is `active`
    // order, so each search starts past the previous hit and wraps.
    let mut from = 0;
    for id in ids {
        if members.len() == max_batch {
            break;
        }
        let hit = (from..active.len())
            .chain(0..from)
            .find(|&i| active[i].req.id == *id && in_phase(&active[i]));
        if let Some(i) = hit {
            from = i + 1;
            if !members.contains(&i) {
                members.push(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{ArrivalProcess, LoadGenerator, RequestClass};
    use crate::request::SloSpec;
    use crate::scheduler::{ContinuousBatchScheduler, FcfsScheduler, PriorityScheduler};
    use mcbp_model::LlmConfig;
    use mcbp_workloads::{PhaseCost, RunReport, SparsityProfile, Task, WeightGenerator};

    /// Analytic accelerator: decode pays a fixed weight-stream cost plus a
    /// per-stream context cost — the qualitative shape that makes
    /// batching matter, with exact arithmetic for assertions.
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
                    kv_load_cycles: 100.0
                        * ctx.task.prompt_len as f64
                        * b
                        * ctx.task.decode_len as f64,
                    compute_pj: b,
                    ..Default::default()
                },
            }
        }
    }

    fn template(keep: f64) -> TraceContext {
        let model = LlmConfig::opt1b3();
        let gen = WeightGenerator::for_model(&model);
        let profile = SparsityProfile::measure(&gen.quantized_sample(16, 64, 1), 4);
        TraceContext {
            model,
            task: Task::cola(),
            batch: 1,
            weight_profile: profile,
            attention_keep: keep,
        }
    }

    fn closed_loop(n: usize, total: usize) -> Workload {
        LoadGenerator::uniform(
            Task::cola(),
            total,
            ArrivalProcess::ClosedLoop { concurrency: n },
        )
        .generate()
    }

    #[test]
    fn every_request_completes_with_full_token_count() {
        let accel = Toy;
        let sim = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let w = closed_loop(4, 12);
        let report = sim.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(report.completed, 12);
        assert_eq!(report.dropped, 0);
        for rec in &report.records {
            assert_eq!(rec.tokens, rec.request.decode_len);
        }
        // No declared deadlines: every completion counts toward SLO goodput.
        assert_eq!(report.slo_met, 12);
        assert!((report.slo_goodput_tokens_per_s - report.goodput_tokens_per_s).abs() < 1e-9);
    }

    #[test]
    fn continuous_batching_coalesces_and_beats_fcfs() {
        let accel = Toy;
        let sim = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let w = closed_loop(8, 16);
        let cb = sim.run(&w, &mut ContinuousBatchScheduler::new());
        let fcfs = sim.run(&w, &mut FcfsScheduler::new());
        assert!(
            cb.mean_decode_batch > 4.0,
            "coalescing {}",
            cb.mean_decode_batch
        );
        assert!((fcfs.mean_decode_batch - 1.0).abs() < 1e-9);
        assert!(
            cb.goodput_tokens_per_s > fcfs.goodput_tokens_per_s,
            "cb {} vs fcfs {}",
            cb.goodput_tokens_per_s,
            fcfs.goodput_tokens_per_s
        );
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let accel = Toy;
        let sim = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let gen = LoadGenerator::uniform(
            Task::cola(),
            24,
            ArrivalProcess::Poisson {
                rate_rps: 2000.0,
                seed: 11,
            },
        );
        let a = sim.run(&gen.generate(), &mut ContinuousBatchScheduler::new());
        let b = sim.run(&gen.generate(), &mut ContinuousBatchScheduler::new());
        assert_eq!(a, b);
    }

    #[test]
    fn tight_pool_stalls_admission_but_stays_within_budget() {
        let accel = Toy;
        let model = LlmConfig::opt1b3();
        // Room for about two Cola requests' pruned KV at a time.
        let per_req = request_kv_bytes(&model, Task::cola().final_context(), 0.3);
        let cfg = ServeConfig {
            kv_budget_bytes: Some(per_req * 2 + 1024),
            ..ServeConfig::default()
        };
        let sim = ServeSim::new(&accel, template(0.3), cfg);
        let w = closed_loop(6, 6);
        let report = sim.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(report.completed, 6);
        assert!(report.peak_concurrency <= 2);
        assert!(report.pool.peak_reserved_bytes <= report.pool.budget_bytes);
        assert!(report.pool.admission_stall_seconds > 0.0);
        assert_eq!(
            report.preempt.preemptions, 0,
            "the default policy never preempts"
        );
    }

    #[test]
    fn closed_loop_drop_releases_the_next_request() {
        // Mixed closed-loop population where every other request (Dolly)
        // can never fit the pool: each drop must vacate its slot so the
        // trailing Cola requests still get served — total records must
        // equal the workload size.
        let accel = Toy;
        let model = LlmConfig::opt1b3();
        let budget = request_kv_bytes(&model, Task::cola().final_context(), 1.0) * 2;
        let cfg = ServeConfig {
            kv_budget_bytes: Some(budget),
            ..ServeConfig::default()
        };
        let sim = ServeSim::new(&accel, template(1.0), cfg);
        let w = LoadGenerator {
            task_mix: vec![Task::cola(), Task::dolly()],
            class_mix: vec![RequestClass::default()],
            prefix_mix: vec![None],
            count: 10,
            process: ArrivalProcess::ClosedLoop { concurrency: 2 },
        }
        .generate();
        let report = sim.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(
            report.completed + report.dropped,
            10,
            "no request may vanish"
        );
        assert_eq!(report.completed, 5);
        assert_eq!(report.dropped, 5);
    }

    #[test]
    fn oversized_request_is_dropped_not_wedged() {
        let accel = Toy;
        let cfg = ServeConfig {
            kv_budget_bytes: Some(1024),
            ..ServeConfig::default()
        };
        let sim = ServeSim::new(&accel, template(1.0), cfg);
        let w = closed_loop(2, 2);
        let report = sim.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(report.completed, 0);
        assert_eq!(report.dropped, 2);
    }

    #[test]
    fn lower_keep_admits_more_concurrency_under_same_budget() {
        let accel = Toy;
        let model = LlmConfig::opt1b3();
        let per_req_dense = request_kv_bytes(&model, Task::cola().final_context(), 1.0);
        let budget = per_req_dense * 3;
        let mk = |keep: f64| {
            let cfg = ServeConfig {
                kv_budget_bytes: Some(budget),
                ..ServeConfig::default()
            };
            let sim = ServeSim::new(&accel, template(keep), cfg);
            sim.run(&closed_loop(12, 12), &mut ContinuousBatchScheduler::new())
        };
        let dense = mk(1.0);
        let pruned = mk(0.3);
        assert!(
            pruned.peak_concurrency > dense.peak_concurrency,
            "pruned {} vs dense {}",
            pruned.peak_concurrency,
            dense.peak_concurrency
        );
    }

    #[test]
    fn tensor_parallel_fleet_scales_throughput() {
        let accel = Toy;
        let single = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let fleet = ServeSim::new(
            &accel,
            template(0.3),
            ServeConfig {
                fleet: Fleet {
                    devices: 8,
                    scaling_efficiency: Fleet::efficiency_for(8),
                },
                ..ServeConfig::default()
            },
        );
        let w = closed_loop(8, 16);
        let one = single.run(&w, &mut ContinuousBatchScheduler::new());
        let eight = fleet.run(&w, &mut ContinuousBatchScheduler::new());
        assert!(
            eight.goodput_tokens_per_s > 4.0 * one.goodput_tokens_per_s,
            "8 devices {} vs 1 device {}",
            eight.goodput_tokens_per_s,
            one.goodput_tokens_per_s
        );
        assert!(
            eight.energy_joules >= one.energy_joules,
            "energy is fleet-wide"
        );
    }

    #[test]
    fn chunked_prefill_splits_long_prompts_across_steps() {
        // An 8k prompt at chunk 512 takes 16 prefill invocations; the
        // chunk costs telescope, so total prefill cycles exceed the
        // unchunked run only by the per-invocation floors.
        let accel = Toy;
        let task = Task::dolly().with_decode(4);
        let w = Workload {
            requests: vec![Request::from_task(0, &task, 0.0)],
            closed_loop: None,
        };
        let chunked = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let mono = ServeSim::new(
            &accel,
            template(0.3),
            ServeConfig {
                prefill_chunk: None,
                ..ServeConfig::default()
            },
        );
        let c = chunked.run(&w, &mut ContinuousBatchScheduler::new());
        let m = mono.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(c.completed, 1);
        assert_eq!(m.completed, 1);
        assert!(
            c.duration_seconds > m.duration_seconds,
            "chunking pays per-invocation floors: {} vs {}",
            c.duration_seconds,
            m.duration_seconds
        );
        assert!(
            c.duration_seconds < 1.2 * m.duration_seconds,
            "chunk costs must telescope, not balloon: {} vs {}",
            c.duration_seconds,
            m.duration_seconds
        );
    }

    /// A two-request contention scenario: one batch-class request owns the
    /// pool, then an interactive request arrives that cannot fit.
    fn contention_workload() -> Workload {
        let batch = Request::from_task(0, &Task::mnli().with_decode(8), 0.0);
        let interactive = Request::from_task(1, &Task::cola().with_decode(4), 1.0)
            .with_priority(Priority::Interactive);
        Workload {
            requests: vec![batch, interactive],
            closed_loop: None,
        }
    }

    fn contention_budget(model: &LlmConfig) -> u64 {
        // Fits the batch request, or the interactive one, but never both.
        request_kv_bytes(model, Task::mnli().with_decode(8).final_context(), 1.0) + 1024
    }

    fn run_contention(policy: EvictionPolicy) -> ServeReport {
        let accel = Toy;
        let model = LlmConfig::opt1b3();
        let cfg = ServeConfig {
            kv_budget_bytes: Some(contention_budget(&model)),
            preempt: PreemptConfig {
                policy,
                ..PreemptConfig::default()
            },
            ..ServeConfig::default()
        };
        let sim = ServeSim::new(&accel, template(1.0), cfg);
        sim.run(&contention_workload(), &mut PriorityScheduler::new())
    }

    #[test]
    fn without_preemption_the_interactive_request_waits() {
        let report = run_contention(EvictionPolicy::None);
        assert_eq!(report.completed, 2);
        assert_eq!(report.preempt.preemptions, 0);
        // The interactive request is admitted only after the batch one
        // completes and frees the pool.
        let inter = &report.records[1];
        assert!(inter.admission_stall_cycles() > 0.0);
    }

    #[test]
    fn drop_recompute_evicts_and_replays() {
        let report = run_contention(EvictionPolicy::DropRecompute);
        assert_eq!(report.completed, 2);
        assert_eq!(report.dropped, 0);
        assert!(report.preempt.preemptions >= 1);
        assert_eq!(report.preempt.swap_out_bytes, 0);
        assert!(
            report.preempt.recompute_seconds > 0.0,
            "the victim's prefill must replay"
        );
        let batch = &report.records[0];
        let inter = &report.records[1];
        assert!(batch.preemptions >= 1, "the batch request was the victim");
        assert_eq!(batch.tokens, batch.request.decode_len);
        assert_eq!(inter.preemptions, 0);
        // Admission happens at step boundaries, so the interactive request
        // stalls at most ~one step under preemption — far below the
        // no-preemption stall (the victim's entire remaining service).
        let blocked = run_contention(EvictionPolicy::None);
        assert!(
            inter.admission_stall_cycles() * 10.0 < blocked.records[1].admission_stall_cycles(),
            "preemption stall {} vs blocked stall {}",
            inter.admission_stall_cycles(),
            blocked.records[1].admission_stall_cycles()
        );
        // The victim finishes after the interactive request despite
        // arriving first.
        assert!(batch.completed_cycle > inter.completed_cycle);
    }

    #[test]
    fn swap_spills_and_restores_without_replay() {
        let report = run_contention(EvictionPolicy::Swap);
        assert_eq!(report.completed, 2);
        assert!(report.preempt.preemptions >= 1);
        assert!(report.preempt.swap_out_bytes > 0);
        assert_eq!(
            report.preempt.swap_in_bytes, report.preempt.swap_out_bytes,
            "every spilled byte is restored"
        );
        assert!(report.preempt.swap_seconds > 0.0);
        assert!(
            report.preempt.recompute_seconds == 0.0,
            "swap never recomputes"
        );
        let batch = &report.records[0];
        assert_eq!(batch.tokens, batch.request.decode_len);
    }

    #[test]
    fn preemption_policies_replay_deterministically() {
        for policy in [EvictionPolicy::DropRecompute, EvictionPolicy::Swap] {
            let a = run_contention(policy);
            let b = run_contention(policy);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn config_validation_rejects_inconsistent_shapes_with_typed_errors() {
        let accel = Toy;
        let bad = |cfg: ServeConfig| {
            ServeSim::try_new(&accel, template(0.3), cfg)
                .err()
                .expect("config must be rejected")
        };
        assert_eq!(
            bad(ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            }),
            ServeConfigError::ZeroMaxBatch
        );
        assert_eq!(
            bad(ServeConfig {
                ctx_bucket: 0,
                ..ServeConfig::default()
            }),
            ServeConfigError::ZeroCtxBucket
        );
        assert_eq!(
            bad(ServeConfig {
                prefill_chunk: Some(0),
                ..ServeConfig::default()
            }),
            ServeConfigError::ZeroPrefillChunk
        );
        assert_eq!(
            bad(ServeConfig {
                prefill_chunk: Some(512),
                step_token_budget: Some(0),
                ..ServeConfig::default()
            }),
            ServeConfigError::ZeroStepTokenBudget
        );
        assert_eq!(
            bad(ServeConfig {
                prefill_chunk: Some(512),
                step_token_budget: Some(511),
                ..ServeConfig::default()
            }),
            ServeConfigError::ChunkExceedsBudget {
                chunk: 512,
                budget: 511
            }
        );
        assert_eq!(
            bad(ServeConfig {
                prefill_chunk: None,
                step_token_budget: Some(1024),
                ..ServeConfig::default()
            }),
            ServeConfigError::BudgetRequiresChunkedPrefill
        );
        for link in [0.0, -2.0, f64::NAN] {
            assert_eq!(
                bad(ServeConfig {
                    preempt: PreemptConfig {
                        host_link_bytes_per_cycle: link,
                        ..PreemptConfig::swap()
                    },
                    ..ServeConfig::default()
                }),
                ServeConfigError::NonPositiveHostLink { device: None }
            );
        }
        // A tensor-parallel group with no device, or an efficiency outside
        // (0, 1], would run to infinite, negative, or NaN costs.
        for (devices, scaling_efficiency) in [
            (0, 1.0),
            (2, 0.0),
            (2, -0.5),
            (2, f64::NAN),
            (2, f64::INFINITY),
            (2, 2.0),
        ] {
            let fleet = Fleet {
                devices,
                scaling_efficiency,
            };
            assert_eq!(
                bad(ServeConfig {
                    fleet,
                    ..ServeConfig::default()
                }),
                ServeConfigError::InvalidTensorParallel,
                "{fleet:?}"
            );
        }
        // The simulator's own keep must lie in (0, 1], as a profile's
        // does: NaN used to panic mid-run, and the rest ran clamped.
        for keep in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert_eq!(
                ServeSim::try_new(&accel, template(keep), ServeConfig::default()).err(),
                Some(ServeConfigError::InvalidKeep { device: None }),
                "keep {keep}"
            );
        }
        // The boundary case chunk == budget is legal (no piggyback slack,
        // but chunk steps can still be scheduled), as are the defaults and
        // the in-repo tensor-parallel groups.
        assert!(ServeConfig {
            prefill_chunk: Some(512),
            step_token_budget: Some(512),
            ..ServeConfig::default()
        }
        .validate()
        .is_ok());
        assert!(ServeConfig::default().validate().is_ok());
        for fleet in [Fleet::single(), Fleet::iso_tops(624.0, 4.2)] {
            assert!(ServeConfig {
                fleet,
                ..ServeConfig::default()
            }
            .validate()
            .is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "invalid ServeConfig")]
    fn new_panics_on_invalid_config_with_the_typed_message() {
        let accel = Toy;
        let _ = ServeSim::new(
            &accel,
            template(0.3),
            ServeConfig {
                prefill_chunk: Some(0),
                ..ServeConfig::default()
            },
        );
    }

    #[test]
    fn budgeted_run_mixes_steps_and_conserves_tokens() {
        let accel = Toy;
        let budgeted = ServeSim::new(
            &accel,
            template(0.3),
            ServeConfig {
                step_token_budget: Some(576),
                ..ServeConfig::default()
            },
        );
        let w = closed_loop(4, 12);
        let report = budgeted.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(report.completed, 12);
        for rec in &report.records {
            assert_eq!(rec.tokens, rec.request.decode_len);
        }
        // Closed-loop releases land while earlier streams decode, so the
        // budgeted scheduler must have piggybacked decodes onto chunks.
        assert!(
            report.steps.mixed_steps > 0,
            "expected mixed steps, got {:?}",
            report.steps
        );
        assert_eq!(
            report.steps.steps,
            report.steps.prefill_steps + report.steps.decode_steps + report.steps.mixed_steps
        );
        assert!(report.steps.mean_budget_utilization > 0.0);
        assert!(report.steps.mean_budget_utilization <= 1.0);
        // The unbudgeted baseline on the same trace reports no mixed
        // steps and no budget utilization.
        let baseline = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let base = baseline.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(base.steps.mixed_steps, 0);
        assert_eq!(base.steps.mean_budget_utilization, 0.0);
        assert_eq!(base.completed, 12);
    }

    #[test]
    fn budgeted_runs_replay_identically() {
        let accel = Toy;
        let cfg = ServeConfig {
            step_token_budget: Some(576),
            ..ServeConfig::default()
        };
        let sim = ServeSim::new(&accel, template(0.3), cfg);
        let gen = LoadGenerator::uniform(
            Task::cola(),
            24,
            ArrivalProcess::Poisson {
                rate_rps: 2000.0,
                seed: 11,
            },
        );
        let a = sim.run(&gen.generate(), &mut ContinuousBatchScheduler::new());
        let b = sim.run(&gen.generate(), &mut ContinuousBatchScheduler::new());
        assert_eq!(a, b);
    }

    #[test]
    fn impossible_slo_zeroes_slo_goodput() {
        let accel = Toy;
        let sim = ServeSim::new(&accel, template(0.3), ServeConfig::default());
        let mut w = closed_loop(2, 4);
        for r in &mut w.requests {
            r.slo = SloSpec::interactive(0.0, 0.0); // unmeetable
        }
        let report = sim.run(&w, &mut ContinuousBatchScheduler::new());
        assert_eq!(report.completed, 4);
        assert_eq!(report.slo_met, 0);
        assert_eq!(report.slo_goodput_tokens_per_s, 0.0);
        assert!(report.goodput_tokens_per_s > 0.0);
    }
}
