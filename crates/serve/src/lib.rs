//! `mcbp-serve` — a discrete-event request-serving simulator over the MCBP
//! accelerator model: queues, arrival processes, batching schedulers, and
//! KV-cache admission control for many concurrent decode streams.
//!
//! The rest of the workspace evaluates one task at one batch size; this
//! crate models *serving* — the regime the BGPP motivation (§3.3) and the
//! SLIM line of work actually target, where many requests contend for
//! device memory and the scheduler decides what one accelerator invocation
//! coalesces.
//!
//! # The queueing/serving model
//!
//! **Clock.** Simulated time is the accelerator's 1 GHz core clock
//! ([`CLOCK_HZ`]), the same unit as [`mcbp_workloads::RunReport`] cycles.
//! Nothing reads the wall clock and every random draw comes from a seeded
//! generator, so a `(workload, scheduler, config)` triple replays
//! bit-identically.
//!
//! **Requests.** A [`Request`] is a prompt of `prompt_len` tokens followed
//! by `decode_len` generated tokens, derived from a benchmark
//! [`mcbp_workloads::Task`] shape. Its lifecycle
//! ([`RequestState`]) is `Queued → AwaitingPrefill → Decoding → Completed`
//! (or `Dropped` if its KV footprint can never fit).
//!
//! **Arrivals.** A [`LoadGenerator`] materializes a [`Workload`] from an
//! [`ArrivalProcess`]: `ClosedLoop` (a fixed in-flight population, for
//! capacity probing), `Poisson` (open-loop, exponential gaps), or `Bursty`
//! (on/off modulated Poisson preserving the long-run rate — the regime
//! that separates continuous batching from FCFS), or `Diurnal`
//! (sinusoidally rate-modulated Poisson, the multi-phase day/night
//! traffic the trace sampler exploits).
//!
//! **Steps, not events.** The simulator advances in *scheduler steps*:
//! each iteration the [`Scheduler`] inspects admitted work and plans one
//! batched accelerator invocation — a prefill chunk of admitted prompts,
//! one decode token across up to `max_batch` coalesced streams, or (under
//! a step token budget) both at once ([`StepPlan`]). The step is costed
//! by the cycle-level model through a
//! memoizing [`StepCostModel`] (contexts quantized to `ctx_bucket`-token
//! boundaries with linear interpolation in between), the clock advances
//! by the step latency, and completions retire. Decode invocations
//! amortize the weight stream across coalesced streams exactly as the
//! underlying simulator does for batched workloads — that amortization is
//! what continuous batching harvests and FCFS forfeits.
//!
//! **Chunked prefill.** Long prompts do not monopolize the device: a
//! prefill invocation advances each selected prompt's *prefill cursor* by
//! at most [`ServeConfig::prefill_chunk`] tokens (default 512), costed
//! incrementally, and the coalescing schedulers alternate prefill chunks
//! with decode steps. TTFT of a queued interactive request no longer
//! hides behind an 8k-token prefill: under the [`PriorityScheduler`] its
//! prompt's first chunk cuts in between a batch-class prompt's chunks. KV
//! residency grows per chunk, and a mid-prefill drop-and-recompute victim
//! replays only the chunks it had completed.
//!
//! **Mixed steps under a shared token budget.** With
//! [`ServeConfig::step_token_budget`] set, a scheduler step is no longer
//! *either* a prefill chunk *or* a decode batch: every step is one
//! budgeted invocation in which prefill members count their chunk's
//! tokens and decode members count one token each, and the coalescing
//! schedulers pack decode streams into the budget left over by the
//! prefill chunk (Sarathi-style piggybacking). Decode streams keep
//! advancing *every* step while a long prompt prefills — and the
//! piggybacked tokens ride the chunk's weight stream, paying only their
//! incremental cost ([`StepCostModel::mixed_step_cost`]). The
//! [`PriorityScheduler`] additionally protects TTFT: an interactive
//! stream's pending first token wins a short decode-only step over a
//! batch-class chunk, so the mixed-step TPOT gain never costs the
//! interactive class its chunked-prefill TTFT win. Budget `None`
//! (the default) keeps the PR 3 phase-alternating behavior bit-exact as
//! the ablation baseline; invalid combinations (zero budget, zero chunk,
//! chunk wider than the budget, budget without chunking) are rejected
//! with a typed [`ServeConfigError`]. [`ServeReport::steps`] reports the
//! composition: step counts per kind, mixed-step fraction, and mean
//! budget utilization.
//!
//! **KV-cache admission.** A [`KvCachePool`] holds the byte budget —
//! device HBM capacity minus resident INT8 weights
//! ([`KvCachePool::from_memory_spec`]) — and admission reserves each
//! request's *peak* residency up front: KV bytes at final context scaled
//! by the BGPP attention-keep ratio ([`request_kv_bytes`]). Reserving the
//! peak makes the budget invariant unbreakable by decode-time growth;
//! lowering the keep ratio shrinks every reservation and therefore raises
//! admissible concurrency under the same budget. Reservations are tracked
//! per request in the pool's own ledger, so releases and evictions free
//! exactly what was held. When the pool is full the best-ordered candidate
//! blocks, and the stall is reported.
//!
//! **Priorities, preemption, SLOs.** Requests carry a scheduling class
//! ([`Priority::Interactive`] outranks [`Priority::Batch`]) and optional
//! TTFT/TPOT deadlines ([`SloSpec`]). Admission is priority-ordered, and
//! under pool pressure an [`EvictionPolicy`] may *preempt* strictly
//! lower-priority victims: drop-and-recompute discards their KV and
//! replays the prefill on resume, while swap spills it over a host link
//! and restores it later (see [`preempt`](crate::EvictionPolicy) for the
//! cost tradeoff). [`ServeReport`] separates raw goodput from SLO-aware
//! goodput (only SLO-met requests' tokens), per class via
//! [`ServeReport::slo_goodput_for`]. The [`PriorityScheduler`] coalesces
//! like continuous batching but never displaces interactive streams.
//!
//! **Fleets.** Two orthogonal scaling axes. [`ServeConfig::fleet`] makes
//! *one* serving instance faster via the §5.3 tensor-parallel scaling
//! model ([`mcbp_workloads::Fleet`]): step latency divides by the group's
//! effective speedup and energy pays the communication tax.
//! [`ServeSim::run_spec`] scales *out* instead: N independent simulated
//! devices, each with its own [`KvCachePool`], scheduler state, and
//! clock, behind a pluggable [`Router`], with per-device
//! utilization/goodput breakdowns in [`ServeReport::devices`]. Fleets
//! need not be uniform: a [`RunSpec`] builds each
//! device from its own [`DeviceProfile`] — accelerator generation (its
//! own step-cost model), BGPP keep ratio, pool budget, host link, and a
//! relative throughput weight — and [`DispatchPolicy`] spans round-robin,
//! join-shortest-queue, least-loaded-pool, **weighted JSQ** (queued
//! tokens normalized by profile throughput, the policy that makes
//! mixed-generation fleets pay off), and **prefix-affinity** routing.
//!
//! **Disaggregated prefill/decode.** A fleet can specialize devices by
//! [`DeviceRole`]: `Prefill` devices run prompts and each request's
//! first token, `Decode` devices run the continuations, and the default
//! `Unified` does both (keeping every pre-existing config bit-exact).
//! Routing becomes two-stage — stage 1 places the prompt on a
//! prefill-capable device; once a `Prefill`-role device finishes the
//! prompt and emits token 1 (the DistServe cut point — TTFT never
//! crosses the link), stage 2 routes the decode continuation to a
//! decode-capable device and the request's resident KV bytes ride the
//! source's modeled host link ([`SwapLedger`] rate) to the destination.
//! A [`HandoffLedger`] on the destination tracks every transfer's bytes
//! from departure to admission so conservation is checkable at any
//! cycle, and [`HandoffReport`] surfaces counts, bytes, and link time
//! per lane and fleet-wide. See [`DispatchPolicy`] for the routing
//! stages and why handoffs preserve deterministic parallel driving.
//!
//! **Prefix reuse.** Shared prompt prefixes (system prompts, few-shot
//! headers) are the serving-granularity face of the repetitiveness MCBP
//! exploits at the bit level: a [`Request`] may declare a
//! [`SharedPrefix`], the [`KvCachePool`] keeps a refcounted
//! resident-prefix ledger (bytes pinned while referenced, warm entries
//! reclaimed last under admission pressure), and an admitted prompt whose
//! prefix is already resident reserves only its unshared suffix and
//! starts its prefill cursor past the shared region — chunked prefill and
//! the step token budget then cover only new work. The
//! [`DispatchPolicy::PrefixAffinity`] router steers same-prefix requests
//! to the device already holding their KV; [`ServeReport::prefix`] (and
//! each [`DeviceReport`] lane) counts hits, misses, and reused tokens.
//!
//! **Reports.** A [`ServeReport`] aggregates TTFT, per-output-token
//! latency, and end-to-end latency (mean/p50/p95/p99), goodput
//! (decoded tokens per second of completed requests), request throughput,
//! mean decode coalescing, peak concurrency, pool occupancy, and energy.
//!
//! **Recording.** A [`RunSpec`] marked [`RunSpec::traced`] makes
//! [`ServeSim::run_spec`] also return a [`RunTrace`]: the materialized
//! workload plus the cycle-ordered [`TraceEvent`] stream (routes,
//! handoffs, admissions, drops, steps, preemptions) the run emitted. The
//! `mcbp-trace` crate serializes, replays, and phase-samples these
//! histories; untraced runs allocate no event storage and behave
//! bit-identically to before.
//!
//! # Example
//!
//! ```
//! use mcbp_model::LlmConfig;
//! use mcbp_serve::{
//!     ArrivalProcess, ContinuousBatchScheduler, LoadGenerator, ServeConfig, ServeSim,
//! };
//! use mcbp_sim::{McbpConfig, McbpSim};
//! use mcbp_workloads::{SparsityProfile, Task, TraceContext, WeightGenerator};
//!
//! let model = LlmConfig::opt1b3();
//! let gen = WeightGenerator::for_model(&model);
//! let profile = SparsityProfile::measure(&gen.quantized_sample(32, 256, 1), 4);
//! let template = TraceContext {
//!     model, task: Task::cola(), batch: 1,
//!     weight_profile: profile, attention_keep: 0.3,
//! };
//! let mcbp = McbpSim::new(McbpConfig::default());
//! let sim = ServeSim::new(&mcbp, template, ServeConfig::default());
//! let workload = LoadGenerator::uniform(
//!     Task::cola(), 4, ArrivalProcess::ClosedLoop { concurrency: 2 },
//! ).generate();
//! let report = sim.run(&workload, &mut ContinuousBatchScheduler::new());
//! assert_eq!(report.completed, 4);
//! assert!(report.goodput_tokens_per_s > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod arrival;
mod cost;
mod dispatch;
mod parallel;
mod pool;
mod preempt;
mod profile;
mod record;
mod report;
mod request;
mod scheduler;
mod sim;

pub use arrival::{ArrivalProcess, LoadGenerator, RequestClass, Workload};
pub use cost::{StepCost, StepCostModel};
pub use dispatch::{DeviceView, DispatchPolicy, PolicyRouter, Router, RunOutcome, RunSpec};
pub use pool::{request_kv_bytes, KvCachePool, PrefixResidency, Reservation};
pub use preempt::{EvictionPolicy, HandoffLedger, PreemptConfig, SwapLedger, HOST_LINK_RATIO};
pub use profile::{DeviceProfile, DeviceRole};
pub use record::{RunTrace, TraceEvent};
pub use report::{
    DeviceReport, HandoffReport, LatencyStats, PoolReport, PreemptReport, PrefixReport,
    ServeReport, StepReport,
};
pub use request::{
    PrefixId, Priority, Request, RequestId, RequestRecord, RequestState, SharedPrefix, SloSpec,
};
pub use scheduler::{
    ContinuousBatchScheduler, FcfsScheduler, PriorityScheduler, SchedEntry, SchedView, Scheduler,
    StepPlan,
};
pub use sim::{ServeConfig, ServeConfigError, ServeSim};

/// The simulated core clock in Hz (1 GHz, matching the cycle model).
pub const CLOCK_HZ: f64 = 1e9;
