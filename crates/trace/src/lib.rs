//! `mcbp-trace` — serving-trace record/replay and SimPoint-style sampled
//! simulation for the `mcbp-serve` subsystem.
//!
//! The serving simulator is deterministic, so a run is fully described
//! by its materialized workload plus the event stream it emitted — the
//! [`mcbp_serve::RunTrace`] that [`mcbp_serve::ServeSim::run_spec`]
//! returns for a [`mcbp_serve::RunSpec::traced`] spec. This crate turns
//! that history into three capabilities, one per module:
//!
//! 1. **[`format`](mod@format)** — a compact versioned binary on-disk
//!    format:
//!    magic/version header, length-prefixed FNV-1a-32-checksummed
//!    frames ([`TraceWriter`]/[`TraceReader`], [`save_trace`]/
//!    [`load_trace`]). Corrupted or truncated streams fail with typed
//!    [`TraceError`]s, never panics. See the module docs for the full
//!    format specification.
//! 2. **[`replay`]** — re-driving a simulation from the recorded
//!    arrivals (bypassing the load-generator RNG entirely) and
//!    asserting bit-exact [`mcbp_serve::ServeReport`] reproduction
//!    ([`verify_replay`]) — every recorded experiment becomes
//!    checkpointable and diffable across code changes.
//! 3. **[`sample`]** — SimPoint-style phase sampling: fixed-length
//!    interval feature vectors clustered by a deterministic k-means
//!    into weighted [`TracePhase`] slices, and a [`SampledSim`] driver
//!    that simulates only the representative slices (plus warmup) and
//!    extrapolates full-run goodput and interactive p95 TTFT within an
//!    asserted error bound. See the module docs for the methodology and
//!    the error-bound definition.
//!
//! # Example: record, round-trip, replay bit-exactly
//!
//! ```
//! use mcbp_model::LlmConfig;
//! use mcbp_serve::{
//!     ArrivalProcess, ContinuousBatchScheduler, DeviceProfile, DispatchPolicy, LoadGenerator,
//!     RunSpec, ServeConfig, ServeSim,
//! };
//! use mcbp_sim::{McbpConfig, McbpSim};
//! use mcbp_trace::{from_bytes, to_bytes, verify_replay, TraceStats};
//! use mcbp_workloads::{SparsityProfile, Task, TraceContext, WeightGenerator};
//!
//! // Record a small serving run.
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
//!     Task::cola(), 4, ArrivalProcess::Poisson { rate_rps: 50.0, seed: 7 },
//! ).generate();
//! let one_device = RunSpec::fleet(&[DeviceProfile::uniform()], DispatchPolicy::RoundRobin);
//! let out = sim
//!     .run_spec(&workload, one_device.traced(), &mut || {
//!         Box::new(ContinuousBatchScheduler::new())
//!     })
//!     .unwrap();
//! let (report, trace) = (out.report, out.trace.unwrap());
//!
//! // Serialize to the binary format and back: bit-exact.
//! let bytes = to_bytes(&trace).unwrap();
//! let restored = from_bytes(&bytes).unwrap();
//! assert_eq!(trace, restored);
//!
//! // Replay the restored trace: the report reproduces bit-exactly.
//! let replayed = verify_replay(&restored, &report, |w| {
//!     sim.run(w, &mut ContinuousBatchScheduler::new())
//! }).unwrap();
//! assert_eq!(replayed, report);
//! println!("{}", TraceStats::collect(&restored, bytes.len() as u64));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod format;
pub mod replay;
pub mod sample;

pub use format::{
    from_bytes, load_trace, save_trace, to_bytes, TraceError, TraceReader, TraceStats, TraceWriter,
    TRACE_MAGIC, TRACE_VERSION,
};
pub use replay::{verify_replay, ReplayMismatch};
pub use sample::{
    interactive_ttft_p95, relative_error, SampleError, SampledReport, SampledSim, SamplerConfig,
    TracePhase,
};
