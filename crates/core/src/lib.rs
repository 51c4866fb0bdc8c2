//! # MCBP — bit-slice LLM inference acceleration
//!
//! A full reproduction of *"MCBP: A Memory-Compute Efficient LLM Inference
//! Accelerator Leveraging Bit-Slice-enabled Sparsity and Repetitiveness"*
//! (MICRO 2025): the three algorithms (BRCR, BSTC, BGPP), the cycle-level
//! accelerator model, the memory substrate, a functional quantized
//! transformer, and analytic models of every compared design.
//!
//! This crate is the user-facing entry point. It re-exports the subsystem
//! crates under stable module names and offers [`Engine`], a high-level
//! API that wires them together, plus [`BgppPruner`], the adapter that
//! plugs the bit-grained predictor into the functional transformer for
//! end-to-end fidelity experiments.
//!
//! ## Quick start
//!
//! ```
//! use mcbp::prelude::*;
//!
//! // Exact bit-slice GEMV with measured op reduction:
//! let w = IntMatrix::from_flat(8, 4, 8, (0..32).map(|i| (i % 11) - 5).collect())?;
//! let planes = BitPlanes::from_matrix(&w);
//! let engine = BrcrEngine::new(4);
//! let x: Vec<i32> = (0..8).map(|i| i * 3 - 9).collect();
//! let (y, ops) = engine.gemv(&planes, &x);
//! assert_eq!(y, w.matvec(&x)?);
//! println!("adds: {} (dense bit-serial would be {})", ops.total_adds(), 4 * 8 * 7);
//! # Ok::<(), mcbp::bitslice::BitSliceError>(())
//! ```
//!
//! ## Simulating a workload
//!
//! ```
//! use mcbp::Engine;
//! use mcbp::model::LlmConfig;
//! use mcbp::workloads::Task;
//!
//! let engine = Engine::new(LlmConfig::llama7b(), 42);
//! let report = engine.evaluate(&Task::cola(), 1, 0.3);
//! assert!(report.total_cycles() > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod pruners;

pub use engine::Engine;
/// Multi-device scaling model (§5.3); lives in `mcbp-workloads` so the
/// serving subsystem can reuse it, re-exported here for API stability.
pub use mcbp_workloads::Fleet;
pub use pruners::{BgppPruner, ValueTopKPruner};

/// Analytic models of the compared designs.
pub use mcbp_baselines as baselines;
/// BGPP: progressive bit-grained top-k prediction.
pub use mcbp_bgpp as bgpp;
/// Bit-packed matrices, sign–magnitude planes, sparsity statistics.
pub use mcbp_bitslice as bitslice;
/// BRCR: repetition-merging bit-slice GEMM (the core contribution).
pub use mcbp_brcr as brcr;
/// BSTC: two-state bit-plane weight codec.
pub use mcbp_bstc as bstc;
/// HBM/SRAM models and energy/area tables.
pub use mcbp_mem as mem;
/// LLM shape configs and the functional reference transformer.
pub use mcbp_model as model;
/// INT quantization schemes and the integer linear layer.
pub use mcbp_quant as quant;
/// Request serving: arrival processes, schedulers, KV-pool admission.
pub use mcbp_serve as serve;
/// The cycle-level MCBP accelerator model.
pub use mcbp_sim as sim;
/// Serving-trace record/replay and SimPoint-style sampled simulation.
pub use mcbp_trace as trace;
/// Tasks, synthetic weights, traces, the `Accelerator` interface.
pub use mcbp_workloads as workloads;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::bgpp::{BgppConfig, ProgressivePredictor, ValueTopK};
    pub use crate::bitslice::{BitMatrix, BitPlanes, IntMatrix};
    pub use crate::brcr::BrcrEngine;
    pub use crate::bstc::{EncodedWeights, PlaneSelection};
    pub use crate::model::LlmConfig;
    pub use crate::quant::{Calibration, FloatMatrix, QuantizedLinear};
    pub use crate::serve::{
        ArrivalProcess, ContinuousBatchScheduler, DeviceProfile, DeviceRole, DispatchPolicy,
        EvictionPolicy, FcfsScheduler, LoadGenerator, PreemptConfig, Priority, PriorityScheduler,
        RequestClass, RunSpec, ServeConfig, ServeReport, ServeSim, SharedPrefix, SloSpec,
    };
    pub use crate::sim::{McbpConfig, McbpSim};
    pub use crate::workloads::{Accelerator, SparsityProfile, Task, TraceContext, WeightGenerator};
    pub use crate::{BgppPruner, Engine, Fleet, ValueTopKPruner};
}
