use mcbp_model::LlmConfig;

use crate::{SparsityProfile, Task};

/// Everything an accelerator model needs to cost a workload: the model and
/// task shapes plus the *measured* statistics of the weights and the
/// attention-sparsity operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceContext {
    /// Model shapes.
    pub model: LlmConfig,
    /// Task shape.
    pub task: Task,
    /// Batch size.
    pub batch: usize,
    /// Measured weight sparsity/repetition profile (from synthetic weights
    /// calibrated for `model`).
    pub weight_profile: SparsityProfile,
    /// Fraction of KV pairs kept by attention-sparsity prediction
    /// (1.0 = dense attention). MCBP and the top-k baselines each decide
    /// how much of the benefit they can realize.
    pub attention_keep: f64,
}

/// Per-phase cost report. Cycles are 1 GHz core cycles; energies in pJ,
/// split by the categories of Fig 23 (compute, bit-reorder, off-chip).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseCost {
    /// Cycles spent in GEMM compute.
    pub gemm_cycles: f64,
    /// Cycles exposed waiting on weight traffic.
    pub weight_load_cycles: f64,
    /// Cycles exposed waiting on KV-cache traffic.
    pub kv_load_cycles: f64,
    /// Everything else (prediction, softmax, control).
    pub other_cycles: f64,
    /// Compute energy.
    pub compute_pj: f64,
    /// Bit-reordering energy (value↔bit layout conversion; §5.4).
    pub reorder_pj: f64,
    /// On-chip memory energy.
    pub onchip_pj: f64,
    /// Off-chip memory energy.
    pub offchip_pj: f64,
}

impl PhaseCost {
    /// Total cycles (components are serialized exposures, already overlap-
    /// adjusted by each model).
    #[must_use]
    pub fn total_cycles(&self) -> f64 {
        self.gemm_cycles + self.weight_load_cycles + self.kv_load_cycles + self.other_cycles
    }

    /// Total energy in pJ.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.reorder_pj + self.onchip_pj + self.offchip_pj
    }

    /// Accumulates another phase cost.
    pub fn absorb(&mut self, other: &PhaseCost) {
        self.gemm_cycles += other.gemm_cycles;
        self.weight_load_cycles += other.weight_load_cycles;
        self.kv_load_cycles += other.kv_load_cycles;
        self.other_cycles += other.other_cycles;
        self.compute_pj += other.compute_pj;
        self.reorder_pj += other.reorder_pj;
        self.onchip_pj += other.onchip_pj;
        self.offchip_pj += other.offchip_pj;
    }
}

/// A full workload report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunReport {
    /// Prefill phase cost.
    pub prefill: PhaseCost,
    /// Decode phase cost.
    pub decode: PhaseCost,
}

impl RunReport {
    /// End-to-end cycles.
    #[must_use]
    pub fn total_cycles(&self) -> f64 {
        self.prefill.total_cycles() + self.decode.total_cycles()
    }

    /// End-to-end energy in pJ.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.prefill.total_pj() + self.decode.total_pj()
    }

    /// Latency in seconds at the given clock.
    #[must_use]
    pub fn seconds_at(&self, freq_hz: f64) -> f64 {
        self.total_cycles() / freq_hz
    }
}

/// The interface every modeled design implements — MCBP, its ablations,
/// and all baselines — so every comparison figure runs identical inputs.
pub trait Accelerator {
    /// Display name (as used in figure legends).
    fn name(&self) -> &str;

    /// Costs one workload.
    fn run(&self, ctx: &TraceContext) -> RunReport;
}

/// A latency-derated view of another accelerator: every cycle component
/// of both phases is scaled by `slowdown`, energy is unchanged. The
/// stand-in for a previous device generation in heterogeneous-fleet
/// studies (same microarchitecture, slower process/clock).
pub struct Derated<'a> {
    inner: &'a dyn Accelerator,
    slowdown: f64,
    name: String,
}

impl<'a> Derated<'a> {
    /// Wraps `inner`, scaling every latency component by `slowdown`.
    ///
    /// # Panics
    ///
    /// Panics unless `slowdown` is finite and positive.
    #[must_use]
    pub fn new(inner: &'a dyn Accelerator, slowdown: f64) -> Self {
        assert!(
            slowdown.is_finite() && slowdown > 0.0,
            "slowdown must be finite and positive"
        );
        Derated {
            name: format!("{}/{slowdown}x", inner.name()),
            inner,
            slowdown,
        }
    }

    /// The configured latency slowdown factor.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }
}

impl Accelerator for Derated<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, ctx: &TraceContext) -> RunReport {
        let slow = |p: PhaseCost| PhaseCost {
            gemm_cycles: p.gemm_cycles * self.slowdown,
            weight_load_cycles: p.weight_load_cycles * self.slowdown,
            kv_load_cycles: p.kv_load_cycles * self.slowdown,
            other_cycles: p.other_cycles * self.slowdown,
            ..p
        };
        let r = self.inner.run(ctx);
        RunReport {
            prefill: slow(r.prefill),
            decode: slow(r.decode),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_cost_totals() {
        let p = PhaseCost {
            gemm_cycles: 1.0,
            weight_load_cycles: 2.0,
            kv_load_cycles: 3.0,
            other_cycles: 4.0,
            compute_pj: 5.0,
            reorder_pj: 6.0,
            onchip_pj: 7.0,
            offchip_pj: 8.0,
        };
        assert_eq!(p.total_cycles(), 10.0);
        assert_eq!(p.total_pj(), 26.0);
        let mut q = p;
        q.absorb(&p);
        assert_eq!(q.total_cycles(), 20.0);
    }

    struct Unit;

    impl Accelerator for Unit {
        fn name(&self) -> &str {
            "unit"
        }

        fn run(&self, _ctx: &TraceContext) -> RunReport {
            RunReport {
                prefill: PhaseCost {
                    gemm_cycles: 10.0,
                    compute_pj: 5.0,
                    ..Default::default()
                },
                decode: PhaseCost {
                    weight_load_cycles: 20.0,
                    offchip_pj: 7.0,
                    ..Default::default()
                },
            }
        }
    }

    #[test]
    fn derated_scales_latency_not_energy() {
        let unit = Unit;
        let generator = crate::WeightGenerator::for_model(&LlmConfig::opt1b3());
        let ctx = TraceContext {
            model: LlmConfig::opt1b3(),
            task: Task::cola(),
            batch: 1,
            weight_profile: SparsityProfile::measure(&generator.quantized_sample(4, 16, 1), 4),
            attention_keep: 1.0,
        };
        let slow = Derated::new(&unit, 2.5);
        let r = slow.run(&ctx);
        assert!((r.prefill.gemm_cycles - 25.0).abs() < 1e-12);
        assert!((r.decode.weight_load_cycles - 50.0).abs() < 1e-12);
        assert!((r.total_pj() - 12.0).abs() < 1e-12, "energy unchanged");
        assert_eq!(slow.name(), "unit/2.5x");
        assert!((slow.slowdown() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn seconds_at_one_ghz() {
        let r = RunReport {
            prefill: PhaseCost {
                gemm_cycles: 5e8,
                ..Default::default()
            },
            decode: PhaseCost {
                gemm_cycles: 5e8,
                ..Default::default()
            },
        };
        assert!((r.seconds_at(1e9) - 1.0).abs() < 1e-12);
    }
}
