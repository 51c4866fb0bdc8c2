use mcbp_bstc::{EncodedWeights, PlaneSelection};
use mcbp_model::LlmConfig;
use mcbp_sim::{McbpConfig, McbpSim, UnitEnergy};
use mcbp_workloads::{
    Accelerator, RunReport, SparsityProfile, Task, TraceContext, WeightGenerator,
};

/// High-level MCBP engine for one model: owns the calibrated synthetic
/// weights, their measured sparsity profile, and a configured simulator.
///
/// # Example
///
/// ```
/// use mcbp::Engine;
/// use mcbp::model::LlmConfig;
/// use mcbp::workloads::Task;
///
/// let engine = Engine::new(LlmConfig::opt1b3(), 7);
/// let dense = engine.evaluate(&Task::mnli(), 1, 1.0);
/// let sparse = engine.evaluate(&Task::mnli(), 1, 0.3);
/// assert!(sparse.total_cycles() <= dense.total_cycles());
/// ```
pub struct Engine {
    model: LlmConfig,
    generator: WeightGenerator,
    profile: SparsityProfile,
    sim: McbpSim,
    seed: u64,
}

impl Engine {
    /// Builds an engine with the default accelerator configuration.
    #[must_use]
    pub fn new(model: LlmConfig, seed: u64) -> Self {
        Self::with_config(model, McbpConfig::default(), seed)
    }

    /// Builds an engine with an explicit accelerator configuration
    /// (ablations, scaled arrays, alternative BGPP operating points).
    #[must_use]
    pub fn with_config(model: LlmConfig, cfg: McbpConfig, seed: u64) -> Self {
        let generator = WeightGenerator::for_model(&model);
        let sample = generator.quantized_sample(64, 1024, seed);
        let profile = SparsityProfile::measure(&sample, cfg.group_size);
        Engine {
            model,
            generator,
            profile,
            sim: McbpSim::new(cfg),
            seed,
        }
    }

    /// The model configuration.
    #[must_use]
    pub fn model(&self) -> &LlmConfig {
        &self.model
    }

    /// The measured weight sparsity profile driving the simulator.
    #[must_use]
    pub fn weight_profile(&self) -> &SparsityProfile {
        &self.profile
    }

    /// The synthetic weight generator calibrated for this model.
    #[must_use]
    pub fn generator(&self) -> &WeightGenerator {
        &self.generator
    }

    /// The underlying simulator.
    #[must_use]
    pub fn simulator(&self) -> &McbpSim {
        &self.sim
    }

    /// Builds the trace context for a workload at an attention-sparsity
    /// operating point (`keep` = fraction of KV pairs retained).
    #[must_use]
    pub fn context(&self, task: &Task, batch: usize, keep: f64) -> TraceContext {
        TraceContext {
            model: self.model.clone(),
            task: task.clone(),
            batch,
            weight_profile: self.profile.clone(),
            attention_keep: keep,
        }
    }

    /// Simulates a workload on MCBP.
    #[must_use]
    pub fn evaluate(&self, task: &Task, batch: usize, keep: f64) -> RunReport {
        self.sim.run(&self.context(task, batch, keep))
    }

    /// Simulates a workload, also returning the per-unit energy breakdown.
    #[must_use]
    pub fn evaluate_detailed(
        &self,
        task: &Task,
        batch: usize,
        keep: f64,
    ) -> (RunReport, UnitEnergy) {
        self.sim.run_detailed(&self.context(task, batch, keep))
    }

    /// Runs a workload on any accelerator model (baselines, ablations) with
    /// this engine's weights and operating point.
    #[must_use]
    pub fn evaluate_on(
        &self,
        accel: &dyn Accelerator,
        task: &Task,
        batch: usize,
        keep: f64,
    ) -> RunReport {
        accel.run(&self.context(task, batch, keep))
    }

    /// Builds a request-serving simulator over this engine's accelerator
    /// at the given attention-keep operating point: the entry point to the
    /// `mcbp::serve` subsystem.
    ///
    /// ```
    /// use mcbp::serve::{ArrivalProcess, ContinuousBatchScheduler, LoadGenerator, ServeConfig};
    /// use mcbp::{model::LlmConfig, workloads::Task, Engine};
    ///
    /// let engine = Engine::new(LlmConfig::opt1b3(), 7);
    /// let sim = engine.serve_sim(0.3, ServeConfig::default());
    /// let load = LoadGenerator::uniform(
    ///     Task::cola(), 3, ArrivalProcess::ClosedLoop { concurrency: 3 },
    /// ).generate();
    /// let report = sim.run(&load, &mut ContinuousBatchScheduler::new());
    /// assert_eq!(report.completed, 3);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on an invalid `cfg` or a `keep` outside `(0, 1]`, as
    /// [`mcbp_serve::ServeSim::new`] does.
    #[must_use]
    pub fn serve_sim(&self, keep: f64, cfg: mcbp_serve::ServeConfig) -> mcbp_serve::ServeSim<'_> {
        mcbp_serve::ServeSim::new(&self.sim, self.context(&Task::cola(), 1, keep), cfg)
    }

    /// BSTC-compresses a fresh weight sample and returns the encoded form
    /// (offline pre-deployment step of Fig 6).
    #[must_use]
    pub fn compress_sample(&self, rows: usize, cols: usize) -> EncodedWeights {
        let sample = self
            .generator
            .quantized_sample(rows, cols, self.seed ^ 0xc0de);
        let planes = mcbp_bitslice::BitPlanes::from_matrix(&sample);
        EncodedWeights::encode(
            &planes,
            self.sim.config().group_size,
            PlaneSelection::paper_default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_deterministic() {
        let a = Engine::new(LlmConfig::opt1b3(), 3);
        let b = Engine::new(LlmConfig::opt1b3(), 3);
        let ra = a.evaluate(&Task::cola(), 1, 0.3);
        let rb = b.evaluate(&Task::cola(), 1, 0.3);
        assert_eq!(ra.total_cycles().to_bits(), rb.total_cycles().to_bits());
    }

    #[test]
    fn compress_sample_roundtrips_and_compresses() {
        let engine = Engine::new(LlmConfig::llama7b(), 5);
        let enc = engine.compress_sample(32, 256);
        assert!(enc.compression_ratio() > 1.0);
        assert_eq!(enc.decode().to_matrix().rows(), 32);
    }

    #[test]
    fn evaluate_on_baseline_uses_same_context() {
        let engine = Engine::new(LlmConfig::llama7b(), 5);
        let sa = mcbp_baselines::SystolicArray::new();
        let r = engine.evaluate_on(&sa, &Task::dolly(), 1, 0.3);
        assert!(r.decode.kv_load_cycles > 0.0);
    }
}
