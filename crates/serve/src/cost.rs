//! Memoized per-step costing of batched accelerator invocations.
//!
//! The cycle-level simulator is far too slow to invoke once per decode
//! step of a long serving trace, so [`StepCostModel`] quantizes context
//! lengths to `ctx_bucket`-token boundaries, costs each distinct
//! `(phase, batch, boundary)` invocation once, and **linearly
//! interpolates** between the two enclosing boundaries for every query in
//! between. Decode costs are near-linear in context (KV bytes and
//! attention MACs are the only context-dependent terms) and prefill costs
//! are convex in prompt length (the O(c²) attention term), so the chord
//! between boundary costs tracks the exact curve closely — the error is
//! quantified end-to-end in `tests/step_cost_bucketing.rs`.
//!
//! Chunked prefill is costed incrementally: advancing a prompt's prefill
//! cursor from `done` to `upto` tokens costs the *difference* of the
//! cumulative prefill costs, plus one minimal-prefill floor per resumed
//! invocation (each chunk re-streams the layer weights) — see
//! [`StepCostModel::prefill_chunk_cost`].
//!
//! # The mixed-step cost model
//!
//! A budgeted scheduler step ([`crate::ServeConfig::step_token_budget`])
//! can carry a prefill chunk *and* piggybacked decode streams in one
//! invocation. The key physical fact the model encodes: **the invocation
//! streams the layer weights once**, and the chunk already pays for that
//! stream. A decode step run standalone pays a fixed, batch-independent
//! weight-stream cost before any per-stream work; piggybacked onto a
//! chunk it does not pay it again. So
//!
//! ```text
//! mixed_step_cost(chunk, decode)
//!   = prefill_chunk_cost(chunk)            // includes one weight stream
//!   + decode_cost(decode) − decode_floor   // per-stream work only
//! ```
//!
//! where the *decode floor* — the cost a decode invocation pays
//! regardless of how many streams it coalesces — is recovered from the
//! cached boundary costs by linearly extrapolating the batch axis to zero
//! streams: `floor(c) = 2·decode_cost(c, 1) − decode_cost(c, 2)`, clamped
//! at zero per component. For cost curves affine in batch (a fixed weight
//! stream plus per-stream KV/compute terms — the shape of every
//! accelerator model in this workspace) the extrapolation recovers the
//! floor *exactly*; convex curves under-estimate it, which errs toward
//! charging the piggyback more, never less. The piggybacked share is
//! therefore the pure incremental cost of the extra streams
//! ([`StepCostModel::piggyback_decode_cost`]), and a mixed step is always
//! costed at least as high as its chunk alone and strictly below the
//! chunk-step-plus-decode-step pair it replaces — that gap (one decode
//! floor per step) is exactly what Sarathi-style piggybacking harvests.
//! Both terms reuse the bucket interpolation above; the model is
//! exercised end-to-end in `tests/step_cost_bucketing.rs` and the
//! mixed-step serving tests.

use std::cell::RefCell;
use std::collections::HashMap;

use mcbp_workloads::{Accelerator, Task, TaskKind, TraceContext};

/// Cost of one scheduler step (a single batched accelerator invocation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCost {
    /// Latency in core cycles.
    pub cycles: f64,
    /// Total energy in pJ.
    pub energy_pj: f64,
    /// Bit-reordering share of `energy_pj` — kept separate because the
    /// §5.3 fleet model's communication tax does not apply to it (see
    /// [`mcbp_workloads::Fleet::scale`]).
    pub reorder_pj: f64,
}

impl StepCost {
    /// Linear interpolation between two step costs at parameter `t ∈ [0, 1]`.
    fn lerp(a: StepCost, b: StepCost, t: f64) -> StepCost {
        let mix = |x: f64, y: f64| x + (y - x) * t;
        StepCost {
            cycles: mix(a.cycles, b.cycles),
            energy_pj: mix(a.energy_pj, b.energy_pj),
            reorder_pj: mix(a.reorder_pj, b.reorder_pj),
        }
    }

    /// Component-wise `self - other`, clamped at zero (interpolated
    /// cumulative costs are monotone for monotone boundary costs, so the
    /// clamp only guards float round-off).
    fn saturating_sub(self, other: StepCost) -> StepCost {
        StepCost {
            cycles: (self.cycles - other.cycles).max(0.0),
            energy_pj: (self.energy_pj - other.energy_pj).max(0.0),
            reorder_pj: (self.reorder_pj - other.reorder_pj).max(0.0),
        }
    }

    /// Component-wise sum.
    pub(crate) fn add(self, other: StepCost) -> StepCost {
        StepCost {
            cycles: self.cycles + other.cycles,
            energy_pj: self.energy_pj + other.energy_pj,
            reorder_pj: self.reorder_pj + other.reorder_pj,
        }
    }

    /// Linear extrapolation of the batch axis to zero streams: `2a − b`
    /// where `a` is the batch-1 and `b` the batch-2 cost, clamped at zero
    /// per component (a convex-in-batch curve could otherwise extrapolate
    /// below zero).
    fn extrapolate_floor(a: StepCost, b: StepCost) -> StepCost {
        StepCost {
            cycles: (2.0 * a.cycles - b.cycles).max(0.0),
            energy_pj: (2.0 * a.energy_pj - b.energy_pj).max(0.0),
            reorder_pj: (2.0 * a.reorder_pj - b.reorder_pj).max(0.0),
        }
    }
}

/// Memoizing per-step cost model over any [`Accelerator`].
///
/// Contexts are quantized to `ctx_bucket`-token boundaries; each distinct
/// `(phase, batch, boundary)` invocation is costed once and cached, and
/// off-boundary queries linearly interpolate between the two enclosing
/// boundary costs. Decode costs are near-linear and prefill costs convex
/// in context, so the chord tracks the exact curve closely — the error is
/// quantified end-to-end in `tests/step_cost_bucketing.rs`.
///
/// The memo cache is a [`RefCell`], so the model is not `Sync`: a uniform
/// fleet shares one model across its devices on the one drive thread.
pub struct StepCostModel<'a> {
    accel: &'a dyn Accelerator,
    template: TraceContext,
    ctx_bucket: usize,
    cache: RefCell<HashMap<(StepKind, usize, usize), StepCost>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StepKind {
    Prefill,
    Decode,
}

impl<'a> StepCostModel<'a> {
    /// Builds a cost model. `template` supplies the model shapes, weight
    /// profile, and attention-keep operating point; its task and batch are
    /// replaced per step.
    ///
    /// # Panics
    ///
    /// Panics if `ctx_bucket` is zero.
    #[must_use]
    pub fn new(accel: &'a dyn Accelerator, template: TraceContext, ctx_bucket: usize) -> Self {
        assert!(ctx_bucket > 0, "context bucket must be positive");
        StepCostModel {
            accel,
            template,
            ctx_bucket,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The trace-context template.
    #[must_use]
    pub fn template(&self) -> &TraceContext {
        &self.template
    }

    /// The accelerator model being costed (used to derive per-device cost
    /// models for heterogeneous fleet profiles).
    #[must_use]
    pub fn accel(&self) -> &'a dyn Accelerator {
        self.accel
    }

    /// Decode throughput at a reference operating point, in tokens per
    /// core cycle: `batch / decode_cost(context, batch).cycles`. The
    /// absolute figure is model-relative; its *ratio* across two cost
    /// models is the natural [`crate::DeviceProfile::throughput`] weight
    /// for weighted-JSQ dispatch over a mixed-generation fleet.
    ///
    /// # Panics
    ///
    /// Panics if the accelerator reports a non-positive decode latency.
    #[must_use]
    pub fn decode_rate(&self, context: usize, batch: usize) -> f64 {
        let cost = self.decode_cost(context, batch.max(1));
        assert!(cost.cycles > 0.0, "decode step must take time");
        batch.max(1) as f64 / cost.cycles
    }

    /// Rounds a context length up to its bucket boundary (the upper
    /// interpolation knot for off-boundary queries).
    #[must_use]
    pub fn bucketed(&self, context: usize) -> usize {
        context.max(1).div_ceil(self.ctx_bucket) * self.ctx_bucket
    }

    /// Cost of prefilling `batch` coalesced prompts of length `prompt` in
    /// one invocation, interpolated between the enclosing bucket
    /// boundaries.
    #[must_use]
    pub fn prefill_cost(&self, prompt: usize, batch: usize) -> StepCost {
        self.interpolated(StepKind::Prefill, batch.max(1), prompt)
    }

    /// Cost of one coalesced decode step: `batch` streams each advancing
    /// one token at context `context`, interpolated between the enclosing
    /// bucket boundaries.
    #[must_use]
    pub fn decode_cost(&self, context: usize, batch: usize) -> StepCost {
        self.interpolated(StepKind::Decode, batch.max(1), context)
    }

    /// Cost of one chunked-prefill invocation advancing `batch` coalesced
    /// prompts from `done` to `upto` prefilled tokens each: the difference
    /// of the cumulative prefill costs (which charges the chunk's tokens
    /// *and* their attention over the already-prefilled prefix), plus one
    /// minimal-prefill floor when resuming (`done > 0`) because every
    /// invocation re-streams the layer weights.
    ///
    /// Chunk costs telescope: summing the chunks of one prompt recovers
    /// the unchunked prefill cost plus one floor per extra invocation —
    /// chunking buys scheduling granularity, not free cycles.
    ///
    /// # Panics
    ///
    /// Panics unless `upto > done` (an empty chunk is a scheduling bug).
    #[must_use]
    pub fn prefill_chunk_cost(&self, done: usize, upto: usize, batch: usize) -> StepCost {
        assert!(upto > done, "empty prefill chunk ({done}..{upto})");
        let full = self.prefill_cost(upto, batch);
        if done == 0 {
            return full;
        }
        let prefix = self.prefill_cost(done, batch);
        let floor = self.prefill_cost(1, batch);
        full.saturating_sub(prefix).add(floor)
    }

    /// The fixed cost every standalone decode invocation at context
    /// `context` pays once regardless of coalescing — the weight stream —
    /// recovered by linearly extrapolating the batch axis to zero streams
    /// (exact for batch-affine cost curves; see the module docs).
    fn decode_floor(&self, context: usize) -> StepCost {
        StepCost::extrapolate_floor(self.decode_cost(context, 1), self.decode_cost(context, 2))
    }

    /// Incremental cost of piggybacking `batch` decode streams (each at
    /// mean context `context`) onto an invocation that already streams
    /// the layer weights: the standalone decode cost minus the decode
    /// floor, clamped at zero. This is the decode share of a budgeted
    /// mixed step (see the module docs and
    /// [`StepCostModel::mixed_step_cost`]).
    #[must_use]
    pub fn piggyback_decode_cost(&self, context: usize, batch: usize) -> StepCost {
        self.decode_cost(context, batch)
            .saturating_sub(self.decode_floor(context))
    }

    /// Cost of one budgeted **mixed step**: a chunked-prefill invocation
    /// advancing `prefill_batch` prompts from `done` to `upto` prefilled
    /// tokens, with `decode_batch` decode streams (mean context
    /// `decode_context`) piggybacked onto its weight stream — the chunk
    /// cost plus the incremental piggybacked-decode cost.
    ///
    /// # Panics
    ///
    /// Panics unless `upto > done` (an empty chunk is a scheduling bug);
    /// a step with no chunk is a plain decode step, costed by
    /// [`StepCostModel::decode_cost`].
    #[must_use]
    pub fn mixed_step_cost(
        &self,
        done: usize,
        upto: usize,
        prefill_batch: usize,
        decode_context: usize,
        decode_batch: usize,
    ) -> StepCost {
        let chunk = self.prefill_chunk_cost(done, upto, prefill_batch);
        if decode_batch == 0 {
            return chunk;
        }
        chunk.add(self.piggyback_decode_cost(decode_context, decode_batch))
    }

    /// Interpolated cost at `context`: exact at bucket boundaries, the
    /// chord between the enclosing boundary costs in between. The lower
    /// knot clamps to context 1 (a zero-length invocation has no meaning,
    /// and the sub-bucket range still interpolates from the smallest real
    /// invocation instead of rounding a 1-token query up a whole bucket).
    fn interpolated(&self, kind: StepKind, batch: usize, context: usize) -> StepCost {
        let c = context.max(1);
        let hi = self.bucketed(c);
        if c == hi {
            return self.costed(kind, batch, c);
        }
        let lo = hi.saturating_sub(self.ctx_bucket).max(1);
        let t = (c - lo) as f64 / (hi - lo) as f64;
        StepCost::lerp(
            self.costed(kind, batch, lo),
            self.costed(kind, batch, hi),
            t,
        )
    }

    /// Distinct accelerator invocations performed so far (cache misses).
    #[must_use]
    pub fn invocations(&self) -> usize {
        self.cache.borrow().len()
    }

    fn costed(&self, kind: StepKind, batch: usize, len: usize) -> StepCost {
        if let Some(hit) = self.cache.borrow().get(&(kind, batch, len)) {
            return *hit;
        }
        let task = match kind {
            StepKind::Prefill => Task {
                name: "serve-prefill",
                prompt_len: len,
                decode_len: 0,
                kind: TaskKind::LanguageModeling,
            },
            StepKind::Decode => Task {
                name: "serve-decode",
                prompt_len: len,
                decode_len: 1,
                kind: TaskKind::LanguageModeling,
            },
        };
        let ctx = TraceContext {
            task,
            batch,
            ..self.template.clone()
        };
        let report = self.accel.run(&ctx);
        let phase = match kind {
            StepKind::Prefill => report.prefill,
            StepKind::Decode => report.decode,
        };
        let cost = StepCost {
            cycles: phase.total_cycles(),
            energy_pj: phase.total_pj(),
            reorder_pj: phase.reorder_pj,
        };
        self.cache.borrow_mut().insert((kind, batch, len), cost);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbp_model::LlmConfig;
    use mcbp_workloads::{PhaseCost, RunReport, SparsityProfile, WeightGenerator};

    /// A linear-cost analytic accelerator for fast, exact unit tests.
    struct Linear;

    impl Accelerator for Linear {
        fn name(&self) -> &str {
            "linear"
        }

        fn run(&self, ctx: &TraceContext) -> RunReport {
            let b = ctx.batch as f64;
            let prefill = PhaseCost {
                gemm_cycles: ctx.task.prompt_len as f64 * b,
                ..Default::default()
            };
            let decode = PhaseCost {
                // Fixed weight-stream cost plus per-stream context cost.
                weight_load_cycles: 1000.0,
                kv_load_cycles: ctx.task.prompt_len as f64 * ctx.task.decode_len as f64 * b,
                ..Default::default()
            };
            RunReport { prefill, decode }
        }
    }

    fn template() -> TraceContext {
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
    }

    #[test]
    fn buckets_round_up() {
        let accel = Linear;
        let model = StepCostModel::new(&accel, template(), 256);
        assert_eq!(model.bucketed(1), 256);
        assert_eq!(model.bucketed(256), 256);
        assert_eq!(model.bucketed(257), 512);
    }

    #[test]
    fn interpolates_between_cached_boundaries() {
        let accel = Linear;
        let model = StepCostModel::new(&accel, template(), 128);
        let lo = model.decode_cost(128, 4);
        let hi = model.decode_cost(256, 4);
        assert_eq!(model.invocations(), 2);
        let mid = model.decode_cost(192, 4);
        assert_eq!(
            model.invocations(),
            2,
            "off-boundary queries interpolate cached boundaries"
        );
        // 192 is the midpoint of [128, 256]: the chord value is the mean.
        assert!((mid.cycles - (lo.cycles + hi.cycles) / 2.0).abs() < 1e-9);
        assert!(lo.cycles < mid.cycles && mid.cycles < hi.cycles);
        let _ = model.decode_cost(128, 8);
        assert_eq!(model.invocations(), 3, "batch is part of the key");
    }

    #[test]
    fn interpolation_is_exact_for_linear_costs() {
        // The Linear accelerator's decode cost is affine in context, so the
        // chord reproduces it exactly away from the sub-bucket clamp.
        let accel = Linear;
        let coarse = StepCostModel::new(&accel, template(), 256);
        let exact = StepCostModel::new(&accel, template(), 1);
        for ctx in [300, 511, 512, 700] {
            let c = coarse.decode_cost(ctx, 2).cycles;
            let e = exact.decode_cost(ctx, 2).cycles;
            assert!((c - e).abs() < 1e-6, "ctx {ctx}: {c} vs {e}");
        }
    }

    #[test]
    fn chunk_costs_telescope_to_full_prefill_plus_floors() {
        let accel = Linear;
        let model = StepCostModel::new(&accel, template(), 64);
        let full = model.prefill_cost(256, 1).cycles;
        let floor = model.prefill_cost(1, 1).cycles;
        let chunks: f64 = [(0, 64), (64, 128), (128, 256)]
            .iter()
            .map(|&(a, b)| model.prefill_chunk_cost(a, b, 1).cycles)
            .sum();
        // Three invocations: the full work plus one weight-restream floor
        // per resumed chunk.
        assert!((chunks - (full + 2.0 * floor)).abs() < 1e-6);
        // A fresh chunk covering the whole prompt is exactly the unchunked
        // prefill.
        assert!((model.prefill_chunk_cost(0, 256, 1).cycles - full).abs() < 1e-12);
    }

    #[test]
    fn decode_rate_reflects_coalescing_and_device_speed() {
        let accel = Linear;
        let model = StepCostModel::new(&accel, template(), 64);
        // Coalescing amortizes the fixed weight stream: higher per-token
        // rate at batch 8 than batch 1.
        assert!(model.decode_rate(64, 8) > model.decode_rate(64, 1));
        // Exact on the Linear model: batch/(1000 + ctx·batch).
        let r = model.decode_rate(64, 8);
        assert!((r - 8.0 / (1000.0 + 64.0 * 8.0)).abs() < 1e-12);
    }

    #[test]
    fn decode_amortizes_fixed_cost_across_batch() {
        let accel = Linear;
        let model = StepCostModel::new(&accel, template(), 64);
        let single = model.decode_cost(64, 1);
        let batched = model.decode_cost(64, 8);
        // Per-stream cost shrinks with coalescing (fixed 1000-cycle
        // weight stream amortized 8 ways).
        assert!(batched.cycles / 8.0 < single.cycles);
    }

    #[test]
    fn piggyback_decode_subtracts_exactly_the_weight_stream_floor() {
        // The Linear accelerator's decode cost is 1000 (weight stream) +
        // ctx·b (per-stream work): the batch-axis extrapolation recovers
        // the 1000-cycle floor exactly, so the piggyback cost is the pure
        // per-stream work.
        let accel = Linear;
        let model = StepCostModel::new(&accel, template(), 64);
        for (ctx, batch) in [(64, 1), (64, 4), (256, 8)] {
            let full = model.decode_cost(ctx, batch).cycles;
            let piggy = model.piggyback_decode_cost(ctx, batch).cycles;
            assert!(
                (piggy - (full - 1000.0)).abs() < 1e-6,
                "ctx {ctx} batch {batch}: piggy {piggy} vs full {full}"
            );
        }
    }

    #[test]
    fn mixed_step_cost_is_chunk_plus_incremental_decode() {
        let accel = Linear;
        let model = StepCostModel::new(&accel, template(), 64);
        let chunk = model.prefill_chunk_cost(128, 192, 2);
        let piggy = model.piggyback_decode_cost(300, 4);
        let mixed = model.mixed_step_cost(128, 192, 2, 300, 4);
        assert!((mixed.cycles - (chunk.cycles + piggy.cycles)).abs() < 1e-9);
        assert!((mixed.energy_pj - (chunk.energy_pj + piggy.energy_pj)).abs() < 1e-9);
        // Degenerate cases: no decodes → the chunk alone.
        let bare = model.mixed_step_cost(128, 192, 2, 300, 0);
        assert!((bare.cycles - chunk.cycles).abs() < 1e-12);
    }

    #[test]
    fn mixed_step_beats_the_alternating_pair_by_one_decode_floor() {
        // The whole point of piggybacking: one mixed step costs strictly
        // less than the chunk step + decode step pair it replaces, and
        // the gap is exactly the decode invocation's weight-stream floor.
        let accel = Linear;
        let model = StepCostModel::new(&accel, template(), 64);
        let mixed = model.mixed_step_cost(512, 1024, 1, 640, 6).cycles;
        let pair = model.prefill_chunk_cost(512, 1024, 1).cycles + model.decode_cost(640, 6).cycles;
        assert!(mixed < pair, "mixed {mixed} vs alternating pair {pair}");
        assert!(
            (pair - mixed - 1000.0).abs() < 1e-6,
            "the saving is the 1000-cycle decode floor, got {}",
            pair - mixed
        );
    }

    #[test]
    fn piggyback_cost_is_never_negative() {
        /// Decode cost independent of batch: the floor extrapolation
        /// degenerates to the full cost and the piggyback share clamps
        /// at zero instead of going negative.
        struct Fixed;
        impl Accelerator for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn run(&self, _ctx: &TraceContext) -> RunReport {
                RunReport {
                    prefill: PhaseCost {
                        gemm_cycles: 10.0,
                        ..Default::default()
                    },
                    decode: PhaseCost {
                        weight_load_cycles: 500.0,
                        ..Default::default()
                    },
                }
            }
        }
        let accel = Fixed;
        let model = StepCostModel::new(&accel, template(), 64);
        let piggy = model.piggyback_decode_cost(128, 4);
        assert!(piggy.cycles >= 0.0 && piggy.cycles < 1e-9);
        assert!(piggy.energy_pj >= 0.0);
    }
}
