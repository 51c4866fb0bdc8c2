use std::cell::RefCell;
use std::collections::HashMap;

use mcbp_bgpp::{BgppConfig, ProgressivePredictor};
use mcbp_bitslice::{BitPlanes, IntMatrix};
use mcbp_mem::{EnergyBreakdown, Hbm};
use mcbp_model::GemmKind;
use mcbp_workloads::{build_trace, PhaseCost, PhaseTag, RunReport, TraceContext, TracedOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::McbpConfig;

/// Calibration of the BGPP predictor against a synthetic attention-score
/// population: the α reaching a target keep fraction, and the fraction of
/// the full 8-bit K stream the progressive prediction actually fetches.
///
/// This ties the cycle model to the *functional* predictor in `mcbp-bgpp`
/// instead of assuming a traffic formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionCalibration {
    /// Fraction of keys kept (matches the requested operating point).
    pub keep_fraction: f64,
    /// Fraction of the K cache's bits touched by prediction.
    pub predicted_bits_fraction: f64,
    /// Fraction of a kept key's bits the formal stage must still fetch.
    /// BGPP reuses the already-streamed MSB planes (only LSB planes
    /// remain); value-level top-k keeps a separate 4-bit estimation copy
    /// and re-fetches kept keys in full (Fig 5e).
    pub kept_refetch_fraction: f64,
    /// Adder-tree additions per key element examined.
    pub adds_per_key_elem: f64,
}

impl PredictionCalibration {
    /// Measures the calibration by bisecting α on a synthetic key
    /// population (Gaussian INT8 keys, 256 keys × 64 dims, 8 queries)
    /// until the survivor fraction matches `target_keep`.
    ///
    /// # Panics
    ///
    /// Panics if `target_keep` is outside `(0, 1]`.
    #[must_use]
    pub fn measure(base: &BgppConfig, target_keep: f64, seed: u64) -> Self {
        assert!(
            target_keep > 0.0 && target_keep <= 1.0,
            "invalid keep target"
        );
        let (s, d, queries) = (256usize, 64usize, 8usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let kdata: Vec<i32> = (0..s * d).map(|_| gaussian_i8(&mut rng)).collect();
        let keys = IntMatrix::from_flat(8, s, d, kdata).expect("generated keys fit INT8");
        let planes = BitPlanes::from_matrix(&keys);
        let qs: Vec<Vec<i32>> = (0..queries)
            .map(|_| (0..d).map(|_| gaussian_i8(&mut rng) / 16).collect())
            .collect();
        // Radius in integer units is α-scaled; bisect α (allowing > 1 to
        // reach keep → 1.0).
        // Returns the mean keep, bits and adds fractions, and the rounds
        // the predictor executed.
        let eval = |alpha: f32| -> (f64, f64, f64, usize) {
            let cfg = BgppConfig {
                alpha: vec![alpha],
                ..base.clone()
            };
            let p = ProgressivePredictor::new(cfg);
            let mut kept = 0.0;
            let mut bits = 0.0;
            let mut adds = 0.0;
            let mut rounds = 0;
            for q in &qs {
                let out = p.predict(q, &planes, 0.002);
                kept += out.survivors.len() as f64 / s as f64;
                bits += out.stats.k_bits_fetched as f64 / (s * d * 8) as f64;
                adds += out.stats.adds as f64 / (s * d) as f64;
                rounds = out.stats.rounds_executed;
            }
            let n = queries as f64;
            (kept / n, bits / n, adds / n, rounds)
        };
        let (mut lo, mut hi) = (0.0f32, 4.0f32);
        for _ in 0..24 {
            let mid = 0.5 * (lo + hi);
            let (keep, ..) = eval(mid);
            if keep < target_keep {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (keep, bits, adds, rounds) = eval(hi);
        PredictionCalibration {
            keep_fraction: keep.max(target_keep),
            predicted_bits_fraction: bits,
            // The formal stage fetches the magnitude planes prediction did
            // not stream. `predict` stops at the keys' seven magnitude
            // planes, so rounds past them refetch nothing, never a
            // negative share.
            kept_refetch_fraction: (8.0 - (rounds as f64 + 1.0)) / 8.0,
            adds_per_key_elem: adds,
        }
    }

    /// The value-level top-k reference: an `est_bits`-bit copy of every key
    /// (plus signs) is always fetched (Fig 5e).
    #[must_use]
    pub fn value_level(est_bits: u32, keep: f64) -> Self {
        PredictionCalibration {
            keep_fraction: keep,
            predicted_bits_fraction: f64::from(est_bits + 1) / 8.0,
            kept_refetch_fraction: 1.0,
            adds_per_key_elem: f64::from(est_bits),
        }
    }
}

/// Per-unit energy of one simulated run (feeds the Fig 22 power report).
pub type UnitEnergy = EnergyBreakdown;

/// The MCBP cycle-level simulator.
///
/// It calibrates the BGPP predictor once per distinct attention keep and
/// keeps the result for its lifetime, so every later run at that keep
/// costs only the analytical model. The memo sits in a [`RefCell`],
/// which makes the simulator `!Sync`: share it by reference within one
/// thread. Two simulators compare equal when their configurations do.
#[derive(Debug, Clone)]
pub struct McbpSim {
    cfg: McbpConfig,
    /// [`PredictionCalibration::measure`] results keyed by the bits of the
    /// clamped keep. `measure` replaces α and runs on a fixed seed, and
    /// `cfg` never changes, so the keep alone determines each entry.
    calibrations: RefCell<HashMap<u64, PredictionCalibration>>,
}

impl PartialEq for McbpSim {
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg
    }
}

struct PhaseTotals {
    weight_macs: f64,
    attn_macs: f64,
    weight_bytes: f64,
    k_bytes: f64,
    v_bytes: f64,
    tokens: f64,
}

impl McbpSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized configuration.
    #[must_use]
    pub fn new(cfg: McbpConfig) -> Self {
        assert!(cfg.pe_clusters >= 1 && cfg.pes_per_cluster >= 1, "need PEs");
        McbpSim {
            cfg,
            calibrations: RefCell::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &McbpConfig {
        &self.cfg
    }

    /// Runs a workload and additionally returns the per-unit energy
    /// breakdown (Fig 22b) next to the phase report.
    #[must_use]
    pub fn run_detailed(&self, ctx: &TraceContext) -> (RunReport, UnitEnergy) {
        let trace = build_trace(&ctx.model, &ctx.task, ctx.batch);
        let prefill = self.phase_totals(&trace, PhaseTag::Prefill, ctx);
        let decode = self.phase_totals(&trace, PhaseTag::Decode, ctx);
        let keep = ctx.attention_keep.clamp(0.01, 1.0);
        // One prediction calibration per distinct keep per simulator (both
        // phases share the operating point).
        let pred = if self.cfg.enable_bgpp {
            *self
                .calibrations
                .borrow_mut()
                .entry(keep.to_bits())
                .or_insert_with(|| PredictionCalibration::measure(&self.cfg.bgpp, keep, 0x5eed))
        } else {
            PredictionCalibration::value_level(4, keep)
        };
        let mut unit = EnergyBreakdown::default();
        let p = self.cost_phase(ctx, &prefill, &pred, &mut unit);
        let d = self.cost_phase(ctx, &decode, &pred, &mut unit);
        (
            RunReport {
                prefill: p,
                decode: d,
            },
            unit,
        )
    }

    fn phase_totals(&self, trace: &[TracedOp], tag: PhaseTag, ctx: &TraceContext) -> PhaseTotals {
        let mut t = PhaseTotals {
            weight_macs: 0.0,
            attn_macs: 0.0,
            weight_bytes: 0.0,
            k_bytes: 0.0,
            v_bytes: 0.0,
            tokens: 0.0,
        };
        for op in trace.iter().filter(|o| o.phase == tag) {
            match op.op.kind {
                GemmKind::Weight => {
                    t.weight_macs += op.total_macs();
                    // Weights stream once per step regardless of batch.
                    t.weight_bytes += op.total_weight_bytes() / ctx.batch as f64;
                }
                GemmKind::AttentionQk => {
                    t.attn_macs += op.total_macs();
                    t.k_bytes += op.total_kv_bytes();
                }
                GemmKind::AttentionPv => {
                    t.attn_macs += op.total_macs();
                    t.v_bytes += op.total_kv_bytes();
                }
            }
        }
        t.tokens = match tag {
            PhaseTag::Prefill => (ctx.task.prompt_len * ctx.batch) as f64,
            PhaseTag::Decode => (ctx.task.decode_len * ctx.batch) as f64,
        };
        t
    }

    #[allow(clippy::too_many_lines)] // one linear pipeline walk; splitting obscures the dataflow
    fn cost_phase(
        &self,
        ctx: &TraceContext,
        t: &PhaseTotals,
        pred: &PredictionCalibration,
        unit: &mut EnergyBreakdown,
    ) -> PhaseCost {
        let cfg = &self.cfg;
        let e = &cfg.energy;
        let profile = &ctx.weight_profile;
        let keep = ctx.attention_keep.clamp(0.01, 1.0);
        let elems = |macs: f64, reuse: f64| macs / reuse.max(1.0);

        // ---------- compute: weight GEMMs ----------
        // Per-element add costs measured on the calibrated weight sample.
        let sample_elems = 64.0 * 512.0;
        // Latency follows AMU tree passes (matched columns of one pattern
        // merge in a single pass); energy follows scalar adds.
        let (lat_per_elem, adds_per_elem, label_reorder_fraction) = if cfg.enable_brcr {
            (
                profile.brcr_latency_passes(64, 512) / sample_elems,
                profile.brcr_adds(64, 512) / sample_elems,
                0.03,
            )
        } else {
            // Vanilla sparsity-aware bit-serial (ablation baseline): one
            // lane add per set bit, latency = energy adds.
            let naive = profile.naive_bit_serial_adds(64, 512) / sample_elems;
            (naive, naive, 0.0)
        };
        let weight_lat_adds = t.weight_macs * lat_per_elem;
        let weight_adds = t.weight_macs * adds_per_elem;

        // ---------- compute: attention (dynamic operands) ----------
        let attn_adds = t.attn_macs * keep * cfg.attn_adds_per_mac;
        let shift_adds = (weight_adds + attn_adds) * cfg.shift_overhead;
        let lat_adds =
            weight_lat_adds + attn_adds + (weight_lat_adds + attn_adds) * cfg.shift_overhead;
        let add_cycles = lat_adds / (cfg.adds_per_cycle() * cfg.utilization);

        // CAM matching: 16-column tiles per group per coded+raw plane, all
        // 2^m − 1 keys searched, parallel across PEs.
        let weight_elems_streamed = t.weight_bytes; // 1 B per INT8 element
        let cam_searches = if cfg.enable_brcr {
            weight_elems_streamed / (cfg.group_size as f64 * 16.0)
                * ((1u64 << cfg.group_size) - 1) as f64
                * profile.mean_nonzero_tile_fraction()
        } else {
            0.0
        };
        let cam_cycles =
            cam_searches / ((cfg.pe_clusters * cfg.pes_per_cluster) as f64 * cfg.utilization);

        // ---------- weight traffic (BSTC or Huffman fallback) ----------
        let (weight_stream_bytes, codec_groups) = if cfg.enable_bstc {
            let bits_per_elem = profile.bstc_bits_per_element(cfg.bstc_threshold);
            let coded_planes = profile
                .planes
                .iter()
                .filter(|p| p.sparsity > cfg.bstc_threshold)
                .count() as f64;
            (
                weight_elems_streamed * bits_per_elem / 8.0,
                weight_elems_streamed / cfg.group_size as f64 * coded_planes,
            )
        } else {
            (weight_elems_streamed / cfg.value_huffman_cr, 0.0)
        };
        let decode_cycles = if cfg.enable_bstc {
            weight_stream_bytes * 8.0 / cfg.decode_bits_per_cycle()
        } else {
            // Huffman decode is serial per symbol; the same lanes decode
            // one value (8 bits) per cycle each.
            weight_elems_streamed / cfg.bstc_decoders as f64
        };

        // ---------- KV traffic (BGPP or value-level top-k) ----------
        // K: prediction touches `predicted_bits_fraction`; the kept keys'
        // remaining bits are then fetched for the formal stage.
        let k_stream = t.k_bytes * pred.predicted_bits_fraction
            + t.k_bytes * keep * pred.kept_refetch_fraction;
        let v_stream = t.v_bytes * keep;
        let pred_adds = t.k_bytes * pred.adds_per_key_elem;
        // 64 trees x 64 inputs, §4.5.
        let bgpp_cycles = pred_adds / (64.0 * 64.0 * cfg.utilization);

        // ---------- memory timing ----------
        let mut hbm = Hbm::new(cfg.hbm);
        let w_cycles = hbm.stream_read(weight_stream_bytes.round() as u64) as f64;
        let w_energy = hbm.stats().energy_pj;
        hbm.reset_stats();
        // Prediction reads are sequential plane streams; kept-KV reads are
        // gathers with moderate row locality.
        let seq_kv = (t.k_bytes * pred.predicted_bits_fraction).round() as u64;
        let mut kv_cycles = hbm.stream_read(seq_kv) as f64;
        let gather_bytes = (k_stream + v_stream - seq_kv as f64).max(0.0);
        let gather_unit = 64u64; // one head-dim row per access
        kv_cycles += hbm.gather_read(
            (gather_bytes / gather_unit as f64).ceil() as u64,
            gather_unit,
            0.5,
        ) as f64;
        let kv_energy = hbm.stats().energy_pj;

        // ---------- APU (softmax / LayerNorm / GELU / quantizer) ----------
        let head_dim = ctx.model.head_dim() as f64;
        // Softmax elements cost several effective FP16 ops each (exp via
        // LUT+polynomial, subtract, divide).
        let softmax_elems = t.attn_macs * keep / head_dim * 4.0;
        let norm_elems = t.tokens * ctx.model.hidden as f64 * (2.0 * ctx.model.layers as f64);
        let gelu_elems = t.tokens * ctx.model.ffn as f64 * ctx.model.layers as f64;
        let apu_ops = softmax_elems + norm_elems + gelu_elems;
        let apu_cycles = apu_ops / (256.0 * cfg.utilization); // 256-lane SFU

        // ---------- assemble latency (pipelined, Fig 10) ----------
        let compute_side = add_cycles
            .max(cam_cycles)
            .max(decode_cycles)
            .max(bgpp_cycles);
        let mem_side = w_cycles + kv_cycles;
        let latency = compute_side.max(mem_side) + apu_cycles;

        let mut cost = PhaseCost::default();
        if compute_side >= mem_side {
            cost.gemm_cycles = compute_side;
        } else {
            cost.weight_load_cycles = w_cycles;
            cost.kv_load_cycles = kv_cycles;
        }
        cost.other_cycles = latency - cost.total_cycles();

        // ---------- energy ----------
        let merge_pj = weight_adds * e.add8_pj + attn_adds * e.add8_pj;
        let recon_shift_pj = shift_adds * e.add32_pj;
        let cam_pj = cam_searches * e.cam_search_pj;
        unit.brcr_pj += merge_pj + recon_shift_pj + cam_pj;
        unit.bstc_pj += codec_groups * e.codec_group_pj
            + if cfg.enable_bstc {
                0.0
            } else {
                weight_elems_streamed * 0.15
            };
        unit.bgpp_pj += pred_adds * e.bgpp_add_pj;
        // SRAM: weights written+read once; activations reused T_M-fold.
        let act_bytes = elems(t.weight_macs + t.attn_macs * keep, cfg.tile.0 as f64);
        let sram_bytes = weight_stream_bytes * 2.0 + act_bytes + k_stream + v_stream;
        unit.sram_pj += sram_bytes * 0.9;
        unit.apu_pj += apu_ops * e.sfu_op_pj;
        unit.scheduler_pj += latency * e.ctrl_cycle_pj * cfg.pe_clusters as f64 * 0.3;
        let offchip_bytes = weight_stream_bytes + k_stream + v_stream;
        unit.interface_pj += offchip_bytes * e.interface_pj_per_byte;
        unit.dram_pj += w_energy + kv_energy;

        cost.compute_pj =
            merge_pj + recon_shift_pj + cam_pj + pred_adds * e.bgpp_add_pj + apu_ops * e.sfu_op_pj;
        cost.reorder_pj = weight_stream_bytes * label_reorder_fraction * 1.6
            + if cfg.enable_bstc {
                0.0
            } else {
                weight_elems_streamed * 1.6
            };
        cost.onchip_pj = sram_bytes * 0.9 + codec_groups * e.codec_group_pj;
        cost.offchip_pj = w_energy + kv_energy + offchip_bytes * e.interface_pj_per_byte;
        cost
    }
}

impl mcbp_workloads::Accelerator for McbpSim {
    fn name(&self) -> &str {
        if self.cfg.enable_brcr && self.cfg.enable_bstc && self.cfg.enable_bgpp {
            "MCBP"
        } else {
            "MCBP-ablated"
        }
    }

    fn run(&self, ctx: &TraceContext) -> RunReport {
        self.run_detailed(ctx).0
    }
}

fn gaussian_i8(rng: &mut StdRng) -> i32 {
    let u1: f32 = rng.gen_range(1e-7f32..1.0);
    let u2: f32 = rng.gen::<f32>();
    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
    ((g * 38.0).round() as i32).clamp(-127, 127)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbp_model::LlmConfig;
    use mcbp_workloads::{Accelerator, SparsityProfile, Task, WeightGenerator};

    fn ctx(task: Task, batch: usize) -> TraceContext {
        let model = LlmConfig::llama7b();
        let gen = WeightGenerator::for_model(&model);
        let profile = SparsityProfile::measure(&gen.quantized_sample(64, 512, 77), 4);
        TraceContext {
            model,
            task,
            batch,
            weight_profile: profile,
            attention_keep: 0.3,
        }
    }

    #[test]
    fn full_mcbp_beats_ablation_baseline() {
        let c = ctx(Task::wikilingua(), 8);
        let full = McbpSim::new(McbpConfig::default()).run(&c);
        let base = McbpSim::new(McbpConfig::ablation_baseline()).run(&c);
        // Measured end-to-end gain on this workload is ~1.4-1.5x; the
        // paper's Fig 19(a) reports larger traffic cuts than the two-state
        // code arithmetically yields (see EXPERIMENTS.md).
        assert!(
            full.total_cycles() < 0.72 * base.total_cycles(),
            "full {} vs baseline {}",
            full.total_cycles(),
            base.total_cycles()
        );
    }

    #[test]
    fn each_technique_contributes() {
        // Fig 19(a): +BRCR, then +BSTC, then +BGPP each cut latency
        // (the paper runs this at batch size 8).
        let c = ctx(Task::wikilingua(), 8);
        let base = McbpSim::new(McbpConfig::ablation_baseline())
            .run(&c)
            .total_cycles();
        let brcr = McbpSim::new(McbpConfig {
            enable_brcr: true,
            ..McbpConfig::ablation_baseline()
        })
        .run(&c)
        .total_cycles();
        let bstc = McbpSim::new(McbpConfig {
            enable_brcr: true,
            enable_bstc: true,
            ..McbpConfig::ablation_baseline()
        })
        .run(&c)
        .total_cycles();
        let all = McbpSim::new(McbpConfig::default()).run(&c).total_cycles();
        assert!(brcr < base, "+BRCR: {brcr} vs {base}");
        assert!(bstc < brcr * 1.001, "+BSTC: {bstc} vs {brcr}");
        assert!(all < bstc * 1.001, "+BGPP: {all} vs {bstc}");
    }

    #[test]
    fn prefill_compute_bound_decode_memory_bound() {
        let c = ctx(Task::wikitext2(), 1);
        let r = McbpSim::new(McbpConfig::default()).run(&c);
        assert!(r.prefill.gemm_cycles > 0.0);
        assert!(
            r.decode.weight_load_cycles + r.decode.kv_load_cycles > r.decode.gemm_cycles,
            "decode must be memory-bound"
        );
    }

    #[test]
    fn bgpp_calibration_hits_keep_target() {
        let cal = PredictionCalibration::measure(&BgppConfig::standard(), 0.3, 1);
        assert!(
            (cal.keep_fraction - 0.3).abs() < 0.12,
            "keep {}",
            cal.keep_fraction
        );
        // Progressive fetch must beat the value-level 5/8 fraction.
        assert!(
            cal.predicted_bits_fraction < 0.625,
            "bits fraction {}",
            cal.predicted_bits_fraction
        );
    }

    #[test]
    fn rounds_past_the_key_planes_cost_like_all_seven() {
        // INT8 keys have seven magnitude planes, so eight or twelve rounds
        // run the same seven and must refetch no negative share.
        let c = ctx(Task::wikitext2(), 1);
        let at = |rounds| {
            let bgpp = BgppConfig {
                rounds,
                ..BgppConfig::standard()
            };
            let cal = PredictionCalibration::measure(&bgpp, 0.3, 0x5eed);
            let sim = McbpSim::new(McbpConfig {
                bgpp,
                ..McbpConfig::default()
            });
            (cal, sim.run_detailed(&c))
        };
        let seven = at(7);
        for rounds in [8, 12] {
            let past = at(rounds);
            assert!(
                (0.0..=1.0).contains(&past.0.kept_refetch_fraction),
                "rounds {rounds}: refetch {}",
                past.0.kept_refetch_fraction
            );
            assert_eq!(past, seven, "rounds {rounds}");
        }
    }

    #[test]
    fn calibration_memo_is_invisible() {
        let mut c = ctx(Task::wikitext2(), 1);
        let memo = McbpSim::new(McbpConfig::default());
        // 0.0 and 0.005 clamp onto one key, 1.5 onto 1.0's.
        for keep in [0.3, 0.5, 0.3, 0.0, 0.005, 1.5] {
            c.attention_keep = keep;
            let fresh = McbpSim::new(McbpConfig::default()).run_detailed(&c);
            assert_eq!(memo.run_detailed(&c), fresh, "keep {keep}");
        }
        assert_eq!(memo.calibrations.borrow().len(), 4);
        assert_eq!(memo, McbpSim::new(McbpConfig::default()));

        let value_level = McbpSim::new(McbpConfig {
            enable_bgpp: false,
            ..McbpConfig::default()
        });
        let _ = value_level.run_detailed(&c);
        assert!(value_level.calibrations.borrow().is_empty());
    }

    #[test]
    fn unit_energy_brcr_dominates_core() {
        // Fig 22(b): BRCR is the largest core consumer.
        let c = ctx(Task::wikilingua(), 1);
        let (_, unit) = McbpSim::new(McbpConfig::default()).run_detailed(&c);
        assert!(unit.brcr_pj > unit.bstc_pj);
        assert!(unit.brcr_pj > unit.bgpp_pj);
        assert!(unit.dram_pj > 0.0);
    }

    #[test]
    fn batch_amortizes_weight_traffic() {
        let r1 = McbpSim::new(McbpConfig::default()).run(&ctx(Task::mbpp(), 1));
        let r8 = McbpSim::new(McbpConfig::default()).run(&ctx(Task::mbpp(), 8));
        assert!(r8.decode.total_cycles() < 5.0 * r1.decode.total_cycles());
    }
}
