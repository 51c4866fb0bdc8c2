use mcbp_bitslice::BitPlanes;

/// Configuration of the progressive predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct BgppConfig {
    /// Number of bit rounds (bit-planes streamed MSB-first). The paper's
    /// Fig 9 shows the first two of a predetermined number of rounds; four
    /// covers a 4-bit estimate like the value-level baseline.
    pub rounds: usize,
    /// Per-round pruning-aggressiveness knob `α_r ∈ [0, 1]` (Eq. 1). The
    /// paper sets 0.5–0.6 for the standard configuration (§6). If fewer
    /// values than rounds are given, the last one is reused.
    pub alpha: Vec<f32>,
    /// The radius in *logit* units; inputs trailing the max by more than
    /// this contribute ≈ 0 after softmax. Paper default: 3.
    pub radius: f32,
}

impl Default for BgppConfig {
    fn default() -> Self {
        BgppConfig {
            rounds: 4,
            alpha: vec![0.55],
            radius: 3.0,
        }
    }
}

impl BgppConfig {
    /// The paper's "standard" configuration (0 % accuracy-loss target).
    #[must_use]
    pub fn standard() -> Self {
        Self::default()
    }

    /// The paper's "aggressive" configuration (≤ 1 % loss target): smaller
    /// α prunes harder.
    #[must_use]
    pub fn aggressive() -> Self {
        BgppConfig {
            rounds: 4,
            alpha: vec![0.45],
            radius: 3.0,
        }
    }

    /// α for round `r` (0-based).
    #[must_use]
    pub fn alpha_for(&self, r: usize) -> f32 {
        *self
            .alpha
            .get(r)
            .or_else(|| self.alpha.last())
            .unwrap_or(&0.5)
    }
}

/// Work and traffic accounting for one prediction pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredictionStats {
    /// Key bits fetched from the KV cache (sign plane + one magnitude
    /// plane per round per surviving key).
    pub k_bits_fetched: u64,
    /// Adder-tree additions performed (one per key element per round).
    pub adds: u64,
    /// Rounds actually executed.
    pub rounds_executed: usize,
    /// Rounds where the clipping module was clock-gated because the
    /// threshold fell below the observed minimum (no key can be pruned).
    pub gated_rounds: u64,
    /// Survivor count after each executed round.
    pub survivors_per_round: Vec<usize>,
}

/// The survivors and statistics of one prediction pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionOutcome {
    /// Indices of keys predicted vital (ascending).
    pub survivors: Vec<usize>,
    /// Estimated scores of the survivors, in integer (quantized) units,
    /// from the executed rounds.
    pub estimates: Vec<i64>,
    /// Work/traffic accounting.
    pub stats: PredictionStats,
}

/// The threshold-aware, clock-gated BGPP unit (Fig 16).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressivePredictor {
    cfg: BgppConfig,
}

impl ProgressivePredictor {
    /// Creates a predictor.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.rounds == 0` or the radius is not positive.
    #[must_use]
    pub fn new(cfg: BgppConfig) -> Self {
        assert!(cfg.rounds >= 1, "at least one round is required");
        assert!(cfg.radius > 0.0, "radius must be positive");
        ProgressivePredictor { cfg }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &BgppConfig {
        &self.cfg
    }

    /// Runs progressive prediction of `q · K^T` over the bit-plane
    /// decomposition of the key matrix (`keys` rows = keys, cols = head
    /// dimension).
    ///
    /// `score_scale` converts one integer score unit into logit units
    /// (`Δq · Δk / √d` for scaled dot-product attention); the radius
    /// threshold is applied in the integer domain as
    /// `radius / score_scale`.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != keys.cols()` or `score_scale` is not positive.
    #[must_use]
    pub fn predict(&self, q: &[i32], keys: &BitPlanes, score_scale: f32) -> PredictionOutcome {
        assert_eq!(q.len(), keys.cols(), "query/key dimension mismatch");
        assert!(score_scale > 0.0, "score scale must be positive");
        let s = keys.rows();
        let d = keys.cols();
        let planes = keys.magnitude_planes();
        let rounds = self.cfg.rounds.min(planes);
        let radius_int = f64::from(self.cfg.radius) / f64::from(score_scale);

        let mut stats = PredictionStats::default();
        let mut alive: Vec<usize> = (0..s).collect();
        let mut psum = vec![0i64; s];

        // Signs ride along with the first magnitude fetch (the sign-decision
        // unit of Fig 16 consumes them before the adder tree).
        stats.k_bits_fetched += (s * d) as u64;

        for r in 0..rounds {
            let b = planes - 1 - r; // MSB-first
            let plane = keys.magnitude(b);
            let weight = 1i64 << b;
            // Fetch this round's bit-plane for surviving keys only — the
            // early-termination traffic saving.
            stats.k_bits_fetched += (alive.len() * d) as u64;
            for &j in &alive {
                // One adder-tree input per set magnitude bit, walked 64
                // columns at a time; the sign word picks add or subtract.
                let mut dot = 0i64;
                let words = plane.row_words(j).iter().zip(keys.sign().row_words(j));
                for (w, (&mag, &neg)) in words.enumerate() {
                    stats.adds += u64::from(mag.count_ones());
                    let mut bits = mag;
                    while bits != 0 {
                        let bit = bits.trailing_zeros();
                        let qv = i64::from(q[w * 64 + bit as usize]);
                        dot += if (neg >> bit) & 1 == 1 { -qv } else { qv };
                        bits &= bits - 1;
                    }
                }
                psum[j] += dot * weight;
            }
            stats.rounds_executed += 1;

            // Threshold updating (TU) + clipping (Fig 16).
            let max = alive.iter().map(|&j| psum[j]).max().unwrap_or(0);
            let min = alive.iter().map(|&j| psum[j]).min().unwrap_or(0);
            let alpha = f64::from(self.cfg.alpha_for(r));
            let theta = max as f64 - alpha * radius_int;
            if (min as f64) >= theta {
                // Threshold below every observed value: clipping module is
                // clock-gated; proceed directly to the next round (§4.5).
                stats.gated_rounds += 1;
            } else {
                alive.retain(|&j| psum[j] as f64 >= theta);
            }
            stats.survivors_per_round.push(alive.len());
        }

        let estimates = alive.iter().map(|&j| psum[j]).collect();
        PredictionOutcome {
            survivors: alive,
            estimates,
            stats,
        }
    }

    /// Bits a non-progressive value-level predictor would fetch for the
    /// same pass (`rounds`-bit estimate of every key, plus signs) — the
    /// reference for the traffic-reduction ratios of Fig 5(g).
    #[must_use]
    pub fn value_level_bits(&self, num_keys: usize, dim: usize) -> u64 {
        ((self.cfg.rounds + 1) * num_keys * dim) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbp_bitslice::IntMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn keys_with_scores(scores: &[i32]) -> BitPlanes {
        // One-dimensional keys so q·k == key value exactly.
        let data: Vec<i32> = scores.to_vec();
        let m = IntMatrix::from_flat(8, scores.len(), 1, data).unwrap();
        BitPlanes::from_matrix(&m)
    }

    #[test]
    fn dominant_key_survives_weak_key_dropped() {
        let keys = keys_with_scores(&[5, -120, 120, 10, 60]);
        let p = ProgressivePredictor::new(BgppConfig {
            rounds: 7,
            alpha: vec![1.0],
            radius: 30.0,
        });
        let out = p.predict(&[1], &keys, 1.0);
        assert!(out.survivors.contains(&2), "max key must survive");
        assert!(!out.survivors.contains(&1), "far-below key must be dropped");
    }

    #[test]
    fn alpha_zero_keeps_only_the_max_band() {
        let keys = keys_with_scores(&[10, 50, 120, 119, 3]);
        let p = ProgressivePredictor::new(BgppConfig {
            rounds: 7,
            alpha: vec![0.0],
            radius: 3.0,
        });
        let out = p.predict(&[1], &keys, 1.0);
        // θ = max: only keys matching the running max survive.
        assert!(out.survivors.contains(&2));
        assert!(out.survivors.len() <= 2);
    }

    #[test]
    fn smaller_alpha_prunes_at_least_as_hard() {
        let mut rng = StdRng::seed_from_u64(9);
        let scores: Vec<i32> = (0..64).map(|_| rng.gen_range(-127..=127)).collect();
        let keys = keys_with_scores(&scores);
        let survivors = |alpha: f32| {
            let p = ProgressivePredictor::new(BgppConfig {
                rounds: 4,
                alpha: vec![alpha],
                radius: 20.0,
            });
            p.predict(&[1], &keys, 1.0).survivors.len()
        };
        assert!(survivors(0.2) <= survivors(0.8));
    }

    #[test]
    fn early_termination_reduces_traffic() {
        let mut rng = StdRng::seed_from_u64(10);
        let scores: Vec<i32> = (0..256).map(|_| rng.gen_range(-127..=127)).collect();
        let keys = keys_with_scores(&scores);
        let p = ProgressivePredictor::new(BgppConfig::standard());
        let out = p.predict(&[1], &keys, 1.0);
        let value_level = p.value_level_bits(256, 1);
        assert!(
            out.stats.k_bits_fetched < value_level,
            "progressive {} vs value-level {value_level}",
            out.stats.k_bits_fetched
        );
    }

    #[test]
    fn survivor_counts_never_increase() {
        let mut rng = StdRng::seed_from_u64(11);
        let scores: Vec<i32> = (0..128).map(|_| rng.gen_range(-127..=127)).collect();
        let keys = keys_with_scores(&scores);
        let out = ProgressivePredictor::new(BgppConfig::standard()).predict(&[1], &keys, 1.0);
        for w in out.stats.survivors_per_round.windows(2) {
            assert!(
                w[1] <= w[0],
                "survivors must be monotone: {:?}",
                out.stats.survivors_per_round
            );
        }
    }

    #[test]
    fn uniform_keys_gate_the_clipper() {
        let keys = keys_with_scores(&[64; 16]);
        let p = ProgressivePredictor::new(BgppConfig {
            rounds: 3,
            alpha: vec![1.0],
            radius: 100.0,
        });
        let out = p.predict(&[1], &keys, 1.0);
        assert_eq!(
            out.survivors.len(),
            16,
            "identical keys can never be pruned"
        );
        assert_eq!(
            out.stats.gated_rounds, 3,
            "threshold below min gates every round"
        );
    }

    #[test]
    fn multi_dimensional_scores_match_reference_after_all_rounds() {
        let mut rng = StdRng::seed_from_u64(12);
        let data: Vec<i32> = (0..8 * 16).map(|_| rng.gen_range(-127..=127)).collect();
        let k = IntMatrix::from_flat(8, 8, 16, data).unwrap();
        let keys = BitPlanes::from_matrix(&k);
        let q: Vec<i32> = (0..16).map(|_| rng.gen_range(-7..=7)).collect();
        // All 7 rounds + huge radius = exact scores, nobody pruned.
        let p = ProgressivePredictor::new(BgppConfig {
            rounds: 7,
            alpha: vec![1.0],
            radius: 1e9,
        });
        let out = p.predict(&q, &keys, 1.0);
        assert_eq!(out.survivors.len(), 8);
        let reference = k.matvec(&q).unwrap();
        assert_eq!(out.estimates, reference);
    }
}
