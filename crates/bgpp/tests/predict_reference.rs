//! `ProgressivePredictor::predict` walks packed 64-column words; this
//! suite checks it against a bit-by-bit reference on head dimensions that
//! end inside, exactly at, and past a word boundary, and on rounds past
//! the keys' magnitude planes.

use mcbp_bgpp::{BgppConfig, PredictionOutcome, PredictionStats, ProgressivePredictor};
use mcbp_bitslice::{BitPlanes, IntMatrix};
use proptest::prelude::*;

/// Head dimensions: one column, a partial word, a word less one, one
/// word, a word plus one, two words, two words plus a partial one.
const DIMS: [usize; 7] = [1, 8, 63, 64, 65, 128, 130];

/// The predictor read one bounds-checked bit at a time.
fn reference(cfg: &BgppConfig, q: &[i32], keys: &BitPlanes, score_scale: f32) -> PredictionOutcome {
    let s = keys.rows();
    let d = keys.cols();
    let planes = keys.magnitude_planes();
    let rounds = cfg.rounds.min(planes);
    let radius_int = f64::from(cfg.radius) / f64::from(score_scale);

    let mut stats = PredictionStats::default();
    let mut alive: Vec<usize> = (0..s).collect();
    let mut psum = vec![0i64; s];
    stats.k_bits_fetched += (s * d) as u64;

    for r in 0..rounds {
        let b = planes - 1 - r;
        let plane = keys.magnitude(b);
        let weight = 1i64 << b;
        stats.k_bits_fetched += (alive.len() * d) as u64;
        for &j in &alive {
            let mut dot = 0i64;
            for (i, &qv) in q.iter().enumerate() {
                if plane.get(j, i) {
                    let signed = if keys.sign().get(j, i) {
                        -i64::from(qv)
                    } else {
                        i64::from(qv)
                    };
                    dot += signed;
                    stats.adds += 1;
                }
            }
            psum[j] += dot * weight;
        }
        stats.rounds_executed += 1;

        let max = alive.iter().map(|&j| psum[j]).max().unwrap_or(0);
        let min = alive.iter().map(|&j| psum[j]).min().unwrap_or(0);
        let alpha = f64::from(cfg.alpha_for(r));
        let theta = max as f64 - alpha * radius_int;
        if (min as f64) >= theta {
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

/// Keys of `bits` bits (sign included), `1..=40` rows, a head dimension
/// from [`DIMS`], and a query over it.
fn keys_and_query(bits: u8) -> impl Strategy<Value = (BitPlanes, Vec<i32>)> {
    let limit = (1i32 << (bits - 1)) - 1;
    (1usize..=40, 0..DIMS.len()).prop_flat_map(move |(s, di)| {
        let d = DIMS[di];
        (
            proptest::collection::vec(-limit..=limit, s * d).prop_map(move |data| {
                BitPlanes::from_matrix(&IntMatrix::from_flat(bits, s, d, data).unwrap())
            }),
            proptest::collection::vec(-127i32..=127, d),
        )
    })
}

fn config() -> impl Strategy<Value = BgppConfig> {
    (1usize..=9, 0.0f32..=1.0, 0.05f32..=40.0).prop_map(|(rounds, alpha, radius)| BgppConfig {
        rounds,
        alpha: vec![alpha],
        radius,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// INT8 keys: seven magnitude planes, so rounds 8 and 9 run past them.
    #[test]
    fn word_kernel_matches_reference_on_int8_keys(
        (keys, q) in keys_and_query(8),
        cfg in config(),
        score_scale in 0.001f32..=2.0,
    ) {
        let fast = ProgressivePredictor::new(cfg.clone()).predict(&q, &keys, score_scale);
        prop_assert_eq!(fast, reference(&cfg, &q, &keys, score_scale));
    }

    /// 4-bit keys: three magnitude planes, so most drawn rounds run past
    /// them.
    #[test]
    fn word_kernel_matches_reference_on_int4_keys(
        (keys, q) in keys_and_query(4),
        cfg in config(),
        score_scale in 0.001f32..=2.0,
    ) {
        let fast = ProgressivePredictor::new(cfg.clone()).predict(&q, &keys, score_scale);
        prop_assert_eq!(fast, reference(&cfg, &q, &keys, score_scale));
    }
}
