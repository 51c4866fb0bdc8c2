//! Per-layer probes of the traced run: each times calls into one layer's
//! public functions from outside.

use std::hint::black_box;

use mcbp::bgpp::ProgressivePredictor;
use mcbp::bitslice::{BitPlanes, IntMatrix};
use mcbp::serve::{ServeConfig, StepCostModel, Workload};
use mcbp::sim::PredictionCalibration;
use mcbp::workloads::Accelerator;
use mcbp::Engine;

use crate::scenarios::{model, task, Unit, KEEP};
use crate::spans::Tracer;
use crate::stats::{median, median_secs, timed, Metric, XorShift};

const REPS: usize = 3;

/// Probes that do not depend on the workload: engine construction, one
/// cycle-model run, one BGPP calibration, the predictor kernel, and the
/// step-cost cache's miss and hit paths.
pub fn common(seed: u64, tracer: &Tracer) -> Vec<Metric> {
    let mut engine = None;
    let new_s = median_secs(REPS, || {
        engine = Some(tracer.span("core", "Engine::new", || Engine::new(model(), seed)));
    });
    let engine = engine.expect("at least one engine was built");
    let sim = engine.simulator();

    let ctx = engine.context(&task(), 8, KEEP);
    let run_s = median_secs(REPS, || {
        black_box(tracer.span("sim", "McbpSim::run", || sim.run(&ctx)));
    });
    let bgpp = sim.config().bgpp.clone();
    let calibration_s = median_secs(REPS, || {
        black_box(tracer.span("sim", "PredictionCalibration::measure", || {
            PredictionCalibration::measure(&bgpp, KEEP, seed)
        }));
    });

    // The predictor on 256 keys x 64 dims of INT8, 8 queries per sample.
    let mut rng = XorShift::new(seed);
    let (keys_n, dim) = (256, 64);
    let kdata = (0..keys_n * dim).map(|_| rng.small_int(100)).collect();
    let keys = BitPlanes::from_matrix(
        &IntMatrix::from_flat(8, keys_n, dim, kdata).expect("probe keys fit INT8"),
    );
    let queries: Vec<Vec<i32>> = (0..8)
        .map(|_| (0..dim).map(|_| rng.small_int(8)).collect())
        .collect();
    let predictor = ProgressivePredictor::new(bgpp);
    let predict_s: Vec<f64> = (0..7)
        .map(|_| {
            let (_, s) = timed(|| {
                tracer.span("bgpp", "ProgressivePredictor::predict", || {
                    for _ in 0..4 {
                        for q in &queries {
                            black_box(predictor.predict(q, &keys, 0.002));
                        }
                    }
                });
            });
            s / (4 * queries.len()) as f64
        })
        .collect();

    // A fresh step-cost model: three distinct keys miss, then the same
    // keys hit.
    let cost = StepCostModel::new(
        sim,
        engine.context(&task(), 1, KEEP),
        ServeConfig::default().ctx_bucket,
    );
    let context = task().prompt_len;
    let miss_s: Vec<f64> = (1..=3)
        .map(|batch| {
            timed(|| {
                black_box(tracer.span("serve.cost", "StepCostModel::decode_cost", || {
                    cost.decode_cost(context, batch)
                }))
            })
            .1
        })
        .collect();
    let lookups = 30_000;
    let hit_s: Vec<f64> = (0..7)
        .map(|_| {
            let (_, s) = timed(|| {
                tracer.span("serve.cost", "StepCostModel::decode_cost", || {
                    for i in 0..lookups {
                        black_box(cost.decode_cost(context, 1 + i % 3));
                    }
                });
            });
            s / lookups as f64
        })
        .collect();

    vec![
        Metric::new("core.engine_new_ms", new_s * 1e3, "ms", REPS),
        Metric::new("sim.run_ms", run_s * 1e3, "ms", REPS).note("McbpSim::run, batch 8"),
        Metric::new("sim.calibration_ms", calibration_s * 1e3, "ms", REPS),
        Metric::new(
            "bgpp.predict_us",
            median(&predict_s) * 1e6,
            "us",
            predict_s.len(),
        )
        .note("256x64 INT8 keys"),
        Metric::new("cost.miss_ms", median(&miss_s) * 1e3, "ms", miss_s.len()),
        Metric::new("cost.hit_ns", median(&hit_s) * 1e9, "ns", hit_s.len())
            .note(format!("{lookups} lookups per sample")),
    ]
}

/// What [`serve_unit`] measures on one serving set-up.
pub struct UnitProbe {
    pub metrics: Vec<Metric>,
    /// Every check held: trace round trip, replay, parallel bit-exactness.
    pub ok: bool,
    /// Median host seconds of one warm untraced run of the full workload.
    pub warm_s: f64,
}

/// Probes one warm serving set-up: recording overhead, trace format and
/// replay, host cost per request at 1k and 4k requests, and the parallel
/// drive against the sequential one (`parallel` is the same set-up with
/// two fleet workers and a cold cost cache).
pub fn serve_unit(
    seq: &Unit<'_, '_>,
    parallel: &Unit<'_, '_>,
    full: &Workload,
    scale: [&Workload; 2],
    tracer: &Tracer,
) -> UnitProbe {
    let mut ok = true;
    let untraced_s = median_secs(REPS, || {
        black_box(seq.run(full));
    });
    let mut recorded = None;
    let traced_s = median_secs(REPS, || recorded = Some(seq.run_traced(full)));
    let (report, trace) = recorded.expect("at least one recorded run");

    let mut bytes = Vec::new();
    let encode_s = median_secs(REPS, || {
        bytes = tracer
            .span("trace", "to_bytes", || mcbp::trace::to_bytes(&trace))
            .expect("an in-memory trace encodes");
    });
    let mut restored = None;
    let decode_s = median_secs(REPS, || {
        restored = tracer
            .span("trace", "from_bytes", || mcbp::trace::from_bytes(&bytes))
            .ok();
    });
    let restored = restored.filter(|r| *r == trace);
    ok &= restored.is_some();
    let replay_s = median_secs(REPS, || {
        let replayed = restored.as_ref().is_some_and(|r| {
            tracer
                .span("trace", "verify_replay", || {
                    mcbp::trace::verify_replay(r, &report, |w| seq.run(w))
                })
                .is_ok()
        });
        ok &= replayed;
    });

    let per_req_us = |w: &Workload| {
        black_box(seq.run(w));
        median_secs(REPS, || {
            black_box(seq.run(w));
        }) * 1e6
            / w.requests.len() as f64
    };
    let [small, large] = scale;
    let us_small = per_req_us(small);
    let us_large = per_req_us(large);

    // The parallel set-up's first run fills its own cost cache.
    ok &= parallel.run(full) == report;
    let (mut seq_s, mut par_s) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        seq_s.push(timed(|| seq.run(full)).1);
        let (par_report, s) = timed(|| parallel.run(full));
        ok &= par_report == report;
        par_s.push(s);
    }

    let requests = full.requests.len() as f64;
    let steps = report.steps.steps;
    let metrics = vec![
        Metric::new("serve.us_per_req_1k", us_small, "us", REPS)
            .note(format!("{} requests", small.requests.len())),
        Metric::new("serve.us_per_req_4k", us_large, "us", REPS)
            .note(format!("{} requests", large.requests.len())),
        Metric::new("serve.scaling", us_large / us_small, "ratio", REPS),
        Metric::new("serve.steps", steps as f64, "count", 1),
        Metric::new(
            "serve.us_per_step",
            untraced_s * 1e6 / steps.max(1) as f64,
            "us",
            REPS,
        ),
        Metric::new(
            "pool.preemptions",
            report.preempt.preemptions as f64,
            "count",
            1,
        ),
        Metric::new(
            "dispatch.us_per_req",
            untraced_s * 1e6 / requests,
            "us",
            REPS,
        ),
        Metric::new(
            "dispatch.parallel_speedup",
            median(&seq_s) / median(&par_s),
            "ratio",
            REPS,
        )
        .note("sequential over 2 fleet workers"),
        Metric::new(
            "record.overhead_ratio",
            traced_s / untraced_s,
            "ratio",
            REPS,
        ),
        Metric::new("pool.prefix_hit_rate", report.prefix.hit_rate(), "ratio", 1),
        Metric::new("trace.events", trace.events.len() as f64, "count", 1),
        Metric::new(
            "trace.encode_mb_s",
            bytes.len() as f64 / 1e6 / encode_s,
            "MB/s",
            REPS,
        ),
        Metric::new(
            "trace.decode_mb_s",
            bytes.len() as f64 / 1e6 / decode_s,
            "MB/s",
            REPS,
        ),
        Metric::new("trace.replay_ms", replay_s * 1e3, "ms", REPS),
    ];
    UnitProbe {
        metrics,
        ok,
        warm_s: untraced_s,
    }
}
