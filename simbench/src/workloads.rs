//! The timed part of each workload: set-up, the iteration loop with its
//! output checks, and (in the traced run) the per-layer probes.

use std::time::Instant;

use mcbp::serve::{
    DeviceProfile, LatencyStats, RequestRecord, Scheduler, ServeConfig, ServeReport, Workload,
};
use mcbp::Engine;

use crate::layers::{self, UnitProbe};
use crate::scenarios::{
    check_report, continuous, fleet_cfg, fleet_load, head, model, overload_cfg, overload_load,
    priority, record_and_replay, sub_seed, sweep_cfg, sweep_load, with_two_workers, Unit,
    FLEET_DEVICES, FLEET_REQUESTS, KEEP, OVERLOAD_REQUESTS, SWEEP_KEEPS, SWEEP_REQUESTS,
    SWEEP_STREAMS,
};
use crate::spans::Tracer;
use crate::stats::{
    fnv1a64, median, peak_rss_mib, reference_seconds, tail, timed, Metric, REFERENCE_NOMINAL_S,
};

/// Set-ups per untraced run (see [`with_setups`]); `setup_s` is their
/// median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_SECONDS: f64 = 1.0;
/// Fewest timed iterations, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// FNV-1a of the workload's `ServeReport::to_json()` output.
    pub digest: u64,
    /// Every failed check, in order.
    pub errors: Vec<String>,
    /// Factor from this run's host seconds to reported seconds (see
    /// [`Loop::host_scale`]).
    host_scale: f64,
}

/// Host seconds of each timed iteration and its check results.
struct Loop {
    times: Vec<f64>,
    /// Host seconds of the reference kernel, run before each iteration of
    /// a normalized loop.
    references: Vec<f64>,
    /// Whether spans were recorded in each iteration.
    spanned: Vec<bool>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Loop {
    /// The factor that turns this run's host seconds into reported
    /// seconds: for a normalized loop, the reference kernel's nominal time
    /// over its median time in this run (see [`Warm::normalize`]); 1
    /// otherwise.
    fn host_scale(&self) -> f64 {
        if self.references.is_empty() {
            return 1.0;
        }
        REFERENCE_NOMINAL_S / median(&self.references)
    }

    /// Median spanned iteration minus median unspanned one, in ms.
    fn span_overhead_ms(&self) -> f64 {
        let pick = |on: bool| -> Vec<f64> {
            self.times
                .iter()
                .zip(&self.spanned)
                .filter(|(_, s)| **s == on)
                .map(|(t, _)| *t)
                .collect()
        };
        let (on, off) = (pick(true), pick(false));
        if on.is_empty() || off.is_empty() {
            return 0.0;
        }
        (median(&on) - median(&off)) * 1e3
    }
}

/// Runs `body` for at least `opts.seconds` and `MIN_ITERATIONS`. In the
/// traced run, spans are recorded on odd iterations only, so the even
/// ones give the untraced time to compare against. With `normalize`, the
/// reference kernel runs before each iteration.
fn run_loop(
    opts: &Opts,
    tracer: &Tracer,
    normalize: bool,
    mut body: impl FnMut() -> Result<(), String>,
) -> Loop {
    let start = Instant::now();
    let mut lp = Loop {
        times: Vec::new(),
        references: Vec::new(),
        spanned: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    while lp.times.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < opts.seconds {
        let iteration = lp.times.len() + 1;
        let spanned = opts.trace && iteration % 2 == 1;
        tracer.set_on(spanned);
        tracer.set_iteration(iteration as u32);
        if normalize {
            lp.references.push(reference_seconds());
        }
        let (result, secs) = timed(&mut body);
        lp.times.push(secs);
        lp.spanned.push(spanned);
        lp.attempted += 1;
        if let Err(e) = result {
            lp.failed += 1;
            lp.errors.push(format!("iteration {iteration}: {e}"));
        }
    }
    tracer.set_on(opts.trace);
    tracer.set_iteration(0);
    lp
}

/// Runs a workload's set-up repeatedly and measures after the last one:
/// at least [`MIN_SETUPS`] times and until [`SETUP_SECONDS`] of set-up
/// have passed, so that a cheap set-up still gets a steady median. A
/// traced run sets up once. `body(last)` returns the set-up's host seconds
/// and, when `last`, the measurement.
fn with_setups<T>(trace: bool, mut body: impl FnMut(bool) -> (f64, Option<T>)) -> (Vec<f64>, T) {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let done = times.len() + 1;
        let spent: f64 = times.iter().sum();
        let next = times.last().copied().unwrap_or(0.0);
        let last =
            trace || done == MAX_SETUPS || (done >= MIN_SETUPS && spent + next >= SETUP_SECONDS);
        let (secs, out) = body(last);
        times.push(secs);
        if let Some(out) = out {
            return (times, out);
        }
    }
}

/// The simulated outputs. Each group of reports is pooled (its requests
/// taken together); the value is the mean over groups.
fn simulated(groups: &[Vec<&ServeReport>]) -> Vec<Metric> {
    let pooled = |reports: &Vec<&ServeReport>| {
        let completed = || {
            reports
                .iter()
                .flat_map(|r| r.records.iter().filter(|rec| rec.completed()))
        };
        let tokens = completed().map(|rec| rec.tokens).sum::<usize>().max(1) as f64;
        let seconds: f64 = reports.iter().map(|r| r.duration_seconds).sum();
        let joules: f64 = reports.iter().map(|r| r.energy_joules).sum();
        let p95_ms = |cycles: Vec<f64>| LatencyStats::from_cycles(&cycles).p95 * 1e3;
        [
            tokens / seconds,
            p95_ms(completed().map(RequestRecord::ttft_cycles).collect()),
            p95_ms(completed().map(RequestRecord::tpot_cycles).collect()),
            joules * 1e6 / tokens,
        ]
    };
    let per_group: Vec<[f64; 4]> = groups.iter().map(pooled).collect();
    let mean = |i: usize| per_group.iter().map(|g| g[i]).sum::<f64>() / per_group.len() as f64;
    let requests: usize = groups.iter().flatten().map(|r| r.records.len()).sum();
    [
        ("sim_goodput_tok_s", "tok/s"),
        ("sim_ttft_p95_ms", "ms"),
        ("sim_tpot_p95_ms", "ms"),
        ("sim_energy_uj_per_tok", "uJ/tok"),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (name, unit))| {
        Metric::new(name, mean(i), unit, requests)
            .note(format!("simulated, mean over {} group(s)", groups.len()))
    })
    .collect()
}

fn digest(groups: &[Vec<&ServeReport>]) -> u64 {
    let json: String = groups.iter().flatten().map(|r| r.to_json()).collect();
    fnv1a64(json.as_bytes())
}

/// The end-to-end metrics of an untraced run, but `setup_s`. Host times
/// are scaled by [`Loop::host_scale`]; the notes give the raw ones.
fn end_to_end(requests: usize, lp: &Loop, groups: &[Vec<&ServeReport>]) -> Vec<Metric> {
    let n = lp.times.len();
    let scale = lp.host_scale();
    let iter_raw = median(&lp.times);
    let (tail_raw, pct) = tail(&lp.times);
    let rss = peak_rss_mib().unwrap_or(0.0);
    let mut out = vec![
        Metric::new(
            "sim_req_per_s",
            requests as f64 / (iter_raw * scale),
            "req/s",
            n,
        )
        .note(format!(
            "{requests} requests / median iteration (raw {iter_raw:.4} s, host scale {scale:.3})"
        )),
        Metric::new("iter_s_tail", tail_raw * scale, "s", n)
            .note(format!("p{pct:.1} of {n} iterations (raw {tail_raw:.4} s)")),
        Metric::new("peak_rss_mib", rss, "MiB", 1),
    ];
    out.extend(simulated(groups));
    out
}

/// Assembles an outcome from the loop, its reports and the per-layer
/// metrics of a traced run (`None` in an untraced run, which reports the
/// end-to-end metrics instead).
fn outcome(
    requests: usize,
    lp: Loop,
    groups: &[Vec<&ServeReport>],
    layers: Option<(Vec<Metric>, bool)>,
) -> Outcome {
    let (metrics, probe_ok) = layers.unwrap_or_else(|| (end_to_end(requests, &lp, groups), true));
    let host_scale = lp.host_scale();
    let mut errors = lp.errors;
    if !probe_ok {
        errors.push("a traced-run probe check failed".to_owned());
    }
    Outcome {
        host_scale,
        attempted: lp.attempted,
        failed: lp.failed,
        metrics,
        digest: digest(groups),
        errors,
    }
}

/// Prepends `setup_s`, scaled like the loop's times, to an untraced run's
/// metrics.
fn with_setup_time(mut out: Outcome, setup_s: &[f64], trace: bool) -> Outcome {
    if !trace {
        let raw = median(setup_s);
        let setup = Metric::new("setup_s", raw * out.host_scale, "s", setup_s.len())
            .note(format!("raw {raw:.6} s"));
        out.metrics.insert(0, setup);
    }
    out
}

/// The per-layer metrics shared by every workload's traced run.
fn layer_metrics(
    opts: &Opts,
    tracer: &Tracer,
    lp: &Loop,
    misses: f64,
    cold_s: f64,
    probe: UnitProbe,
) -> (Vec<Metric>, bool) {
    let mut metrics = layers::common(opts.seed, tracer);
    metrics.push(Metric::new("cost.misses", misses, "count", 1).note("per timed iteration"));
    metrics.push(
        Metric::new(
            "cost.miss_share",
            (cold_s - probe.warm_s) / cold_s,
            "ratio",
            1,
        )
        .note(format!(
            "cold pass {cold_s:.4} s, warm {:.4} s",
            probe.warm_s
        )),
    );
    metrics.push(Metric::new(
        "spans.overhead_ms",
        lp.span_overhead_ms(),
        "ms",
        lp.times.len(),
    ));
    metrics.extend(probe.metrics);
    (metrics, probe.ok)
}

/// `repro serving`'s pattern: a fresh simulator, so a cold cost cache,
/// for each keep point, serving [`SWEEP_STREAMS`] independent request
/// streams in turn.
pub fn sweep_cold(opts: &Opts, tracer: &Tracer) -> Outcome {
    const REQUESTS: usize = SWEEP_REQUESTS * SWEEP_STREAMS * SWEEP_KEEPS.len();
    let (setup_s, out) = with_setups(opts.trace, |last| {
        let t = Instant::now();
        let engine = tracer.span("core", "Engine::new", || Engine::new(model(), opts.seed));
        let streams: Vec<_> = tracer.span("serve.arrival", "LoadGenerator::generate", || {
            (0..SWEEP_STREAMS)
                .map(|k| sweep_load(SWEEP_REQUESTS, sub_seed(opts.seed, k, SWEEP_STREAMS)))
                .collect()
        });
        let scale = opts
            .trace
            .then(|| [sweep_load(1000, opts.seed), sweep_load(4000, opts.seed)]);
        let secs = t.elapsed().as_secs_f64();
        if !last {
            return (secs, None);
        }

        let cfg = sweep_cfg();
        let mut first: Vec<Vec<Option<ServeReport>>> =
            vec![vec![None; SWEEP_STREAMS]; SWEEP_KEEPS.len()];
        let mut misses = 0.0;
        let lp = run_loop(opts, tracer, false, || {
            misses = 0.0;
            for (point, &keep) in SWEEP_KEEPS.iter().enumerate() {
                let sim = tracer.span("serve.sim", "ServeSim::new", || {
                    engine.serve_sim(keep, cfg.clone())
                });
                let unit = Unit::new(&sim, &[], continuous, tracer);
                for (k, stream) in streams.iter().enumerate() {
                    check_report(&unit.run(stream), SWEEP_REQUESTS, &mut first[point][k])
                        .map_err(|e| format!("keep {keep} stream {k}: {e}"))?;
                }
                misses += sim.cost_model().invocations() as f64;
            }
            Ok(())
        });
        let groups: Vec<Vec<&ServeReport>> = first
            .iter()
            .map(|point| {
                point
                    .iter()
                    .map(|r| r.as_ref().expect("iteration 1 ran every stream"))
                    .collect()
            })
            .collect();
        if !opts.trace {
            return (secs, Some(outcome(REQUESTS, lp, &groups, None)));
        }

        let sim = engine.serve_sim(KEEP, cfg.clone());
        let unit = Unit::new(&sim, &[], continuous, tracer);
        let cold_s = timed(|| unit.run(&streams[0])).1;
        let par_sim = engine.serve_sim(KEEP, with_two_workers(cfg.clone()));
        let par = Unit::new(&par_sim, &[], continuous, tracer);
        let [small, large] = scale
            .as_ref()
            .expect("traced set-up generated the scale loads");
        let probe = layers::serve_unit(&unit, &par, &streams[0], [small, large], tracer);
        let layers = layer_metrics(opts, tracer, &lp, misses, cold_s, probe);
        (secs, Some(outcome(REQUESTS, lp, &groups, Some(layers))))
    });
    with_setup_time(out, &setup_s, opts.trace)
}

/// A workload served on a warm cost cache.
struct Warm {
    requests: usize,
    /// Instances generated from sub-seeds of the run seed, served in turn
    /// by the timed iterations. One instance's simulated p95 latencies
    /// and host cost depend on its seed; pooled over several they are
    /// steady between seeds.
    instances: usize,
    generate: fn(u64) -> Workload,
    cfg: fn() -> ServeConfig,
    sched: fn() -> Box<dyn Scheduler>,
    /// Fleet width. One device is served through `ServeSim::run` and each
    /// iteration is one untraced run; a fleet is routed by prefix
    /// affinity and each iteration records, round-trips and replays its
    /// trace.
    devices: usize,
    /// Request counts of the traced run's scaling probe.
    scale: [usize; 2],
    /// Report host times scaled by the reference kernel (see
    /// [`Loop::host_scale`]). The shared host's speed drifts by tens of
    /// percent over tens of seconds, and a kernel timed in the same run
    /// cancels that drift where it slows the workload the same way. The
    /// kernel is memory-bound, like the fleet's iterations, which record,
    /// encode and replay tens of MB of trace. The compute-bound sweep and
    /// the scan-bound overload do not slow the same way and report raw
    /// host seconds.
    normalize: bool,
}

/// One device with a warm cost cache, about three times overloaded.
pub fn serve_overload(opts: &Opts, tracer: &Tracer) -> Outcome {
    let spec = Warm {
        requests: OVERLOAD_REQUESTS,
        instances: 4,
        generate: overload_load,
        cfg: overload_cfg,
        sched: priority,
        devices: 1,
        scale: [1000, 4000],
        normalize: false,
    };
    warm(opts, tracer, &spec)
}

/// Sixteen devices with a warm cost cache and prefix-affinity routing.
pub fn fleet_prefix(opts: &Opts, tracer: &Tracer) -> Outcome {
    let spec = Warm {
        requests: FLEET_REQUESTS,
        instances: 16,
        generate: fleet_load,
        cfg: fleet_cfg,
        sched: continuous,
        devices: FLEET_DEVICES,
        scale: [1000, 4000],
        normalize: true,
    };
    warm(opts, tracer, &spec)
}

/// Set-up builds the engine, generates the workload's instances from
/// sub-seeds, and fills the cost cache by serving each
/// once. The timed iterations then serve the instances in turn.
fn warm(opts: &Opts, tracer: &Tracer, spec: &Warm) -> Outcome {
    let (setup_s, out) = with_setups(opts.trace, |last| {
        let t = Instant::now();
        let engine = tracer.span("core", "Engine::new", || Engine::new(model(), opts.seed));
        let instances: Vec<Workload> =
            tracer.span("serve.arrival", "LoadGenerator::generate", || {
                (0..spec.instances)
                    .map(|k| (spec.generate)(sub_seed(opts.seed, k, spec.instances)))
                    .collect()
            });
        let fleet = spec.devices > 1;
        let profiles = vec![DeviceProfile::uniform(); if fleet { spec.devices } else { 0 }];
        let sim = engine.serve_sim(KEEP, (spec.cfg)());
        // Built alongside `sim` so both outlive the units borrowing them;
        // only the traced run serves on it.
        let par_sim = engine.serve_sim(KEEP, with_two_workers((spec.cfg)()));
        let unit = Unit::new(&sim, &profiles, spec.sched, tracer);
        let (warm_up, cold_s) = timed(|| unit.run(&instances[0]));
        let mut first: Vec<Option<ServeReport>> = vec![Some(warm_up)];
        first.extend(instances[1..].iter().map(|w| Some(unit.run(w))));
        let secs = t.elapsed().as_secs_f64();
        if !last {
            return (secs, None);
        }

        let before = sim.cost_model().invocations();
        let mut next = 0;
        let lp = run_loop(opts, tracer, spec.normalize, || {
            let k = next % instances.len();
            next += 1;
            let report = if fleet {
                record_and_replay(&unit, &instances[k], tracer)?
            } else {
                unit.run(&instances[k])
            };
            check_report(&report, spec.requests, &mut first[k])
                .map_err(|e| format!("instance {k}: {e}"))
        });
        let misses = (sim.cost_model().invocations() - before) as f64 / lp.times.len() as f64;
        let groups: Vec<Vec<&ServeReport>> = vec![first.iter().flatten().collect()];
        if !opts.trace {
            return (secs, Some(outcome(spec.requests, lp, &groups, None)));
        }

        let par = Unit::new(&par_sim, &profiles, spec.sched, tracer);
        let full = &instances[0];
        let [small, large] = spec.scale.map(|n| head(full, n));
        let probe = layers::serve_unit(&unit, &par, full, [&small, &large], tracer);
        let layers = layer_metrics(opts, tracer, &lp, misses, cold_s, probe);
        (
            secs,
            Some(outcome(spec.requests, lp, &groups, Some(layers))),
        )
    });
    with_setup_time(out, &setup_s, opts.trace)
}
