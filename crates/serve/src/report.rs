use std::fmt::{self, Write as _};

use crate::request::{Priority, RequestRecord, SharedPrefix, SloSpec};
use crate::CLOCK_HZ;

/// Latency distribution summary in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencyStats {
    /// Summarizes a sample of latencies given in cycles.
    #[must_use]
    pub fn from_cycles(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted: Vec<f64> = samples.iter().map(|c| c / CLOCK_HZ).collect();
        sorted.sort_by(f64::total_cmp);
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        LatencyStats {
            mean,
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile on a sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A value as it appears in a report's JSON.
trait Json {
    fn write_json(&self, out: &mut String);
}

/// Writes one JSON object, each key beside its value.
fn object(out: &mut String, fields: &[(&str, &dyn Json)]) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        key.write_json(out);
        out.push(':');
        value.write_json(out);
    }
    out.push('}');
}

macro_rules! json_as_display {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                // Writing into a `String` cannot fail.
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

json_as_display!(u64, usize, bool);

/// Rust's shortest round-trip decimal for finite numbers, `null` for
/// infinities and NaN (JSON has no spelling for them — closed-loop
/// releases carry infinite arrival cycles).
impl Json for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

/// A quoted, escaped string.
impl Json for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Json> Json for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// Implements [`Json`] for report types whose JSON object lists their
/// fields, in the given order, under their own names. The pattern
/// destructures each value, so a field missing from its list fails to
/// compile.
macro_rules! json_fields {
    ($($t:ident { $($field:ident),* $(,)? })*) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                let $t { $($field),* } = self;
                object(out, &[$((stringify!($field), $field)),*]);
            }
        }
    )*};
}

json_fields! {
    LatencyStats { mean, p50, p95, p99, max }
    PoolReport {
        budget_bytes, peak_resident_bytes, peak_reserved_bytes, mean_resident_bytes,
        busy_span_seconds, admission_stall_seconds,
    }
    PreemptReport {
        preemptions, swap_out_bytes, swap_in_bytes, swap_seconds, recompute_seconds,
        peak_swap_held_bytes,
    }
    HandoffReport {
        handoffs_out, handoffs_in, bytes_out, bytes_in, link_seconds, peak_in_flight_bytes,
    }
    StepReport { steps, prefill_steps, decode_steps, mixed_steps, mean_budget_utilization }
    PrefixReport { hits, misses, reused_tokens, reclaimed, reclaimed_bytes }
    DeviceReport {
        device, dispatched, completed, dropped, goodput_tokens_per_s, utilization,
        energy_joules, pool, preempt, handoff, steps, prefix,
    }
    ServeReport {
        scheduler, completed, dropped, duration_seconds, ttft, tpot, e2e,
        goodput_tokens_per_s, slo_met, slo_goodput_tokens_per_s, throughput_rps,
        offered_rps, mean_decode_batch, peak_concurrency, energy_joules,
        pool, preempt, handoff, steps, prefix, devices, records,
    }
    SharedPrefix { id, tokens }
    SloSpec { ttft_s, tpot_s }
}

/// KV-cache-pool statistics of one serving run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolReport {
    /// Pool byte budget.
    pub budget_bytes: u64,
    /// Peak resident bytes observed.
    pub peak_resident_bytes: u64,
    /// Peak reserved bytes observed (admission high-water mark).
    pub peak_reserved_bytes: u64,
    /// Time-weighted mean resident bytes over the busy span — windows the
    /// device's clock merely fast-forwarded across (no admitted work) are
    /// excluded, so an idle-heavy device does not dilute its mean.
    pub mean_resident_bytes: f64,
    /// The busy span the mean integrates over, in seconds: the device's
    /// serving clock minus idle fast-forward gaps. For a fleet aggregate
    /// this is the *sum* of per-device busy spans (device-seconds of
    /// service), and it is the weight each device's mean carries in the
    /// fleet mean.
    pub busy_span_seconds: f64,
    /// Total admission-stall time summed over requests, in seconds.
    pub admission_stall_seconds: f64,
}

impl PoolReport {
    /// Peak occupancy as a fraction of the budget.
    #[must_use]
    pub fn peak_occupancy(&self) -> f64 {
        if self.budget_bytes == 0 {
            return 0.0;
        }
        self.peak_resident_bytes as f64 / self.budget_bytes as f64
    }

    /// Adds `lane` field by field. The residency mean adds too, so a
    /// fleet fold passes each device's mean already weighted onto the
    /// fleet span.
    pub(crate) fn absorb(&mut self, lane: &Self) {
        self.budget_bytes += lane.budget_bytes;
        self.peak_resident_bytes += lane.peak_resident_bytes;
        self.peak_reserved_bytes += lane.peak_reserved_bytes;
        self.mean_resident_bytes += lane.mean_resident_bytes;
        self.busy_span_seconds += lane.busy_span_seconds;
        self.admission_stall_seconds += lane.admission_stall_seconds;
    }
}

/// Preemption/eviction statistics of one serving run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PreemptReport {
    /// Victim evictions performed (one request may be counted repeatedly).
    pub preemptions: u64,
    /// KV bytes copied device → host by swap evictions.
    pub swap_out_bytes: u64,
    /// KV bytes copied host → device by swap resumes.
    pub swap_in_bytes: u64,
    /// Device stall charged to host-link swap transfers, in seconds.
    pub swap_seconds: f64,
    /// Prefill time spent replaying evicted KV (drop-and-recompute
    /// resumes), in seconds.
    pub recompute_seconds: f64,
    /// Highest host-memory residency the swap ledger observed.
    pub peak_swap_held_bytes: u64,
}

impl PreemptReport {
    /// Total eviction overhead: swap transfers plus recompute replays, in
    /// seconds — the quantity the drop-vs-swap crossover compares.
    #[must_use]
    pub fn overhead_seconds(&self) -> f64 {
        self.swap_seconds + self.recompute_seconds
    }

    /// Adds `lane` field by field.
    pub(crate) fn absorb(&mut self, lane: &Self) {
        self.preemptions += lane.preemptions;
        self.swap_out_bytes += lane.swap_out_bytes;
        self.swap_in_bytes += lane.swap_in_bytes;
        self.swap_seconds += lane.swap_seconds;
        self.recompute_seconds += lane.recompute_seconds;
        self.peak_swap_held_bytes += lane.peak_swap_held_bytes;
    }
}

/// Prefill→decode KV-handoff statistics of one serving run (all zero
/// outside disaggregated fleets). Outbound lanes are attributed to the
/// source (prefill) device, inbound lanes — including the transfer
/// ledger's in-flight peak — to the destination (decode) device; the
/// fleet aggregate sums both sides, so `bytes_out == bytes_in` exactly
/// when every handoff landed (the byte-conservation invariant the
/// `handoff_properties` suite pins).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HandoffReport {
    /// Finished prefills this device handed off to a decode device.
    pub handoffs_out: u64,
    /// Handoffs delivered to this device (admitted or dropped on
    /// arrival).
    pub handoffs_in: u64,
    /// KV bytes that left this device's pool over the host link.
    pub bytes_out: u64,
    /// KV bytes delivered to this device over the host link.
    pub bytes_in: u64,
    /// Host-link seconds the outbound transfers occupied. Transfers
    /// overlap compute (DMA-style), so this is latency charged to the
    /// handed-off requests' availability, not device stall.
    pub link_seconds: f64,
    /// Highest in-flight byte residency the destination's transfer
    /// ledger observed.
    pub peak_in_flight_bytes: u64,
}

impl HandoffReport {
    /// Whether the run saw any prefill→decode handoff activity at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self.handoffs_out + self.handoffs_in > 0
    }

    /// Adds `lane` field by field.
    pub(crate) fn absorb(&mut self, lane: &Self) {
        self.handoffs_out += lane.handoffs_out;
        self.handoffs_in += lane.handoffs_in;
        self.bytes_out += lane.bytes_out;
        self.bytes_in += lane.bytes_in;
        self.link_seconds += lane.link_seconds;
        self.peak_in_flight_bytes += lane.peak_in_flight_bytes;
    }
}

/// Per-step composition statistics of one serving run: how many scheduler
/// steps executed, what each coalesced (pure prefill chunk, pure decode,
/// or a budgeted **mixed step** carrying both), and how much of the
/// shared [`crate::ServeConfig::step_token_budget`] the executed steps
/// actually used.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepReport {
    /// Total scheduler steps executed.
    pub steps: u64,
    /// Steps that carried only a prefill chunk.
    pub prefill_steps: u64,
    /// Steps that carried only decode streams.
    pub decode_steps: u64,
    /// Mixed steps: a prefill chunk with piggybacked decode streams.
    pub mixed_steps: u64,
    /// Mean executed-token utilization of the step token budget over all
    /// steps (0 when no budget was configured).
    pub mean_budget_utilization: f64,
}

impl StepReport {
    /// Fraction of steps that mixed a prefill chunk with piggybacked
    /// decodes.
    #[must_use]
    pub fn mixed_fraction(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.mixed_steps as f64 / self.steps as f64
    }

    /// Adds `lane` field by field. The utilization mean adds too, so a
    /// fleet fold passes each device's mean already weighted by its step
    /// count and divides the sum by the total steps.
    pub(crate) fn absorb(&mut self, lane: &Self) {
        self.steps += lane.steps;
        self.prefill_steps += lane.prefill_steps;
        self.decode_steps += lane.decode_steps;
        self.mixed_steps += lane.mixed_steps;
        self.mean_budget_utilization += lane.mean_budget_utilization;
    }
}

/// Prefix-cache statistics of one serving run: how often arriving
/// prompts found their declared [`crate::SharedPrefix`] already resident
/// on their device, how many prefill tokens that reuse skipped, and how
/// much warm prefix state admission pressure reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixReport {
    /// Fresh admissions whose prefill cursor started past a resident
    /// prefix.
    pub hits: u64,
    /// Fresh admissions that declared a prefix their device did not hold
    /// (the prompt prefilled in full and materialized the prefix).
    pub misses: u64,
    /// Prefill tokens skipped by prefix reuse, over every admission
    /// (fresh and resumed) that started past a resident prefix.
    pub reused_tokens: u64,
    /// Unreferenced prefix entries reclaimed under admission pressure.
    pub reclaimed: u64,
    /// Bytes those reclamations freed.
    pub reclaimed_bytes: u64,
}

impl PrefixReport {
    /// Hit fraction over fresh prefix-carrying admissions (0 when none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            return 0.0;
        }
        self.hits as f64 / (self.hits + self.misses) as f64
    }

    /// Whether the run saw any prefix-cache activity at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self.hits + self.misses + self.reclaimed > 0
    }

    /// Adds `lane` field by field.
    pub(crate) fn absorb(&mut self, lane: &Self) {
        self.hits += lane.hits;
        self.misses += lane.misses;
        self.reused_tokens += lane.reused_tokens;
        self.reclaimed += lane.reclaimed;
        self.reclaimed_bytes += lane.reclaimed_bytes;
    }
}

/// One device's share of a fleet serving run (see
/// [`crate::ServeSim::run_spec`]): what the dispatcher sent it, what it
/// completed, and how busy it was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceReport {
    /// Device index within the fleet.
    pub device: usize,
    /// Requests the dispatcher assigned to this device.
    pub dispatched: usize,
    /// Requests this device completed.
    pub completed: usize,
    /// Requests this device dropped (peak KV residency can never fit its
    /// pool).
    pub dropped: usize,
    /// Decoded tokens of this device's completed requests per second of
    /// the *fleet* span (so device goodputs add up to the fleet total).
    pub goodput_tokens_per_s: f64,
    /// Fraction of the fleet span this device spent executing steps or
    /// stalled on swap transfers.
    pub utilization: f64,
    /// Accelerator energy this device consumed, in joules.
    pub energy_joules: f64,
    /// This device's KV-pool statistics.
    pub pool: PoolReport,
    /// This device's preemption statistics.
    pub preempt: PreemptReport,
    /// This device's prefill→decode handoff statistics.
    pub handoff: HandoffReport,
    /// This device's per-step composition statistics.
    pub steps: StepReport,
    /// This device's prefix-cache statistics (hits, misses, and the
    /// prefill tokens its resident prefixes saved).
    pub prefix: PrefixReport,
}

/// Aggregate results of one serving simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Scheduler that produced the run.
    pub scheduler: String,
    /// Requests that completed all their tokens.
    pub completed: usize,
    /// Requests dropped because their peak KV residency can never fit.
    pub dropped: usize,
    /// Simulated duration in seconds (last completion).
    pub duration_seconds: f64,
    /// Time to first token.
    pub ttft: LatencyStats,
    /// Time per output token after the first.
    pub tpot: LatencyStats,
    /// End-to-end request latency.
    pub e2e: LatencyStats,
    /// Decoded tokens of completed requests per second.
    pub goodput_tokens_per_s: f64,
    /// Completed requests that met every declared SLO deadline.
    pub slo_met: usize,
    /// SLO-aware goodput: decoded tokens of SLO-met completed requests
    /// per second. Tokens delivered past their deadlines count toward
    /// [`ServeReport::goodput_tokens_per_s`] but not here.
    pub slo_goodput_tokens_per_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Offered arrival rate (open-loop traces only).
    pub offered_rps: Option<f64>,
    /// Mean decode-streams coalesced per batched decode invocation.
    pub mean_decode_batch: f64,
    /// Peak in-flight concurrency: the maximum number of requests that
    /// were *simultaneously* admitted and incomplete, measured on the
    /// merged fleet timeline (a request counts from admission until
    /// completion or eviction; a departure and an admission at the same
    /// instant do not overlap). This is a true simultaneous fleet-wide
    /// peak — not a sum of per-device peaks taken at different local
    /// instants — and does not depend on the order devices are merged in.
    pub peak_concurrency: usize,
    /// Total accelerator energy in joules.
    pub energy_joules: f64,
    /// KV-pool statistics. For a fleet run this is the aggregate: budgets
    /// and stalls add, the byte peaks are sums of per-device maxima taken
    /// at different local instants (an upper bound on any simultaneous
    /// fleet-wide figure), and the mean residency is each device's
    /// busy-span mean weighted by its busy span over the fleet span — a
    /// device whose clock merely idled forward carries no extra weight.
    /// Per-device truth lives in [`ServeReport::devices`].
    pub pool: PoolReport,
    /// Preemption/eviction statistics (fleet-wide sums for a fleet run).
    pub preempt: PreemptReport,
    /// Prefill→decode handoff statistics (fleet-wide sums; all zero
    /// outside disaggregated fleets — per-device lanes in
    /// [`ServeReport::devices`]).
    pub handoff: HandoffReport,
    /// Per-step composition statistics (fleet-wide: counts add, the
    /// budget utilization is each device's mean weighted by its step
    /// count).
    pub steps: StepReport,
    /// Prefix-cache statistics (fleet-wide sums; per-device lanes in
    /// [`ServeReport::devices`]).
    pub prefix: PrefixReport,
    /// Per-device breakdown of a fleet run
    /// ([`crate::ServeSim::run_spec`]); a single-device run carries its
    /// one lane here too.
    pub devices: Vec<DeviceReport>,
    /// Per-request timelines (completed and dropped).
    pub records: Vec<RequestRecord>,
}

impl ServeReport {
    /// SLO-aware goodput restricted to one priority class: decoded tokens
    /// of SLO-met completed requests of that class per second of simulated
    /// time.
    #[must_use]
    pub fn slo_goodput_for(&self, priority: Priority) -> f64 {
        let tokens: usize = self
            .records
            .iter()
            .filter(|r| r.request.priority == priority && r.slo_met())
            .map(|r| r.tokens)
            .sum();
        tokens as f64 / self.duration_seconds.max(1e-12)
    }

    /// Completed requests in one priority class.
    #[must_use]
    pub fn completed_for(&self, priority: Priority) -> usize {
        self.records
            .iter()
            .filter(|r| r.request.priority == priority && r.completed())
            .count()
    }

    /// The full report as a JSON string (no external dependencies): every
    /// aggregate, the pool/preempt/handoff/step/prefix lanes, the
    /// per-device lanes, and the per-request records, so full-vs-sampled
    /// comparisons and cross-PR report diffs are scriptable (`jq`, Python,
    /// …). Non-finite values (e.g. the infinite arrival cycles of
    /// closed-loop releases) serialize as `null`; everything else
    /// round-trips exactly.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl Json for RequestRecord {
    fn write_json(&self, out: &mut String) {
        let req = &self.request;
        object(
            out,
            &[
                ("id", &req.id),
                ("task", &req.task_name),
                ("priority", &format!("{:?}", req.priority)),
                ("state", &format!("{:?}", self.state)),
                ("prompt_len", &req.prompt_len),
                ("decode_len", &req.decode_len),
                ("prefix", &req.prefix),
                ("slo", &req.slo),
                ("arrival_cycle", &req.arrival_cycle),
                ("admitted_cycle", &self.admitted_cycle),
                ("first_token_cycle", &self.first_token_cycle),
                ("completed_cycle", &self.completed_cycle),
                ("tokens", &self.tokens),
                ("preemptions", &self.preemptions),
                ("slo_met", &self.slo_met()),
            ],
        );
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "serve report [{}]", self.scheduler)?;
        writeln!(
            f,
            "  requests: {} completed, {} dropped in {:.3} s{}",
            self.completed,
            self.dropped,
            self.duration_seconds,
            match self.offered_rps {
                Some(rps) => format!(" (offered {rps:.1} req/s)"),
                None => String::new(),
            }
        )?;
        writeln!(
            f,
            "  goodput: {:.1} tok/s   throughput: {:.2} req/s   mean decode batch: {:.2}   peak concurrency: {}",
            self.goodput_tokens_per_s, self.throughput_rps, self.mean_decode_batch, self.peak_concurrency
        )?;
        writeln!(
            f,
            "  slo: {}/{} requests met, slo-goodput {:.1} tok/s",
            self.slo_met, self.completed, self.slo_goodput_tokens_per_s
        )?;
        write!(
            f,
            "  steps: {} ({} prefill / {} decode / {} mixed, {:.1}% mixed)",
            self.steps.steps,
            self.steps.prefill_steps,
            self.steps.decode_steps,
            self.steps.mixed_steps,
            self.steps.mixed_fraction() * 100.0
        )?;
        if self.steps.mean_budget_utilization > 0.0 {
            write!(
                f,
                ", budget util {:.1}%",
                self.steps.mean_budget_utilization * 100.0
            )?;
        }
        writeln!(f)?;
        if self.prefix.any() {
            writeln!(
                f,
                "  prefix cache: {} hits / {} misses ({:.0}%), {} prefill tokens reused, {} reclaimed ({:.2} MiB)",
                self.prefix.hits,
                self.prefix.misses,
                self.prefix.hit_rate() * 100.0,
                self.prefix.reused_tokens,
                self.prefix.reclaimed,
                self.prefix.reclaimed_bytes as f64 / f64::from(1u32 << 20)
            )?;
        }
        if self.preempt.preemptions > 0 {
            writeln!(
                f,
                "  preempt: {} evictions, swap {:.2} MiB out / {:.2} MiB in ({:.3} s), recompute {:.3} s",
                self.preempt.preemptions,
                self.preempt.swap_out_bytes as f64 / f64::from(1u32 << 20),
                self.preempt.swap_in_bytes as f64 / f64::from(1u32 << 20),
                self.preempt.swap_seconds,
                self.preempt.recompute_seconds
            )?;
        }
        if self.handoff.any() {
            writeln!(
                f,
                "  handoff: {} prefill→decode, {:.2} MiB over the link ({:.3} s link time)",
                self.handoff.handoffs_out,
                self.handoff.bytes_out as f64 / f64::from(1u32 << 20),
                self.handoff.link_seconds
            )?;
        }
        writeln!(
            f,
            "  ttft  ms: mean {:8.2}  p50 {:8.2}  p95 {:8.2}  p99 {:8.2}",
            self.ttft.mean * 1e3,
            self.ttft.p50 * 1e3,
            self.ttft.p95 * 1e3,
            self.ttft.p99 * 1e3
        )?;
        writeln!(
            f,
            "  tpot  ms: mean {:8.2}  p50 {:8.2}  p95 {:8.2}  p99 {:8.2}",
            self.tpot.mean * 1e3,
            self.tpot.p50 * 1e3,
            self.tpot.p95 * 1e3,
            self.tpot.p99 * 1e3
        )?;
        writeln!(
            f,
            "  e2e    s: mean {:8.3}  p50 {:8.3}  p95 {:8.3}  p99 {:8.3}",
            self.e2e.mean, self.e2e.p50, self.e2e.p95, self.e2e.p99
        )?;
        writeln!(
            f,
            "  kv pool: budget {:.2} GiB, peak {:.1}%, mean resident {:.2} GiB, stall {:.3} s",
            self.pool.budget_bytes as f64 / f64::from(1u32 << 30),
            self.pool.peak_occupancy() * 100.0,
            self.pool.mean_resident_bytes / f64::from(1u32 << 30),
            self.pool.admission_stall_seconds
        )?;
        if self.devices.len() > 1 {
            for d in &self.devices {
                write!(
                    f,
                    "  device {}: {} dispatched, {} completed, goodput {:>8.1} tok/s, util {:>5.1}%, pool peak {:>5.1}%",
                    d.device,
                    d.dispatched,
                    d.completed,
                    d.goodput_tokens_per_s,
                    d.utilization * 100.0,
                    d.pool.peak_occupancy() * 100.0
                )?;
                if d.prefix.any() {
                    write!(
                        f,
                        ", prefix {}h/{}m ({} tok reused)",
                        d.prefix.hits, d.prefix.misses, d.prefix.reused_tokens
                    )?;
                }
                writeln!(f)?;
            }
        }
        write!(f, "  energy: {:.3} J", self.energy_joules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let cycles: Vec<f64> = (1..=100).map(|i| i as f64 * CLOCK_HZ).collect();
        let stats = LatencyStats::from_cycles(&cycles);
        assert!((stats.p50 - 50.0).abs() < 1e-9);
        assert!((stats.p95 - 95.0).abs() < 1e-9);
        assert!((stats.p99 - 99.0).abs() < 1e-9);
        assert!((stats.max - 100.0).abs() < 1e-9);
        assert!((stats.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_is_all_zero() {
        assert_eq!(LatencyStats::from_cycles(&[]), LatencyStats::default());
    }

    /// Minimal recursive-descent JSON syntax check (no value semantics) —
    /// enough to catch unbalanced braces, stray commas, and bare tokens.
    fn json_ok(s: &str) -> bool {
        fn skip_ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn value(b: &[u8], i: &mut usize) -> bool {
            skip_ws(b, i);
            match b.get(*i) {
                Some(b'{') => {
                    *i += 1;
                    skip_ws(b, i);
                    if b.get(*i) == Some(&b'}') {
                        *i += 1;
                        return true;
                    }
                    loop {
                        skip_ws(b, i);
                        if !string(b, i) {
                            return false;
                        }
                        skip_ws(b, i);
                        if b.get(*i) != Some(&b':') {
                            return false;
                        }
                        *i += 1;
                        if !value(b, i) {
                            return false;
                        }
                        skip_ws(b, i);
                        match b.get(*i) {
                            Some(b',') => *i += 1,
                            Some(b'}') => {
                                *i += 1;
                                return true;
                            }
                            _ => return false,
                        }
                    }
                }
                Some(b'[') => {
                    *i += 1;
                    skip_ws(b, i);
                    if b.get(*i) == Some(&b']') {
                        *i += 1;
                        return true;
                    }
                    loop {
                        if !value(b, i) {
                            return false;
                        }
                        skip_ws(b, i);
                        match b.get(*i) {
                            Some(b',') => *i += 1,
                            Some(b']') => {
                                *i += 1;
                                return true;
                            }
                            _ => return false,
                        }
                    }
                }
                Some(b'"') => string(b, i),
                Some(_) => {
                    let start = *i;
                    while *i < b.len() && !b",}] \t\n".contains(&b[*i]) {
                        *i += 1;
                    }
                    let tok = std::str::from_utf8(&b[start..*i]).unwrap();
                    tok == "true" || tok == "false" || tok == "null" || tok.parse::<f64>().is_ok()
                }
                None => false,
            }
        }
        fn string(b: &[u8], i: &mut usize) -> bool {
            if b.get(*i) != Some(&b'"') {
                return false;
            }
            *i += 1;
            while let Some(&c) = b.get(*i) {
                match c {
                    b'\\' => *i += 2,
                    b'"' => {
                        *i += 1;
                        return true;
                    }
                    _ => *i += 1,
                }
            }
            false
        }
        let b = s.as_bytes();
        let mut i = 0;
        let ok = value(b, &mut i);
        skip_ws(b, &mut i);
        ok && i == b.len()
    }

    #[test]
    fn report_to_json_is_well_formed_and_nulls_non_finite() {
        use crate::request::{Request, RequestState};
        let record = RequestRecord {
            // Closed-loop release: no finite arrival cycle.
            request: Request::from_task(0, &mcbp_workloads::Task::cola(), f64::INFINITY),
            state: RequestState::Completed,
            admitted_cycle: 10.0,
            first_token_cycle: 20.0,
            completed_cycle: 30.0,
            tokens: 4,
            preemptions: 0,
        };
        let report = ServeReport {
            scheduler: "test \"sched\"".to_string(),
            completed: 1,
            duration_seconds: 30.0 / CLOCK_HZ,
            mean_decode_batch: 1.0,
            peak_concurrency: 1,
            energy_joules: 5e-12,
            records: vec![record],
            ..ServeReport::default()
        };
        let json = report.to_json();
        assert!(json_ok(&json), "malformed JSON: {json}");
        assert!(json.contains("\"arrival_cycle\":null"), "{json}");
        assert!(json.contains("\"offered_rps\":null"));
        assert!(json.contains("\"scheduler\":\"test \\\"sched\\\"\""));
        assert!(json.contains("\"completed\":1"));
    }

    #[test]
    fn lane_json_is_well_formed() {
        let lane = DeviceReport {
            device: 3,
            dispatched: 8,
            completed: 7,
            dropped: 1,
            goodput_tokens_per_s: 123.5,
            utilization: 0.5,
            energy_joules: 0.25,
            pool: PoolReport::default(),
            preempt: PreemptReport::default(),
            handoff: HandoffReport {
                handoffs_out: 2,
                handoffs_in: 0,
                bytes_out: 4096,
                bytes_in: 0,
                link_seconds: 0.001,
                peak_in_flight_bytes: 0,
            },
            steps: StepReport::default(),
            prefix: PrefixReport {
                hits: 2,
                misses: 1,
                reused_tokens: 64,
                reclaimed: 0,
                reclaimed_bytes: 0,
            },
        };
        let mut json = String::new();
        lane.write_json(&mut json);
        assert!(json_ok(&json), "{json}");
        assert!(json.contains("\"prefix\":{\"hits\":2"));
        assert!(json.contains("\"handoff\":{\"handoffs_out\":2"));
    }

    #[test]
    fn step_report_mixed_fraction() {
        let steps = StepReport {
            steps: 8,
            prefill_steps: 2,
            decode_steps: 4,
            mixed_steps: 2,
            mean_budget_utilization: 0.75,
        };
        assert!((steps.mixed_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(StepReport::default().mixed_fraction(), 0.0);
    }
}
