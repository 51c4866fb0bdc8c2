use std::fmt;

use crate::request::{Priority, RequestRecord};
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
    /// The stats as a JSON object string.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
            json_f64(self.mean),
            json_f64(self.p50),
            json_f64(self.p95),
            json_f64(self.p99),
            json_f64(self.max)
        )
    }

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

/// An `f64` as a JSON value: Rust's shortest round-trip decimal for
/// finite numbers, `null` for infinities and NaN (JSON has no spelling
/// for them — closed-loop releases carry infinite arrival cycles).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A string as a quoted, escaped JSON value.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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

    /// The pool statistics as a JSON object string.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"budget_bytes\":{},\"peak_resident_bytes\":{},\"peak_reserved_bytes\":{},\
             \"mean_resident_bytes\":{},\"busy_span_seconds\":{},\
             \"admission_stall_seconds\":{}}}",
            self.budget_bytes,
            self.peak_resident_bytes,
            self.peak_reserved_bytes,
            json_f64(self.mean_resident_bytes),
            json_f64(self.busy_span_seconds),
            json_f64(self.admission_stall_seconds)
        )
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

    /// The preemption statistics as a JSON object string.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"preemptions\":{},\"swap_out_bytes\":{},\"swap_in_bytes\":{},\
             \"swap_seconds\":{},\"recompute_seconds\":{},\"peak_swap_held_bytes\":{}}}",
            self.preemptions,
            self.swap_out_bytes,
            self.swap_in_bytes,
            json_f64(self.swap_seconds),
            json_f64(self.recompute_seconds),
            self.peak_swap_held_bytes
        )
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

    /// The handoff statistics as a JSON object string.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"handoffs_out\":{},\"handoffs_in\":{},\"bytes_out\":{},\"bytes_in\":{},\
             \"link_seconds\":{},\"peak_in_flight_bytes\":{}}}",
            self.handoffs_out,
            self.handoffs_in,
            self.bytes_out,
            self.bytes_in,
            json_f64(self.link_seconds),
            self.peak_in_flight_bytes
        )
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

    /// The step-composition statistics as a JSON object string.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"steps\":{},\"prefill_steps\":{},\"decode_steps\":{},\"mixed_steps\":{},\
             \"mean_budget_utilization\":{}}}",
            self.steps,
            self.prefill_steps,
            self.decode_steps,
            self.mixed_steps,
            json_f64(self.mean_budget_utilization)
        )
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

    /// The prefix-cache statistics as a JSON object string.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"reused_tokens\":{},\"reclaimed\":{},\
             \"reclaimed_bytes\":{}}}",
            self.hits, self.misses, self.reused_tokens, self.reclaimed, self.reclaimed_bytes
        )
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

impl DeviceReport {
    /// The device lane as a JSON object string.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"device\":{},\"dispatched\":{},\"completed\":{},\"dropped\":{},\
             \"goodput_tokens_per_s\":{},\"utilization\":{},\"energy_joules\":{},\
             \"pool\":{},\"preempt\":{},\"handoff\":{},\"steps\":{},\"prefix\":{}}}",
            self.device,
            self.dispatched,
            self.completed,
            self.dropped,
            json_f64(self.goodput_tokens_per_s),
            json_f64(self.utilization),
            json_f64(self.energy_joules),
            self.pool.to_json(),
            self.preempt.to_json(),
            self.handoff.to_json(),
            self.steps.to_json(),
            self.prefix.to_json()
        )
    }
}

/// Aggregate results of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
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
    /// instants — and is identical for sequential and parallel drives.
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

/// Raw run counters the simulator hands to [`ServeReport::summarize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunTotals {
    /// Simulated duration in cycles.
    pub duration_cycles: f64,
    /// Mean decode-streams coalesced per batched decode invocation.
    pub mean_decode_batch: f64,
    /// Peak in-flight concurrency.
    pub peak_concurrency: usize,
    /// Total accelerator energy in pJ.
    pub energy_pj: f64,
    /// Offered arrival rate (open-loop traces only).
    pub offered_rps: Option<f64>,
    /// Preemption/eviction statistics.
    pub preempt: PreemptReport,
    /// Prefill→decode handoff statistics.
    pub handoff: HandoffReport,
    /// Per-step composition statistics.
    pub steps: StepReport,
    /// Prefix-cache statistics.
    pub prefix: PrefixReport,
}

impl ServeReport {
    /// Builds the latency/goodput aggregates from per-request records.
    #[must_use]
    pub fn summarize(
        scheduler: String,
        records: Vec<RequestRecord>,
        totals: RunTotals,
        pool: PoolReport,
        devices: Vec<DeviceReport>,
    ) -> Self {
        let RunTotals {
            duration_cycles,
            mean_decode_batch,
            peak_concurrency,
            energy_pj,
            offered_rps,
            preempt,
            handoff,
            steps,
            prefix,
        } = totals;
        let completed: Vec<&RequestRecord> = records.iter().filter(|r| r.completed()).collect();
        let slo_met = completed.iter().filter(|r| r.slo_met()).count();
        let slo_tokens: usize = completed
            .iter()
            .filter(|r| r.slo_met())
            .map(|r| r.tokens)
            .sum();
        let dropped = records.len() - completed.len();
        let duration_seconds = duration_cycles / CLOCK_HZ;
        let tokens: usize = completed.iter().map(|r| r.tokens).sum();
        let ttft = LatencyStats::from_cycles(
            &completed
                .iter()
                .map(|r| r.ttft_cycles())
                .collect::<Vec<_>>(),
        );
        let tpot = LatencyStats::from_cycles(
            &completed
                .iter()
                .map(|r| r.tpot_cycles())
                .collect::<Vec<_>>(),
        );
        let e2e = LatencyStats::from_cycles(
            &completed.iter().map(|r| r.e2e_cycles()).collect::<Vec<_>>(),
        );
        let span = duration_seconds.max(1e-12);
        ServeReport {
            scheduler,
            completed: completed.len(),
            dropped,
            duration_seconds,
            ttft,
            tpot,
            e2e,
            goodput_tokens_per_s: tokens as f64 / span,
            slo_met,
            slo_goodput_tokens_per_s: slo_tokens as f64 / span,
            throughput_rps: completed.len() as f64 / span,
            offered_rps,
            mean_decode_batch,
            peak_concurrency,
            energy_joules: energy_pj * 1e-12,
            pool,
            preempt,
            handoff,
            steps,
            prefix,
            devices,
            records,
        }
    }

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
    /// aggregate, the device/pool/preempt/step/prefix lanes, and the
    /// per-request records, so full-vs-sampled comparisons and cross-PR
    /// report diffs are scriptable (`jq`, Python, …). Non-finite values
    /// (e.g. the infinite arrival cycles of closed-loop releases)
    /// serialize as `null`; everything else round-trips exactly.
    #[must_use]
    pub fn to_json(&self) -> String {
        let devices: Vec<String> = self.devices.iter().map(DeviceReport::to_json).collect();
        let records: Vec<String> = self.records.iter().map(record_json).collect();
        format!(
            "{{\"scheduler\":{},\"completed\":{},\"dropped\":{},\"duration_seconds\":{},\
             \"ttft\":{},\"tpot\":{},\"e2e\":{},\
             \"goodput_tokens_per_s\":{},\"slo_met\":{},\"slo_goodput_tokens_per_s\":{},\
             \"throughput_rps\":{},\"offered_rps\":{},\"mean_decode_batch\":{},\
             \"peak_concurrency\":{},\"energy_joules\":{},\
             \"pool\":{},\"preempt\":{},\"handoff\":{},\"steps\":{},\"prefix\":{},\
             \"devices\":[{}],\"records\":[{}]}}",
            json_str(&self.scheduler),
            self.completed,
            self.dropped,
            json_f64(self.duration_seconds),
            self.ttft.to_json(),
            self.tpot.to_json(),
            self.e2e.to_json(),
            json_f64(self.goodput_tokens_per_s),
            self.slo_met,
            json_f64(self.slo_goodput_tokens_per_s),
            json_f64(self.throughput_rps),
            self.offered_rps.map_or("null".to_string(), json_f64),
            json_f64(self.mean_decode_batch),
            self.peak_concurrency,
            json_f64(self.energy_joules),
            self.pool.to_json(),
            self.preempt.to_json(),
            self.handoff.to_json(),
            self.steps.to_json(),
            self.prefix.to_json(),
            devices.join(","),
            records.join(",")
        )
    }
}

/// One per-request record as a JSON object string.
fn record_json(r: &RequestRecord) -> String {
    let req = &r.request;
    let prefix = req.prefix.map_or("null".to_string(), |p| {
        format!("{{\"id\":{},\"tokens\":{}}}", p.id, p.tokens)
    });
    let slo = format!(
        "{{\"ttft_s\":{},\"tpot_s\":{}}}",
        req.slo.ttft_s.map_or("null".to_string(), json_f64),
        req.slo.tpot_s.map_or("null".to_string(), json_f64)
    );
    format!(
        "{{\"id\":{},\"task\":{},\"priority\":{},\"state\":{},\
         \"prompt_len\":{},\"decode_len\":{},\"prefix\":{},\"slo\":{},\
         \"arrival_cycle\":{},\"admitted_cycle\":{},\"first_token_cycle\":{},\
         \"completed_cycle\":{},\"tokens\":{},\"preemptions\":{},\"slo_met\":{}}}",
        req.id,
        json_str(req.task_name),
        json_str(&format!("{:?}", req.priority)),
        json_str(&format!("{:?}", r.state)),
        req.prompt_len,
        req.decode_len,
        prefix,
        slo,
        json_f64(req.arrival_cycle),
        json_f64(r.admitted_cycle),
        json_f64(r.first_token_cycle),
        json_f64(r.completed_cycle),
        r.tokens,
        r.preemptions,
        r.slo_met()
    )
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
        let report = ServeReport::summarize(
            "test \"sched\"".to_string(),
            vec![record],
            RunTotals {
                duration_cycles: 30.0,
                mean_decode_batch: 1.0,
                peak_concurrency: 1,
                energy_pj: 5.0,
                offered_rps: None,
                preempt: PreemptReport::default(),
                handoff: HandoffReport::default(),
                steps: StepReport::default(),
                prefix: PrefixReport::default(),
            },
            PoolReport::default(),
            vec![],
        );
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
        assert!(json_ok(&lane.to_json()), "{}", lane.to_json());
        assert!(lane.to_json().contains("\"prefix\":{\"hits\":2"));
        assert!(lane.to_json().contains("\"handoff\":{\"handoffs_out\":2"));
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
