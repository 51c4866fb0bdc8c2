use mcbp_workloads::Task;

/// Identifier of one request within a [`crate::Workload`].
pub type RequestId = u64;

/// Identifier of one shared prompt prefix (a system prompt, a few-shot
/// header) that many requests reuse. Ids are content-addressed by the
/// workload author: two requests carry the same id **iff** their prompts
/// open with the same `tokens`-long prefix — the serving layer trusts the
/// id and asserts only that lengths agree.
pub type PrefixId = u64;

/// A shared prompt prefix carried by a [`Request`]: the leading `tokens`
/// tokens of its prompt are identical across every request with the same
/// [`PrefixId`], so a device that already holds the prefix's KV can start
/// the prefill past it (see [`crate::KvCachePool`]'s resident-prefix
/// ledger and the prefix-affinity [`crate::DispatchPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedPrefix {
    /// Content-addressed prefix identity.
    pub id: PrefixId,
    /// Prefix length in tokens (must not exceed the prompt length; see
    /// [`crate::ServeConfigError::PrefixExceedsPrompt`]).
    pub tokens: usize,
}

impl SharedPrefix {
    /// A `tokens`-long shared prefix with the given identity.
    #[must_use]
    pub fn new(id: PrefixId, tokens: usize) -> Self {
        SharedPrefix { id, tokens }
    }
}

/// Scheduling class of a request. Ordered: [`Priority::Interactive`]
/// outranks [`Priority::Batch`], and the preemption subsystem only ever
/// evicts victims of *strictly lower* priority than the request being
/// admitted (equal-priority preemption would thrash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Throughput-oriented background work: admitted opportunistically,
    /// first in line for eviction. The default class.
    #[default]
    Batch = 0,
    /// Latency-sensitive foreground traffic: admitted first and may
    /// preempt `Batch` victims under pool pressure.
    Interactive = 1,
}

impl Priority {
    /// Short display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Priority::Batch => "batch",
            Priority::Interactive => "interactive",
        }
    }
}

/// Per-request latency objectives, in seconds of simulated time. `None`
/// deadlines are trivially met; [`SloSpec::default`] declares none, so
/// every completed request without explicit deadlines counts toward
/// SLO-aware goodput.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloSpec {
    /// Time-to-first-token deadline in seconds.
    pub ttft_s: Option<f64>,
    /// Mean time-per-output-token deadline in seconds.
    pub tpot_s: Option<f64>,
}

impl SloSpec {
    /// No deadlines (always met).
    #[must_use]
    pub fn none() -> Self {
        SloSpec::default()
    }

    /// Both deadlines set — the usual interactive-class objective.
    #[must_use]
    pub fn interactive(ttft_s: f64, tpot_s: f64) -> Self {
        SloSpec {
            ttft_s: Some(ttft_s),
            tpot_s: Some(tpot_s),
        }
    }

    /// Whether measured latencies satisfy every declared deadline.
    #[must_use]
    pub fn met(&self, ttft_s: f64, tpot_s: f64) -> bool {
        self.ttft_s.is_none_or(|d| ttft_s <= d) && self.tpot_s.is_none_or(|d| tpot_s <= d)
    }
}

/// One inference request: a prompt to prefill and a number of tokens to
/// decode, with an arrival time on the simulated clock, a scheduling
/// priority, and optional latency SLOs.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Stable id (index order of generation).
    pub id: RequestId,
    /// Arrival time in core cycles: non-negative, and never NaN.
    /// Closed-loop workloads use [`f64::INFINITY`] for requests released
    /// only upon a completion (see [`crate::ServeSim::validate_workload`]).
    pub arrival_cycle: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Number of tokens to decode.
    pub decode_len: usize,
    /// Task name the request was derived from (for reporting).
    pub task_name: &'static str,
    /// Scheduling class.
    pub priority: Priority,
    /// Latency objectives.
    pub slo: SloSpec,
    /// Shared prompt prefix, if the prompt opens with one (`None` for a
    /// fully unique prompt). A device holding the prefix's KV resident
    /// starts this request's prefill past it.
    pub prefix: Option<SharedPrefix>,
}

impl Request {
    /// Builds a request from a benchmark [`Task`] shape, in the default
    /// [`Priority::Batch`] class with no SLOs.
    #[must_use]
    pub fn from_task(id: RequestId, task: &Task, arrival_cycle: f64) -> Self {
        Request {
            id,
            arrival_cycle,
            prompt_len: task.prompt_len,
            decode_len: task.decode_len,
            task_name: task.name,
            priority: Priority::default(),
            slo: SloSpec::default(),
            prefix: None,
        }
    }

    /// A copy in the given scheduling class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// A copy whose prompt opens with the given shared prefix.
    #[must_use]
    pub fn with_prefix(mut self, prefix: SharedPrefix) -> Self {
        self.prefix = Some(prefix);
        self
    }

    /// A copy with the given latency objectives.
    #[must_use]
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = slo;
        self
    }

    /// Context length once generation completes.
    #[must_use]
    pub fn final_context(&self) -> usize {
        self.prompt_len + self.decode_len
    }
}

/// How a request left the serving simulator: the final state on its
/// [`RequestRecord`].
///
/// On its device a request first **waits**: as a fresh arrival; after an
/// eviction as a suspended victim (drop-and-recompute replays the chunks
/// it had completed, swap restores its KV and cursor from host memory);
/// or, on a disaggregated fleet's decode device, as a handoff landing over
/// the host link. Admission makes it **active**: its prefill cursor
/// advances chunk by chunk under [`crate::ServeConfig::prefill_chunk`],
/// then it decodes one token per step, and under a step token budget one
/// mixed step can advance prefilling and decoding requests together.
/// Eviction can return an active request to waiting between any two
/// steps, with its cursor (or token count) as the last step left it.
/// Finally the request is **recorded** in one of these states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// All tokens decoded and the KV residency released.
    Completed,
    /// Rejected: its peak KV residency can never fit the pool budget.
    Dropped,
}

/// Per-request timeline recorded by the simulator (cycles; converted to
/// seconds in [`crate::ServeReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// The request.
    pub request: Request,
    /// Final state ([`RequestState::Completed`] or [`RequestState::Dropped`]).
    pub state: RequestState,
    /// When the KV-pool reservation first succeeded. For a dropped request
    /// this is the rejection instant (as are the other cycle fields), so
    /// its latency accessors are not meaningful and aggregate latency/stall
    /// statistics are computed over completed requests only.
    pub admitted_cycle: f64,
    /// When the first decoded token completed (TTFT reference point).
    pub first_token_cycle: f64,
    /// When the last token completed.
    pub completed_cycle: f64,
    /// Tokens actually decoded.
    pub tokens: usize,
    /// Times this request was evicted from the pool and later resumed.
    pub preemptions: usize,
}

impl RequestRecord {
    /// Whether the request ran to completion (as opposed to being
    /// dropped).
    #[must_use]
    pub fn completed(&self) -> bool {
        matches!(self.state, RequestState::Completed)
    }

    /// Queueing delay before admission, in cycles.
    #[must_use]
    pub fn admission_stall_cycles(&self) -> f64 {
        (self.admitted_cycle - self.arrival_cycle()).max(0.0)
    }

    /// Arrival cycle (0 for closed-loop releases at simulation start).
    #[must_use]
    pub fn arrival_cycle(&self) -> f64 {
        if self.request.arrival_cycle.is_finite() {
            self.request.arrival_cycle
        } else {
            self.admitted_cycle
        }
    }

    /// Time to first token, in cycles.
    #[must_use]
    pub fn ttft_cycles(&self) -> f64 {
        self.first_token_cycle - self.arrival_cycle()
    }

    /// Mean time per decoded output token after the first, in cycles.
    /// Falls back to the TTFT for single-token requests.
    #[must_use]
    pub fn tpot_cycles(&self) -> f64 {
        if self.tokens > 1 {
            (self.completed_cycle - self.first_token_cycle) / (self.tokens - 1) as f64
        } else {
            self.ttft_cycles()
        }
    }

    /// End-to-end latency (arrival to last token), in cycles.
    #[must_use]
    pub fn e2e_cycles(&self) -> f64 {
        self.completed_cycle - self.arrival_cycle()
    }

    /// Whether the request completed within every deadline it declared.
    /// Dropped requests never meet their SLO. A single-token request has
    /// no inter-token gaps, so its TPOT deadline is trivially met — the
    /// [`RequestRecord::tpot_cycles`] TTFT fallback is a reporting
    /// convention and must not gate the SLO.
    #[must_use]
    pub fn slo_met(&self) -> bool {
        let tpot_s = if self.tokens > 1 {
            self.tpot_cycles() / crate::CLOCK_HZ
        } else {
            0.0
        };
        matches!(self.state, RequestState::Completed)
            && self
                .request
                .slo
                .met(self.ttft_cycles() / crate::CLOCK_HZ, tpot_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_task_copies_shape() {
        let r = Request::from_task(3, &Task::mbpp(), 1e6);
        assert_eq!(r.prompt_len, 1024);
        assert_eq!(r.decode_len, 1024);
        assert_eq!(r.final_context(), 2048);
        assert_eq!(r.task_name, "MBPP");
        assert_eq!(r.priority, Priority::Batch);
        assert_eq!(r.slo, SloSpec::none());
        assert_eq!(r.prefix, None);
    }

    #[test]
    fn with_prefix_stamps_the_shared_prefix() {
        let r = Request::from_task(0, &Task::mnli(), 0.0).with_prefix(SharedPrefix::new(7, 128));
        assert_eq!(r.prefix, Some(SharedPrefix { id: 7, tokens: 128 }));
    }

    #[test]
    fn priority_orders_interactive_above_batch() {
        assert!(Priority::Interactive > Priority::Batch);
        assert_eq!(Priority::default(), Priority::Batch);
    }

    #[test]
    fn slo_deadlines_gate_on_both_axes() {
        let slo = SloSpec::interactive(0.5, 0.05);
        assert!(slo.met(0.5, 0.05));
        assert!(!slo.met(0.51, 0.01));
        assert!(!slo.met(0.1, 0.06));
        assert!(SloSpec::none().met(1e9, 1e9));
    }

    #[test]
    fn record_derived_latencies() {
        let rec = RequestRecord {
            request: Request::from_task(0, &Task::cola(), 100.0),
            state: RequestState::Completed,
            admitted_cycle: 300.0,
            first_token_cycle: 1100.0,
            completed_cycle: 2600.0,
            tokens: 16,
            preemptions: 0,
        };
        assert!((rec.admission_stall_cycles() - 200.0).abs() < 1e-12);
        assert!((rec.ttft_cycles() - 1000.0).abs() < 1e-12);
        assert!((rec.tpot_cycles() - 100.0).abs() < 1e-12);
        assert!((rec.e2e_cycles() - 2500.0).abs() < 1e-12);
        assert!(rec.slo_met(), "no declared deadlines are trivially met");
    }

    #[test]
    fn record_slo_uses_declared_deadlines() {
        let mut rec = RequestRecord {
            request: Request::from_task(0, &Task::cola(), 0.0)
                .with_priority(Priority::Interactive)
                .with_slo(SloSpec::interactive(1e-6, 1e-7)),
            state: RequestState::Completed,
            admitted_cycle: 0.0,
            first_token_cycle: 900.0, // 0.9 us TTFT
            completed_cycle: 2400.0,  // 0.1 us TPOT over 16 tokens
            tokens: 16,
            preemptions: 1,
        };
        assert!(rec.slo_met());
        rec.request.slo = SloSpec::interactive(1e-6, 0.9e-7);
        assert!(!rec.slo_met(), "TPOT deadline must gate");
        rec.state = RequestState::Dropped;
        rec.request.slo = SloSpec::none();
        assert!(!rec.slo_met(), "dropped requests never meet an SLO");
    }

    #[test]
    fn single_token_request_has_no_tpot_gaps_to_miss() {
        // One decoded token means no inter-token interval exists; only the
        // TTFT deadline can gate. The tpot_cycles() TTFT fallback must not
        // be compared against the (much tighter) TPOT deadline.
        let mut rec = RequestRecord {
            request: Request::from_task(0, &Task::cola().with_decode(1), 0.0)
                .with_slo(SloSpec::interactive(1e-6, 1e-9)),
            state: RequestState::Completed,
            admitted_cycle: 0.0,
            first_token_cycle: 900.0, // 0.9 us TTFT, within the 1 us deadline
            completed_cycle: 900.0,
            tokens: 1,
            preemptions: 0,
        };
        assert!(rec.slo_met(), "TPOT cannot be missed with a single token");
        rec.request.slo = SloSpec::interactive(0.8e-6, 1e-9);
        assert!(!rec.slo_met(), "the TTFT deadline still gates");
    }
}
