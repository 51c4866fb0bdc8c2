//! Serving schedulers: how queue state becomes the next batched step.
//!
//! Every scheduler implements one decision: given the admitted requests
//! awaiting prefill and the streams mid-decode ([`SchedView`]), what does
//! the next accelerator invocation coalesce ([`StepPlan`])? Three
//! implementations ladder up the serving literature:
//!
//! * [`FcfsScheduler`] — run-to-completion, batch 1: the static-serving
//!   baseline that forfeits weight-stream amortization.
//! * [`ContinuousBatchScheduler`] — Orca-style iteration-level
//!   scheduling: decode streams coalesce up to `max_batch` wide and new
//!   prompts join at tick boundaries.
//! * [`PriorityScheduler`] — the same coalescing, but the interactive
//!   class wins spare width and is never displaced by batch-class work.
//!
//! **Chunked prefill.** A waiting prefill carries a cursor
//! ([`SchedEntry::done`]): the simulator advances it by at most
//! `ServeConfig::prefill_chunk` tokens per invocation, so a long prompt
//! occupies the device in chunk-sized steps instead of one monolithic
//! prefill.
//!
//! **The shared step token budget.** A [`StepPlan`] can carry prefill
//! *and* decode members at once, and what bounds one invocation is a
//! shared token budget ([`SchedView::step_token_budget`], from
//! `ServeConfig::step_token_budget`): each prefill member contributes its
//! chunk's tokens, each decode member contributes one token. With a
//! budget set, the coalescing schedulers plan Sarathi-style **mixed
//! steps**: one chunk stream is guaranteed (prefill must progress),
//! decode streams *piggyback* into the leftover budget and width next
//! (they are the latency-critical members and must never be displaced by
//! a second prefill stream), and additional matching prompts join the
//! chunk batch only with what remains — so decode streams keep advancing
//! every step while a long prompt prefills. [`PriorityScheduler`] adds
//! **TTFT protection** on top: an interactive stream's pending *first*
//! token wins a short decode-only step over a batch-class chunk. With
//! `step_token_budget = None` the same schedulers fall back to the
//! pre-budget behavior — strictly phase-alternating prefill/decode steps
//! — which is kept bit-exact as the ablation baseline (see the
//! `step_budget_properties` equivalence test).
//!
//! Schedulers must be deterministic functions of the observed views plus
//! internal state — no randomness, no wall clock — so serving simulations
//! replay exactly. Returning an idle [`StepPlan`] while work is visible is
//! a contract violation and panics the simulator (see [`Scheduler::plan`]).

use crate::request::{Priority, RequestId};

/// One schedulable request as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEntry {
    /// Request id.
    pub id: RequestId,
    /// For a waiting prefill: the context the prefill must cover (the
    /// prompt, plus any already-generated tokens when a drop-and-recompute
    /// victim replays). For a decoding stream: its current context.
    pub len: usize,
    /// The prefill cursor: tokens of `len` already prefilled by earlier
    /// chunk invocations (0 for a fresh prompt, `len` for a decoding
    /// stream). A prompt admitted onto a device holding its
    /// [`crate::SharedPrefix`] resident starts with `done` already at the
    /// prefix length — the scheduler only ever plans the unshared suffix.
    /// Schedulers batch prefills whose `(len, done)` match so one
    /// invocation advances every selected prompt by the same chunk.
    pub done: usize,
    /// Tokens decoded so far. For a decoding stream, 0 means its **first
    /// token is pending** — the TTFT-critical moment the
    /// [`PriorityScheduler`]'s budgeted mode protects with a short
    /// decode-only step. (For a waiting prefill this is the generated
    /// tokens a drop-and-recompute victim replays; fresh prompts carry 0.)
    pub generated: usize,
    /// Scheduling class.
    pub priority: Priority,
}

impl SchedEntry {
    /// Tokens the next chunk invocation would advance this prefill by:
    /// the unprefilled remainder, capped at the configured chunk size
    /// (`None` = monolithic). Zero for a fully prefilled (decoding) entry.
    #[must_use]
    pub fn chunk_tokens(&self, prefill_chunk: Option<usize>) -> usize {
        self.len
            .saturating_sub(self.done)
            .min(prefill_chunk.unwrap_or(usize::MAX))
    }
}

/// What the scheduler can see when planning the next step: admitted
/// requests awaiting prefill and requests mid-decode, both in admission
/// order, plus the configured coalescing limits.
#[derive(Debug, Clone, Copy)]
pub struct SchedView<'a> {
    /// Admitted requests whose prompt has not been processed, in admission
    /// order.
    pub waiting_prefill: &'a [SchedEntry],
    /// Requests mid-decode, in admission order.
    pub decoding: &'a [SchedEntry],
    /// Maximum streams one batched invocation may coalesce (prefill and
    /// decode members combined).
    pub max_batch: usize,
    /// Maximum prefill tokens one invocation advances per request
    /// (`ServeConfig::prefill_chunk`; `None` = monolithic prefill).
    pub prefill_chunk: Option<usize>,
    /// Shared per-step token budget (`ServeConfig::step_token_budget`).
    /// Prefill members count their chunk's tokens, decode members count
    /// one token each; a plan's [`StepPlan::planned_tokens`] must not
    /// exceed it. `None` disables budgeting: the coalescing schedulers
    /// then alternate pure prefill and pure decode steps.
    pub step_token_budget: Option<usize>,
}

/// The next step to execute: one batched accelerator invocation,
/// composed of prefill-chunk members and piggybacked decode members.
///
/// Both lists empty means *idle* — only valid when the simulator sees no
/// work, and it never calls [`Scheduler::plan`] in that state, so an idle
/// plan with work visible is a contract violation and panics the run
/// (silently stalling would lose in-flight requests). A plan with both
/// lists non-empty is a **mixed step**: the chunk and the piggybacked
/// decode tokens share one invocation (and one weight stream — see
/// [`crate::StepCostModel::mixed_step_cost`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepPlan {
    /// Admitted prompts whose next chunk this invocation advances.
    pub prefill: Vec<RequestId>,
    /// Streams this invocation advances by one token.
    pub decode: Vec<RequestId>,
}

impl StepPlan {
    /// The idle plan (no members).
    #[must_use]
    pub fn idle() -> Self {
        StepPlan::default()
    }

    /// A pure prefill step.
    #[must_use]
    pub fn prefill(ids: Vec<RequestId>) -> Self {
        StepPlan {
            prefill: ids,
            decode: Vec::new(),
        }
    }

    /// A pure decode step.
    #[must_use]
    pub fn decode(ids: Vec<RequestId>) -> Self {
        StepPlan {
            prefill: Vec::new(),
            decode: ids,
        }
    }

    /// A mixed step: a prefill chunk with piggybacked decode streams.
    #[must_use]
    pub fn mixed(prefill: Vec<RequestId>, decode: Vec<RequestId>) -> Self {
        StepPlan { prefill, decode }
    }

    /// Whether the plan selects nothing.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.prefill.is_empty() && self.decode.is_empty()
    }

    /// Whether the plan carries both prefill and decode members.
    #[must_use]
    pub fn is_mixed(&self) -> bool {
        !self.prefill.is_empty() && !self.decode.is_empty()
    }

    /// Tokens this plan schedules under the budget accounting: each
    /// prefill member's chunk tokens (looked up in `view`) plus one per
    /// decode member. This is the quantity bounded by
    /// [`SchedView::step_token_budget`].
    #[must_use]
    pub fn planned_tokens(&self, view: &SchedView<'_>) -> usize {
        let chunk: usize = self
            .prefill
            .iter()
            .filter_map(|id| view.waiting_prefill.iter().find(|e| e.id == *id))
            .map(|e| e.chunk_tokens(view.prefill_chunk))
            .sum();
        chunk + self.decode.len()
    }
}

/// A serving scheduler: turns queue state into the next batched step.
///
/// Implementations must be deterministic functions of the observed views
/// (plus internal state) — no randomness, no wall clock — so that serving
/// simulations replay exactly.
pub trait Scheduler {
    /// Display name used in reports.
    fn name(&self) -> &str;

    /// Plans the next step. The simulator only calls this with at least
    /// one request in the views, and panics if the plan is idle or selects
    /// no live request — a scheduler must always make progress. When
    /// [`SchedView::step_token_budget`] is set, the plan's
    /// [`StepPlan::planned_tokens`] must not exceed it (the simulator
    /// asserts this too).
    fn plan(&mut self, view: &SchedView<'_>) -> StepPlan;
}

/// First-come-first-served, run-to-completion, no coalescing: the oldest
/// admitted request is served alone — its prompt, then every decode step
/// at batch 1 — before the next request starts. This is the classic
/// static-serving baseline: weight streaming is never amortized across
/// streams, and a long generation head-of-line-blocks the queue. Priority
/// classes are ignored, and so is the step token budget — a batch-1 step
/// never exceeds a validated budget (one chunk ≤ budget, one decode token
/// ≤ budget), so FCFS plans are budget-legal as-is.
#[derive(Debug, Clone, Default)]
pub struct FcfsScheduler {
    current: Option<RequestId>,
}

impl FcfsScheduler {
    /// A fresh FCFS scheduler.
    #[must_use]
    pub fn new() -> Self {
        FcfsScheduler { current: None }
    }
}

impl Scheduler for FcfsScheduler {
    fn name(&self) -> &str {
        "fcfs"
    }

    fn plan(&mut self, view: &SchedView<'_>) -> StepPlan {
        if let Some(id) = self.current {
            if let Some(entry) = view.decoding.iter().find(|e| e.id == id) {
                return StepPlan::decode(vec![entry.id]);
            }
            self.current = None; // finished (or preempted out of the views)
        }
        // Oldest admitted request next: a decoding stream always predates
        // any waiting prefill (admission order).
        match (view.waiting_prefill.first(), view.decoding.first()) {
            (_, Some(d)) => {
                self.current = Some(d.id);
                StepPlan::decode(vec![d.id])
            }
            (Some(p), None) => {
                self.current = Some(p.id);
                StepPlan::prefill(vec![p.id])
            }
            (None, None) => StepPlan::idle(),
        }
    }
}

/// Continuous batching (Orca-style iteration-level scheduling): every tick
/// coalesces up to `max_batch` active decode streams into one batched
/// invocation, and newly admitted prompts join the running batch at the
/// next tick boundary instead of waiting for a drain.
///
/// Without a step token budget, prefills win the spare width while the
/// decode batch has room, but when prompts and decode streams are both
/// runnable the scheduler *alternates* prefill and decode steps, so a
/// chunked long prompt cannot stall decoding for its whole prefill. With
/// [`SchedView::step_token_budget`] set it plans **mixed steps** instead:
/// the head prompt's chunk is selected first, then decode streams
/// piggyback into the leftover budget and width — decoding advances
/// *every* step while the prompt prefills. Priority classes are ignored
/// (see [`PriorityScheduler`] for the class-aware variant).
#[derive(Debug, Clone, Default)]
pub struct ContinuousBatchScheduler {
    rotate: usize,
    last_was_prefill: bool,
}

impl ContinuousBatchScheduler {
    /// A fresh continuous-batching scheduler.
    #[must_use]
    pub fn new() -> Self {
        ContinuousBatchScheduler::default()
    }
}

impl Scheduler for ContinuousBatchScheduler {
    fn name(&self) -> &str {
        "continuous-batching"
    }

    fn plan(&mut self, view: &SchedView<'_>) -> StepPlan {
        let width = view.max_batch.max(1);
        if let Some(budget) = view.step_token_budget {
            // Budgeted mixed step: one chunk stream is guaranteed, decode
            // streams piggyback into the leftover budget and width, and
            // only then do more matching prompts join the chunk batch.
            if let Some(&lead) = view.waiting_prefill.first() {
                let (prefill, decode_take) = budgeted_composition(
                    view.waiting_prefill,
                    |e| e.len == lead.len && e.done == lead.done,
                    lead.chunk_tokens(view.prefill_chunk),
                    view.decoding.len(),
                    width,
                    budget,
                );
                let decode = rotate_take(&mut self.rotate, view.decoding.iter(), decode_take);
                return StepPlan::mixed(prefill, decode.collect());
            }
            return StepPlan::decode(
                rotate_take(&mut self.rotate, view.decoding.iter(), width.min(budget)).collect(),
            );
        }
        let wants_prefill = !view.waiting_prefill.is_empty() && view.decoding.len() < width;
        // Unbudgeted: alternate prefill chunks with decode steps when both
        // are runnable (decode streams must not starve behind a chunked
        // long prompt); prefill unconditionally when nothing is decoding.
        if wants_prefill && (view.decoding.is_empty() || !self.last_was_prefill) {
            self.last_was_prefill = true;
            let spare = width - view.decoding.len();
            // Batch only prompts matching the queue head's (length,
            // cursor) so one invocation advances every selected prompt by
            // the same chunk and its cost is well-defined.
            let lead = view.waiting_prefill[0];
            let ids: Vec<RequestId> = view
                .waiting_prefill
                .iter()
                .filter(|e| e.len == lead.len && e.done == lead.done)
                .take(spare)
                .map(|e| e.id)
                .collect();
            return StepPlan::prefill(ids);
        }
        self.last_was_prefill = false;
        if view.decoding.is_empty() {
            return StepPlan::idle();
        }
        StepPlan::decode(rotate_take(&mut self.rotate, view.decoding.iter(), width).collect())
    }
}

/// Composes one budgeted mixed step over the prefills matching `matches`
/// (the lead's batching key). The allocation order encodes the
/// Sarathi-style priorities:
///
/// 1. **One chunk stream is guaranteed** — prefill must progress every
///    step, or waiting prompts would starve behind a saturated decode
///    pool. Config validation guarantees the chunk fits the budget
///    (`chunk ≤ budget`, and budgeting requires chunked prefill).
/// 2. **Decode streams claim the leftover budget and width next** — they
///    are the latency-critical members; a second prefill stream must
///    never displace a decode token (greedy prefill packing would stall
///    every decode stream for the whole prefill, which is exactly the
///    alternation pathology the budget exists to fix).
/// 3. **Additional matching prompts** join the chunk batch only with the
///    budget and width left after the decodes.
///
/// Returns the selected prefill ids and how many decode tokens the step
/// may carry.
fn budgeted_composition(
    waiting: &[SchedEntry],
    matches: impl Fn(&SchedEntry) -> bool,
    chunk_tokens: usize,
    decoding_len: usize,
    width: usize,
    budget: usize,
) -> (Vec<RequestId>, usize) {
    let chunk_tokens = chunk_tokens.max(1);
    let decode_take = decoding_len
        .min(width.saturating_sub(1))
        .min(budget.saturating_sub(chunk_tokens));
    let spare_budget = budget.saturating_sub(chunk_tokens + decode_take);
    let extra = (spare_budget / chunk_tokens).min(width.saturating_sub(1 + decode_take));
    let ids: Vec<RequestId> = waiting
        .iter()
        .filter(|e| matches(e))
        .take(1 + extra)
        .map(|e| e.id)
        .collect();
    (ids, decode_take)
}

/// Takes up to `take` ids from `list` starting at a rotating offset
/// (identity when the list fits entirely), advancing the rotation counter.
/// The rotating window is how both coalescing schedulers round-robin an
/// oversubscribed pool fairly instead of starving the tail of the
/// admission order. `list` is walked in place (a class filter over a view
/// needs no copy): the window is the run from the offset to the end,
/// then the wrapped run from the start.
fn rotate_take<'e>(
    rotate: &mut usize,
    list: impl Iterator<Item = &'e SchedEntry> + Clone + 'e,
    take: usize,
) -> impl Iterator<Item = RequestId> + 'e {
    let n = list.clone().count();
    let take = take.min(n);
    let start = if n > take { *rotate % n } else { 0 };
    *rotate = rotate.wrapping_add(take);
    let wrapped = (start + take).saturating_sub(n);
    list.clone()
        .skip(start)
        .take(take)
        .chain(list.take(wrapped))
        .map(|e| e.id)
}

/// Priority-aware continuous batching: the same iteration-level coalescing
/// as [`ContinuousBatchScheduler`] (including prefill/decode alternation
/// for chunked prompts without a budget, and Sarathi-style mixed steps
/// with one), but when the machine is oversubscribed the
/// [`Priority::Interactive`] class is served first — interactive prefills
/// win the spare width (an interactive prompt's next chunk jumps ahead of
/// a half-prefilled batch-class prompt), and interactive decode streams
/// are never displaced from a full batch — or from a mixed step's
/// piggyback slots — by batch-class streams. Within each class the window
/// rotates round-robin so no stream starves its own class. (Eviction of
/// batch-class victims under *pool* pressure is the simulator's job,
/// driven by [`crate::PreemptConfig`]; this scheduler decides only what
/// each accelerator invocation coalesces.)
#[derive(Debug, Clone, Default)]
pub struct PriorityScheduler {
    rotate_interactive: usize,
    rotate_batch: usize,
    last_was_prefill: bool,
}

impl PriorityScheduler {
    /// A fresh priority scheduler.
    #[must_use]
    pub fn new() -> Self {
        PriorityScheduler::default()
    }

    /// Fills up to `take` decode slots interactive-first, padding with
    /// batch-class streams; each class rotates round-robin.
    fn take_decodes(&mut self, decoding: &[SchedEntry], take: usize) -> Vec<RequestId> {
        let class = |p: Priority| decoding.iter().filter(move |e| e.priority == p);
        let mut ids = Vec::with_capacity(take.min(decoding.len()));
        ids.extend(rotate_take(
            &mut self.rotate_interactive,
            class(Priority::Interactive),
            take,
        ));
        let spare = take - ids.len();
        ids.extend(rotate_take(
            &mut self.rotate_batch,
            class(Priority::Batch),
            spare,
        ));
        ids
    }
}

/// The highest-class waiting prefill and its batching key: the class
/// lead's `(priority, len, done)` so one invocation advances every
/// selected prompt by the same chunk.
fn priority_lead(waiting: &[SchedEntry]) -> SchedEntry {
    let best = waiting.iter().map(|e| e.priority).max().expect("non-empty");
    *waiting
        .iter()
        .find(|e| e.priority == best)
        .expect("class present")
}

impl Scheduler for PriorityScheduler {
    fn name(&self) -> &str {
        "priority-cb"
    }

    fn plan(&mut self, view: &SchedView<'_>) -> StepPlan {
        let width = view.max_batch.max(1);
        if let Some(budget) = view.step_token_budget {
            // Budgeted mixed step, class-aware: the highest waiting
            // class's chunk is the guaranteed stream, and interactive
            // decode streams claim the piggyback slots before batch-class
            // streams. One exception — **TTFT protection**: when an
            // interactive stream's first token is pending and the waiting
            // chunk is batch-class, that token must not wait out a
            // chunk-length mixed step (it would erase the TTFT win
            // chunked prefill bought); it gets a short decode-only step
            // and the batch chunk resumes immediately after. An
            // interactive chunk still outranks it: the waiting prompt's
            // own TTFT is on that chunk.
            if !view.waiting_prefill.is_empty() {
                let lead = priority_lead(view.waiting_prefill);
                let ttft_pending = view
                    .decoding
                    .iter()
                    .any(|e| e.priority == Priority::Interactive && e.generated == 0);
                if !(ttft_pending && lead.priority < Priority::Interactive) {
                    let (prefill, decode_take) = budgeted_composition(
                        view.waiting_prefill,
                        |e| e.priority == lead.priority && e.len == lead.len && e.done == lead.done,
                        lead.chunk_tokens(view.prefill_chunk),
                        view.decoding.len(),
                        width,
                        budget,
                    );
                    let decode = self.take_decodes(view.decoding, decode_take);
                    return StepPlan::mixed(prefill, decode);
                }
            }
            return StepPlan::decode(self.take_decodes(view.decoding, width.min(budget)));
        }
        let wants_prefill = !view.waiting_prefill.is_empty() && view.decoding.len() < width;
        if wants_prefill && (view.decoding.is_empty() || !self.last_was_prefill) {
            self.last_was_prefill = true;
            let spare = width - view.decoding.len();
            // Serve the highest waiting class; within it, batch prompts
            // matching the class lead's (length, cursor) so one invocation
            // advances every selected prompt by the same chunk.
            let lead = priority_lead(view.waiting_prefill);
            let ids: Vec<RequestId> = view
                .waiting_prefill
                .iter()
                .filter(|e| e.priority == lead.priority && e.len == lead.len && e.done == lead.done)
                .take(spare)
                .map(|e| e.id)
                .collect();
            return StepPlan::prefill(ids);
        }
        self.last_was_prefill = false;
        if view.decoding.is_empty() {
            return StepPlan::idle();
        }
        // Fill the batch interactive-first, then pad with batch-class
        // streams; rotate within each class when it alone oversubscribes
        // its share of the width.
        StepPlan::decode(self.take_decodes(view.decoding, width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: RequestId, len: usize) -> SchedEntry {
        SchedEntry {
            id,
            len,
            done: 0,
            generated: 0,
            priority: Priority::Batch,
        }
    }

    fn interactive(id: RequestId, len: usize) -> SchedEntry {
        SchedEntry {
            id,
            len,
            done: 0,
            generated: 0,
            priority: Priority::Interactive,
        }
    }

    /// An interactive stream mid-decode (first token already delivered,
    /// so the budgeted TTFT-protection rule does not fire for it).
    fn interactive_stream(id: RequestId, len: usize) -> SchedEntry {
        SchedEntry {
            generated: 1,
            ..interactive(id, len)
        }
    }

    /// An unbudgeted view with the PR-3 defaults (512-token chunks).
    fn view<'a>(
        waiting_prefill: &'a [SchedEntry],
        decoding: &'a [SchedEntry],
        max_batch: usize,
    ) -> SchedView<'a> {
        SchedView {
            waiting_prefill,
            decoding,
            max_batch,
            prefill_chunk: Some(512),
            step_token_budget: None,
        }
    }

    #[test]
    fn fcfs_serves_one_request_to_completion() {
        let mut s = FcfsScheduler::new();
        let waiting = [entry(1, 256), entry(2, 256)];
        assert_eq!(s.plan(&view(&waiting, &[], 8)), StepPlan::prefill(vec![1]));
        let waiting = [entry(2, 256)];
        let decoding = [entry(1, 256)];
        assert_eq!(
            s.plan(&view(&waiting, &decoding, 8)),
            StepPlan::decode(vec![1])
        );
        // Request 1 finished and left the views: move on to request 2.
        assert_eq!(s.plan(&view(&waiting, &[], 8)), StepPlan::prefill(vec![2]));
    }

    #[test]
    fn continuous_batching_coalesces_decodes() {
        let mut s = ContinuousBatchScheduler::new();
        let decoding = [entry(1, 300), entry(2, 280), entry(3, 600)];
        assert_eq!(
            s.plan(&view(&[], &decoding, 8)),
            StepPlan::decode(vec![1, 2, 3])
        );
    }

    #[test]
    fn continuous_batching_prefills_into_spare_width() {
        let mut s = ContinuousBatchScheduler::new();
        let waiting = [entry(7, 256), entry(8, 512), entry(9, 256)];
        let decoding = [entry(1, 300)];
        // Only the prompts matching the queue head's length join its batch.
        assert_eq!(
            s.plan(&view(&waiting, &decoding, 4)),
            StepPlan::prefill(vec![7, 9])
        );
    }

    #[test]
    fn continuous_batching_rotates_when_oversubscribed() {
        let mut s = ContinuousBatchScheduler::new();
        let decoding: Vec<SchedEntry> = (0..6).map(|i| entry(i, 100)).collect();
        let v = view(&[], &decoding, 4);
        let first = s.plan(&v);
        let second = s.plan(&v);
        assert_eq!(first, StepPlan::decode(vec![0, 1, 2, 3]));
        assert_eq!(second, StepPlan::decode(vec![4, 5, 0, 1]));
    }

    #[test]
    fn continuous_batching_alternates_prefill_chunks_with_decode() {
        // Without a budget, a long prompt mid-chunking must not monopolize
        // the device: with decode streams live, every other step is a
        // decode.
        let mut s = ContinuousBatchScheduler::new();
        let waiting = [SchedEntry {
            id: 9,
            len: 8192,
            done: 512,
            generated: 0,
            priority: Priority::Batch,
        }];
        let decoding = [entry(1, 300)];
        let v = view(&waiting, &decoding, 4);
        assert_eq!(s.plan(&v), StepPlan::prefill(vec![9]));
        assert_eq!(s.plan(&v), StepPlan::decode(vec![1]));
        assert_eq!(s.plan(&v), StepPlan::prefill(vec![9]));
        // With nothing decoding the prompt chunks run back to back.
        let v = view(&waiting, &[], 4);
        assert_eq!(s.plan(&v), StepPlan::prefill(vec![9]));
        assert_eq!(s.plan(&v), StepPlan::prefill(vec![9]));
    }

    #[test]
    fn budgeted_step_mixes_chunk_with_piggybacked_decodes() {
        // With a budget, the same long prompt's chunk and the decode
        // streams share every step: no more alternation stalls.
        let mut s = ContinuousBatchScheduler::new();
        let waiting = [SchedEntry {
            id: 9,
            len: 8192,
            done: 512,
            generated: 0,
            priority: Priority::Batch,
        }];
        let decoding = [entry(1, 300), entry(2, 400)];
        let v = SchedView {
            step_token_budget: Some(1024),
            ..view(&waiting, &decoding, 4)
        };
        let plan = s.plan(&v);
        assert_eq!(plan, StepPlan::mixed(vec![9], vec![1, 2]));
        assert!(plan.is_mixed());
        // 512 chunk tokens + 2 decode tokens, within the 1024 budget.
        assert_eq!(plan.planned_tokens(&v), 514);
        // The composition repeats every step (no alternation state).
        assert_eq!(s.plan(&v), StepPlan::mixed(vec![9], vec![1, 2]));
    }

    #[test]
    fn budget_caps_piggybacked_decode_tokens() {
        // Budget 514 leaves exactly 2 piggyback tokens after the 512-token
        // chunk; the third stream must wait (and the window rotates).
        let mut s = ContinuousBatchScheduler::new();
        let waiting = [entry(9, 8192)];
        let decoding = [entry(1, 300), entry(2, 400), entry(3, 500)];
        let v = SchedView {
            step_token_budget: Some(514),
            ..view(&waiting, &decoding, 8)
        };
        let plan = s.plan(&v);
        assert_eq!(plan.prefill, vec![9]);
        assert_eq!(plan.decode.len(), 2);
        assert_eq!(plan.planned_tokens(&v), 514);
        let next = s.plan(&v);
        assert_ne!(plan.decode, next.decode, "piggyback slots must rotate");
    }

    #[test]
    fn budget_caps_prefill_batch_and_decode_width() {
        // Three matching prompts but the 1100-token budget only fits two
        // 512-token chunks; and with no prefill waiting, a budget below
        // the width caps the decode batch.
        let mut s = ContinuousBatchScheduler::new();
        let waiting = [entry(7, 2048), entry(8, 2048), entry(9, 2048)];
        let v = SchedView {
            step_token_budget: Some(1100),
            ..view(&waiting, &[], 8)
        };
        let plan = s.plan(&v);
        assert_eq!(plan.prefill, vec![7, 8]);
        assert_eq!(plan.planned_tokens(&v), 1024);

        let decoding: Vec<SchedEntry> = (0..6).map(|i| entry(i, 100)).collect();
        let v = SchedView {
            step_token_budget: Some(3),
            ..view(&[], &decoding, 8)
        };
        assert_eq!(s.plan(&v).decode.len(), 3);
    }

    #[test]
    fn decodes_claim_budget_slack_before_a_second_prefill_stream() {
        // Two matching 2048-token prompts and a 1024-token budget: greedy
        // packing would spend the whole budget on two chunks and stall
        // every decode stream. The decode members must win the slack; the
        // second prompt joins only when budget is left after them.
        let mut s = ContinuousBatchScheduler::new();
        let waiting = [entry(7, 2048), entry(8, 2048)];
        let decoding = [entry(1, 300), entry(2, 400), entry(3, 500)];
        let v = SchedView {
            step_token_budget: Some(1024),
            ..view(&waiting, &decoding, 8)
        };
        let plan = s.plan(&v);
        assert_eq!(plan.prefill, vec![7], "one guaranteed chunk stream");
        assert_eq!(plan.decode.len(), 3, "all decode streams piggyback");
        // With the decodes served and budget to spare, the second prompt
        // does join.
        let v = SchedView {
            step_token_budget: Some(2048),
            ..view(&waiting, &decoding, 8)
        };
        let plan = s.plan(&v);
        assert_eq!(plan.prefill, vec![7, 8]);
        assert_eq!(plan.decode.len(), 3);
        assert!(plan.planned_tokens(&v) <= 2048);
    }

    #[test]
    fn budgeted_final_chunk_frees_budget_for_decodes() {
        // A 100-token tail chunk only charges 100 tokens, so more decode
        // streams piggyback than after a full 512-token chunk.
        let mut s = ContinuousBatchScheduler::new();
        let waiting = [SchedEntry {
            id: 9,
            len: 612,
            done: 512,
            generated: 0,
            priority: Priority::Batch,
        }];
        let decoding: Vec<SchedEntry> = (0..8).map(|i| entry(i, 100)).collect();
        let v = SchedView {
            step_token_budget: Some(104),
            ..view(&waiting, &decoding, 16)
        };
        let plan = s.plan(&v);
        assert_eq!(plan.prefill, vec![9]);
        assert_eq!(plan.decode.len(), 4, "100 chunk tokens leave 4 slots");
        assert_eq!(plan.planned_tokens(&v), 104);
    }

    #[test]
    fn prefill_batches_require_matching_cursors() {
        // Two same-length prompts at different chunk cursors cannot share
        // one invocation: the chunk they would execute differs.
        let mut s = ContinuousBatchScheduler::new();
        let waiting = [
            SchedEntry {
                id: 1,
                len: 1024,
                done: 512,
                generated: 0,
                priority: Priority::Batch,
            },
            entry(2, 1024),
            SchedEntry {
                id: 3,
                len: 1024,
                done: 512,
                generated: 0,
                priority: Priority::Batch,
            },
        ];
        assert_eq!(
            s.plan(&view(&waiting, &[], 8)),
            StepPlan::prefill(vec![1, 3])
        );
        // The same batching key governs budgeted selection.
        let v = SchedView {
            step_token_budget: Some(4096),
            ..view(&waiting, &[], 8)
        };
        assert_eq!(s.plan(&v).prefill, vec![1, 3]);
    }

    #[test]
    fn priority_prefill_serves_the_interactive_class_first() {
        let mut s = PriorityScheduler::new();
        let waiting = [entry(1, 2048), interactive(2, 512), interactive(3, 512)];
        // The batch-class 2048-token prompt arrived first but waits.
        assert_eq!(
            s.plan(&view(&waiting, &[], 8)),
            StepPlan::prefill(vec![2, 3])
        );
    }

    #[test]
    fn priority_decode_never_displaces_interactive_streams() {
        let mut s = PriorityScheduler::new();
        let decoding = [
            entry(0, 100),
            interactive(1, 100),
            entry(2, 100),
            interactive(3, 100),
            entry(4, 100),
        ];
        let v = view(&[], &decoding, 3);
        // Both interactive streams ride every invocation; the third slot
        // rotates over the three batch-class streams.
        let first = s.plan(&v);
        let second = s.plan(&v);
        assert_eq!(first, StepPlan::decode(vec![1, 3, 0]));
        assert_eq!(&second.decode[..2], &[1, 3]);
        assert_ne!(second.decode[2], 0, "batch slot must rotate");
    }

    #[test]
    fn priority_mixed_step_gives_interactive_decodes_the_piggyback_slots() {
        let mut s = PriorityScheduler::new();
        let waiting = [entry(9, 8192)];
        let decoding = [
            entry(0, 100),
            interactive_stream(1, 100),
            entry(2, 100),
            interactive_stream(3, 100),
        ];
        let v = SchedView {
            step_token_budget: Some(515),
            ..view(&waiting, &decoding, 8)
        };
        let plan = s.plan(&v);
        assert_eq!(plan.prefill, vec![9]);
        // 3 piggyback tokens: both interactive streams first, then one
        // batch-class stream.
        assert_eq!(&plan.decode[..2], &[1, 3]);
        assert_eq!(plan.decode.len(), 3);
        assert_eq!(plan.planned_tokens(&v), 515);
    }

    #[test]
    fn pending_interactive_first_token_wins_a_decode_only_step() {
        // An interactive stream that has not delivered its first token
        // must not wait out a batch-chunk mixed step: the budgeted
        // priority scheduler gives it a short decode-only step, then the
        // batch chunk resumes.
        let mut s = PriorityScheduler::new();
        let waiting = [entry(9, 8192)];
        let fresh = [entry(0, 100), interactive(1, 100)];
        let v = SchedView {
            step_token_budget: Some(1024),
            ..view(&waiting, &fresh, 8)
        };
        let plan = s.plan(&v);
        assert!(
            plan.prefill.is_empty(),
            "no chunk may delay the first token"
        );
        assert_eq!(plan.decode[0], 1);
        // Once the first token is out, chunks mix back in.
        let streams = [entry(0, 100), interactive_stream(1, 101)];
        let v = SchedView {
            step_token_budget: Some(1024),
            ..view(&waiting, &streams, 8)
        };
        let plan = s.plan(&v);
        assert_eq!(plan.prefill, vec![9]);
        assert_eq!(plan.decode.len(), 2);
        // An *interactive* chunk outranks the protection: the waiting
        // prompt's own TTFT rides on that chunk.
        let inter_waiting = [interactive(7, 512)];
        let v = SchedView {
            step_token_budget: Some(1024),
            ..view(&inter_waiting, &fresh, 8)
        };
        let plan = s.plan(&v);
        assert_eq!(plan.prefill, vec![7]);
    }

    #[test]
    fn priority_budgeted_prefill_serves_the_interactive_class_first() {
        let mut s = PriorityScheduler::new();
        let waiting = [entry(1, 2048), interactive(2, 512), interactive(3, 512)];
        let v = SchedView {
            step_token_budget: Some(2048),
            ..view(&waiting, &[], 8)
        };
        let plan = s.plan(&v);
        assert_eq!(plan.prefill, vec![2, 3]);
    }

    #[test]
    fn priority_matches_cb_on_uniform_class() {
        // With a single class the priority scheduler degenerates to plain
        // continuous batching (same coalescing, same rotation) — budgeted
        // or not.
        let decoding: Vec<SchedEntry> = (0..6).map(|i| entry(i, 100)).collect();
        for budget in [None, Some(768)] {
            let mut p = PriorityScheduler::new();
            let mut cb = ContinuousBatchScheduler::new();
            let v = SchedView {
                step_token_budget: budget,
                ..view(&[], &decoding, 4)
            };
            for _ in 0..5 {
                assert_eq!(p.plan(&v), cb.plan(&v));
            }
        }
    }
}
