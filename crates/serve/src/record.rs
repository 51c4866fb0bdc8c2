//! Recording hooks: the event history a traced serving run leaves behind.
//!
//! The simulator is deterministic — a `(workload, scheduler, config)`
//! triple replays bit-identically — so a recorded run is fully described
//! by its materialized [`Workload`] plus the event stream the devices
//! emitted while serving it. [`ServeSim::run_spec`] with a
//! [`RunSpec::traced`] spec returns that history as a [`RunTrace`]
//! alongside the ordinary [`crate::ServeReport`]; the
//! `mcbp-trace` crate serializes it to a compact on-disk format, replays
//! it (re-driving the simulation from the recorded arrivals, bypassing
//! the [`crate::LoadGenerator`] RNG), and samples it into weighted
//! representative phases.
//!
//! Five event groups cover the run's arrival/admission/schedule/
//! preemption/handoff history:
//!
//! * [`TraceEvent::Route`] — the dispatcher assigned an arrived request
//!   to a fleet device (single-device runs route everything to device 0).
//! * [`TraceEvent::Admit`] / [`TraceEvent::Drop`] — admission reserved a
//!   request's peak KV residency (fresh or resumed after eviction), or
//!   rejected a request that can never fit.
//! * [`TraceEvent::Step`] — one executed scheduler step: its composition
//!   (prefill/decode members and tokens), the queue and pool state it
//!   left behind, and the completions it retired. These are the samples
//!   the SimPoint-style interval features are built from.
//! * [`TraceEvent::Preempt`] — admission pressure evicted a victim
//!   (drop-and-recompute when `swapped_bytes == 0`, swap otherwise).
//! * [`TraceEvent::Handoff`] — a disaggregated fleet's stage-2 routing
//!   decision: a finished prefill's KV bytes departed a
//!   [`crate::DeviceRole::Prefill`] device for a decode-capable device
//!   over the modeled host link.
//!
//! Recording is opt-in per run: untraced runs allocate no event storage
//! and stay bit-exact with their pre-hook behavior.
//!
//! [`ServeSim::run_spec`]: crate::ServeSim::run_spec
//! [`RunSpec::traced`]: crate::RunSpec::traced

use crate::arrival::Workload;
use crate::request::RequestId;

/// One recorded event of a traced serving run. All cycle fields are on
/// the owning device's clock (the simulated 1 GHz core clock shared by
/// the whole fleet; device clocks advance asynchronously).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// The dispatcher assigned an arrived request to a fleet device.
    Route {
        /// The routed request.
        id: RequestId,
        /// Target device index.
        device: u32,
        /// The request's (finite) arrival cycle at dispatch time —
        /// closed-loop releases carry the cycle the slot opened.
        cycle: f64,
    },
    /// Admission reserved a request's peak KV residency on a device.
    Admit {
        /// Admitting device index.
        device: u32,
        /// Device clock at admission.
        cycle: f64,
        /// The admitted request.
        id: RequestId,
        /// Whether this admission resumed an evicted victim (as opposed
        /// to a fresh arrival).
        resumed: bool,
        /// Prefill tokens skipped because the request's shared prefix
        /// was already resident (0 for a miss or a prefix-free prompt).
        reused_prefix_tokens: u32,
        /// Dispatched-but-unadmitted requests left queued on the device
        /// after this admission.
        queue_depth: u32,
    },
    /// A request was rejected: its peak KV residency can never fit the
    /// device's pool budget.
    Drop {
        /// Rejecting device index.
        device: u32,
        /// Device clock at rejection.
        cycle: f64,
        /// The dropped request.
        id: RequestId,
    },
    /// One executed scheduler step (one batched accelerator invocation).
    Step {
        /// Executing device index.
        device: u32,
        /// Device clock when the step began.
        start_cycle: f64,
        /// Device clock when the step retired (start plus the invocation
        /// latency).
        end_cycle: f64,
        /// Prefill-chunk members the step advanced.
        prefill_streams: u32,
        /// Decode members the step advanced (one token each).
        decode_streams: u32,
        /// Prompt tokens the step's prefill chunks covered.
        prefill_tokens: u32,
        /// Dispatched-but-unadmitted requests queued on the device after
        /// the step.
        queue_depth: u32,
        /// Admitted in-flight requests still active after the step.
        active_streams: u32,
        /// KV-pool bytes reserved on the device after the step.
        pool_reserved_bytes: u64,
        /// Requests the step completed (all tokens decoded).
        completions: u32,
    },
    /// Admission pressure evicted a lower-priority victim from a device.
    Preempt {
        /// Evicting device index.
        device: u32,
        /// Device clock at eviction (after any swap-out stall).
        cycle: f64,
        /// The evicted request.
        victim: RequestId,
        /// KV bytes spilled over the host link (0 under
        /// drop-and-recompute, which discards the victim's KV instead).
        swapped_bytes: u64,
    },
    /// A finished prefill's KV left a prefill-pool device for a
    /// decode-capable device (disaggregated serving, stage-2 routing).
    Handoff {
        /// The handed-off request.
        id: RequestId,
        /// Source (prefill) device index.
        from: u32,
        /// Destination (decode-capable) device index.
        to: u32,
        /// Departure instant: the source device's clock at prefill
        /// completion, when the bytes left its pool.
        cycle: f64,
        /// Arrival instant: departure plus the host-link transfer cycles;
        /// the earliest the destination can re-reserve the bytes.
        arrival_cycle: f64,
        /// KV bytes riding the link (the request's full prefilled KV).
        bytes: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp on its device's clock (a [`TraceEvent::Step`]
    /// reports its retirement instant).
    #[must_use]
    pub fn cycle(&self) -> f64 {
        match *self {
            TraceEvent::Route { cycle, .. }
            | TraceEvent::Admit { cycle, .. }
            | TraceEvent::Drop { cycle, .. }
            | TraceEvent::Preempt { cycle, .. }
            | TraceEvent::Handoff { cycle, .. } => cycle,
            TraceEvent::Step { end_cycle, .. } => end_cycle,
        }
    }

    /// The fleet device the event occurred on (a [`TraceEvent::Handoff`]
    /// reports its *source* device — where the bytes departed).
    #[must_use]
    pub fn device(&self) -> u32 {
        match *self {
            TraceEvent::Route { device, .. }
            | TraceEvent::Admit { device, .. }
            | TraceEvent::Drop { device, .. }
            | TraceEvent::Step { device, .. }
            | TraceEvent::Preempt { device, .. } => device,
            TraceEvent::Handoff { from, .. } => from,
        }
    }

    /// Rank of the event kind within one `(cycle, device)` tie group —
    /// the third component of the explicit total order key (see
    /// [`TraceEvent::order_key`]). Route decisions come first (the
    /// dispatcher observes the fleet at the arrival instant, before the
    /// target device reacts), then the step retiring at that instant,
    /// then the admission pass it unblocks: evictions before the
    /// admissions they make room for, rejections last, and handoff
    /// departures after everything else at the instant (the stage-2
    /// routing decision happens in the fixpoint *after* the step that
    /// finished the prefill and the admissions it unblocked).
    #[must_use]
    pub fn kind_rank(&self) -> u8 {
        match self {
            TraceEvent::Route { .. } => 0,
            TraceEvent::Step { .. } => 1,
            TraceEvent::Preempt { .. } => 2,
            TraceEvent::Admit { .. } => 3,
            TraceEvent::Drop { .. } => 4,
            TraceEvent::Handoff { .. } => 5,
        }
    }

    /// The event's explicit total order key `(cycle, device, kind)`. A
    /// merged timeline sorts by this key plus each event's sequence
    /// number within its source log (`(cycle, device, kind, seq)`), which
    /// pins every tie: same-cycle events from different devices order by
    /// device, same-device ties by kind rank, and remaining ties by
    /// emission order. Nothing is left to sort stability or log
    /// concatenation order, so sequential and parallel fleet drives merge
    /// identical per-device logs into identical timelines.
    #[must_use]
    pub fn order_key(&self) -> (f64, u32, u8) {
        (self.cycle(), self.device(), self.kind_rank())
    }
}

/// Merges per-source event logs (the router's dispatch log and each
/// device's log, each individually in emission order) onto one timeline
/// ordered by the explicit `(cycle, device, kind, seq)` key — `seq` being
/// the event's index within its source log. The result is independent of
/// the order in which the source logs are supplied.
pub(crate) fn merge_event_logs(logs: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut keyed: Vec<((f64, u32, u8), usize, TraceEvent)> = logs
        .into_iter()
        .flat_map(|log| {
            log.into_iter()
                .enumerate()
                .map(|(seq, ev)| (ev.order_key(), seq, ev))
        })
        .collect();
    keyed.sort_by(|a, b| {
        let ((ac, ad, ak), aseq, _) = a;
        let ((bc, bd, bk), bseq, _) = b;
        ac.total_cmp(bc)
            .then(ad.cmp(bd))
            .then(ak.cmp(bk))
            .then(aseq.cmp(bseq))
    });
    keyed.into_iter().map(|(_, _, ev)| ev).collect()
}

/// The full recorded history of one traced serving run: the materialized
/// workload that drove it (arrivals, shapes, classes, SLOs, prefixes —
/// everything a replay needs, no generator RNG required) plus the merged
/// event stream, sorted by the explicit `(cycle, device, kind, seq)`
/// total order key ([`TraceEvent::order_key`]) — fully pinned, so
/// sequential and parallel fleet drives produce the identical stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// The workload the run served — replaying it under the same
    /// configuration and scheduler reproduces the original
    /// [`crate::ServeReport`] bit-exactly.
    pub workload: Workload,
    /// Fleet width of the recorded run.
    pub devices: u32,
    /// Recorded events, cycle-sorted.
    pub events: Vec<TraceEvent>,
}

impl RunTrace {
    /// Executed scheduler steps in the trace.
    #[must_use]
    pub fn step_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Step { .. }))
            .count() as u64
    }

    /// Admissions in the trace (fresh and resumed).
    #[must_use]
    pub fn admission_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Admit { .. }))
            .count() as u64
    }

    /// Evictions in the trace.
    #[must_use]
    pub fn preemption_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Preempt { .. }))
            .count() as u64
    }

    /// Prefill→decode KV handoffs in the trace.
    #[must_use]
    pub fn handoff_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Handoff { .. }))
            .count() as u64
    }

    /// The last recorded event cycle (0 for an empty trace) — the span
    /// the SimPoint-style sampler slices into fixed-length intervals.
    #[must_use]
    pub fn span_cycles(&self) -> f64 {
        self.events
            .iter()
            .map(TraceEvent::cycle)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors_cover_every_kind() {
        let events = [
            TraceEvent::Route {
                id: 1,
                device: 2,
                cycle: 10.0,
            },
            TraceEvent::Admit {
                device: 2,
                cycle: 11.0,
                id: 1,
                resumed: false,
                reused_prefix_tokens: 0,
                queue_depth: 0,
            },
            TraceEvent::Drop {
                device: 0,
                cycle: 12.0,
                id: 9,
            },
            TraceEvent::Step {
                device: 1,
                start_cycle: 5.0,
                end_cycle: 13.0,
                prefill_streams: 1,
                decode_streams: 2,
                prefill_tokens: 512,
                queue_depth: 3,
                active_streams: 3,
                pool_reserved_bytes: 4096,
                completions: 1,
            },
            TraceEvent::Preempt {
                device: 1,
                cycle: 14.0,
                victim: 4,
                swapped_bytes: 0,
            },
            TraceEvent::Handoff {
                id: 1,
                from: 2,
                to: 0,
                cycle: 15.0,
                arrival_cycle: 20.0,
                bytes: 4096,
            },
        ];
        let cycles: Vec<f64> = events.iter().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0]);
        let devices: Vec<u32> = events.iter().map(TraceEvent::device).collect();
        assert_eq!(devices, vec![2, 2, 0, 1, 1, 2]);
        let ranks: Vec<u8> = events.iter().map(TraceEvent::kind_rank).collect();
        assert_eq!(ranks, vec![0, 3, 4, 1, 2, 5]);
    }

    /// Same-cycle events from multiple devices must land in a unique
    /// order regardless of the order the source logs are supplied in —
    /// the regression the explicit `(cycle, device, kind, seq)` key
    /// exists for. A bare stable sort on `cycle` would order these ties
    /// by log concatenation order instead.
    #[test]
    fn merge_orders_same_cycle_events_by_device_kind_then_seq() {
        let route = |id, device| TraceEvent::Route {
            id,
            device,
            cycle: 10.0,
        };
        let admit = |device, id| TraceEvent::Admit {
            device,
            cycle: 10.0,
            id,
            resumed: false,
            reused_prefix_tokens: 0,
            queue_depth: 0,
        };
        let step = |device| TraceEvent::Step {
            device,
            start_cycle: 4.0,
            end_cycle: 10.0,
            prefill_streams: 1,
            decode_streams: 0,
            prefill_tokens: 8,
            queue_depth: 0,
            active_streams: 1,
            pool_reserved_bytes: 64,
            completions: 1,
        };
        // Route log plus two device logs, every event at cycle 10.
        let route_log = vec![route(1, 1), route(2, 0)];
        let dev0 = vec![step(0), admit(0, 2)];
        let dev1 = vec![step(1), admit(1, 1), admit(1, 3)];
        let forward = merge_event_logs(vec![route_log.clone(), dev0.clone(), dev1.clone()]);
        let reversed = merge_event_logs(vec![dev1, dev0, route_log]);
        assert_eq!(forward, reversed, "merge must not depend on log order");
        // Ties group by device (a route carries its *target* device),
        // then by kind within a device — route, retiring step, then the
        // admissions it unblocks, in emission order.
        let expect = vec![
            route(2, 0),
            step(0),
            admit(0, 2),
            route(1, 1),
            step(1),
            admit(1, 1),
            admit(1, 3),
        ];
        assert_eq!(forward, expect);
    }

    #[test]
    fn run_trace_counters() {
        let trace = RunTrace {
            workload: Workload {
                requests: Vec::new(),
                closed_loop: None,
            },
            devices: 1,
            events: vec![
                TraceEvent::Admit {
                    device: 0,
                    cycle: 1.0,
                    id: 0,
                    resumed: false,
                    reused_prefix_tokens: 0,
                    queue_depth: 0,
                },
                TraceEvent::Step {
                    device: 0,
                    start_cycle: 1.0,
                    end_cycle: 2.0,
                    prefill_streams: 1,
                    decode_streams: 0,
                    prefill_tokens: 64,
                    queue_depth: 0,
                    active_streams: 1,
                    pool_reserved_bytes: 64,
                    completions: 0,
                },
                TraceEvent::Preempt {
                    device: 0,
                    cycle: 3.0,
                    victim: 0,
                    swapped_bytes: 128,
                },
                TraceEvent::Handoff {
                    id: 0,
                    from: 0,
                    to: 0,
                    cycle: 4.0,
                    arrival_cycle: 6.0,
                    bytes: 256,
                },
            ],
        };
        assert_eq!(trace.step_count(), 1);
        assert_eq!(trace.admission_count(), 1);
        assert_eq!(trace.preemption_count(), 1);
        assert_eq!(trace.handoff_count(), 1);
        // Span is the last *departure* cycle: a handoff orders by when it
        // leaves the source, not when it lands.
        assert!((trace.span_cycles() - 4.0).abs() < 1e-12);
    }
}
