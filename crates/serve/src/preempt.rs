//! Preemption and eviction: reclaiming KV-pool bytes from running requests.
//!
//! PR 1's pool was append-only — a reservation lived until its request
//! completed, so one long-context request could wedge the pool exactly
//! where BGPP's memory savings should shine. This module makes the pool a
//! reclaimable resource: under admission pressure the simulator may evict
//! *victims* (strictly lower-[`Priority`](crate::Priority) in-flight
//! requests) to admit a blocked higher-priority request, under one of two
//! policies.
//!
//! # Drop-and-recompute vs swap
//!
//! **Drop-and-recompute** ([`EvictionPolicy::DropRecompute`]) releases the
//! victim's reservation and discards its resident KV outright. Eviction
//! itself is free; the bill arrives at resume time, when the prefill
//! *replays* over the victim's prompt plus every token it had already
//! generated (the tokens themselves were emitted and are kept — only their
//! KV entries must be recomputed). Replay cost is the cycle model's prefill
//! cost at the resume context `c`: a weight-stream constant plus an
//! O(c)·compute term plus an O(c²) attention term, so it grows
//! *superlinearly* in context.
//!
//! **Swap** ([`EvictionPolicy::Swap`]) copies the victim's resident KV
//! bytes out to host memory over the host link at eviction and back at
//! resume, charging `2 × resident_bytes / host_link_bytes_per_cycle`
//! core cycles of device stall in total. Swapped bytes are held in a
//! [`SwapLedger`] (host memory is modeled as unbounded) and the cost is
//! *linear* in context.
//!
//! The two curves cross: **drop-and-recompute wins at short contexts**
//! (little KV to rebuild, and the replay often rides a cheap prefill)
//! while **swap wins at long contexts** (moving `O(c)` bytes beats
//! recomputing `O(c²)` attention). On OPT-1.3B at the default edge-class
//! link the crossover sits at a few thousand tokens of context — the
//! `repro serving_slo` experiment sweeps both sides of it.
//!
//! # SLO-aware goodput
//!
//! Preemption only pays off if it protects latency objectives, so requests
//! carry per-request SLOs ([`SloSpec`](crate::SloSpec)): an optional TTFT
//! deadline and an optional TPOT deadline, both in seconds. A completed
//! request *meets its SLO* iff every deadline it declares is satisfied by
//! its measured latencies. **SLO-aware goodput** counts only the decoded
//! tokens of SLO-met completed requests per second of simulated time
//! ([`ServeReport::slo_goodput_tokens_per_s`](crate::ServeReport) and the
//! per-class [`ServeReport::slo_goodput_for`](crate::ServeReport::slo_goodput_for)):
//! a token delivered after its deadline contributes throughput but not
//! goodput, which is what makes FCFS's head-of-line blocking visible even
//! when it eventually completes every request.

use std::collections::BTreeMap;

use mcbp_mem::HbmConfig;

use crate::request::RequestId;

/// How the simulator reclaims KV-pool bytes under admission pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Never preempt: a blocked request waits for completions to free
    /// bytes (the PR 1 behavior).
    #[default]
    None,
    /// Release the victim's KV and re-enqueue it; on resume the prefill
    /// replays over prompt + already-generated tokens. Cheap eviction,
    /// superlinear (in context) resume cost.
    DropRecompute,
    /// Copy the victim's resident KV to host memory and restore it on
    /// resume, charging host-link transfer cycles both ways. Linear (in
    /// context) cost, no recomputation.
    Swap,
}

/// Configuration of the preemption subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct PreemptConfig {
    /// Eviction policy applied when a higher-priority request cannot
    /// reserve pool bytes.
    pub policy: EvictionPolicy,
    /// Host-link bandwidth charged to swap transfers, in bytes per core
    /// cycle. The default is [`PreemptConfig::host_link_for`] over the
    /// paper's HBM spec: the device's 512-bit/cycle HBM stream divided by
    /// [`HOST_LINK_RATIO`] — an edge-class shared DMA link (the SLIM-style
    /// edge-serving regime), deliberately far below HBM bandwidth so the
    /// swap-vs-recompute tradeoff is visible. Datacenter-class links can
    /// be modeled by raising this figure.
    pub host_link_bytes_per_cycle: f64,
}

/// Ratio between HBM device bandwidth and the modeled host link:
/// 512 bits = 64 B per core cycle of HBM against 0.5 B per core cycle
/// (≈ 0.5 GB/s at the 1 GHz core clock) across the host link.
pub const HOST_LINK_RATIO: f64 = 128.0;

impl Default for PreemptConfig {
    fn default() -> Self {
        PreemptConfig {
            policy: EvictionPolicy::None,
            host_link_bytes_per_cycle: Self::host_link_for(&HbmConfig::default()),
        }
    }
}

impl PreemptConfig {
    /// Host-link bytes per core cycle derived from an HBM spec's aggregate
    /// bandwidth divided by [`HOST_LINK_RATIO`].
    #[must_use]
    pub fn host_link_for(hbm: &HbmConfig) -> f64 {
        hbm.bits_per_core_cycle as f64 / 8.0 / HOST_LINK_RATIO
    }

    /// A drop-and-recompute configuration at the default host link.
    #[must_use]
    pub fn drop_recompute() -> Self {
        PreemptConfig {
            policy: EvictionPolicy::DropRecompute,
            ..PreemptConfig::default()
        }
    }

    /// A swap configuration at the default host link.
    #[must_use]
    pub fn swap() -> Self {
        PreemptConfig {
            policy: EvictionPolicy::Swap,
            ..PreemptConfig::default()
        }
    }

    /// Core cycles one `bytes`-sized transfer occupies the host link
    /// (charged once per direction).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive link bandwidth.
    #[must_use]
    pub fn transfer_cycles(&self, bytes: u64) -> f64 {
        assert!(
            self.host_link_bytes_per_cycle > 0.0,
            "host link bandwidth must be positive"
        );
        bytes as f64 / self.host_link_bytes_per_cycle
    }
}

/// Ledger of KV bytes held in host memory by swapped-out requests.
///
/// Host capacity is modeled as unbounded; the ledger exists so swapped
/// bytes are conserved (swap-in restores exactly what swap-out removed)
/// and so peak host residency is reportable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwapLedger {
    held: BTreeMap<RequestId, u64>,
    held_bytes: u64,
    peak_held_bytes: u64,
    total_out_bytes: u64,
    total_in_bytes: u64,
}

impl SwapLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        SwapLedger::default()
    }

    /// Records `bytes` swapped out for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` already holds swapped bytes (a request cannot be
    /// swapped out twice without an intervening swap-in).
    pub fn swap_out(&mut self, id: RequestId, bytes: u64) {
        assert!(
            self.held.insert(id, bytes).is_none(),
            "request {id} swapped out twice"
        );
        self.held_bytes += bytes;
        self.peak_held_bytes = self.peak_held_bytes.max(self.held_bytes);
        self.total_out_bytes += bytes;
    }

    /// Removes and returns the bytes held for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` holds no swapped bytes.
    pub fn swap_in(&mut self, id: RequestId) -> u64 {
        let bytes = self.held.remove(&id).expect("swap-in without swap-out");
        self.held_bytes -= bytes;
        self.total_in_bytes += bytes;
        bytes
    }

    /// Bytes currently held in host memory.
    #[must_use]
    pub fn held_bytes(&self) -> u64 {
        self.held_bytes
    }

    /// Highest host residency observed.
    #[must_use]
    pub fn peak_held_bytes(&self) -> u64 {
        self.peak_held_bytes
    }

    /// Total bytes ever swapped out.
    #[must_use]
    pub fn total_out_bytes(&self) -> u64 {
        self.total_out_bytes
    }

    /// Total bytes ever swapped back in.
    #[must_use]
    pub fn total_in_bytes(&self) -> u64 {
        self.total_in_bytes
    }

    /// Whether nothing is swapped out.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }
}

/// Ledger of KV bytes in flight between device pools during a
/// prefill→decode handoff (disaggregated serving).
///
/// Shaped like [`SwapLedger`], and enforcing the same conservation
/// discipline: `handoff_out` records the bytes released from the prefill
/// device's pool the moment they leave, `handoff_in` removes exactly
/// those bytes when the decode device re-reserves them, and the
/// double-out / in-without-out panics make a mid-handoff double-free an
/// immediate accounting failure instead of silent byte loss. A request
/// in flight between pools is in *neither* device's active set, so
/// preemption victim selection can never touch it — the ledger's panics
/// are the backstop should that invariant ever break.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HandoffLedger {
    in_flight: BTreeMap<RequestId, u64>,
    in_flight_bytes: u64,
    peak_in_flight_bytes: u64,
    total_out_bytes: u64,
    total_in_bytes: u64,
    handoffs: u64,
}

impl HandoffLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        HandoffLedger::default()
    }

    /// Records `bytes` departing the prefill device's pool for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already in flight (one request cannot be handed
    /// off twice without arriving in between — a double-free).
    pub fn handoff_out(&mut self, id: RequestId, bytes: u64) {
        assert!(
            self.in_flight.insert(id, bytes).is_none(),
            "request {id} handed off twice"
        );
        self.in_flight_bytes += bytes;
        self.peak_in_flight_bytes = self.peak_in_flight_bytes.max(self.in_flight_bytes);
        self.total_out_bytes += bytes;
        self.handoffs += 1;
    }

    /// Removes and returns the bytes in flight for `id` (the decode
    /// device has re-reserved them).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in flight.
    pub fn handoff_in(&mut self, id: RequestId) -> u64 {
        let bytes = self
            .in_flight
            .remove(&id)
            .expect("handoff-in without handoff-out");
        self.in_flight_bytes -= bytes;
        self.total_in_bytes += bytes;
        bytes
    }

    /// Bytes currently riding the link between pools.
    #[must_use]
    pub fn in_flight_bytes(&self) -> u64 {
        self.in_flight_bytes
    }

    /// Highest in-flight byte count observed.
    #[must_use]
    pub fn peak_in_flight_bytes(&self) -> u64 {
        self.peak_in_flight_bytes
    }

    /// Total bytes ever handed off.
    #[must_use]
    pub fn total_out_bytes(&self) -> u64 {
        self.total_out_bytes
    }

    /// Total bytes ever re-reserved on a decode device.
    #[must_use]
    pub fn total_in_bytes(&self) -> u64 {
        self.total_in_bytes
    }

    /// Completed `handoff_out` calls.
    #[must_use]
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Whether nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_host_link_tracks_hbm_spec() {
        let cfg = PreemptConfig::default();
        // 512 bits/cycle = 64 B/cycle over a 128:1 link ratio.
        assert!((cfg.host_link_bytes_per_cycle - 0.5).abs() < 1e-12);
        assert!((cfg.transfer_cycles(1000) - 2000.0).abs() < 1e-9);
        assert_eq!(cfg.policy, EvictionPolicy::None);
    }

    #[test]
    fn ledger_conserves_swapped_bytes() {
        let mut ledger = SwapLedger::new();
        ledger.swap_out(3, 500);
        ledger.swap_out(7, 200);
        assert_eq!(ledger.held_bytes(), 700);
        assert_eq!(ledger.peak_held_bytes(), 700);
        assert_eq!(ledger.swap_in(3), 500);
        ledger.swap_out(3, 100);
        assert_eq!(ledger.swap_in(3), 100);
        assert_eq!(ledger.swap_in(7), 200);
        assert!(ledger.is_empty());
        assert_eq!(ledger.total_out_bytes(), 800);
        assert_eq!(ledger.total_in_bytes(), 800);
        assert_eq!(ledger.peak_held_bytes(), 700);
    }

    #[test]
    #[should_panic(expected = "swapped out twice")]
    fn double_swap_out_is_an_accounting_bug() {
        let mut ledger = SwapLedger::new();
        ledger.swap_out(1, 10);
        ledger.swap_out(1, 20);
    }

    #[test]
    fn handoff_ledger_conserves_bytes_in_flight() {
        let mut ledger = HandoffLedger::new();
        ledger.handoff_out(3, 500);
        ledger.handoff_out(7, 200);
        assert_eq!(ledger.in_flight_bytes(), 700);
        assert_eq!(ledger.peak_in_flight_bytes(), 700);
        assert_eq!(ledger.handoff_in(3), 500);
        ledger.handoff_out(3, 100);
        assert_eq!(ledger.handoff_in(3), 100);
        assert_eq!(ledger.handoff_in(7), 200);
        assert!(ledger.is_empty());
        assert_eq!(ledger.total_out_bytes(), 800);
        assert_eq!(ledger.total_in_bytes(), 800);
        assert_eq!(ledger.handoffs(), 3);
    }

    #[test]
    #[should_panic(expected = "handed off twice")]
    fn double_handoff_out_is_a_double_free() {
        let mut ledger = HandoffLedger::new();
        ledger.handoff_out(1, 10);
        ledger.handoff_out(1, 20);
    }

    #[test]
    #[should_panic(expected = "handoff-in without handoff-out")]
    fn handoff_in_without_out_is_an_accounting_bug() {
        let mut ledger = HandoffLedger::new();
        ledger.handoff_in(9);
    }
}
