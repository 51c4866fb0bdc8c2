//! The KV-cache pool: byte-budgeted admission control with a per-request
//! reservation ledger.
//!
//! # Reservation-ledger invariants
//!
//! Three invariants make the pool's accounting unbreakable from outside:
//!
//! 1. **Peak reservation at admission.** [`KvCachePool::try_reserve`]
//!    reserves a request's residency at *final* context up front (scaled
//!    by the BGPP attention-keep ratio, [`request_kv_bytes`]), so
//!    decode-time growth can never drive the pool over budget — the
//!    budget check happens once, at admission, and
//!    `reserved_bytes ≤ budget_bytes` holds at every instant.
//! 2. **Residency within reservation.** Actual residency grows token by
//!    token (or chunk by chunk under chunked prefill) via
//!    [`KvCachePool::grow_resident`] and asserts
//!    `resident ≤ reserved` per request: one stream can never steal
//!    another's admitted bytes.
//! 3. **Ledger-sourced releases.** [`KvCachePool::release`] frees exactly
//!    what the internal ledger recorded for the request — callers cannot
//!    misstate a release, so accounting cannot drift even if a caller's
//!    own bookkeeping disagrees.
//!
//! Double reservation, double release, and over-growth are accounting
//! bugs and panic immediately rather than corrupting the budget. The
//! property tests in `crates/serve/tests/pool_properties.rs` drive
//! random admit/grow/release/evict interleavings against these
//! invariants.
//!
//! # The resident-prefix ledger
//!
//! Shared prompt prefixes (system prompts, few-shot headers — the
//! serving-granularity face of the repetitiveness MCBP's BRCR exploits at
//! the bit level) are tracked as **pool-level objects**, not per-request
//! bytes. When a request's prefill crosses its declared
//! [`crate::SharedPrefix`] boundary, [`KvCachePool::promote_prefix`]
//! splits the prefix's KV bytes out of the request's reservation into a
//! refcounted prefix entry (or, if another request already materialized
//! it, *sheds* the duplicate bytes back to the pool). Later requests with
//! the same prefix reserve only their unshared suffix and take a
//! reference ([`KvCachePool::ref_prefix`]).
//!
//! Prefix entries obey three rules, driven by the prefix property tests:
//!
//! 1. **Pinned while referenced.** An entry with `refs > 0` is never
//!    reclaimed — its bytes stay counted in `reserved_bytes` and
//!    `resident_bytes`.
//! 2. **Reclaimable last.** An unreferenced entry is a warm cache line:
//!    [`KvCachePool::reclaim_unreferenced_prefix`] frees entries one at a
//!    time (fewest tokens first — the cheapest expected re-prefill if a
//!    future request misses — with id as the deterministic tie-break),
//!    and the admission path turns to it only after victim eviction
//!    cannot make room.
//! 3. **Byte conservation.** Promotion moves bytes between ledgers
//!    without changing the pool totals; shedding and reclaiming return
//!    exactly the entry's bytes.
//!
//! ```
//! use mcbp_serve::KvCachePool;
//!
//! let mut pool = KvCachePool::with_budget(1000);
//! assert!(pool.try_reserve(1, 600));
//! assert!(!pool.try_reserve(2, 500), "over budget");
//! pool.grow_resident(1, 250);
//! let freed = pool.release(1);
//! assert_eq!((freed.reserved_bytes, freed.resident_bytes), (600, 250));
//! assert!(pool.is_idle());
//! ```

use std::collections::BTreeMap;

use mcbp_mem::HbmConfig;
use mcbp_model::LlmConfig;

use crate::request::{PrefixId, RequestId};

/// One shared prompt prefix resident in the pool: its token length, its
/// KV byte footprint, and how many in-flight requests currently reference
/// it (an entry with `refs == 0` is a warm cache line, reclaimable under
/// admission pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixResidency {
    /// Prefix length in tokens.
    pub tokens: usize,
    /// KV bytes the prefix pins in the pool.
    pub bytes: u64,
    /// In-flight requests currently referencing the prefix.
    pub refs: usize,
}

/// One request's slice of the pool: its admission-time reservation and the
/// bytes it has actually materialized so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reservation {
    /// Bytes reserved at admission (the request's peak residency).
    pub reserved_bytes: u64,
    /// Bytes currently resident (grows token by token, never past the
    /// reservation).
    pub resident_bytes: u64,
}

/// Byte-budgeted KV-cache pool with conservative peak reservations,
/// tracked per request.
///
/// Admission control reserves a request's **peak** residency (its KV bytes
/// at final context, scaled by the BGPP attention-keep ratio) up front, so
/// the pool can never be driven over budget by decode-time growth — the
/// invariant the serving integration and property tests check. Every
/// reservation is keyed by [`RequestId`] in an internal ledger, so release
/// amounts are taken from the ledger rather than trusted from the caller:
/// accounting cannot drift even if a caller's own bookkeeping disagrees.
/// Actual residency is tracked separately and integrated over time for
/// occupancy reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCachePool {
    budget_bytes: u64,
    reserved_bytes: u64,
    resident_bytes: u64,
    peak_resident_bytes: u64,
    peak_reserved_bytes: u64,
    occupancy_integral: f64,
    last_update_cycle: f64,
    idle_cycles: f64,
    ledger: BTreeMap<RequestId, Reservation>,
    prefixes: BTreeMap<PrefixId, PrefixResidency>,
}

impl KvCachePool {
    /// A pool with an explicit byte budget.
    #[must_use]
    pub fn with_budget(budget_bytes: u64) -> Self {
        KvCachePool {
            budget_bytes,
            reserved_bytes: 0,
            resident_bytes: 0,
            peak_resident_bytes: 0,
            peak_reserved_bytes: 0,
            occupancy_integral: 0.0,
            last_update_cycle: 0.0,
            idle_cycles: 0.0,
            ledger: BTreeMap::new(),
            prefixes: BTreeMap::new(),
        }
    }

    /// Budgets the pool from the device memory spec: HBM capacity minus the
    /// resident INT8 decoder weights (1 byte per parameter, the paper's
    /// deployment precision), across `devices` data-parallel devices (each
    /// holds a weight replica and its own KV shard).
    ///
    /// # Panics
    ///
    /// Panics if the model's weights do not fit the device memory.
    #[must_use]
    pub fn from_memory_spec(hbm: &HbmConfig, model: &LlmConfig, devices: usize) -> Self {
        let capacity = hbm.capacity_bytes;
        let weights = model.decoder_params() + model.hidden as u64 * model.vocab as u64;
        assert!(weights < capacity, "model weights exceed device memory");
        Self::with_budget((capacity - weights) * devices.max(1) as u64)
    }

    /// The pool budget in bytes.
    #[must_use]
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Bytes currently reserved by admitted requests.
    #[must_use]
    pub fn reserved_bytes(&self) -> u64 {
        self.reserved_bytes
    }

    /// Bytes currently resident (grows token by token).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Highest residency observed.
    #[must_use]
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident_bytes
    }

    /// Highest reservation level observed.
    #[must_use]
    pub fn peak_reserved_bytes(&self) -> u64 {
        self.peak_reserved_bytes
    }

    /// Whether nothing is admitted.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.ledger.is_empty()
    }

    /// Requests currently holding a reservation.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.ledger.len()
    }

    /// This request's ledger entry, if it holds a reservation.
    #[must_use]
    pub fn reservation(&self, id: RequestId) -> Option<Reservation> {
        self.ledger.get(&id).copied()
    }

    /// Whether a request with the given peak residency can ever be admitted
    /// (even into an empty pool).
    #[must_use]
    pub fn can_ever_fit(&self, peak_bytes: u64) -> bool {
        peak_bytes <= self.budget_bytes
    }

    /// Attempts to reserve `peak_bytes` for request `id`. Returns `false`
    /// (and changes nothing) if the budget has no room.
    ///
    /// # Panics
    ///
    /// Panics if `id` already holds a reservation (an accounting bug: a
    /// request must be released or evicted before it is admitted again).
    pub fn try_reserve(&mut self, id: RequestId, peak_bytes: u64) -> bool {
        if self.reserved_bytes + peak_bytes > self.budget_bytes {
            return false;
        }
        let prior = self.ledger.insert(
            id,
            Reservation {
                reserved_bytes: peak_bytes,
                resident_bytes: 0,
            },
        );
        assert!(prior.is_none(), "request {id} reserved twice");
        self.reserved_bytes += peak_bytes;
        self.peak_reserved_bytes = self.peak_reserved_bytes.max(self.reserved_bytes);
        true
    }

    /// Releases request `id`'s reservation and whatever residency it still
    /// holds (on completion, drop, or eviction), returning the freed ledger
    /// entry. The freed amounts come from the ledger, not the caller, so a
    /// release can never understate or overstate what the request held.
    ///
    /// # Panics
    ///
    /// Panics if `id` holds no reservation.
    pub fn release(&mut self, id: RequestId) -> Reservation {
        let entry = self
            .ledger
            .remove(&id)
            .expect("released a request with no reservation");
        self.reserved_bytes -= entry.reserved_bytes;
        self.resident_bytes -= entry.resident_bytes;
        entry
    }

    /// Grows request `id`'s residency by `bytes` (prompt admission, a
    /// decoded token, or a swap-in restore).
    ///
    /// Disaggregated handoff admission also lands here: the decode-side
    /// device first reserves the request's *full* peak (its final-context
    /// KV bytes under the destination's own keep ratio), then grows
    /// residency by the transferred bytes clamped to that peak — source
    /// and destination may disagree on keep ratio, so the clamp keeps the
    /// invariant `resident <= reserved` regardless of which side keeps
    /// more.
    ///
    /// # Panics
    ///
    /// Panics if `id` holds no reservation, or if its residency would
    /// exceed its own reservation — the conservative peak reservation
    /// makes that impossible for well-formed callers.
    pub fn grow_resident(&mut self, id: RequestId, bytes: u64) {
        let entry = self
            .ledger
            .get_mut(&id)
            .expect("grew a request with no reservation");
        entry.resident_bytes += bytes;
        assert!(
            entry.resident_bytes <= entry.reserved_bytes,
            "request {id} residency {} exceeded its reservation {}",
            entry.resident_bytes,
            entry.reserved_bytes
        );
        self.resident_bytes += bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
    }

    /// Grows request `id`'s residency to `bytes`, capped at its
    /// reservation; a residency already there stays as it is. This is a
    /// step's per-member update (a prefill chunk or a decoded token
    /// extends the request's KV) in one ledger lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` holds no reservation.
    pub(crate) fn grow_resident_to(&mut self, id: RequestId, bytes: u64) {
        let entry = self
            .ledger
            .get_mut(&id)
            .expect("grew a request with no reservation");
        let grow = bytes
            .min(entry.reserved_bytes)
            .saturating_sub(entry.resident_bytes);
        entry.resident_bytes += grow;
        self.resident_bytes += grow;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
    }

    /// Advances the occupancy clock to `now_cycle`, integrating residency
    /// for the mean-occupancy statistic.
    pub fn advance_clock(&mut self, now_cycle: f64) {
        let dt = (now_cycle - self.last_update_cycle).max(0.0);
        self.occupancy_integral += self.resident_bytes as f64 * dt;
        self.last_update_cycle = now_cycle;
    }

    /// Advances the occupancy clock across an *idle* window (the device
    /// fast-forwarded past a gap with no admitted work): the window is
    /// excluded from the mean-occupancy statistic entirely — neither its
    /// duration nor any residual residency (e.g. a warm shared prefix)
    /// counts — so [`KvCachePool::mean_resident_bytes`] stays the mean
    /// *while serving* and an idle-heavy device cannot dilute it.
    pub fn skip_idle(&mut self, now_cycle: f64) {
        let dt = (now_cycle - self.last_update_cycle).max(0.0);
        self.idle_cycles += dt;
        self.last_update_cycle = now_cycle;
    }

    /// Cycles the occupancy clock has integrated over, excluding windows
    /// skipped as idle ([`KvCachePool::skip_idle`]) — the device's busy
    /// span, and the weight its [`KvCachePool::mean_resident_bytes`]
    /// carries in a fleet-wide mean.
    #[must_use]
    pub fn busy_span_cycles(&self) -> f64 {
        (self.last_update_cycle - self.idle_cycles).max(0.0)
    }

    /// Mean resident bytes over the busy (non-idle) integrated span.
    #[must_use]
    pub fn mean_resident_bytes(&self) -> f64 {
        let busy = self.busy_span_cycles();
        if busy <= 0.0 {
            return 0.0;
        }
        self.occupancy_integral / busy
    }

    // ---- the resident-prefix ledger ----

    /// The resident-prefix entry for `id`, if the pool holds its KV.
    #[must_use]
    pub fn prefix(&self, id: PrefixId) -> Option<PrefixResidency> {
        self.prefixes.get(&id).copied()
    }

    /// Every resident prefix, in id order (referenced and warm alike) —
    /// the view the prefix-affinity router reads.
    #[must_use]
    pub fn resident_prefixes(&self) -> Vec<(PrefixId, PrefixResidency)> {
        self.prefixes.iter().map(|(id, e)| (*id, *e)).collect()
    }

    /// Total bytes pinned or cached by resident prefixes.
    #[must_use]
    pub fn prefix_bytes(&self) -> u64 {
        self.prefixes.values().map(|e| e.bytes).sum()
    }

    /// Takes one reference on a resident prefix (a request admitted with
    /// its prefill cursor starting past the prefix).
    ///
    /// # Panics
    ///
    /// Panics if no entry with this id is resident.
    pub fn ref_prefix(&mut self, id: PrefixId) {
        self.prefixes
            .get_mut(&id)
            .expect("referenced a prefix the pool does not hold")
            .refs += 1;
    }

    /// Drops one reference on a resident prefix (the referencing request
    /// completed or was evicted). The entry itself stays resident — a
    /// warm cache line for future arrivals — until reclaimed under
    /// admission pressure.
    ///
    /// # Panics
    ///
    /// Panics if no entry with this id is resident, or its refcount is
    /// already zero (an accounting bug).
    pub fn unref_prefix(&mut self, id: PrefixId) {
        let entry = self
            .prefixes
            .get_mut(&id)
            .expect("unreferenced a prefix the pool does not hold");
        assert!(entry.refs > 0, "prefix {id} refcount underflow");
        entry.refs -= 1;
    }

    /// Promotes the leading `tokens`/`bytes` of request `owner`'s resident
    /// KV into the shared prefix ledger, once its prefill cursor has
    /// crossed the prefix boundary.
    ///
    /// * If no entry exists, the bytes **move** from the owner's
    ///   reservation into a fresh entry with one reference — pool totals
    ///   are unchanged (conservation).
    /// * If another request already materialized the entry, the owner
    ///   **sheds** its duplicate copy: its reservation and residency
    ///   shrink by the entry's bytes (returned to the pool as headroom)
    ///   and it takes a reference on the shared entry instead.
    ///
    /// Returns the prefix bytes the owner's reservation no longer covers
    /// (the entry's byte size).
    ///
    /// # Panics
    ///
    /// Panics if the owner holds no reservation, has not materialized
    /// `bytes` resident bytes, or the existing entry disagrees on the
    /// prefix shape (one id must always name one prefix).
    pub fn promote_prefix(
        &mut self,
        owner: RequestId,
        id: PrefixId,
        tokens: usize,
        bytes: u64,
    ) -> u64 {
        let entry = self
            .ledger
            .get_mut(&owner)
            .expect("promoted a prefix for a request with no reservation");
        assert!(
            entry.resident_bytes >= bytes && entry.reserved_bytes >= bytes,
            "request {owner} promoted {bytes} prefix bytes it does not hold \
             (resident {}, reserved {})",
            entry.resident_bytes,
            entry.reserved_bytes
        );
        entry.reserved_bytes -= bytes;
        entry.resident_bytes -= bytes;
        match self.prefixes.get_mut(&id) {
            None => {
                // Move: the bytes change owner, pool totals are unchanged.
                self.prefixes.insert(
                    id,
                    PrefixResidency {
                        tokens,
                        bytes,
                        refs: 1,
                    },
                );
                bytes
            }
            Some(shared) => {
                // Shed: the duplicate copy returns to the pool as headroom
                // and the owner rides the shared entry instead.
                assert_eq!(
                    (shared.tokens, shared.bytes),
                    (tokens, bytes),
                    "prefix {id} promoted with a different shape"
                );
                shared.refs += 1;
                self.reserved_bytes -= bytes;
                self.resident_bytes -= bytes;
                bytes
            }
        }
    }

    /// Bytes reclaimable from unreferenced prefix entries (excluding
    /// `keep`, the prefix an in-progress admission is about to reuse).
    #[must_use]
    pub fn reclaimable_prefix_bytes(&self, keep: Option<PrefixId>) -> u64 {
        self.prefixes
            .iter()
            .filter(|(id, e)| e.refs == 0 && Some(**id) != keep)
            .map(|(_, e)| e.bytes)
            .sum()
    }

    /// Reclaims one unreferenced prefix entry — the one with the fewest
    /// tokens first (ties broken by lowest id, so reclamation still
    /// replays deterministically) — freeing its bytes. A prefix's token
    /// count is its expected re-prefill cost if a future request misses
    /// on it, so evicting the cheapest-to-rebuild entry minimizes the
    /// recompute debt the reclaim can incur. Entries with `refs > 0` are
    /// pinned and never touched, and `keep` (the prefix an in-progress
    /// admission is about to reuse) is spared. Returns the reclaimed id
    /// and its freed bytes, or `None` if nothing is reclaimable.
    pub fn reclaim_unreferenced_prefix(
        &mut self,
        keep: Option<PrefixId>,
    ) -> Option<(PrefixId, u64)> {
        let id = self
            .prefixes
            .iter()
            .filter(|(id, e)| e.refs == 0 && Some(**id) != keep)
            .min_by_key(|(id, e)| (e.tokens, **id))
            .map(|(id, _)| *id)?;
        let entry = self.prefixes.remove(&id).expect("entry exists");
        self.reserved_bytes -= entry.bytes;
        self.resident_bytes -= entry.bytes;
        Some((id, entry.bytes))
    }
}

/// Peak KV residency of one request: full-precision KV bytes at `context`
/// tokens, scaled by the BGPP attention-keep ratio. BGPP's progressive
/// prediction identifies the vital fraction of keys (§3.3); only that
/// fraction must stay hot in device memory — the SLIM-style residency
/// saving that lets a lower keep admit more concurrent streams.
#[must_use]
pub fn request_kv_bytes(model: &LlmConfig, context: usize, attention_keep: f64) -> u64 {
    let full = model.kv_cache_bytes(context, 1) as f64;
    (full * attention_keep.clamp(0.01, 1.0)).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_subtracts_weights_from_capacity() {
        let model = LlmConfig::llama7b();
        let pool = KvCachePool::from_memory_spec(&HbmConfig::default(), &model, 1);
        let weights = model.decoder_params() + model.hidden as u64 * model.vocab as u64;
        assert_eq!(pool.budget_bytes(), 8 * (1 << 30) - weights);
        let two = KvCachePool::from_memory_spec(&HbmConfig::default(), &model, 2);
        assert_eq!(two.budget_bytes(), 2 * pool.budget_bytes());
    }

    #[test]
    fn reservation_admission_and_release() {
        let mut pool = KvCachePool::with_budget(1000);
        assert!(pool.try_reserve(1, 600));
        assert!(!pool.try_reserve(2, 500), "over-budget admission must fail");
        assert!(pool.try_reserve(2, 400));
        pool.grow_resident(1, 300);
        assert_eq!(pool.resident_bytes(), 300);
        assert_eq!(pool.in_flight(), 2);
        let freed = pool.release(1);
        assert_eq!(freed.reserved_bytes, 600);
        assert_eq!(freed.resident_bytes, 300);
        assert_eq!(pool.reserved_bytes(), 400);
        assert_eq!(pool.resident_bytes(), 0);
        assert!(pool.try_reserve(3, 500));
        assert_eq!(pool.peak_reserved_bytes(), 1000);
        assert_eq!(pool.reservation(2).unwrap().reserved_bytes, 400);
        assert!(pool.reservation(1).is_none());
    }

    #[test]
    fn release_amounts_come_from_the_ledger() {
        // The caller cannot misstate a release: the pool frees exactly
        // what its ledger recorded for the request.
        let mut pool = KvCachePool::with_budget(100);
        assert!(pool.try_reserve(9, 60));
        pool.grow_resident(9, 10);
        pool.grow_resident(9, 25);
        let freed = pool.release(9);
        assert_eq!((freed.reserved_bytes, freed.resident_bytes), (60, 35));
        assert!(pool.is_idle());
        assert_eq!(pool.reserved_bytes(), 0);
        assert_eq!(pool.resident_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "no reservation")]
    fn double_release_is_an_accounting_bug() {
        let mut pool = KvCachePool::with_budget(100);
        assert!(pool.try_reserve(1, 50));
        pool.release(1);
        pool.release(1);
    }

    #[test]
    #[should_panic(expected = "exceeded its reservation")]
    fn per_request_growth_is_capped_by_its_own_reservation() {
        // Even with global headroom, one request cannot grow past its own
        // reservation (it would be stealing another request's bytes).
        let mut pool = KvCachePool::with_budget(1000);
        assert!(pool.try_reserve(1, 100));
        assert!(pool.try_reserve(2, 100));
        pool.grow_resident(1, 101);
    }

    #[test]
    fn lower_keep_shrinks_residency() {
        let model = LlmConfig::llama7b();
        let dense = request_kv_bytes(&model, 4096, 1.0);
        let pruned = request_kv_bytes(&model, 4096, 0.3);
        assert_eq!(dense, model.kv_cache_bytes(4096, 1));
        assert!(pruned < dense / 3 + 2);
        assert!(pruned > dense / 4);
    }

    #[test]
    fn prefix_promotion_moves_bytes_without_changing_totals() {
        let mut pool = KvCachePool::with_budget(1000);
        assert!(pool.try_reserve(1, 600));
        pool.grow_resident(1, 400);
        // Promote a 250-byte prefix out of request 1's reservation.
        assert_eq!(pool.promote_prefix(1, 9, 128, 250), 250);
        assert_eq!(pool.reserved_bytes(), 600, "promotion conserves totals");
        assert_eq!(pool.resident_bytes(), 400);
        assert_eq!(pool.reservation(1).unwrap().reserved_bytes, 350);
        assert_eq!(pool.reservation(1).unwrap().resident_bytes, 150);
        let p = pool.prefix(9).expect("prefix resident");
        assert_eq!((p.tokens, p.bytes, p.refs), (128, 250, 1));
        // Releasing the owner keeps the prefix resident (refs managed by
        // the caller).
        pool.release(1);
        pool.unref_prefix(9);
        assert_eq!(pool.reserved_bytes(), 250);
        assert_eq!(pool.prefix_bytes(), 250);
        assert_eq!(pool.prefix(9).unwrap().refs, 0);
    }

    #[test]
    fn prefix_shed_returns_the_duplicate_copy_to_the_pool() {
        let mut pool = KvCachePool::with_budget(1000);
        assert!(pool.try_reserve(1, 500));
        pool.grow_resident(1, 300);
        pool.promote_prefix(1, 4, 64, 200);
        // A second materializer of the same prefix sheds its copy.
        assert!(pool.try_reserve(2, 500));
        pool.grow_resident(2, 250);
        pool.promote_prefix(2, 4, 64, 200);
        assert_eq!(pool.prefix(4).unwrap().refs, 2);
        assert_eq!(
            pool.reserved_bytes(),
            1000 - 200,
            "the duplicate 200 bytes return to the pool"
        );
        assert_eq!(pool.resident_bytes(), 300 + 250 - 200);
        assert_eq!(pool.reservation(2).unwrap().reserved_bytes, 300);
    }

    #[test]
    fn pinned_prefixes_are_never_reclaimed() {
        let mut pool = KvCachePool::with_budget(1000);
        assert!(pool.try_reserve(1, 400));
        pool.grow_resident(1, 400);
        pool.promote_prefix(1, 7, 64, 300);
        assert_eq!(pool.reclaim_unreferenced_prefix(None), None, "refs > 0");
        pool.release(1);
        pool.unref_prefix(7);
        assert_eq!(pool.reclaimable_prefix_bytes(None), 300);
        assert_eq!(pool.reclaimable_prefix_bytes(Some(7)), 0, "spared");
        assert_eq!(pool.reclaim_unreferenced_prefix(Some(7)), None);
        assert_eq!(pool.reclaim_unreferenced_prefix(None), Some((7, 300)));
        assert_eq!(pool.reserved_bytes(), 0);
        assert_eq!(pool.resident_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "refcount underflow")]
    fn prefix_unref_underflow_is_an_accounting_bug() {
        let mut pool = KvCachePool::with_budget(100);
        assert!(pool.try_reserve(1, 50));
        pool.grow_resident(1, 50);
        pool.promote_prefix(1, 3, 8, 40);
        pool.unref_prefix(3);
        pool.unref_prefix(3);
    }

    #[test]
    fn occupancy_integrates_over_time() {
        let mut pool = KvCachePool::with_budget(100);
        assert!(pool.try_reserve(1, 100));
        pool.advance_clock(10.0);
        pool.grow_resident(1, 50);
        pool.advance_clock(20.0);
        // 0 bytes for 10 cycles, 50 bytes for 10 cycles → mean 25.
        assert!((pool.mean_resident_bytes() - 25.0).abs() < 1e-9);
    }
}
