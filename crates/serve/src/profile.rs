//! Per-device fleet profiles: one [`DeviceProfile`] per fleet member
//! instead of N clones of one configuration.
//!
//! A fleet used to be `devices: usize` — N identical copies of the
//! [`crate::ServeSim`]'s accelerator, keep ratio, and pool budget. Real
//! fleets are not uniform: they mix accelerator generations (different
//! step-cost curves), per-device BGPP attention-keep operating points
//! (different KV footprints per admitted stream), per-device KV-pool
//! budgets, and per-device host links. A [`DeviceProfile`] carries
//! exactly those four axes plus a relative `throughput` weight, and
//! [`crate::ServeSim::run_spec`] with a [`crate::RunSpec::fleet`] spec
//! builds each simulated device from its own profile.
//!
//! Every field except `throughput` is an `Option` whose `None` means
//! *inherit the [`crate::ServeSim`]'s own configuration* — so a fleet of
//! `DeviceProfile::uniform()` entries is **bit-exact** with the classic
//! N-clone fleet ([`crate::RunSpec::uniform`], asserted by a regression test),
//! and heterogeneity is opt-in per axis.
//!
//! # Example
//!
//! ```
//! use mcbp_model::LlmConfig;
//! use mcbp_serve::{
//!     ArrivalProcess, ContinuousBatchScheduler, DeviceProfile, DispatchPolicy, LoadGenerator,
//!     RunSpec, ServeConfig, ServeSim,
//! };
//! use mcbp_sim::{McbpConfig, McbpSim};
//! use mcbp_workloads::{SparsityProfile, Task, TraceContext, WeightGenerator};
//!
//! let model = LlmConfig::opt1b3();
//! let gen = WeightGenerator::for_model(&model);
//! let profile = SparsityProfile::measure(&gen.quantized_sample(32, 256, 1), 4);
//! let template = TraceContext {
//!     model, task: Task::cola(), batch: 1,
//!     weight_profile: profile, attention_keep: 0.3,
//! };
//! let mcbp = McbpSim::new(McbpConfig::default());
//! let sim = ServeSim::new(&mcbp, template, ServeConfig::default());
//! // A two-generation fleet: device 1 keeps more KV per stream (keep 0.6)
//! // and is modeled at half the relative throughput.
//! let fleet = [
//!     DeviceProfile::uniform(),
//!     DeviceProfile::uniform().with_keep(0.6).with_throughput(0.5),
//! ];
//! let workload = LoadGenerator::uniform(
//!     Task::cola(), 6, ArrivalProcess::ClosedLoop { concurrency: 6 },
//! ).generate();
//! let report = sim
//!     .run_spec(
//!         &workload,
//!         RunSpec::fleet(&fleet, DispatchPolicy::WeightedJsq),
//!         &mut || Box::new(ContinuousBatchScheduler::new()),
//!     )
//!     .expect("a valid fleet and workload")
//!     .report;
//! assert_eq!(report.completed, 6);
//! assert_eq!(report.devices.len(), 2);
//! ```

use std::fmt;

use mcbp_workloads::Accelerator;

use crate::sim::ServeConfigError;

/// Which serving stages a fleet device runs — the DistServe/Splitwise-
/// style prefill/decode disaggregation axis.
///
/// The default, [`DeviceRole::Unified`], runs both stages on one device
/// (the classic fleet; every pre-existing configuration is bit-exact).
/// A role-specialized fleet routes prompts to prefill-capable devices
/// (stage 1) and, once a [`DeviceRole::Prefill`] device finishes a
/// prompt and emits its first token with decode work remaining, hands
/// the KV off over the modeled host link to a decode-capable device
/// (stage 2) — see the two-stage routing notes on
/// [`DispatchPolicy`](crate::DispatchPolicy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceRole {
    /// Prefill *and* decode run here — the classic unified device.
    #[default]
    Unified,
    /// Prefill pool only: prompts are prefilled here, then their KV is
    /// handed off to a decode-capable device before the first decode
    /// step. Prompt-only requests (`decode_len == 0`) complete here.
    Prefill,
    /// Decode pool only: stage-1 routing never places a prompt here;
    /// the device serves decode continuations received via KV handoff.
    Decode,
}

impl DeviceRole {
    /// Whether stage-1 routing may place a fresh prompt here.
    #[must_use]
    pub fn can_prefill(self) -> bool {
        matches!(self, DeviceRole::Unified | DeviceRole::Prefill)
    }

    /// Whether stage-2 routing may place a decode continuation here.
    #[must_use]
    pub fn can_decode(self) -> bool {
        matches!(self, DeviceRole::Unified | DeviceRole::Decode)
    }
}

/// One fleet device's identity: which accelerator generation it is, which
/// BGPP operating point it runs, how much KV-pool memory it has, how fast
/// its host link is, and its relative throughput weight for load-aware
/// dispatch.
///
/// `None` fields inherit the owning [`crate::ServeSim`]'s configuration;
/// a fleet of [`DeviceProfile::uniform`] profiles reproduces the classic
/// N-clone fleet bit-exactly.
#[derive(Clone, Copy)]
pub struct DeviceProfile<'a> {
    /// Accelerator model for this device (`None` = the simulator's own
    /// accelerator). A device with its own accelerator gets its own
    /// memoizing step-cost model.
    pub accel: Option<&'a dyn Accelerator>,
    /// BGPP attention-keep ratio for this device (`None` = the
    /// simulator's template keep). A lower keep shrinks every admitted
    /// stream's KV reservation on this device only. Must lie in `(0, 1]`
    /// (see [`ServeConfigError::InvalidKeep`]).
    pub attention_keep: Option<f64>,
    /// KV-pool byte budget for this device (`None` = the
    /// [`crate::ServeConfig::kv_budget_bytes`] behavior).
    pub kv_budget_bytes: Option<u64>,
    /// Host-link bandwidth for this device's swap and handoff transfers,
    /// in bytes per core cycle (`None` = the [`crate::PreemptConfig`]
    /// default). Must be positive; `f64::INFINITY` is an instant link
    /// (see [`ServeConfigError::NonPositiveHostLink`]).
    pub host_link_bytes_per_cycle: Option<f64>,
    /// Relative throughput weight used by weighted-JSQ dispatch: queued
    /// tokens are divided by this figure, so a device at `0.5` is treated
    /// as needing twice as long per queued token as a device at `1.0`.
    /// Calibrate it from the device's cost model with
    /// [`crate::StepCostModel::decode_rate`]. Must be finite and
    /// positive (see [`ServeConfigError::ZeroThroughputProfile`]).
    pub throughput: f64,
    /// Which serving stages this device runs. [`DeviceRole::Unified`]
    /// (the default) keeps the classic behavior; `Prefill`/`Decode`
    /// split the fleet into disaggregated pools with KV handoff.
    pub role: DeviceRole,
}

impl Default for DeviceProfile<'_> {
    fn default() -> Self {
        DeviceProfile {
            accel: None,
            attention_keep: None,
            kv_budget_bytes: None,
            host_link_bytes_per_cycle: None,
            throughput: 1.0,
            role: DeviceRole::Unified,
        }
    }
}

impl fmt::Debug for DeviceProfile<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceProfile")
            .field("accel", &self.accel.map(Accelerator::name))
            .field("attention_keep", &self.attention_keep)
            .field("kv_budget_bytes", &self.kv_budget_bytes)
            .field("host_link_bytes_per_cycle", &self.host_link_bytes_per_cycle)
            .field("throughput", &self.throughput)
            .field("role", &self.role)
            .finish()
    }
}

impl<'a> DeviceProfile<'a> {
    /// A profile that inherits every axis from the owning
    /// [`crate::ServeSim`] at unit throughput — the identity profile.
    #[must_use]
    pub fn uniform() -> Self {
        DeviceProfile::default()
    }

    /// A copy running the given accelerator model.
    #[must_use]
    pub fn with_accel(mut self, accel: &'a dyn Accelerator) -> Self {
        self.accel = Some(accel);
        self
    }

    /// A copy at the given BGPP attention-keep operating point.
    #[must_use]
    pub fn with_keep(mut self, keep: f64) -> Self {
        self.attention_keep = Some(keep);
        self
    }

    /// A copy with an explicit KV-pool byte budget.
    #[must_use]
    pub fn with_kv_budget(mut self, bytes: u64) -> Self {
        self.kv_budget_bytes = Some(bytes);
        self
    }

    /// A copy with an explicit host-link bandwidth (bytes per core cycle).
    #[must_use]
    pub fn with_host_link(mut self, bytes_per_cycle: f64) -> Self {
        self.host_link_bytes_per_cycle = Some(bytes_per_cycle);
        self
    }

    /// A copy with the given relative throughput weight.
    #[must_use]
    pub fn with_throughput(mut self, throughput: f64) -> Self {
        self.throughput = throughput;
        self
    }

    /// A copy with the given serving role.
    #[must_use]
    pub fn with_role(mut self, role: DeviceRole) -> Self {
        self.role = role;
        self
    }

    /// Validates a fleet of profiles: the fleet must be non-empty, every
    /// throughput weight finite and positive, every host-link override
    /// positive, every keep override in `(0, 1]`, and — when any device
    /// is role-specialized — both stages must be covered (at least one
    /// prefill-capable and one decode-capable device), or prompts (or
    /// their decode continuations) would have nowhere to go.
    ///
    /// # Errors
    ///
    /// Returns [`ServeConfigError::EmptyFleet`],
    /// [`ServeConfigError::ZeroThroughputProfile`],
    /// [`ServeConfigError::NonPositiveHostLink`],
    /// [`ServeConfigError::InvalidKeep`],
    /// [`ServeConfigError::NoPrefillCapableDevice`], or
    /// [`ServeConfigError::NoDecodeCapableDevice`].
    pub fn validate_fleet(profiles: &[DeviceProfile<'_>]) -> Result<(), ServeConfigError> {
        if profiles.is_empty() {
            return Err(ServeConfigError::EmptyFleet);
        }
        for (device, p) in profiles.iter().enumerate() {
            if !(p.throughput.is_finite() && p.throughput > 0.0) {
                return Err(ServeConfigError::ZeroThroughputProfile { device });
            }
            if p.host_link_bytes_per_cycle
                .is_some_and(|l| l.is_nan() || l <= 0.0)
            {
                return Err(ServeConfigError::NonPositiveHostLink {
                    device: Some(device),
                });
            }
            if p.attention_keep.is_some_and(|k| !(k > 0.0 && k <= 1.0)) {
                return Err(ServeConfigError::InvalidKeep {
                    device: Some(device),
                });
            }
        }
        if !profiles.iter().any(|p| p.role.can_prefill()) {
            return Err(ServeConfigError::NoPrefillCapableDevice);
        }
        if !profiles.iter().any(|p| p.role.can_decode()) {
            return Err(ServeConfigError::NoDecodeCapableDevice);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_profile_inherits_everything() {
        let p = DeviceProfile::uniform();
        assert!(p.accel.is_none());
        assert!(p.attention_keep.is_none());
        assert!(p.kv_budget_bytes.is_none());
        assert!(p.host_link_bytes_per_cycle.is_none());
        assert!((p.throughput - 1.0).abs() < 1e-12);
        assert_eq!(p.role, DeviceRole::Unified);
    }

    #[test]
    fn roles_cover_their_stages() {
        assert!(DeviceRole::Unified.can_prefill() && DeviceRole::Unified.can_decode());
        assert!(DeviceRole::Prefill.can_prefill() && !DeviceRole::Prefill.can_decode());
        assert!(!DeviceRole::Decode.can_prefill() && DeviceRole::Decode.can_decode());
    }

    #[test]
    fn fleet_validation_requires_both_stages_when_specialized() {
        let prefill_only = [DeviceProfile::uniform().with_role(DeviceRole::Prefill)];
        assert_eq!(
            DeviceProfile::validate_fleet(&prefill_only),
            Err(ServeConfigError::NoDecodeCapableDevice)
        );
        let decode_only = [
            DeviceProfile::uniform().with_role(DeviceRole::Decode),
            DeviceProfile::uniform().with_role(DeviceRole::Decode),
        ];
        assert_eq!(
            DeviceProfile::validate_fleet(&decode_only),
            Err(ServeConfigError::NoPrefillCapableDevice)
        );
        let split = [
            DeviceProfile::uniform().with_role(DeviceRole::Prefill),
            DeviceProfile::uniform().with_role(DeviceRole::Decode),
        ];
        assert!(DeviceProfile::validate_fleet(&split).is_ok());
        let mixed = [
            DeviceProfile::uniform(),
            DeviceProfile::uniform().with_role(DeviceRole::Decode),
        ];
        assert!(DeviceProfile::validate_fleet(&mixed).is_ok());
    }

    #[test]
    fn fleet_validation_rejects_empty_and_zero_throughput() {
        assert_eq!(
            DeviceProfile::validate_fleet(&[]),
            Err(ServeConfigError::EmptyFleet)
        );
        let fleet = [
            DeviceProfile::uniform(),
            DeviceProfile::uniform().with_throughput(0.0),
        ];
        assert_eq!(
            DeviceProfile::validate_fleet(&fleet),
            Err(ServeConfigError::ZeroThroughputProfile { device: 1 })
        );
        let nan = [DeviceProfile::uniform().with_throughput(f64::NAN)];
        assert_eq!(
            DeviceProfile::validate_fleet(&nan),
            Err(ServeConfigError::ZeroThroughputProfile { device: 0 })
        );
        for link in [0.0, -1.0, f64::NAN] {
            let fleet = [
                DeviceProfile::uniform(),
                DeviceProfile::uniform().with_host_link(link),
            ];
            assert_eq!(
                DeviceProfile::validate_fleet(&fleet),
                Err(ServeConfigError::NonPositiveHostLink { device: Some(1) })
            );
        }
        for keep in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let fleet = [DeviceProfile::uniform().with_keep(keep)];
            assert_eq!(
                DeviceProfile::validate_fleet(&fleet),
                Err(ServeConfigError::InvalidKeep { device: Some(0) })
            );
        }
        // An infinite link is an instant transfer, and keep 1 is dense.
        let edge = [DeviceProfile::uniform()
            .with_host_link(f64::INFINITY)
            .with_keep(1.0)];
        assert!(DeviceProfile::validate_fleet(&edge).is_ok());
        assert!(DeviceProfile::validate_fleet(&[DeviceProfile::uniform()]).is_ok());
    }
}
