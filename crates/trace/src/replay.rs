//! Replay: re-driving a simulation from a recorded trace.
//!
//! The serving simulator is deterministic — no wall clock, every random
//! draw seeded — so a recorded [`RunTrace`] carries everything a replay
//! needs in its materialized [`Workload`]: arrivals (including the
//! infinite arrival cycles of closed-loop releases), request shapes,
//! classes, SLOs, and shared prefixes. Re-running that workload under
//! the same configuration and scheduler *must* reproduce the original
//! [`ServeReport`] bit-exactly; [`verify_replay`] runs the caller's
//! simulator and checks exactly that, reporting the first divergent
//! field on mismatch. The generator RNG is bypassed entirely — the
//! trace is the workload.

use std::fmt;

use mcbp_serve::{RunTrace, ServeReport, Workload};

/// A replay produced a report that differs from the recorded original —
/// the simulator, configuration, or scheduler does not match the
/// recording (or determinism broke, which is a bug).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// First report field found to diverge.
    pub field: &'static str,
    /// The original run's value, rendered.
    pub expected: String,
    /// The replayed run's value, rendered.
    pub actual: String,
}

impl fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay diverged at `{}`: recorded {}, replayed {}",
            self.field, self.expected, self.actual
        )
    }
}

impl std::error::Error for ReplayMismatch {}

/// Re-drives a simulation from the recorded workload and asserts
/// bit-exact [`ServeReport`] reproduction. The runner closure is the
/// caller's simulator (same engine, configuration, and scheduler as the
/// recorded run); it receives the trace's workload verbatim.
///
/// # Errors
///
/// [`ReplayMismatch`] naming the first divergent report field if the
/// replayed report is not identical to `original`.
pub fn verify_replay(
    trace: &RunTrace,
    original: &ServeReport,
    runner: impl FnOnce(&Workload) -> ServeReport,
) -> Result<ServeReport, Box<ReplayMismatch>> {
    let replayed = runner(&trace.workload);
    match first_divergence(original, &replayed) {
        None => Ok(replayed),
        Some(m) => Err(Box::new(m)),
    }
}

/// The first field where two reports diverge (headline fields first,
/// then per-request records, then a whole-struct fallback), or `None`
/// when they are identical.
fn first_divergence(a: &ServeReport, b: &ServeReport) -> Option<ReplayMismatch> {
    fn diff<T: PartialEq + fmt::Debug>(
        field: &'static str,
        x: &T,
        y: &T,
    ) -> Option<ReplayMismatch> {
        (x != y).then(|| ReplayMismatch {
            field,
            expected: format!("{x:?}"),
            actual: format!("{y:?}"),
        })
    }
    diff("scheduler", &a.scheduler, &b.scheduler)
        .or_else(|| diff("completed", &a.completed, &b.completed))
        .or_else(|| diff("dropped", &a.dropped, &b.dropped))
        .or_else(|| {
            diff(
                "duration_seconds",
                &a.duration_seconds.to_bits(),
                &b.duration_seconds.to_bits(),
            )
        })
        .or_else(|| {
            diff(
                "goodput_tokens_per_s",
                &a.goodput_tokens_per_s.to_bits(),
                &b.goodput_tokens_per_s.to_bits(),
            )
        })
        .or_else(|| diff("steps", &a.steps, &b.steps))
        .or_else(|| diff("records.len", &a.records.len(), &b.records.len()))
        .or_else(|| {
            a.records
                .iter()
                .zip(&b.records)
                .find(|(x, y)| x != y)
                .map(|(x, y)| ReplayMismatch {
                    field: "records",
                    expected: format!("{x:?}"),
                    actual: format!("{y:?}"),
                })
        })
        .or_else(|| {
            // Any remaining lane (pool, preempt, prefix, devices, …).
            (a != b).then(|| ReplayMismatch {
                field: "report",
                expected: "recorded report".to_string(),
                actual: "a bitwise-different report".to_string(),
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbp_serve::{LatencyStats, CLOCK_HZ};

    fn blank_report(completed_marker: usize) -> ServeReport {
        ServeReport {
            scheduler: "s".to_string(),
            duration_seconds: (completed_marker as f64 + 1.0) / CLOCK_HZ,
            ..ServeReport::default()
        }
    }

    #[test]
    fn identical_reports_verify() {
        let trace = RunTrace {
            workload: Workload {
                requests: vec![],
                closed_loop: None,
            },
            devices: 1,
            events: vec![],
        };
        let original = blank_report(0);
        let replayed = verify_replay(&trace, &original, |_| blank_report(0)).expect("identical");
        assert_eq!(replayed, original);
        assert_eq!(original.ttft, LatencyStats::default());
    }

    #[test]
    fn divergence_names_the_field() {
        let trace = RunTrace {
            workload: Workload {
                requests: vec![],
                closed_loop: None,
            },
            devices: 1,
            events: vec![],
        };
        let err = verify_replay(&trace, &blank_report(0), |_| blank_report(7))
            .expect_err("reports differ");
        assert_eq!(err.field, "duration_seconds");
        assert!(err.to_string().contains("replay diverged"));
    }
}
