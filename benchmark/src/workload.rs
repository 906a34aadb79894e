//! What every workload reports, whatever it runs.

use std::collections::BTreeMap;

/// Per-layer metric values by name; names are checked against
/// [`crate::metrics::PER_LAYER`] when they are printed.
pub type Layers = BTreeMap<&'static str, f64>;

/// Operations attempted and failed, with the first few failures kept for
/// the report. An operation is whatever a workload checks against an
/// oracle or expects a reply for: a result tuple, a burst, a commit, a
/// query, a delta line.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    const KEPT: usize = 8;

    /// Count `n` operations as attempted and correct.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(describe());
        }
    }

    /// Count a failure of an operation already counted as attempted (or of
    /// the round as a whole).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < Self::KEPT {
            self.messages.push(message);
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.messages {
            if self.messages.len() < Self::KEPT {
                self.messages.push(message);
            }
        }
    }
}

/// One round of a workload: a fresh set-up, then the workload's fixed
/// work, then its checks.
#[derive(Debug, Default)]
pub struct Round {
    /// Everything before the measured work: topology, parse/optimize/plan,
    /// engine or service build, base-fact load (for `churn_dred` also the
    /// initial convergence).
    pub setup_s: f64,
    /// The measured work.
    pub wall_s: f64,
    /// Latency of every client-visible operation of the round, in ms: the
    /// round itself for the two batch workloads, each burst of
    /// `churn_dred`, each write of `serve_mixed`.
    pub ops_ms: Vec<f64>,
    /// Bytes the measured work put on the wire, in MB.
    pub wire_mb: f64,
    pub checks: Checks,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_and_keep_the_first_failures() {
        let mut checks = Checks::default();
        checks.passed(5);
        checks.check(true, || unreachable!());
        for i in 0..20 {
            checks.check(false, || format!("miss {i}"));
        }
        assert_eq!(checks.attempted, 26);
        assert_eq!(checks.failed, 20);
        assert_eq!(checks.messages.len(), Checks::KEPT);
        let mut total = Checks::default();
        total.fail("round aborted".to_string());
        total.absorb(checks);
        assert_eq!((total.attempted, total.failed), (26, 21));
        assert_eq!(total.messages[0], "round aborted");
        assert_eq!(total.messages.len(), Checks::KEPT);
    }
}
