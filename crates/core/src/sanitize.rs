//! Runtime invariant sanitizer (`MEMNET_SANITIZE`).
//!
//! When enabled, the engine audits conservation laws at domain edges
//! while the simulation runs:
//!
//! * **NoC packet conservation** — every injected packet is delivered,
//!   in flight, or dead-lettered (checked every network tick, O(1)).
//! * **Link credit conservation** — no credit counter overdrawn or
//!   double-returned; all credits restored once the fabric settles
//!   (full structural audit at phase boundaries).
//! * **CTA accounting** — CTAs launched equal CTAs completed plus CTAs
//!   dropped with a dead GPU when no survivor could adopt them.
//! * **Byte accounting** — each memcpy phase moves exactly the bytes
//!   requested (fail-fast synthesized responses included).
//! * **Calendar monotonicity** — every clock stays on its
//!   `next_fs == cycles * period_fs` edge grid through park/wake.
//!
//! Findings are recorded in a [`SanitizerReport`] attached to
//! [`SimReport`](crate::SimReport); in `fatal` mode the run panics at
//! the end instead, so tests fail loudly. Only the phase-boundary
//! checkpoints advance the check counter — per-tick audits record
//! violations but never counts, keeping clean reports bit-identical
//! across [`EngineMode`](crate::EngineMode)s (the event-driven engine
//! skips idle ticks, so tick counts are engine-variant).

use crate::SimError;

/// Hard cap on recorded violation messages; the rest are only counted.
/// A broken invariant usually fires every tick — the first few messages
/// locate the bug, the remaining millions would just burn memory.
pub const MAX_VIOLATIONS: usize = 64;

/// What the sanitizer should do, resolved from `MEMNET_SANITIZE` or
/// [`SimBuilder::sanitize`](crate::SimBuilder::sanitize).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SanitizeMode {
    /// No checks, zero overhead (the default).
    #[default]
    Off,
    /// Check invariants and attach a [`SanitizerReport`] to the report.
    Record,
    /// Like [`SanitizeMode::Record`], but panic at the end of the run if
    /// any violation was found — for tests and CI.
    Fatal,
}

impl SanitizeMode {
    /// The mode the `MEMNET_SANITIZE` environment variable selects,
    /// resolved when a builder without an explicit
    /// [`SimBuilder::sanitize`](crate::SimBuilder::sanitize) call builds.
    pub fn from_env() -> Result<SanitizeMode, SimError> {
        let value = std::env::var_os("MEMNET_SANITIZE").unwrap_or_default();
        SanitizeMode::from_env_value(&value.to_string_lossy())
    }

    /// [`SanitizeMode::from_env`] on the variable's value: unset, empty,
    /// `0`, `off` and `false` are off; `1`, `on` and `true` record;
    /// `fatal` records and panics on violations. Anything else is an
    /// error, not off: a typo must not quietly run unsanitized.
    pub fn from_env_value(value: &str) -> Result<SanitizeMode, SimError> {
        match value {
            "" | "0" | "off" | "false" => Ok(SanitizeMode::Off),
            "1" | "on" | "true" => Ok(SanitizeMode::Record),
            "fatal" => Ok(SanitizeMode::Fatal),
            _ => Err(SimError::InvalidConfig(format!(
                "MEMNET_SANITIZE='{value}' names no sanitizer mode (accepted: 0, off, false, \
                 1, on, true, fatal)"
            ))),
        }
    }

    /// True unless the mode is [`SanitizeMode::Off`].
    #[inline]
    pub fn enabled(self) -> bool {
        self != SanitizeMode::Off
    }
}

/// Invariant-audit results for one run, attached to
/// [`SimReport::sanitizer`](crate::SimReport::sanitizer) when the
/// sanitizer was enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Phase-boundary checkpoints executed (engine-invariant).
    pub checks: u64,
    /// Violation messages, at most [`MAX_VIOLATIONS`]; empty = clean.
    pub violations: Vec<String>,
    /// Violations found beyond the message cap.
    pub dropped: u64,
}

impl SanitizerReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }
}

memnet_obs::snap_struct! {
    /// The sanitizer's accumulated audit state: its snapshot record, so a
    /// restored sanitizing run reports totals identical to an unbroken one.
    #[derive(Debug, Default)]
    pub(crate) struct Audit {
        checks: u64,
        violations: Vec<String>,
        dropped: u64,
        /// CTAs handed to `Gpu::launch` across all kernels.
        pub(crate) ctas_launched: u64,
        /// Orphaned CTAs dropped with a dead GPU because no survivor existed.
        pub(crate) ctas_dropped: u64,
    }
}

/// Live sanitizer state carried by the running `System`.
#[derive(Debug)]
pub(crate) struct Sanitizer {
    /// The run's own choice; a restored [`Audit`] leaves it as it is.
    fatal: bool,
    pub(crate) audit: Audit,
}

impl Sanitizer {
    pub(crate) fn new(fatal: bool) -> Sanitizer {
        Sanitizer {
            fatal,
            audit: Audit::default(),
        }
    }

    /// Counts one phase-boundary checkpoint.
    #[inline]
    pub(crate) fn checkpoint(&mut self) {
        self.audit.checks += 1;
    }

    /// Records one violation, dropping (but counting) past the cap.
    pub(crate) fn record(&mut self, msg: String) {
        if self.audit.violations.len() < MAX_VIOLATIONS {
            self.audit.violations.push(msg);
        } else {
            self.audit.dropped += 1;
        }
    }

    /// Finishes the run: panics in fatal mode if anything was found,
    /// otherwise returns the report.
    pub(crate) fn into_report(self) -> SanitizerReport {
        let a = self.audit;
        let rep = SanitizerReport {
            checks: a.checks,
            violations: a.violations,
            dropped: a.dropped,
        };
        if self.fatal && !rep.is_clean() {
            panic!(
                "MEMNET_SANITIZE=fatal: {} invariant violation(s) (+{} beyond cap):\n{}",
                rep.violations.len(),
                rep.dropped,
                rep.violations.join("\n")
            );
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_caps_messages_but_keeps_counting() {
        let mut s = Sanitizer::new(false);
        for i in 0..(MAX_VIOLATIONS + 5) {
            s.record(format!("v{i}"));
        }
        let rep = s.into_report();
        assert_eq!(rep.violations.len(), MAX_VIOLATIONS);
        assert_eq!(rep.dropped, 5);
        assert!(!rep.is_clean());
    }

    #[test]
    fn clean_report_round_trip() {
        let mut s = Sanitizer::new(true);
        s.checkpoint();
        s.checkpoint();
        let rep = s.into_report(); // fatal + clean must not panic
        assert!(rep.is_clean());
        assert_eq!(rep.checks, 2);
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn fatal_mode_panics_on_violations() {
        let mut s = Sanitizer::new(true);
        s.record("credits vanished".into());
        let _ = s.into_report();
    }

    #[test]
    fn env_values_name_a_mode_or_are_refused() {
        for (value, mode) in [
            ("", SanitizeMode::Off),
            ("0", SanitizeMode::Off),
            ("off", SanitizeMode::Off),
            ("false", SanitizeMode::Off),
            ("1", SanitizeMode::Record),
            ("on", SanitizeMode::Record),
            ("true", SanitizeMode::Record),
            ("fatal", SanitizeMode::Fatal),
        ] {
            assert_eq!(SanitizeMode::from_env_value(value), Ok(mode), "{value:?}");
        }
        for typo in ["fatl", "yes", "FATAL", " 1"] {
            let err = SanitizeMode::from_env_value(typo).expect_err("not a mode");
            assert!(err.to_string().contains("MEMNET_SANITIZE"), "{err}");
        }
    }

    #[test]
    fn mode_enabled_matrix() {
        assert!(!SanitizeMode::Off.enabled());
        assert!(SanitizeMode::Record.enabled());
        assert!(SanitizeMode::Fatal.enabled());
    }
}
