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

use memnet_obs::json::{u64_str, Fields, JsonValue};

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
    /// Resolves the mode from the `MEMNET_SANITIZE` environment variable:
    /// `1`/`on`/`true` record, `fatal` records and panics on violations,
    /// anything else (or unset) is off. An explicit
    /// [`SimBuilder::sanitize`](crate::SimBuilder::sanitize) call wins.
    pub fn from_env() -> SanitizeMode {
        match std::env::var("MEMNET_SANITIZE").ok().as_deref() {
            Some("1" | "on" | "true") => SanitizeMode::Record,
            Some("fatal") => SanitizeMode::Fatal,
            _ => SanitizeMode::Off,
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

/// Live sanitizer state carried by the running `System`.
#[derive(Debug)]
pub(crate) struct Sanitizer {
    fatal: bool,
    checks: u64,
    violations: Vec<String>,
    dropped: u64,
    /// CTAs handed to `Gpu::launch` across all kernels.
    pub(crate) ctas_launched: u64,
    /// Orphaned CTAs dropped with a dead GPU because no survivor existed.
    pub(crate) ctas_dropped: u64,
}

impl Sanitizer {
    pub(crate) fn new(fatal: bool) -> Sanitizer {
        Sanitizer {
            fatal,
            checks: 0,
            violations: Vec::new(),
            dropped: 0,
            ctas_launched: 0,
            ctas_dropped: 0,
        }
    }

    /// Counts one phase-boundary checkpoint.
    #[inline]
    pub(crate) fn checkpoint(&mut self) {
        self.checks += 1;
    }

    /// Records one violation, dropping (but counting) past the cap.
    pub(crate) fn record(&mut self, msg: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(msg);
        } else {
            self.dropped += 1;
        }
    }

    /// The snapshot record of the accumulated audit state, so a restored
    /// sanitizing run reports totals identical to an unbroken one.
    pub(crate) fn snapshot(&self) -> JsonValue {
        let violations = self.violations.iter().cloned().map(JsonValue::String);
        JsonValue::object([
            ("checks", u64_str(self.checks)),
            ("violations", JsonValue::Array(violations.collect())),
            ("dropped", u64_str(self.dropped)),
            ("ctas_launched", u64_str(self.ctas_launched)),
            ("ctas_dropped", u64_str(self.ctas_dropped)),
        ])
    }

    /// Reads back a [`Sanitizer::snapshot`] record. The fatal flag is the
    /// restoring run's own choice and is left untouched.
    pub(crate) fn restore(&mut self, f: &Fields) -> Result<(), String> {
        *self = Sanitizer {
            fatal: self.fatal,
            checks: f.req("checks")?.uint_str()?,
            violations: f.req("violations")?.list(|x| x.str().map(str::to_string))?,
            dropped: f.req("dropped")?.uint_str()?,
            ctas_launched: f.req("ctas_launched")?.uint_str()?,
            ctas_dropped: f.req("ctas_dropped")?.uint_str()?,
        };
        Ok(())
    }

    /// Finishes the run: panics in fatal mode if anything was found,
    /// otherwise returns the report.
    pub(crate) fn into_report(self) -> SanitizerReport {
        let rep = SanitizerReport {
            checks: self.checks,
            violations: self.violations,
            dropped: self.dropped,
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
    fn mode_enabled_matrix() {
        assert!(!SanitizeMode::Off.enabled());
        assert!(SanitizeMode::Record.enabled());
        assert!(SanitizeMode::Fatal.enabled());
    }
}
