//! What one run reports: counts, correctness and named metrics, printed
//! for people and as the final JSON line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted (solve round trips, or applied events).
    pub attempted: u64,
    /// Ops that failed: error replies, sheds, aborts and failed checks.
    pub failed: u64,
    /// One line per failed check (the first few are printed).
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form context lines (sizes, sample counts, provenance).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check against the op it belongs to.
    pub fn fail(&mut self, error: impl Into<String>) {
        self.failed += 1;
        self.errors.push(error.into());
    }

    /// Correct when no op failed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final result line.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_full_digits() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_p50_ms", 1.234_567_890_1, "ms");
        r.metric("setup_s", 2.0, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.2345678901, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        r.fail("op 2: cost off");
        assert!(!r.correct());
    }
}
