//! The benchmark's contract — workloads, metric names, units,
//! directions and regression bounds — as `BENCHMARK.json` at the root
//! of the repo states it. That file is the only copy: it is compiled
//! in and parsed once.

use std::sync::OnceLock;

use serde::Deserialize;

/// `BENCHMARK.json`.
#[derive(Debug, Deserialize)]
pub struct Spec {
    /// Seconds the timed part of a run is sized for on the reference
    /// box. The work itself is fixed; the driver passes this value back
    /// as `--seconds`.
    pub run_seconds: u64,
    /// The workloads, in the order they run.
    pub workloads: Vec<Workload>,
    /// What the untraced pass reports; every workload reports all.
    pub end_to_end: Vec<Metric>,
    /// What the traced pass reports; a layer a workload bypasses reads 0.
    pub per_layer: Vec<Metric>,
}

/// One `workloads` entry.
#[derive(Debug, Deserialize)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

/// One `end_to_end` or `per_layer` entry.
#[derive(Debug, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Share of the base's median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    #[serde(default)]
    pub bound: f64,
}

/// The parsed contract.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses: a unit test reads it")
    })
}

/// Unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let s = spec();
    s.end_to_end
        .iter()
        .chain(&s.per_layer)
        .find(|m| m.name == name)
        .map(|m| m.unit.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the driver refuses a `BENCHMARK.json` outside of.
    #[test]
    fn benchmark_json_fits_the_drivers_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let s = spec();
        let mut names: Vec<&str> = s.workloads.iter().map(|w| w.name.as_str()).collect();
        names.extend(
            s.end_to_end
                .iter()
                .chain(&s.per_layer)
                .map(|m| m.name.as_str()),
        );
        for n in &names {
            assert!(ok_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(ok_unit(&m.unit), "{}", m.unit);
            assert!(m.better == "higher" || m.better == "lower", "{}", m.name);
        }
        assert!((2..=8).contains(&s.workloads.len()));
        assert!(s
            .workloads
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&s.end_to_end.len()) && (1..=128).contains(&s.per_layer.len()));
        assert!(s
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(s
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!((1..=60).contains(&s.run_seconds));
        assert!(include_str!("../../BENCHMARK.json").len() < 64 * 1024);
    }
}
