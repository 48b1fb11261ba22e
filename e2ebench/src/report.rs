//! The metric catalogue and the result line.
//!
//! Every run prints a human-readable table (name, value, unit, sample
//! count) followed by one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. An untraced run's `metrics` hold every end-to-end
//! metric; a traced run's hold every per-layer metric. Per-layer metrics
//! of a layer the workload does not exercise read 0 with 0 samples.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("questions_per_match", "q/match"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`, grouped by the
/// workspace module they measure.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.load_s", "s"),
    ("ingest.triples_per_s", "1/s"),
    ("ergraph.candidates_s", "s"),
    ("ergraph.attr_alignment_s", "s"),
    ("ergraph.sim_vectors_s", "s"),
    ("ergraph.prune_s", "s"),
    ("ergraph.graph_s", "s"),
    ("ergraph.candidate_pairs", "count"),
    ("ergraph.retained_ratio", "ratio"),
    ("ergraph.edges", "count"),
    ("ergraph.components", "count"),
    ("propagation.consistency_s", "s"),
    ("propagation.neighbor_s", "s"),
    ("propagation.inferred_sets_s", "s"),
    ("selection.select_s", "s"),
    ("propagation.dirty_vertices_per_loop", "count"),
    ("propagation.recomputed_sources_per_loop", "count"),
    ("propagation.recompute_ratio", "ratio"),
    ("core.begin_s", "s"),
    ("core.first_batch_s", "s"),
    ("core.next_batch_s", "s"),
    ("core.submit_s", "s"),
    ("core.finish_s", "s"),
    ("core.loops", "count"),
    ("crowd.labels", "count"),
    ("crowd.loop_gap_ms_p50", "ms"),
    ("crowd.loop_gap_ms_p90", "ms"),
    ("serve.create_s", "s"),
    ("serve.request_ms_p50", "ms"),
    ("serve.request_ms_p99", "ms"),
    ("serve.next_ms_p50", "ms"),
    ("serve.next_ms_p99", "ms"),
    ("serve.answer_ms_p50", "ms"),
    ("serve.answer_ms_p99", "ms"),
    ("serve.status_ms_p99", "ms"),
    ("serve.requests", "count"),
    ("serve.failed", "count"),
    ("serve.empty_next", "count"),
    ("serve.keepalive_reuse_ratio", "ratio"),
    ("serve.leases_reissued", "count"),
    ("serve.wal_bytes_per_answer", "B"),
    ("scale.load_s", "s"),
    ("scale.blocking_s", "s"),
    ("scale.plan_s", "s"),
    ("scale.write_s", "s"),
    ("scale.shard_run_s_p50", "s"),
    ("scale.shard_run_s_max", "s"),
    ("scale.coord_overhead_s", "s"),
    ("scale.merge_s", "s"),
    ("scale.pairs_scored", "count"),
    ("scale.shard_bytes", "B"),
    ("scale.shard_skew", "ratio"),
    ("wall.setup_s", "s"),
    ("wall.campaign_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// One measured value with the number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// The measurement.
    pub value: f64,
    /// Samples it summarizes (runs, loops, requests, ...).
    pub samples: usize,
    /// How it was taken, for the human-readable table.
    pub note: String,
}

/// What one workload run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Campaign runs attempted.
    pub attempted: usize,
    /// Runs that failed or whose outputs did not check out.
    pub failed: usize,
    /// Why each failed run failed.
    pub failures: Vec<String>,
    /// Measured metrics by catalogue name.
    pub values: BTreeMap<&'static str, Value>,
}

impl Outcome {
    /// Records `name` (which must be catalogued).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize, note: impl Into<String>) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the catalogue");
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name, Value { value, samples, note: note.into() });
    }

    /// Counts one failed run.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Whether every attempted run succeeded and checked out.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The table and the final JSON line for `catalogue`.
    pub fn render(&self, workload: &str, catalogue: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ =
            writeln!(out, "workload {workload}: {} run(s), {} failed", self.attempted, self.failed);
        for why in &self.failures {
            let _ = writeln!(out, "  FAILED: {why}");
        }
        let mut metrics = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let v = self.values.get(name).cloned().unwrap_or(Value {
                value: 0.0,
                samples: 0,
                note: "not exercised by this workload".into(),
            });
            let _ = writeln!(
                out,
                "  {name:<42} {:>14.6} {unit:<8} n={:<6} {}",
                v.value, v.samples, v.note
            );
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.value
            );
        }
        // Figures measured on the way (the crowd's loop gaps and the wall
        // clock on an untraced run) are shown too, outside the result line.
        for (name, v) in &self.values {
            if !catalogue.iter().any(|(n, _)| n == name) {
                let unit = unit_of(name).unwrap_or("");
                let label = format!("({name})");
                let _ = writeln!(
                    out,
                    "  {label:<42} {:>14.6} {unit:<8} n={:<6} {}",
                    v.value, v.samples, v.note
                );
            }
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};
    use remp_json::Json;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn the_result_line_is_json_with_every_catalogued_metric() {
        let mut o = Outcome { attempted: 2, ..Outcome::default() };
        o.set("setup_s", 0.812_734_5, 2, "median");
        o.set("f1", f64::NAN, 1, "");
        let text = o.render("w", END_TO_END);
        let last = text.lines().last().unwrap();
        let doc = Json::parse(last).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(2));
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.812_734_5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let f1 = doc.get("metrics").and_then(|m| m.get("f1")).unwrap();
        assert_eq!(f1.get("value").and_then(Json::as_f64), Some(0.0));
        o.fail("boom");
        assert!(!o.correct());
    }
}
