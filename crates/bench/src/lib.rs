//! Shared helpers for the `ompdart-bench` benchmark targets.

use ompdart_core::pipeline::StageTimings;
use ompdart_suite::all_benchmarks;

pub mod alloc_counter;

/// The nine unoptimized benchmark sources as `(name, source)` pairs — the
/// batch corpus the throughput benches push through `Ompdart::analyze_batch`.
pub fn corpus() -> Vec<(String, String)> {
    all_benchmarks()
        .iter()
        .map(|b| (b.unoptimized_file(), b.unoptimized.to_string()))
        .collect()
}

/// Render a per-stage timing line for bench logs.
pub fn format_stage_line(name: &str, timings: &StageTimings) -> String {
    format!("{name:<10} {timings}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_all_nine_benchmarks() {
        let c = corpus();
        assert_eq!(c.len(), 9);
        assert!(c.iter().any(|(n, _)| n == "lulesh_unoptimized.c"));
        assert!(c.iter().all(|(_, src)| src.contains("#pragma omp target")));
    }

    #[test]
    fn stage_line_contains_all_stages() {
        let line = format_stage_line("demo", &StageTimings::default());
        for stage in [
            "parse",
            "graphs",
            "accesses",
            "summaries",
            "plan",
            "rewrite",
            "total",
        ] {
            assert!(line.contains(stage), "{line}");
        }
    }
}
