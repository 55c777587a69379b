//! The benchmark must be repeatable where it can be: the same seed gives
//! byte-identical inputs and the same request schedule, and everything
//! that is a count of a deterministic artefact (tokens, CFG nodes,
//! constructs, re-seeded functions, byte sizes, simulated transfers)
//! reads exactly the same on two runs. `BENCHMARK.json` must also name
//! exactly the workloads and metrics the program reports.

use ompdart_ledger::harness::Pace;
use ompdart_ledger::inputs::{self, Request};
use ompdart_ledger::json::Value;
use ompdart_ledger::layers::{self, Metrics, ProbeProgram};
use ompdart_ledger::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use ompdart_ledger::quality;
use ompdart_ledger::trace::Recorder;
use ompdart_suite::corpus;
use std::path::PathBuf;

#[test]
fn same_seed_same_inputs_and_schedule() {
    for seed in [7u64, 42] {
        assert_eq!(corpus::generate(120, seed), corpus::generate(120, seed));
        assert_eq!(inputs::edit_sites(120, seed), inputs::edit_sites(120, seed));
        let schedule =
            |seed| -> Vec<Request> { inputs::request_schedule(seed, 8).take(5000).collect() };
        assert_eq!(schedule(seed), schedule(seed));
    }
    assert_ne!(corpus::generate(120, 7), corpus::generate(120, 42));
    let a: Vec<Request> = inputs::request_schedule(7, 8).take(200).collect();
    let b: Vec<Request> = inputs::request_schedule(42, 8).take(200).collect();
    assert_ne!(a, b, "the seed must drive the request mix");
}

#[test]
fn schedule_follows_the_stated_mix() {
    let n = 20_000usize;
    let mut shares = [0usize; 5];
    for request in inputs::request_schedule(3, 8).take(n) {
        let class = match request {
            Request::Warm => 0,
            Request::Edit => 1,
            Request::BigWarm | Request::BigEdit => 2,
            Request::Explain { position } => {
                assert!(position < 8);
                3
            }
            Request::Stats | Request::CheckPlans => 4,
        };
        shares[class] += 1;
    }
    for (count, percent) in shares.iter().zip([40.0, 30.0, 10.0, 10.0, 10.0]) {
        let share = *count as f64 * 100.0 / n as f64;
        assert!((share - percent).abs() < 1.5, "{share} vs {percent}");
    }
}

#[test]
fn edits_are_unique_per_nonce_and_only_touch_their_unit() {
    let base = corpus::generate(40, 42);
    let sites = inputs::edit_sites(40, 42);
    let edit = |nonce| {
        let mut units = base.clone();
        inputs::edit_stage(&mut units[sites.mid].1, sites.mid, nonce);
        units
    };
    let (one, two) = (edit(1), edit(2));
    assert_ne!(one[sites.mid].1, two[sites.mid].1);
    for (i, unit) in one.iter().enumerate() {
        assert_eq!(*unit == base[i], i != sites.mid);
    }
    assert_eq!(
        inputs::expected_stage_rewrite(&one[sites.mid].1, 0),
        one[sites.mid].1,
        "only the nonce-0 text is replaced"
    );
    assert_eq!(
        inputs::expected_stage_rewrite(&edit(0)[sites.mid].1, 2),
        two[sites.mid].1
    );

    // With nonce 0 it is `corpus::edit_one_function`'s edit, byte for byte,
    // and it finds its stage in a packed unit as well.
    let mut by_suite = base.clone();
    corpus::edit_one_function(&mut by_suite, sites.mid);
    assert_eq!(edit(0), by_suite);
    let mut packed = inputs::pack(&base, 10);
    assert_eq!(packed.len(), 4);
    inputs::edit_stage(&mut packed[sites.mid / 10].1, sites.mid, 0);
    assert_eq!(packed, inputs::pack(&by_suite, 10));
}

fn probe_counts(tag: &str) -> Metrics {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("probe-{tag}"));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let corpus = corpus::generate(40, 42);
    let mut corpus_edited = corpus.clone();
    let mid = inputs::edit_sites(40, 42).mid;
    inputs::edit_stage(&mut corpus_edited[mid].1, mid, 0);
    let small = inputs::lulesh_mf();
    let mut small_edited = small.clone();
    small_edited[0].1 = inputs::CommentEdit::locate(&small[0].0, &small[0].1)
        .unwrap()
        .apply(&small[0].1, 0);
    let programs = [
        ProbeProgram {
            units: corpus,
            edited: corpus_edited,
        },
        ProbeProgram {
            units: small,
            edited: small_edited,
        },
    ];
    let mut metrics = Metrics::new();
    let mut failures = Vec::new();
    let (recorder, pace) = (Recorder::new(true), Pace::new());
    layers::probe(
        layers::Clocks {
            recorder: &recorder,
            pace: &pace,
        },
        &programs,
        &scratch,
        &mut metrics,
        &mut failures,
    );
    assert_eq!(failures, Vec::<String>::new());
    let _ = std::fs::remove_dir_all(&scratch);
    metrics
}

#[test]
fn count_type_layer_metrics_repeat_exactly() {
    let (first, second) = (probe_counts("a"), probe_counts("b"));
    let mut compared = 0;
    for layer in PER_LAYER.iter().filter(|l| l.count) {
        assert_eq!(
            first.get(layer.name),
            second.get(layer.name),
            "{} differs between two runs",
            layer.name
        );
        compared += usize::from(first.contains_key(layer.name));
    }
    assert!(compared >= 14, "only {compared} count metrics were probed");
    assert!(first["frontend.tokens_per_unit"] > 0.0);
    assert!(first["link.reseeded_functions"] > 0.0);
    assert_eq!(first["store.hit_ratio"], 1.0);
}

#[test]
fn quality_metrics_repeat_exactly() {
    // The cheap ports only: the whole pass takes minutes unoptimised.
    let cheap = || -> Vec<quality::Port> {
        quality::ports()
            .into_iter()
            .filter(|p| ["bfs", "xsbench", "lulesh_mf"].contains(&p.name.as_str()))
            .collect()
    };
    let (first, second) = (
        quality::measure_ports(cheap()),
        quality::measure_ports(cheap()),
    );
    assert_eq!(first.failures, Vec::<String>::new());
    assert_eq!(first.rows.len(), 3);
    assert_eq!(first.metrics(), second.metrics());
    for (name, value) in first.metrics() {
        assert!(value > 0.0 && value.is_finite(), "{name} = {value}");
    }
    assert_eq!(first.ports_json(), second.ports_json());
}

#[test]
fn benchmark_json_names_what_the_program_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|entry| {
                entry
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    assert_eq!(
        names("workloads"),
        WORKLOADS
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };

    let end_to_end = doc.get("end_to_end").and_then(Value::as_array).unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, metric) in end_to_end.iter().zip(END_TO_END) {
        let field = |key: &str| entry.get(key).and_then(Value::as_str).unwrap();
        assert_eq!(field("name"), metric.name);
        assert_eq!(field("unit"), metric.unit);
        assert_eq!(field("better"), better(metric.better));
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            Some(metric.bound),
            "{}",
            metric.name
        );
    }

    let per_layer = doc.get("per_layer").and_then(Value::as_array).unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, layer) in per_layer.iter().zip(PER_LAYER) {
        let field = |key: &str| entry.get(key).and_then(Value::as_str).unwrap();
        assert_eq!(field("name"), layer.name);
        assert_eq!(field("unit"), layer.unit);
        assert_eq!(field("better"), better(layer.better));
    }
    assert_eq!(doc.get("paths").and_then(Value::as_array).unwrap().len(), 1);
}
