//! The mapping-quality trajectory of this commit, as JSON on stdout: what
//! `BENCH_quality.json` records per PR.
//!
//! Per port (the nine paper ports and the linked `lulesh_mf`): bytes, memcpy
//! calls and simulated seconds of the unmapped program, the tool's mapping,
//! the expert's, and the `--lifetimes` mapping. Then the metamorphic ports:
//! every `_fn` variant of `lulesh` and `ace` (an interior kernel run moved
//! into a function — it must cost what its port costs), and `lulesh` with
//! *all* its kernels behind calls, the driver that holds no region because
//! only kernels anchor one (the known remaining gap).
//!
//! ```sh
//! cargo run --release --example quality_trajectory > /tmp/after.json
//! ```

use ompdart_core::Ompdart;
use ompdart_sim::{simulate_source, CostModel, SimConfig};
use ompdart_suite::experiment::{
    run_all, run_multifile_benchmark, ExperimentConfig, VariantResult,
};
use ompdart_suite::outline::{kernel_run_variants, outline_lines, same_unit};

/// `{"bytes":…,"calls":…,"sim_s":…}` of one simulated variant.
fn cost_json(bytes: u64, calls: u64, seconds: f64) -> String {
    format!("{{\"bytes\":{bytes},\"calls\":{calls},\"sim_s\":{seconds:.9}}}")
}

fn variant_json(variant: &VariantResult, cost: &CostModel) -> String {
    let profile = &variant.profile;
    cost_json(
        profile.total_bytes(),
        profile.total_calls(),
        profile.total_time(cost),
    )
}

/// Bytes, calls and seconds of the tool's mapping of `source`, simulated.
fn mapped(name: &str, source: &str, cost: &CostModel) -> (u64, u64, f64) {
    let analysis = Ompdart::new().analyze(name, source).expect("analysis");
    let run = simulate_source(analysis.rewritten_source(), SimConfig::default()).expect("run");
    let profile = run.profile;
    (
        profile.total_bytes(),
        profile.total_calls(),
        profile.total_time(cost),
    )
}

/// `lulesh` with every kernel behind a call: four functions hold the
/// fifteen kernels (forces 1-4, motion 5-8, material 9-14, time step 15)
/// and `main` is left with no kernel of its own.
fn fully_outlined_lulesh() -> String {
    let lulesh = ompdart_suite::by_name("lulesh").expect("lulesh");
    let mut source = lulesh.unoptimized.to_string();
    // Back to front, so the kernel lines ahead keep their numbers.
    let phases = [
        ("time_step", 15, 15),
        ("material", 9, 14),
        ("motion", 5, 8),
        ("forces", 1, 4),
    ];
    for (name, first, last) in phases {
        // `main`'s kernels: the functions outlined so far sit ahead of it.
        let pragmas: Vec<usize> = (source.lines().enumerate())
            .skip_while(|(_, line)| !line.starts_with("int main("))
            .filter(|(_, line)| line.trim_start().starts_with("#pragma omp target"))
            .map(|(at, _)| at)
            .collect();
        let start = pragmas[first - 1];
        // A kernel is its pragma line and the `for` statement after it, up
        // to the line that closes the loop at the pragma's indentation.
        let indent = source.lines().nth(pragmas[last - 1]).unwrap();
        let indent = &indent[..indent.len() - indent.trim_start().len()];
        let close = format!("{indent}}}");
        let end = (source.lines().enumerate())
            .skip(pragmas[last - 1])
            .find(|(_, line)| *line == close)
            .map(|(at, _)| at + 1)
            .expect("the kernel's loop closes");
        let (function, rest) = outline_lines(
            &source,
            start..end,
            &format!("void {name}()"),
            &format!("{name}();"),
            &[],
        );
        source = same_unit(&function, &rest);
    }
    source
}

fn main() {
    let config = ExperimentConfig {
        lifetimes: true,
        ..ExperimentConfig::default()
    };
    let cost = config.cost;
    let mut ports = Vec::new();
    let linked = run_multifile_benchmark(&config).expect("lulesh_mf links");
    for result in run_all(&config).into_iter().chain([linked]) {
        let lifetimes = result.lifetimes.as_ref().expect("lifetimes variant");
        ports.push(format!(
            "    {{\"port\":\"{}\",\"unoptimized\":{},\"mapped\":{},\"expert\":{},\"lifetimes\":{}}}",
            result.name,
            variant_json(&result.unoptimized, &cost),
            variant_json(&result.ompdart, &cost),
            variant_json(&result.expert, &cost),
            variant_json(lifetimes, &cost),
        ));
    }

    let mut variants = Vec::new();
    for port in ["lulesh", "ace"] {
        let bench = ompdart_suite::by_name(port).expect("port");
        let (bytes, calls, seconds) = mapped(&bench.unoptimized_file(), bench.unoptimized, &cost);
        let runs = kernel_run_variants(port, bench.unoptimized);
        // Bytes and calls; the call itself costs a few host operations.
        let same = |(name, source): &&(String, String)| {
            let variant = mapped(&format!("{name}.c"), source, &cost);
            (variant.0, variant.1) == (bytes, calls)
        };
        variants.push(format!(
            "    {{\"port\":\"{port}\",\"fn_variants\":{},\"cost_what_the_port_costs\":{},\"mapped\":{}}}",
            runs.len(),
            runs.iter().filter(same).count(),
            cost_json(bytes, calls, seconds)
        ));
    }

    let outlined = fully_outlined_lulesh();
    let unmapped = simulate_source(&outlined, SimConfig::default()).expect("run");
    println!(
        "{{\n  \"ports\": [\n{}\n  ],\n  \"fn_variants\": [\n{}\n  ],\n  \
         \"lulesh_all_kernels_behind_calls\": {{\"unoptimized\":{},\"mapped\":{}}}\n}}",
        ports.join(",\n"),
        variants.join(",\n"),
        cost_json(
            unmapped.profile.total_bytes(),
            unmapped.profile.total_calls(),
            unmapped.profile.total_time(&cost)
        ),
        {
            let (bytes, calls, seconds) = mapped("lulesh_outlined.c", &outlined, &cost);
            cost_json(bytes, calls, seconds)
        },
    );
}
