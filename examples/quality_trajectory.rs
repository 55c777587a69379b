//! The mapping-quality trajectory of this commit, as JSON on stdout: what
//! `BENCH_quality.json` records per PR.
//!
//! Per port (the nine paper ports and the linked `lulesh_mf`): bytes, memcpy
//! calls and simulated seconds of the unmapped program, the tool's mapping
//! and the expert's. Then the metamorphic ports:
//! every `_fn` variant of `lulesh` and `ace` (an interior kernel run moved
//! into a function — it must cost what its port costs), and `lulesh` with
//! *all* its kernels behind calls, the driver that holds no region because
//! only kernels anchor one (the known remaining gap).
//!
//! ```sh
//! cargo run --release --example quality_trajectory > /tmp/after.json
//! ```

use ompdart_core::Ompdart;
use ompdart_sim::{simulate_source, CostModel, SimConfig, TransferProfile};
use ompdart_suite::experiment::{map_and_simulate, run_all};
use ompdart_suite::outline::{fully_outlined_lulesh, kernel_run_variants};

/// `{"bytes":…,"calls":…,"sim_s":…}` of one simulated variant.
fn cost_json(profile: &TransferProfile) -> String {
    format!(
        "{{\"bytes\":{},\"calls\":{},\"sim_s\":{:.9}}}",
        profile.total_bytes(),
        profile.total_calls(),
        profile.total_time(&CostModel::default())
    )
}

fn main() {
    let results = run_all();
    let ports: Vec<String> = (results.iter())
        .map(|r| {
            format!(
                "    {{\"port\":\"{}\",\"unoptimized\":{},\"mapped\":{},\"expert\":{}}}",
                r.name,
                cost_json(&r.unoptimized.profile),
                cost_json(&r.ompdart.profile),
                cost_json(&r.expert.profile),
            )
        })
        .collect();

    let map = |name: String, source: String| {
        let mapped = map_and_simulate(&Ompdart::new(), &[(name, source)]);
        mapped.expect("the program maps and runs").run.profile
    };
    // Bytes and calls; the call itself costs a few host operations.
    let cost = |profile: &TransferProfile| (profile.total_bytes(), profile.total_calls());
    let mut variants = Vec::new();
    for port in ["lulesh", "ace"] {
        let bench = ompdart_suite::by_name(port).expect("port");
        let result = results.iter().find(|r| r.name == port).expect("port");
        let port_cost = cost(&result.ompdart.profile);
        let runs = kernel_run_variants(port, bench.unoptimized);
        let costing_the_same = (runs.iter())
            .filter(|(name, source)| cost(&map(format!("{name}.c"), source.clone())) == port_cost)
            .count();
        variants.push(format!(
            "    {{\"port\":\"{port}\",\"fn_variants\":{},\"cost_what_the_port_costs\":{},\"mapped\":{}}}",
            runs.len(),
            costing_the_same,
            cost_json(&result.ompdart.profile)
        ));
    }

    let outlined = fully_outlined_lulesh();
    let unmapped = simulate_source(&outlined, SimConfig::default()).expect("run");
    println!(
        "{{\n  \"ports\": [\n{}\n  ],\n  \"fn_variants\": [\n{}\n  ],\n  \
         \"lulesh_all_kernels_behind_calls\": {{\"unoptimized\":{},\"mapped\":{}}}\n}}",
        ports.join(",\n"),
        variants.join(",\n"),
        cost_json(&unmapped.profile),
        cost_json(&map("lulesh_outlined.c".into(), outlined)),
    );
}
