//! Mapping quality on the paper ports: each port is analysed in both
//! planner modes, the unoptimized, mapped, expert and lifetimes variants
//! run on the offload simulator, and the generated mappings are compared
//! with the expert's (the paper's Figures 3-6 as ratios).
//!
//! The counts are deterministic and do not depend on the seed, so the
//! five ratios are gated with bound 0. Every workload runs this pass once,
//! after its timed part, as part of checking outputs.

use crate::inputs::{lulesh_mf, Units};
use crate::json::{obj, Value};
use ompdart_core::{verify_source, Ompdart};
use ompdart_frontend::parser::parse_str;
use ompdart_sim::{geometric_mean, simulate, CostModel, SimConfig, TransferProfile};
use ompdart_suite::{all_benchmarks, lulesh_multifile_concat, lulesh_multifile_expert_concat};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One paper port: its translation units (one, or three for `lulesh_mf`)
/// and the single-file forms the simulator runs.
pub struct Port {
    pub name: String,
    pub units: Units,
    pub unoptimized: String,
    pub expert: String,
}

/// The nine ports of the paper's Table III plus the linked `lulesh_mf`.
pub fn ports() -> Vec<Port> {
    let mut ports: Vec<Port> = all_benchmarks()
        .into_iter()
        .map(|b| Port {
            name: b.name.to_string(),
            units: vec![(b.unoptimized_file(), b.unoptimized.to_string())],
            unoptimized: b.unoptimized.to_string(),
            expert: b.expert.to_string(),
        })
        .collect();
    ports.push(Port {
        name: "lulesh_mf".to_string(),
        units: lulesh_mf(),
        unoptimized: lulesh_multifile_concat(),
        expert: lulesh_multifile_expert_concat(),
    });
    ports
}

/// What one analysis of a port produced: per-unit rewrites and plan JSON.
#[derive(PartialEq)]
pub struct PortAnalysis {
    pub rewrites: Vec<String>,
    pub plans_json: Vec<String>,
}

impl PortAnalysis {
    pub fn concatenated(&self) -> String {
        self.rewrites.concat()
    }
}

/// Analyse `units` with `tool` the way the CLI would: one input alone,
/// several inputs as one linked program. Plan JSON is rendered as part of
/// the call, as `--plan-json` and every daemon response do.
pub fn analyze_units(tool: &Ompdart, units: &[(String, String)]) -> Result<PortAnalysis, String> {
    if let [(name, source)] = units {
        let analysis = tool.analyze(name, source).map_err(|e| e.to_string())?;
        Ok(PortAnalysis {
            rewrites: vec![analysis.rewritten_source().to_string()],
            plans_json: vec![analysis.plans_json()],
        })
    } else {
        let program = tool.analyze_program(units).map_err(|e| e.to_string())?;
        Ok(PortAnalysis {
            rewrites: program
                .units
                .iter()
                .map(|u| u.rewrite.source.clone())
                .collect(),
            plans_json: program.units.iter().map(|u| u.plans_json()).collect(),
        })
    }
}

pub fn fresh_tool(lifetimes: bool) -> Ompdart {
    Ompdart::builder().lifetimes(lifetimes).build()
}

/// Simulated cost of one program variant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Variant {
    pub profile: TransferProfile,
    pub sim_seconds: f64,
}

impl Variant {
    fn to_json(self) -> Value {
        obj([
            ("bytes", self.profile.total_bytes().into()),
            ("calls", self.profile.total_calls().into()),
            ("sim_s", self.sim_seconds.into()),
        ])
    }
}

pub struct PortRow {
    pub name: String,
    pub unoptimized: Variant,
    pub mapped: Variant,
    pub expert: Variant,
    pub lifetimes: Variant,
}

#[derive(Default)]
pub struct Quality {
    pub rows: Vec<PortRow>,
    pub bytes_vs_expert: f64,
    pub lifetimes_bytes_vs_expert: f64,
    pub calls_vs_expert: f64,
    pub simtime_vs_expert: f64,
    pub simtime_vs_unopt: f64,
    /// Checks made (one per simulated or verified variant).
    pub attempted: u64,
    pub failures: Vec<String>,
    pub stale_reads: u64,
    /// Time spent inside the simulator (summed over threads) and in
    /// `verify`, for the layer metrics of `paper_suite`.
    pub sim_wall: Duration,
    pub verify_wall: Duration,
    pub verified_units: u64,
}

const VARIANTS: [&str; 4] = ["unoptimized", "mapped", "expert", "lifetimes"];

type Simulated = Result<(Variant, Vec<String>, Duration), String>;

fn simulate_text(source: &str) -> Simulated {
    let (_, parsed) = parse_str("variant.c", source);
    if !parsed.is_ok() {
        return Err("does not parse".into());
    }
    let outcome = simulate(&parsed.unit, SimConfig::default())
        .map_err(|e| format!("simulation failed: {e}"))?;
    let variant = Variant {
        profile: outcome.profile,
        sim_seconds: outcome.profile.total_time(&CostModel::default()),
    };
    Ok((variant, outcome.output, outcome.sim_time))
}

/// Simulate every source on as many threads as the machine has cores.
/// The pass runs outside every timed section, and two of the ports take
/// most of its time, so the sources are handed out one by one.
fn simulate_all(sources: &[&str]) -> Vec<Simulated> {
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Simulated>>> = sources.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..ompdart_core::pool::available_width() {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(source) = sources.get(index) else {
                    break;
                };
                let simulated = simulate_text(source);
                *results[index].lock().expect("no holder panics") = Some(simulated);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no holder panics")
                .expect("every index below the length was claimed")
        })
        .collect()
}

/// Run the whole quality pass over the ten ports.
pub fn measure() -> Quality {
    measure_ports(ports())
}

/// The quality pass over `ports`. A port whose analysis or simulation
/// fails is counted in `failures` and left out of the ratios.
pub fn measure_ports(ports: Vec<Port>) -> Quality {
    let mut quality = Quality::default();

    // The four variants of each port: [unoptimized, mapped, expert,
    // lifetimes], or `None` when an analysis failed.
    let mut variants: Vec<Option<[String; 4]>> = Vec::new();
    for port in &ports {
        let mut rewrites = Vec::new();
        for lifetimes in [false, true] {
            quality.attempted += 1;
            match analyze_units(&fresh_tool(lifetimes), &port.units) {
                Ok(analysis) => rewrites.push(analysis.concatenated()),
                Err(e) => quality
                    .failures
                    .push(format!("{}: analysis failed: {e}", port.name)),
            }
        }
        variants.push(match <[String; 2]>::try_from(rewrites) {
            Ok([mapped, lifetimes]) => Some([
                port.unoptimized.clone(),
                mapped,
                port.expert.clone(),
                lifetimes,
            ]),
            Err(_) => None,
        });
    }

    let sources: Vec<&str> = variants
        .iter()
        .flatten()
        .flat_map(|four| four.iter().map(String::as_str))
        .collect();
    let mut simulated = simulate_all(&sources).into_iter();

    let mut ratios: [Vec<f64>; 5] = Default::default();
    for (port, four) in ports.iter().zip(&variants) {
        let Some(four) = four else { continue };
        let mut done = Vec::new();
        for label in VARIANTS {
            quality.attempted += 1;
            match simulated.next().expect("one result per source") {
                Ok((variant, output, wall)) => {
                    quality.sim_wall += wall;
                    done.push((variant, output));
                }
                Err(e) => quality.failures.push(format!("{} {label}: {e}", port.name)),
            }
        }
        let Ok([unopt, mapped, expert, lifetimes]) = <[(Variant, Vec<String>); 4]>::try_from(done)
        else {
            continue;
        };

        // A generated mapping must never change what the host prints.
        for (label, output) in [("mapped", &mapped.1), ("lifetimes", &lifetimes.1)] {
            quality.attempted += 1;
            if *output != unopt.1 {
                quality.failures.push(format!(
                    "{}: {label} host output differs from the unoptimized program's",
                    port.name
                ));
            }
        }

        // ... and the stale-read checker must accept everything we emit.
        // It looks at one function at a time, so it cannot see the data
        // region `lulesh_mf`'s driver holds around kernels in other
        // units: there its findings are recorded, not counted as failures.
        let interprocedural = port.units.len() > 1;
        for (label, source) in [("mapped", &four[1]), ("lifetimes", &four[3])] {
            quality.attempted += 1;
            let (report, wall) = crate::harness::timed(|| verify_source("variant.c", source));
            quality.verify_wall += wall;
            quality.verified_units += 1;
            match report {
                Ok(report) => {
                    quality.stale_reads += report.stale_reads.len() as u64;
                    if !report.is_clean() && !interprocedural {
                        quality.failures.push(format!(
                            "{}: verify found {} stale read(s) in the {label} variant",
                            port.name,
                            report.stale_reads.len()
                        ));
                    }
                }
                Err(_) => quality
                    .failures
                    .push(format!("{}: {label} variant does not parse", port.name)),
            }
        }

        let row = PortRow {
            name: port.name.clone(),
            unoptimized: unopt.0,
            mapped: mapped.0,
            expert: expert.0,
            lifetimes: lifetimes.0,
        };
        let bytes = |v: &Variant| v.profile.total_bytes() as f64;
        let calls = |v: &Variant| v.profile.total_calls() as f64;
        ratios[0].push(bytes(&row.mapped) / bytes(&row.expert));
        ratios[1].push(bytes(&row.lifetimes) / bytes(&row.expert));
        ratios[2].push(calls(&row.mapped) / calls(&row.expert));
        ratios[3].push(row.mapped.sim_seconds / row.expert.sim_seconds);
        ratios[4].push(row.mapped.sim_seconds / row.unoptimized.sim_seconds);
        quality.rows.push(row);
    }
    quality.bytes_vs_expert = geometric_mean(&ratios[0]);
    quality.lifetimes_bytes_vs_expert = geometric_mean(&ratios[1]);
    quality.calls_vs_expert = geometric_mean(&ratios[2]);
    quality.simtime_vs_expert = geometric_mean(&ratios[3]);
    quality.simtime_vs_unopt = geometric_mean(&ratios[4]);
    quality
}

impl Quality {
    /// The five end-to-end quality metrics, by name.
    pub fn metrics(&self) -> [(&'static str, f64); 5] {
        [
            ("bytes_vs_expert", self.bytes_vs_expert),
            ("lifetimes_bytes_vs_expert", self.lifetimes_bytes_vs_expert),
            ("calls_vs_expert", self.calls_vs_expert),
            ("simtime_vs_expert", self.simtime_vs_expert),
            ("simtime_vs_unopt", self.simtime_vs_unopt),
        ]
    }

    /// The ledger's `ports[]` table.
    pub fn ports_json(&self) -> Value {
        Value::Array(
            self.rows
                .iter()
                .map(|row| {
                    obj([
                        ("port", row.name.as_str().into()),
                        ("unoptimized", row.unoptimized.to_json()),
                        ("mapped", row.mapped.to_json()),
                        ("expert", row.expert.to_json()),
                        ("lifetimes", row.lifetimes.to_json()),
                    ])
                })
                .collect(),
        )
    }
}
