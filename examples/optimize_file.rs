//! Command-line use of OMPDart: read an OpenMP offload C file, insert data
//! mappings, and print (or write) the transformed source — the same workflow
//! as the paper's LibTooling-based tool, driven through the `Ompdart`
//! builder facade. (The installable `ompdart` binary wraps the same API
//! with `analyze`/`explain`/`diff-plan`/`batch` subcommands.)
//!
//! ```sh
//! cargo run --release --example optimize_file -- input.c            # to stdout
//! cargo run --release --example optimize_file -- input.c output.c   # to a file
//! ```
//!
//! Without arguments the example optimizes the bundled unoptimized `hotspot`
//! benchmark so it can be run out of the box, and — like
//! `reproduce_paper` — finishes by running the result through `explain()`
//! so every inserted construct justifies itself.

use ompdart_core::Ompdart;
use ompdart_suite::by_name;
use std::error::Error;

fn main() {
    if let Err(err) = run() {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, source) = match args.first() {
        Some(path) => (path.clone(), std::fs::read_to_string(path)?),
        None => {
            let bench = by_name("hotspot").expect("bundled hotspot benchmark missing");
            eprintln!("no input given; optimizing the bundled hotspot benchmark");
            (bench.unoptimized_file(), bench.unoptimized.to_string())
        }
    };

    // The builder facade: configure once, analyze into the unit's analysis.
    let tool = Ompdart::builder().build();
    let analysis = tool.analyze(&name, &source)?;

    let stats = analysis.stats();
    eprintln!(
        "{}: {} kernels, {} mapped variables, {} constructs inserted",
        name,
        stats.kernels,
        stats.mapped_variables,
        stats.total_constructs(),
    );
    eprintln!("stage timings: {}", analysis.timings());
    for diag in analysis.diagnostics().iter() {
        eprintln!("{}", diag.render(analysis.source_file()));
    }

    // Every mapping decision explains itself: the dataflow fact, the
    // deciding pipeline stage, and the source location that forced it.
    eprintln!(
        "\n=== why each construct exists ===\n{}",
        analysis.explain()
    );

    match args.get(1) {
        Some(out_path) => {
            std::fs::write(out_path, analysis.rewritten_source())?;
            eprintln!("wrote {out_path}");
        }
        None => println!("{}", analysis.rewritten_source()),
    }
    Ok(())
}
