//! Reference engines the product's engines are pinned against. Nothing in
//! the product calls them: they are compiled for this crate's tests and,
//! with the `oracle` feature, for the workspace's property tests and the
//! `link_scale` bench.
//!
//! The interprocedural fixed point here is the pre-condensation engine: a
//! whole-program `while changed` sweep. Unlike
//! [`ProgramSummaries::propagate`], it needs as many passes as the call
//! graph is deep, so whoever calls it says how many it may take:
//! convergence on a call chain of depth `d` needs `max_passes >= d`. That
//! asymptotic difference is what `link_scale` measures.

use crate::interproc::{
    call_graph, is_pure_builtin, merge_known_call, merge_unknown_call, take_conservative_corner,
    FunctionSummary, ProgramSummaries, PropagationNode,
};
use crate::pipeline::SummarizedUnit;
use crate::program::merged_propagation_inputs;
use ompdart_frontend::Symbol;
use std::collections::HashMap;
use std::sync::Arc;

/// The fixed point of `seeds` over `nodes` by whole-program sweeps, at most
/// `max_passes` of them per round.
pub fn propagate_sequential(
    nodes: &[PropagationNode<'_>],
    seeds: &HashMap<Symbol, Arc<FunctionSummary>>,
    max_passes: usize,
    clobber_globals: bool,
) -> ProgramSummaries {
    let mut result = ProgramSummaries {
        functions: seeds.clone(),
        base: None,
        passes: 0,
    };
    run_passes(&mut result, nodes, max_passes, clobber_globals);
    result
}

/// [`crate::Program::propagate_merged`] through [`propagate_sequential`]:
/// the units' seeds and call graphs merged as the link stage merges them.
pub fn propagate_merged_sequential(
    units: &[Arc<SummarizedUnit>],
    options: &crate::OmpDartOptions,
    max_passes: usize,
) -> ProgramSummaries {
    let (seeds, nodes) = merged_propagation_inputs(units);
    propagate_sequential(&nodes, &seeds, max_passes, options.pessimistic_globals)
}

/// Whole-program sweeps until no summary changes. The members of recursive
/// components then take the conservative corner of the order bits, as the
/// wavefront engine makes them, and the sweeps run again so their callers
/// see it.
fn run_passes(
    summaries: &mut ProgramSummaries,
    nodes: &[PropagationNode<'_>],
    max_passes: usize,
    clobber_globals: bool,
) {
    let cond = crate::scc::condense(&call_graph(nodes));
    let recursive: Vec<Symbol> = (0..cond.len())
        .filter(|&c| cond.cyclic[c])
        .flat_map(|c| cond.members[c].iter().map(|&v| nodes[v].name))
        .collect();
    let mut passes = 0;
    loop {
        sweep(summaries, nodes, max_passes, clobber_globals);
        passes += summaries.passes;
        let mut cornered = false;
        for name in &recursive {
            if let Some(summary) = summaries.functions.get_mut(name) {
                cornered |= take_conservative_corner(Arc::make_mut(summary));
            }
        }
        if !cornered {
            break;
        }
    }
    summaries.passes = passes;
}

fn sweep(
    summaries: &mut ProgramSummaries,
    nodes: &[PropagationNode<'_>],
    max_passes: usize,
    clobber_globals: bool,
) {
    let working = |functions: &HashMap<Symbol, Arc<FunctionSummary>>, name: Symbol| {
        functions
            .get(&name)
            .map(|summary| FunctionSummary::clone(summary))
            .unwrap_or_default()
    };
    let functions = &mut summaries.functions;
    for pass in 0..max_passes.max(1) {
        summaries.passes = pass + 1;
        let mut changed = false;
        for node in nodes {
            for call in node.calls.iter() {
                let Some(callee_summary) = functions.get(&call.callee).cloned() else {
                    if clobber_globals && !is_pure_builtin(call.callee) {
                        let mut caller = working(functions, node.name);
                        if merge_unknown_call(&mut caller, node, call.on_device) {
                            functions.insert(node.name, Arc::new(caller));
                            changed = true;
                        }
                    }
                    continue;
                };
                let mut caller = working(functions, node.name);
                if merge_known_call(&mut caller, call, &callee_summary) {
                    functions.insert(node.name, Arc::new(caller));
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}
