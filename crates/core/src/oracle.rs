//! Reference engines the product's engines are pinned against. Nothing in
//! the product calls them: they are compiled for this crate's tests and,
//! with the `oracle` feature, for the workspace's property tests and the
//! `link_scale` bench.
//!
//! The interprocedural fixed point here is the pre-condensation engine: a
//! whole-program `while changed` sweep over summaries kept by name. Unlike
//! the link's engine ([`crate::Program::propagate_merged`]), it needs as
//! many passes as the call graph is deep, so whoever calls it says how many
//! it may take: convergence on a call chain of depth `d` needs
//! `max_passes >= d`. That asymptotic difference is what `link_scale`
//! measures.

use crate::interproc::{
    merge_known_call, merge_unknown_call, take_conservative_corner, FunctionSummary,
    ProgramSummaries, PropagationNode,
};
use crate::pipeline::SummarizedUnit;
use crate::scc::condense;
use ompdart_frontend::Symbol;
use std::collections::HashMap;
use std::sync::Arc;

/// Function name → summary: the reference keeps its summaries by name,
/// apart from the link's id table.
type Summaries = HashMap<Symbol, Arc<FunctionSummary>>;

/// The fixed point of `seeds` over `nodes` by whole-program sweeps, at most
/// `max_passes` of them per round.
pub fn propagate_sequential(
    nodes: &[PropagationNode<'_>],
    seeds: &Summaries,
    max_passes: usize,
    clobber_globals: bool,
) -> ProgramSummaries {
    let mut functions = seeds.clone();
    let passes = run_passes(&mut functions, nodes, max_passes, clobber_globals);
    let mut summaries = ProgramSummaries::default();
    for (name, summary) in functions {
        let id = summaries.intern(name);
        summaries.slot_mut(id).summary = Some(summary);
    }
    summaries.passes = passes;
    summaries
}

/// [`crate::Program::propagate_merged`] through [`propagate_sequential`]:
/// the units' seeds and call graphs merged as the link stage merges them.
pub fn propagate_merged_sequential(
    units: &[Arc<SummarizedUnit>],
    options: &crate::OmpDartOptions,
    max_passes: usize,
) -> ProgramSummaries {
    let functions = || {
        units.iter().flat_map(|unit| {
            let exports = unit.exports();
            (exports.functions.iter()).map(move |f| (f, &exports.globals[..]))
        })
    };
    let seeds = functions()
        .map(|(f, _)| (f.resolved, Arc::clone(&f.link.seed)))
        .collect();
    let nodes: Vec<PropagationNode<'_>> = functions().map(|(f, globals)| f.node(globals)).collect();
    propagate_sequential(&nodes, &seeds, max_passes, options.pessimistic_globals)
}

/// Whole-program sweeps until no summary changes. The members of recursive
/// components then take the conservative corner of the order bits, as the
/// wavefront engine makes them, and the sweeps run again so their callers
/// see it. Returns the passes the sweeps took.
fn run_passes(
    functions: &mut Summaries,
    nodes: &[PropagationNode<'_>],
    max_passes: usize,
    clobber_globals: bool,
) -> usize {
    // The call graph among `nodes`, by name.
    let index: HashMap<Symbol, usize> = (nodes.iter().enumerate())
        .map(|(i, node)| (node.name, i))
        .collect();
    let adj: Vec<Vec<usize>> = (nodes.iter())
        .map(|node| (node.calls.iter()).filter_map(|call| index.get(&call.callee).copied()))
        .map(Iterator::collect)
        .collect();
    let cond = condense(adj.len(), |v| &adj[v]);
    let recursive: Vec<Symbol> = (0..cond.len())
        .filter(|&c| cond.cyclic[c])
        .flat_map(|c| cond.members(c).iter().map(|&v| nodes[v].name))
        .collect();
    let mut passes = 0;
    loop {
        passes += sweep(functions, nodes, max_passes, clobber_globals);
        let mut cornered = false;
        for name in &recursive {
            if let Some(summary) = functions.get_mut(name) {
                cornered |= take_conservative_corner(Arc::make_mut(summary));
            }
        }
        if !cornered {
            return passes;
        }
    }
}

/// Sweeps over every node until nothing changes, at most `max_passes`;
/// returns how many ran.
fn sweep(
    functions: &mut Summaries,
    nodes: &[PropagationNode<'_>],
    max_passes: usize,
    clobber_globals: bool,
) -> usize {
    let working = |functions: &Summaries, name: Symbol| {
        functions
            .get(&name)
            .map(|summary| FunctionSummary::clone(summary))
            .unwrap_or_default()
    };
    for pass in 0..max_passes.max(1) {
        let mut changed = false;
        for node in nodes {
            for call in node.calls.iter() {
                let mut caller = working(functions, node.name);
                let merged = match functions.get(&call.callee) {
                    Some(callee) => merge_known_call(&mut caller, call, callee),
                    None => merge_unknown_call(&mut caller, call, node.globals, clobber_globals),
                };
                if merged {
                    functions.insert(node.name, Arc::new(caller));
                    changed = true;
                }
            }
        }
        if !changed {
            return pass + 1;
        }
    }
    max_passes.max(1)
}
