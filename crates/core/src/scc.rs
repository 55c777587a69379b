//! Strongly-connected-component condensation of the call graph.
//!
//! The interprocedural fixed point ([`crate::interproc::ProgramSummaries`])
//! is a monotone data-flow problem over the call graph: summaries flow from
//! callee to caller, and the only reason the classic algorithm iterates the
//! *whole* program to convergence is recursion. Condensing the graph into
//! strongly connected components turns it into a DAG, and on a DAG every
//! node converges in a **single** visit once all of its callees have
//! converged. Only genuinely recursive components (a self-loop or a
//! mutual-recursion cycle) need inner fixed-point iteration — and those are
//! small in real programs.
//!
//! [`condense`] computes the condensation with an iterative Tarjan walk
//! (an explicit frame stack, so thousand-deep call chains cannot overflow
//! the thread stack) and groups the components into *wavefronts*: level 0
//! holds components with no callees outside themselves, level *k* holds
//! components whose deepest callee chain through the condensation has
//! length *k*. All components in one wavefront are pairwise edge-free, so
//! they can be converged in parallel; processing wavefronts in ascending
//! level order guarantees every cross-component callee summary is final
//! before any caller reads it.
//!
//! Everything here is deterministic: component ids follow Tarjan's emission
//! order (reverse topological — a cross edge always points to a smaller
//! id), members and wavefronts are sorted, and none of it depends on hash
//! iteration order or thread scheduling.
//!
//! The condensation is flat: a component's members and a wavefront's
//! components are each one range of a single vector, found through an
//! offset vector, so condensing a graph costs a fixed handful of
//! allocations however many nodes and levels it has.

/// The condensation of a directed graph.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// `comp[v]` — the component id of node `v`. Ids are assigned in
    /// Tarjan's emission order, which is reverse topological: for every
    /// edge `v -> w` crossing components, `comp[w] < comp[v]`.
    pub comp: Vec<usize>,
    /// Every component's members, component after component, each run
    /// ascending ([`Self::members`]).
    members: Vec<usize>,
    /// `member_starts[c]..member_starts[c + 1]` — component `c`'s run.
    member_starts: Vec<usize>,
    /// `levels[c]` — the wavefront of component `c`: 0 when every edge of
    /// the component stays inside it, otherwise 1 + the maximum level among
    /// its cross-component callees.
    pub levels: Vec<usize>,
    /// Every component id, level after level, each level ascending
    /// ([`Self::wavefront`]).
    wavefronts: Vec<usize>,
    /// `wavefront_starts[l]..wavefront_starts[l + 1]` — level `l`'s run.
    wavefront_starts: Vec<usize>,
    /// `cyclic[c]` — true when component `c` contains a cycle (two or more
    /// members, or a self-loop) and therefore needs inner fixed-point
    /// iteration instead of a single converging visit.
    pub cyclic: Vec<bool>,
}

impl Condensation {
    /// Number of strongly connected components.
    pub fn len(&self) -> usize {
        self.cyclic.len()
    }

    /// True for the condensation of the empty graph.
    pub fn is_empty(&self) -> bool {
        self.cyclic.is_empty()
    }

    /// The node indices of component `c`, ascending.
    pub fn members(&self, c: usize) -> &[usize] {
        &self.members[self.member_starts[c]..self.member_starts[c + 1]]
    }

    /// Number of wavefronts: one more than the deepest level.
    pub fn depth(&self) -> usize {
        self.wavefront_starts.len() - 1
    }

    /// The component ids at level `l`, ascending. No edge connects two
    /// components of one wavefront.
    pub fn wavefront(&self, l: usize) -> &[usize] {
        &self.wavefronts[self.wavefront_starts[l]..self.wavefront_starts[l + 1]]
    }

    /// Every wavefront, in ascending level order.
    pub fn wavefronts(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.depth()).map(|l| self.wavefront(l))
    }
}

/// Condense the graph over nodes `0..n` whose edges leave node `v` for
/// `successors(v)` into its strongly connected components and wavefront
/// levels.
///
/// Runs in O(nodes + edges). The Tarjan walk keeps its own frame stack on
/// the heap, so recursion depth is bounded by a constant regardless of how
/// deep the input's call chains are.
pub fn condense<'g>(n: usize, successors: impl Fn(usize) -> &'g [usize]) -> Condensation {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![UNVISITED; n];
    let mut members: Vec<usize> = Vec::with_capacity(n);
    let mut member_starts: Vec<usize> = vec![0];
    let mut counter = 0usize;
    // (node, next child offset) — the explicit recursion frames.
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, 0));
        while let Some(&(v, child)) = frames.last() {
            if let Some(&w) = successors(v).get(child) {
                frames.last_mut().expect("frame just read").1 += 1;
                if index[w] == UNVISITED {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let id = member_starts.len() - 1;
                    let start = members.len();
                    loop {
                        let w = stack.pop().expect("Tarjan stack holds the component");
                        on_stack[w] = false;
                        comp[w] = id;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    members[start..].sort_unstable();
                    member_starts.push(members.len());
                }
            }
        }
    }

    // Levels in emission order: every cross edge points at an
    // already-leveled (smaller-id) component.
    let components = member_starts.len() - 1;
    let mut levels = vec![0usize; components];
    let mut cyclic = vec![false; components];
    for c in 0..components {
        let scc = &members[member_starts[c]..member_starts[c + 1]];
        cyclic[c] = scc.len() > 1;
        for &v in scc {
            for &w in successors(v) {
                if comp[w] == c {
                    cyclic[c] = true;
                } else {
                    debug_assert!(comp[w] < c, "cross edges must point backwards");
                    levels[c] = levels[c].max(levels[comp[w]] + 1);
                }
            }
        }
    }
    // Wavefronts by counting sort on the level: components stay ascending
    // within a level.
    let depth = levels.iter().copied().max().map_or(0, |d| d + 1);
    let mut wavefront_starts = vec![0usize; depth + 1];
    for &level in &levels {
        wavefront_starts[level + 1] += 1;
    }
    for l in 0..depth {
        wavefront_starts[l + 1] += wavefront_starts[l];
    }
    let mut next = wavefront_starts.clone();
    let mut wavefronts = vec![0usize; components];
    for (c, &level) in levels.iter().enumerate() {
        wavefronts[next[level]] = c;
        next[level] += 1;
    }

    Condensation {
        comp,
        members,
        member_starts,
        levels,
        wavefronts,
        wavefront_starts,
        cyclic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let c = condense(0, |_| &[]);
        assert!(c.is_empty());
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn chain_is_singletons_in_reverse_topological_levels() {
        // 0 -> 1 -> 2 -> 3
        let adj = [vec![1], vec![2], vec![3], vec![]];
        let c = condense(adj.len(), |v| &adj[v]);
        assert_eq!(c.len(), 4);
        assert!(c.cyclic.iter().all(|&cy| !cy));
        // The sink is level 0, the source the deepest level.
        assert_eq!(c.levels[c.comp[3]], 0);
        assert_eq!(c.levels[c.comp[2]], 1);
        assert_eq!(c.levels[c.comp[1]], 2);
        assert_eq!(c.levels[c.comp[0]], 3);
        // Every cross edge points at a smaller component id.
        for (v, outs) in adj.iter().enumerate() {
            for &w in outs {
                assert!(c.comp[w] < c.comp[v]);
            }
        }
    }

    #[test]
    fn mutual_recursion_collapses_into_one_cyclic_component() {
        // 0 -> 1, 1 -> 0 (cycle); 2 -> 0 (caller of the cycle); 3 isolated.
        let adj = [vec![1], vec![0], vec![0], vec![]];
        let c = condense(adj.len(), |v| &adj[v]);
        assert_eq!(c.len(), 3);
        let cycle = c.comp[0];
        assert_eq!(c.comp[1], cycle);
        assert_eq!(c.members(cycle), [0, 1]);
        assert!(c.cyclic[cycle]);
        assert!(!c.cyclic[c.comp[2]]);
        assert_eq!(c.levels[cycle], 0);
        assert_eq!(c.levels[c.comp[2]], 1);
        assert_eq!(c.levels[c.comp[3]], 0);
    }

    #[test]
    fn self_loop_is_cyclic_singleton() {
        let adj = [vec![0], vec![0]];
        let c = condense(adj.len(), |v| &adj[v]);
        assert_eq!(c.len(), 2);
        assert!(c.cyclic[c.comp[0]]);
        assert!(!c.cyclic[c.comp[1]]);
        assert_eq!(c.levels[c.comp[1]], 1);
    }

    #[test]
    fn diamond_shares_one_wavefront_for_independent_components() {
        // 0 -> {1, 2}; {1, 2} -> 3. Components 1 and 2 are edge-free peers.
        let adj = [vec![1, 2], vec![3], vec![3], vec![]];
        let c = condense(adj.len(), |v| &adj[v]);
        assert_eq!(c.levels[c.comp[1]], 1);
        assert_eq!(c.levels[c.comp[2]], 1);
        let mid = c.wavefront(1);
        assert_eq!(mid.len(), 2);
        // Ascending ids inside a wavefront.
        assert!(mid.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // 100k-node chain: the recursive formulation would blow the stack.
        let n = 100_000;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|v| if v + 1 < n { vec![v + 1] } else { vec![] })
            .collect();
        let c = condense(adj.len(), |v| &adj[v]);
        assert_eq!(c.len(), n);
        assert_eq!(c.levels[c.comp[0]], n - 1);
        assert_eq!(c.depth(), n);
    }

    #[test]
    fn condensation_is_deterministic() {
        let adj = [vec![1, 2], vec![0, 3], vec![3], vec![4], vec![3]];
        let (a, b) = (
            condense(adj.len(), |v| &adj[v]),
            condense(adj.len(), |v| &adj[v]),
        );
        assert_eq!(a.comp, b.comp);
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.cyclic, b.cyclic);
        for c in 0..a.len() {
            assert_eq!(a.members(c), b.members(c));
        }
        assert!(a.wavefronts().eq(b.wavefronts()));
    }
}
