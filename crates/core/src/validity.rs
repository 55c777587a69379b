//! The host/device validity state machine.
//!
//! One forward walk over a function body (the hybrid AST-CFG traversal of
//! Section IV-D) tracks, per variable, which memory space holds its current
//! value: a write makes its side current and the other side stale, a read
//! of a stale side is a cross-space dependency somebody has to resolve.
//! Branches meet by ∧ on validity ([`merge_states`]), loop bodies are
//! walked twice so loop-carried dependencies show, and a write under a
//! condition implies a read of its target.
//!
//! The walk has three users, which differ only in the entry state and in
//! what a dependency *means* — the [`Transfers`] they plug in:
//!
//! * the planner ([`crate::dataflow`]) starts from "the host is current"
//!   and turns every dependency into a map clause or a `target update`;
//! * the summariser ([`crate::interproc::seed_summary`]) starts from "nothing
//!   is known" and records which reads observe the value the function was
//!   *entered* with (its exposed reads) and which side is current on every
//!   path out of it;
//! * the checker ([`crate::verify`]) reads a program that already carries
//!   its mappings: a dependency nothing in the program resolved is a stale
//!   read. The first two read programs without data directives; the checker
//!   applies the ones it meets through [`Transfers::enter`] and
//!   [`Transfers::exit`] — the only places the walk hands out its state —
//!   and, knowing what is present on the device, answers
//!   [`Transfers::folds`] itself.
//!
//! A call site enters the walk as the access sequence its callee's summary
//! stands for ([`crate::interproc::augment_with_call_effects`]): exposed
//! reads, then writes, the last of which also settles the other side when
//! the summary proves both current at the callee's exit.

use crate::access::{Access, AccessOrigin, FunctionAccesses};
use ompdart_frontend::ast::{NodeId, Stmt, StmtKind};
use ompdart_frontend::intern::FnvBuild;
use ompdart_frontend::omp::OmpDirective;
use ompdart_frontend::Symbol;
use std::collections::HashMap;

/// Per-variable validity state during the forward traversal.
#[derive(Clone, Debug)]
pub(crate) struct VarState {
    pub(crate) host_valid: bool,
    pub(crate) dev_valid: bool,
    /// True once the host may have written the variable after region entry.
    pub(crate) host_modified: bool,
    pub(crate) last_host_writer: Option<NodeId>,
    pub(crate) last_dev_writer: Option<NodeId>,
}

impl VarState {
    /// The planner's entry state: the host holds the current value and the
    /// device holds nothing.
    pub(crate) fn host_current() -> VarState {
        VarState {
            host_valid: true,
            ..VarState::unknown()
        }
    }

    /// The summariser's entry state: neither side is known to be current.
    pub(crate) fn unknown() -> VarState {
        VarState {
            host_valid: false,
            dev_valid: false,
            host_modified: false,
            last_host_writer: None,
            last_dev_writer: None,
        }
    }

    fn valid(&mut self, on_device: bool) -> &mut bool {
        match on_device {
            true => &mut self.dev_valid,
            false => &mut self.host_valid,
        }
    }
}

/// The tracked variables and their states.
pub(crate) type States = HashMap<Symbol, VarState, FnvBuild>;

/// Where in the walk a dependency was found.
pub(crate) struct Position<'w> {
    /// The loops being walked, outermost first.
    pub(crate) loop_stack: &'w [NodeId],
    /// Set when the read belongs to a loop condition re-evaluated at the end
    /// of an iteration: the loop and the last statement of its body.
    pub(crate) loop_cond: Option<(NodeId, NodeId)>,
    /// True once the walk has left the region.
    pub(crate) past_region: bool,
}

/// What a cross-space dependency means to the walk's user.
pub(crate) trait Transfers {
    /// `read` found its side stale in `state`; after the call the walk
    /// considers that side current.
    fn need(&mut self, read: &Access, state: &VarState, at: Position<'_>);

    /// The walk is about to enter the directive statement `stmt`.
    fn enter(&mut self, _dir: &OmpDirective, _stmt: NodeId, _state: &mut States) {}

    /// The walk has left the directive statement `stmt` and its body.
    fn exit(&mut self, _dir: &OmpDirective, _stmt: NodeId, _state: &mut States) {}

    /// True if a device access happens, to this function, on the host: the
    /// fold rule of the walk's access processing.
    fn folds(&mut self, access: &Access, in_region: bool) -> bool {
        access.on_device && !in_region
    }
}

pub(crate) struct Walker<'a, T> {
    accesses: &'a FunctionAccesses,
    /// Keyed by exactly the tracked variables.
    pub(crate) state: States,
    loop_stack: Vec<NodeId>,
    region_start: NodeId,
    region_end: NodeId,
    region_entered: bool,
    past_region: bool,
    /// Depth of enclosing `if`/`switch` statements during the walk; writes
    /// performed under a condition may leave part of the destination stale,
    /// so they require the target space to hold current data beforehand.
    cond_depth: usize,
    /// The meet of the states at the `return` statements walked so far.
    returned: Option<States>,
    pub(crate) transfers: T,
}

impl<'a, T: Transfers> Walker<'a, T> {
    /// A walk over `accesses` that tracks the keys of `state`, with the
    /// region spanning the statements `region.0 ..= region.1`.
    pub(crate) fn new(
        accesses: &'a FunctionAccesses,
        state: States,
        region: (NodeId, NodeId),
        transfers: T,
    ) -> Walker<'a, T> {
        Walker {
            accesses,
            state,
            loop_stack: Vec::new(),
            region_start: region.0,
            region_end: region.1,
            region_entered: false,
            past_region: false,
            cond_depth: 0,
            returned: None,
            transfers,
        }
    }

    /// The state on every path out of the walked body: where it falls off
    /// the end, met with every `return` on the way.
    pub(crate) fn exit_state(self) -> States {
        match self.returned {
            Some(returned) => merge_states(&self.state, &returned),
            None => self.state,
        }
    }

    pub(crate) fn walk_stmt(&mut self, stmt: &Stmt) {
        if stmt.id == self.region_start && !self.region_entered {
            self.region_entered = true;
            for st in self.state.values_mut() {
                st.host_modified = false;
            }
        }
        match &stmt.kind {
            StmtKind::Compound(items) => {
                for s in items {
                    self.walk_stmt(s);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                self.process_accesses(stmt, None);
                let before = self.state.clone();
                self.cond_depth += 1;
                self.walk_stmt(then_branch);
                let after_then = std::mem::replace(&mut self.state, before);
                if let Some(e) = else_branch {
                    self.walk_stmt(e);
                }
                self.cond_depth -= 1;
                self.state = merge_states(&after_then, &self.state);
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. } => {
                self.walk_loop(stmt, body);
            }
            StmtKind::Switch { body, .. } => {
                self.process_accesses(stmt, None);
                self.cond_depth += 1;
                self.walk_stmt(body);
                self.cond_depth -= 1;
            }
            StmtKind::Omp(dir) => {
                self.transfers.enter(dir, stmt.id, &mut self.state);
                self.process_accesses(stmt, None);
                if let Some(body) = &dir.body {
                    self.walk_stmt(body);
                }
                self.transfers.exit(dir, stmt.id, &mut self.state);
            }
            StmtKind::Return(_) => {
                self.process_accesses(stmt, None);
                self.returned = Some(match self.returned.take() {
                    Some(returned) => merge_states(&self.state, &returned),
                    None => self.state.clone(),
                });
            }
            _ => {
                self.process_accesses(stmt, None);
            }
        }
        if stmt.id == self.region_end {
            self.past_region = true;
        }
    }

    fn walk_loop(&mut self, loop_stmt: &Stmt, body: &Stmt) {
        // Condition / init evaluated once before the first iteration.
        self.process_accesses(loop_stmt, None);
        // Two passes over the body expose loop-carried cross-space
        // dependencies (the second pass starts from the state the first one
        // produced).
        for _ in 0..2 {
            self.loop_stack.push(loop_stmt.id);
            self.walk_stmt(body);
            // Condition / increment re-evaluated at the end of each
            // iteration: dependencies found here must be satisfied at the end
            // of the loop body (Section IV-F rewriter rules).
            self.process_accesses(loop_stmt, Some((loop_stmt.id, last_body_stmt(body))));
            self.loop_stack.pop();
        }
    }

    /// Process the accesses attributed directly to `stmt`. When
    /// `loop_cond` is set, the accesses come from a loop condition
    /// re-evaluation and dependency fixes anchor to the end of the loop body.
    fn process_accesses(&mut self, stmt: &Stmt, loop_cond: Option<(NodeId, NodeId)>) {
        let accesses = self.accesses;
        let in_region = self.region_entered && !self.past_region;
        for access in accesses.for_stmt(stmt.id) {
            if !self.state.contains_key(&access.var) {
                continue;
            }
            // Kernels run inside the region, so a device access outside it
            // is a call site's: the callee launches kernels while nothing
            // is mapped, and its own clauses do real copies — its exposed
            // device reads are of the host's value, and what it writes on
            // the device it copies back (in a function other than `main`
            // every escaping result is live). To this function the whole
            // effect happens on the host.
            let on_host;
            let folded = self.transfers.folds(access, in_region);
            let access = match folded {
                true => {
                    on_host = Access {
                        on_device: false,
                        ..access.clone()
                    };
                    &on_host
                }
                false => access,
            };
            if access.kind.may_read() {
                self.handle_read(access, loop_cond);
            }
            if access.kind.may_write() {
                // A write under a condition (or to a single element) may leave
                // the rest of the destination holding old data, so the target
                // space must be current before the write.
                let stale_target =
                    (self.state.get_mut(&access.var)).is_some_and(|s| !*s.valid(access.on_device));
                if self.cond_depth > 0 && stale_target && !access.kind.may_read() {
                    self.handle_read(access, loop_cond);
                }
                self.handle_write(access, in_region, folded);
            }
        }
    }

    fn handle_read(&mut self, access: &Access, loop_cond: Option<(NodeId, NodeId)>) {
        let Some(st) = self.state.get_mut(&access.var) else {
            return;
        };
        if *st.valid(access.on_device) {
            return;
        }
        let at = Position {
            loop_stack: &self.loop_stack,
            loop_cond,
            past_region: self.past_region,
        };
        self.transfers.need(access, st, at);
        *st.valid(access.on_device) = true;
    }

    /// `folded`: the write is a callee's device write outside the region,
    /// which reaches the host only through the callee's own exit copy.
    fn handle_write(&mut self, access: &Access, in_region: bool, folded: bool) {
        let region_entered = self.region_entered;
        let Some(s) = self.state.get_mut(&access.var) else {
            return;
        };
        if access.on_device {
            s.dev_valid = true;
            s.host_valid = false;
            s.last_dev_writer = Some(access.stmt);
        } else {
            s.host_valid = true;
            s.dev_valid = false;
            // Not a host write of this function's: under a caller that
            // holds the data the value stays on the device, where a kernel
            // of this function finds it — nothing here is to be repeated as
            // an update.
            if !folded {
                s.last_host_writer = Some(access.stmt);
            }
            if region_entered {
                s.host_modified = true;
            }
        }
        // The last write a call site replays leaves the callee's exit
        // state: where the summary proves the other side current as well,
        // the callee itself moved the value across — and the region keeps
        // it on the device.
        if let AccessOrigin::Callee { effect, .. } = &access.origin {
            if in_region && effect.settles_other_side(access.on_device) {
                *s.valid(!access.on_device) = true;
            }
        }
    }
}

/// The meet of two states: a side is current only where both agree it is,
/// a write may have happened where either saw one.
pub(crate) fn merge_states(a: &States, b: &States) -> States {
    let mut out = States::default();
    for (var, sa) in a {
        // Both sides of a branch track the same variables.
        let sb = &b[var];
        out.insert(
            *var,
            VarState {
                host_valid: sa.host_valid && sb.host_valid,
                dev_valid: sa.dev_valid && sb.dev_valid,
                host_modified: sa.host_modified || sb.host_modified,
                last_host_writer: sa.last_host_writer.or(sb.last_host_writer),
                last_dev_writer: sa.last_dev_writer.or(sb.last_dev_writer),
            },
        );
    }
    out
}

/// The last direct child statement of a loop body (used as the anchor for
/// end-of-body update placement).
fn last_body_stmt(body: &Stmt) -> NodeId {
    match &body.kind {
        StmtKind::Compound(items) => items.last().map(|s| s.id).unwrap_or(body.id),
        _ => body.id,
    }
}
