//! Static verification of existing OpenMP data mappings.
//!
//! The paper positions OMPDart next to OMPSan (Barua et al.), a static
//! verifier for `map` constructs, and its motivation section shows how easy
//! it is to hand-write an *incorrect* mapping (Listing 3: an inner
//! `map(from:)` nested in an enclosing region never copies because of the
//! reference count). This module provides that complementary capability for
//! the reproduction: given a program **with** explicit mappings, it reports
//! every read that may observe stale data.
//!
//! It is the third reader of the planner's own validity walk
//! (`core::validity`): the same statement traversal (branches met, loops
//! walked twice, `return`s met at the exit, a write under a condition a read
//! of its target), over the same accesses — the function's own plus, at each
//! call site, what the callee's summary stands for — so the checker and the
//! analysis it checks cannot disagree about what a program does. Where the
//! planner would emit a transfer, the checker reports a [`StaleRead`].
//!
//! What stays its own is what the planner never meets, the directives of a
//! mapped program: a present table of reference counts that `target data`,
//! `enter data` / `exit data` and a kernel's `map` clauses move (a copy
//! happens on 0 → 1 and 1 → 0 only), `target update` (a no-op on what is not
//! present), and the implicit rules of a kernel — what nothing holds is
//! mapped `tofrom` around it, a `firstprivate` scalar is passed the host's
//! value. A function is checked as an outside caller enters it (nothing
//! present, everything it can leave behind current on the host when it
//! returns) and again under what each call site inside the unit holds for
//! it, where its own clauses are present-table no-ops.
//!
//! It is intentionally conservative (whole-variable granularity, the same
//! assumptions as the mapping generator) and is used by the test-suite to
//! show that (a) the expert benchmark variants verify cleanly, (b) the
//! paper's Listing 3 bug is detected, and (c) everything OMPDart itself
//! generates verifies cleanly.

use crate::access::{Access, AccessOrigin};
use crate::interproc::augment_with_call_effects;
use crate::pipeline::{closed_world_of, stage_accesses, stage_graphs, stage_summaries};
use crate::validity::{Position, States, Transfers, VarState, Walker};
use crate::OmpDartOptions;
use ompdart_frontend::ast::{NodeId, TranslationUnit};
use ompdart_frontend::diag::{Diagnostic, Diagnostics};
use ompdart_frontend::omp::{Clause, DirectiveKind, MapType, OmpDirective};
use ompdart_frontend::parser::parse_str;
use ompdart_frontend::source::Span;
use ompdart_frontend::Symbol;
use std::collections::HashMap;

/// One potential stale-data read found by the verifier.
#[derive(Clone, Debug)]
pub struct StaleRead {
    pub function: String,
    pub variable: String,
    /// True if the stale read happens on the device (host wrote last),
    /// false if it happens on the host (device wrote last).
    pub on_device: bool,
    /// Statement performing the read.
    pub stmt: NodeId,
}

/// Verification outcome for a translation unit.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    pub stale_reads: Vec<StaleRead>,
    pub diagnostics: Diagnostics,
}

impl VerifyReport {
    /// True when no potential stale read was found.
    pub fn is_clean(&self) -> bool {
        self.stale_reads.is_empty()
    }

    /// Record a finding once, however many walks or loop passes meet it.
    fn stale(&mut self, function: Symbol, var: Symbol, on_device: bool, stmt: NodeId, span: Span) {
        let seen = |r: &StaleRead| {
            r.stmt == stmt
                && r.on_device == on_device
                && var == r.variable
                && function == r.function
        };
        if self.stale_reads.iter().any(seen) {
            return;
        }
        self.stale_reads.push(StaleRead {
            function: function.to_string(),
            variable: var.to_string(),
            on_device,
            stmt,
        });
        let where_ = if on_device { "device" } else { "host" };
        self.diagnostics.push(Diagnostic::warning(
            span,
            format!(
                "`{var}` may be read on the {where_} while its latest value lives in the other \
                 memory space (function `{function}`)"
            ),
        ));
    }
}

/// Verify all functions of a source file.
pub fn verify_source(name: &str, source: &str) -> Result<VerifyReport, Diagnostics> {
    let (_file, parsed) = parse_str(name, source);
    if !parsed.is_ok() {
        return Err(parsed.diagnostics);
    }
    Ok(verify_unit(&parsed.unit))
}

/// A function and the variables, under its own names, that whoever calls it
/// holds on the device.
type Context = (Symbol, Vec<Symbol>);

/// Verify a parsed translation unit.
pub fn verify_unit(unit: &TranslationUnit) -> VerifyReport {
    let graphs = stage_graphs(unit);
    let accesses = stage_accesses(unit, &graphs);
    let options = OmpDartOptions::default();
    let seeds = stage_summaries(unit, &accesses, &options);
    // The unit's closed world: call sites resolve as its planner's do.
    let (_, link) = closed_world_of(unit, &accesses, &seeds, &options, 1);
    let mut report = VerifyReport::default();
    // Every function that launches a kernel, itself or through a callee, as
    // an outside caller enters it; the walks add what call sites hold.
    let mut contexts: Vec<Context> = (unit.functions())
        .filter(|f| link.summary(f.name).is_some_and(|s| s.has_kernels))
        .map(|f| (f.name, Vec::new()))
        .collect();
    let mut next = 0;
    while let Some((name, held)) = contexts.get(next).cloned() {
        next += 1;
        let (Some(func), Some(symbols)) = (unit.function(&name), accesses.symbols.get(&name))
        else {
            continue;
        };
        let (Some(body), Some(own)) = (&func.body, accesses.accesses.get(&name)) else {
            continue;
        };
        let mut acc = own.clone();
        augment_with_call_effects(&mut acc, symbols, unit, &link, false);
        let entry = |var| VarState {
            dev_valid: held.contains(&var),
            ..VarState::host_current()
        };
        let state: States = symbols.names().map(|var| (var, entry(var))).collect();
        let checker = Checker {
            function: name,
            present: held.iter().map(|var| (*var, 1)).collect(),
            in_kernel: false,
            reached: Vec::new(),
            report: &mut report,
        };
        let mut walker = Walker::new(&acc, state, (body.id, body.id), checker);
        walker.walk_stmt(body);
        let mut reached = std::mem::take(&mut walker.transfers.reached);
        // A caller that holds nothing takes the function's whole effect to
        // have happened on the host, so what escapes it has to be current
        // there on every path out. (Nothing runs after `main`.)
        let exit = walker.exit_state();
        let escaping = (unit.globals().map(|g| g.name)).chain(func.params.iter().map(|p| p.name));
        for var in escaping.filter(|var| symbols.escapes(*var) && !held.contains(var)) {
            if name != "main" && !exit[&var].host_valid {
                report.stale(name, var, false, body.id, body.span);
            }
        }
        // What each call site held while its callee reached the device, in
        // the callee's names: its globals, and its parameters by position.
        reached.sort_unstable();
        reached.dedup();
        for site in reached.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (callee, stmt, _) = site[0];
            let (Some(def), Some(theirs)) = (unit.function(&callee), accesses.symbols.get(&callee))
            else {
                continue;
            };
            let held_here = |var: Symbol| site.iter().any(|(.., held)| *held == var);
            let args = (acc.calls.iter())
                .filter(|call| call.stmt == stmt && call.callee == callee)
                .flat_map(|call| call.args.iter().zip(&def.params))
                .filter(|(arg, _)| arg.by_ref && arg.base_var.is_some_and(held_here));
            let globals = (site.iter().map(|(.., var)| *var)).filter(|var| theirs.is_global(*var));
            let mut held: Vec<Symbol> = globals.chain(args.map(|(_, param)| param.name)).collect();
            held.sort_unstable();
            held.dedup();
            if !contexts.contains(&(callee, held.clone())) {
                contexts.push((callee, held));
            }
        }
    }
    report
}

/// What the checker plugs into the validity walk: the present table, and
/// the findings.
struct Checker<'a> {
    function: Symbol,
    /// Reference counts of the mapped variables (the present table).
    present: HashMap<Symbol, u32>,
    in_kernel: bool,
    /// Callee, call statement and variable of every call-site effect that
    /// reaches the device (a read its callee feeds itself is not replayed,
    /// but is part of the effect) while the variable was present.
    reached: Vec<(Symbol, NodeId, Symbol)>,
    report: &'a mut VerifyReport,
}

impl Checker<'_> {
    fn is_present(&self, var: Symbol) -> bool {
        self.present.get(&var).is_some_and(|count| *count > 0)
    }

    /// The `map` clauses of `dir` take a reference each; the first one
    /// allocates, and copies in if its map type says so.
    fn map_entries(&mut self, dir: &OmpDirective, state: &mut States) {
        for (map_type, items) in dir.map_clauses() {
            let copies = map_type.unwrap_or(MapType::ToFrom).copies_to_device();
            for var in items.iter().map(|item| Symbol::intern(&item.var)) {
                let count = self.present.entry(var).or_insert(0);
                *count += 1;
                if let (1, Some(st)) = (*count, state.get_mut(&var)) {
                    st.dev_valid = copies && st.host_valid;
                }
            }
        }
    }
}

impl Transfers for Checker<'_> {
    fn need(&mut self, read: &Access, _state: &VarState, _at: Position<'_>) {
        (self.report).stale(
            self.function,
            read.var,
            read.on_device,
            read.stmt,
            read.span,
        );
    }

    fn enter(&mut self, dir: &OmpDirective, stmt: NodeId, state: &mut States) {
        match &dir.kind {
            DirectiveKind::TargetUpdate => {
                for clause in &dir.clauses {
                    let (items, to_device) = match clause {
                        Clause::UpdateTo(items) => (items, true),
                        Clause::UpdateFrom(items) => (items, false),
                        _ => continue,
                    };
                    for var in items.iter().map(|item| Symbol::intern(&item.var)) {
                        // Nothing is copied to or from what is not present.
                        if let (true, Some(st)) = (self.is_present(var), state.get_mut(&var)) {
                            match to_device {
                                true => st.dev_valid = st.host_valid,
                                false => st.host_valid = st.dev_valid,
                            }
                        }
                    }
                }
            }
            DirectiveKind::TargetData | DirectiveKind::TargetEnterData => {
                self.map_entries(dir, state)
            }
            kind if kind.is_offload_kernel() => {
                self.map_entries(dir, state);
                self.in_kernel = true;
                // What nothing holds the kernel maps `tofrom` (or passes by
                // value): the device starts from the host's value.
                for (_, st) in state.iter_mut().filter(|(var, _)| !self.is_present(**var)) {
                    st.dev_valid = st.host_valid;
                }
                // A `firstprivate` scalar is passed by value: the device
                // sees the current host value, so a stale one is a bug.
                for var in dir.firstprivate_vars().into_iter().map(Symbol::intern) {
                    if state.get(&var).is_some_and(|st| !st.host_valid) {
                        (self.report).stale(self.function, var, true, stmt, dir.pragma_span);
                    }
                }
            }
            _ => {}
        }
    }

    fn exit(&mut self, dir: &OmpDirective, _stmt: NodeId, state: &mut States) {
        let kernel = dir.kind.is_offload_kernel();
        if !kernel
            && !matches!(
                dir.kind,
                DirectiveKind::TargetData | DirectiveKind::TargetExitData
            )
        {
            return;
        }
        self.in_kernel &= !kernel;
        // Every `map` clause drops its reference; the last one copies back
        // if its map type says so.
        let mut listed = Vec::new();
        let mut copied_back = Vec::new();
        for (map_type, items) in dir.map_clauses() {
            let copies = map_type.unwrap_or(MapType::ToFrom).copies_to_host();
            for var in items.iter().map(|item| Symbol::intern(&item.var)) {
                let count = self.present.entry(var).or_insert(0);
                *count = count.saturating_sub(1);
                listed.push(var);
                if *count == 0 && copies {
                    copied_back.push(var);
                }
            }
        }
        // What is no longer present holds nothing on the device; what a
        // kernel mapped implicitly it copied back first.
        for (var, st) in state.iter_mut().filter(|(var, _)| !self.is_present(**var)) {
            if copied_back.contains(var) || (kernel && !listed.contains(var)) {
                st.host_valid |= st.dev_valid;
            }
            st.dev_valid = false;
        }
    }

    /// A callee's device access reaches the device only while the variable
    /// is present here (or the call is made inside a kernel); otherwise the
    /// callee's own clauses do real copies and, to this function, the whole
    /// effect happens on the host.
    fn folds(&mut self, access: &Access, _in_region: bool) -> bool {
        let AccessOrigin::Callee { callee, effect, .. } = &access.origin else {
            return false;
        };
        if self.in_kernel {
            return false;
        }
        let present = self.is_present(access.var);
        if present && (effect.device_read() || effect.device_write()) {
            self.reached.push((*callee, access.stmt, access.var));
        }
        access.on_device && !present
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Listing 3: an incorrect mapping whose host-side sum reads
    /// stale data because the inner `map(from:)` never copies while the
    /// enclosing region holds a reference.
    #[test]
    fn detects_listing3_stale_read() {
        let src = "\
#define N 16
#define M 4
int a[N];
int main() {
  int sum = 0;
  #pragma omp target data map(tofrom: a[0:N])
  {
    for (int i = 0; i < M; ++i) {
      #pragma omp target map(from: a[0:N])
      for (int j = 0; j < N; ++j) a[j] += j;
      for (int j = 0; j < N; ++j) sum += a[j];
    }
  }
  printf(\"%d\\n\", sum);
  return 0;
}
";
        let report = verify_source("listing3.c", src).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .stale_reads
            .iter()
            .any(|r| r.variable == "a" && !r.on_device));
    }

    /// The corrected version (update from after the kernel) verifies cleanly.
    #[test]
    fn corrected_listing3_is_clean() {
        let src = "\
#define N 16
#define M 4
int a[N];
int main() {
  int sum = 0;
  #pragma omp target data map(tofrom: a[0:N])
  {
    for (int i = 0; i < M; ++i) {
      #pragma omp target map(alloc: a[0:N])
      for (int j = 0; j < N; ++j) a[j] += j;
      #pragma omp target update from(a[0:N])
      for (int j = 0; j < N; ++j) sum += a[j];
    }
  }
  printf(\"%d\\n\", sum);
  return 0;
}
";
        let report = verify_source("listing3_fixed.c", src).unwrap();
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.stale_reads
        );
    }

    /// Everything OMPDart generates must verify cleanly.
    #[test]
    fn ompdart_output_verifies_clean() {
        let src = "\
#define N 32
#define M 5
int a[N];
int main() {
  int sum = 0;
  for (int i = 0; i < M; ++i) {
    #pragma omp target
    for (int j = 0; j < N; ++j) a[j] += j;
    for (int j = 0; j < N; ++j) sum += a[j];
  }
  printf(\"%d\\n\", sum);
  return 0;
}
";
        let transformed = crate::Ompdart::builder()
            .build()
            .analyze("in.c", src)
            .unwrap()
            .rewritten_source()
            .to_string();
        let report = verify_source("out.c", &transformed).unwrap();
        assert!(
            report.is_clean(),
            "OMPDart output flagged: {:?}\n{}",
            report.stale_reads,
            transformed
        );
    }

    /// Implicit mappings (no clauses at all) are always coherent.
    #[test]
    fn implicit_mappings_are_clean() {
        let src = "\
#define N 16
double a[N];
int main() {
  for (int it = 0; it < 3; it++) {
    #pragma omp target
    for (int i = 0; i < N; i++) a[i] += 1.0;
    double s = 0.0;
    for (int i = 0; i < N; i++) s += a[i];
    printf(\"%f\\n\", s);
  }
  return 0;
}
";
        let report = verify_source("implicit.c", src).unwrap();
        assert!(report.is_clean(), "{:?}", report.stale_reads);
    }

    /// A `map(to:)`-only region whose result is read on the host afterwards
    /// is flagged.
    #[test]
    fn missing_copy_back_is_flagged() {
        let src = "\
#define N 16
double a[N];
int main() {
  #pragma omp target data map(to: a[0:N])
  {
    #pragma omp target
    for (int i = 0; i < N; i++) a[i] = i;
  }
  double s = 0.0;
  for (int i = 0; i < N; i++) s += a[i];
  printf(\"%f\\n\", s);
  return 0;
}
";
        let report = verify_source("missing_from.c", src).unwrap();
        assert!(report
            .stale_reads
            .iter()
            .any(|r| r.variable == "a" && !r.on_device));
    }

    /// Invalid input surfaces parse diagnostics instead of a report.
    #[test]
    fn parse_errors_surface() {
        assert!(verify_source("broken.c", "int main( {").is_err());
    }

    fn findings(name: &str, src: &str) -> Vec<(String, String, bool)> {
        let reads = verify_source(name, src).unwrap().stale_reads;
        let key = |r: StaleRead| (r.function, r.variable, r.on_device);
        reads.into_iter().map(key).collect()
    }

    /// Branches meet: written on the host on one path and in a kernel on the
    /// other, `a` is current on neither side where they join.
    #[test]
    fn a_write_on_either_side_of_a_branch_leaves_neither_current() {
        let src = "\
#define N 16
double a[N];
double b[N];
int main(int argc) {
  #pragma omp target data map(tofrom: a) map(from: b)
  {
    if (argc > 1) {
      for (int i = 0; i < N; i++) a[i] = 1.0;
    } else {
      #pragma omp target
      for (int i = 0; i < N; i++) a[i] = 2.0;
    }
    #pragma omp target
    for (int i = 0; i < N; i++) b[i] = a[i];
  }
  printf(\"%f\\n\", b[3]);
  return 0;
}
";
        let found = findings("branch.c", src);
        assert!(
            found.contains(&("main".into(), "a".into(), true)),
            "{found:?}"
        );
        // With the host branch's value moved across, it is clean.
        let fixed = src.replace(
            "a[i] = 1.0;\n",
            "a[i] = 1.0;\n      #pragma omp target update to(a)\n",
        );
        assert_eq!(findings("branch_fixed.c", &fixed), []);
    }

    /// The paths out of a function meet: one that returns past a kernel
    /// write without the copy the fall-through path makes leaves the host
    /// stale for whoever called.
    #[test]
    fn an_early_return_is_met_with_the_fall_through_path() {
        let src = "\
#define N 16
double a[N];
void fill(int quick) {
  #pragma omp target enter data map(alloc: a)
  #pragma omp target
  for (int i = 0; i < N; i++) a[i] = i;
  if (quick) {
    return;
  }
  #pragma omp target exit data map(from: a)
}
int main() {
  fill(0);
  printf(\"%f\\n\", a[3]);
  return 0;
}
";
        let found = findings("early_return.c", src);
        assert_eq!(found, [("fill".into(), "a".into(), false)]);
        // Without the early return every path makes the copy.
        let straight = src.replace("    return;\n", "");
        assert_eq!(findings("no_early_return.c", &straight), []);
    }

    /// The shape of `lulesh_mf`: `main` holds `x` on the device around a
    /// call whose callee writes it in a kernel, and reads it in a kernel of
    /// its own. The call site stands for the callee's write; without that
    /// write the kernel reads what nothing ever put on the device.
    #[test]
    fn a_call_site_replays_its_callee_under_the_callers_region() {
        let src = "\
#define N 16
double x[N];
double y[N];
void produce() {
  #pragma omp target
  for (int i = 0; i < N; i++) x[i] = i;
}
int main() {
  #pragma omp target data map(alloc: x) map(from: y)
  {
    produce();
    #pragma omp target
    for (int i = 0; i < N; i++) y[i] = x[i] + 1.0;
  }
  printf(\"%f\\n\", y[3]);
  return 0;
}
";
        assert_eq!(findings("held.c", src), []);
        let unwritten = src.replace("x[i] = i;", "y[i] = i;");
        let found = findings("held_unwritten.c", &unwritten);
        assert_eq!(found, [("main".into(), "x".into(), true)]);
    }
}
