//! Static verification of existing OpenMP data mappings.
//!
//! The paper positions OMPDart next to OMPSan (Barua et al.), a static
//! verifier for `map` constructs, and its motivation section shows how easy
//! it is to hand-write an *incorrect* mapping (Listing 3: an inner
//! `map(from:)` nested in an enclosing region never copies because of the
//! reference count). This module provides that complementary capability for
//! the reproduction: given a program **with** explicit mappings, it re-runs
//! the host/device validity analysis while honouring the declared clauses
//! and reports every read that may observe stale data.
//!
//! It is intentionally conservative (whole-variable granularity, the same
//! assumptions as the mapping generator) and is used by the test-suite to
//! show that (a) the expert benchmark variants verify cleanly, (b) the
//! paper's Listing 3 bug is detected, and (c) everything OMPDart itself
//! generates verifies cleanly.

use crate::access::{FunctionAccesses, SymbolTable};
use ompdart_frontend::ast::{NodeId, Stmt, StmtKind, TranslationUnit};
use ompdart_frontend::diag::{Diagnostic, Diagnostics};
use ompdart_frontend::omp::{Clause, DirectiveKind, MapType, OmpDirective};
use ompdart_frontend::parser::parse_str;
use ompdart_frontend::Symbol;
use ompdart_graph::ProgramGraphs;
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
}

/// Verify all functions of a source file.
pub fn verify_source(name: &str, source: &str) -> Result<VerifyReport, Diagnostics> {
    let (_file, parsed) = parse_str(name, source);
    if !parsed.is_ok() {
        return Err(parsed.diagnostics);
    }
    Ok(verify_unit(&parsed.unit))
}

/// Verify a parsed translation unit.
pub fn verify_unit(unit: &TranslationUnit) -> VerifyReport {
    let graphs = ProgramGraphs::build(unit);
    let mut report = VerifyReport::default();
    for func in unit.functions() {
        let Some(graph) = graphs.function(&func.name) else {
            continue;
        };
        if !graph.has_kernels() {
            continue;
        }
        let symbols = SymbolTable::build(unit, func);
        let accesses = FunctionAccesses::collect(func, &graph.index, &symbols);
        let mut checker = Checker {
            function: func.name.to_string(),
            accesses: &accesses,
            symbols: &symbols,
            state: HashMap::new(),
            mapped: HashMap::new(),
            report: &mut report,
        };
        if let Some(body) = &func.body {
            checker.walk(body);
        }
    }
    report
}

#[derive(Clone, Copy, Debug, Default)]
struct Validity {
    host: bool,
    dev: bool,
}

struct Checker<'a> {
    function: String,
    accesses: &'a FunctionAccesses,
    symbols: &'a SymbolTable,
    /// Validity per variable. Variables start host-valid.
    state: HashMap<String, Validity>,
    /// Reference counts of explicitly mapped variables (present table).
    mapped: HashMap<String, u32>,
    report: &'a mut VerifyReport,
}

impl Checker<'_> {
    fn validity(&mut self, var: &str) -> Validity {
        *self.state.entry(var.to_string()).or_insert(Validity {
            host: true,
            dev: false,
        })
    }

    fn set(&mut self, var: &str, v: Validity) {
        self.state.insert(var.to_string(), v);
    }

    fn is_present(&self, var: &str) -> bool {
        self.mapped.get(var).copied().unwrap_or(0) > 0
    }

    fn walk(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Compound(items) => {
                for s in items {
                    self.walk(s);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                self.check_stmt_accesses(stmt, false);
                self.walk(then_branch);
                if let Some(e) = else_branch {
                    self.walk(e);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::Switch { body, .. } => {
                self.check_stmt_accesses(stmt, false);
                // Two passes expose loop-carried staleness.
                for _ in 0..2 {
                    self.walk(body);
                    self.check_stmt_accesses(stmt, false);
                }
            }
            StmtKind::Omp(dir) => self.walk_directive(dir, stmt),
            _ => self.check_stmt_accesses(stmt, false),
        }
    }

    fn walk_directive(&mut self, dir: &OmpDirective, stmt: &Stmt) {
        match &dir.kind {
            DirectiveKind::TargetUpdate => {
                for clause in &dir.clauses {
                    match clause {
                        Clause::UpdateTo(items) => {
                            for item in items {
                                let mut v = self.validity(&item.var);
                                v.dev = v.dev || v.host;
                                self.set(&item.var, v);
                            }
                        }
                        Clause::UpdateFrom(items) => {
                            for item in items {
                                let mut v = self.validity(&item.var);
                                if !v.dev {
                                    self.stale(&item.var, false, stmt.id, dir.pragma_span);
                                }
                                v.host = true;
                                self.set(&item.var, v);
                            }
                        }
                        _ => {}
                    }
                }
            }
            DirectiveKind::TargetData | DirectiveKind::TargetEnterData => {
                self.apply_map_entries(dir);
                if dir.kind == DirectiveKind::TargetData {
                    if let Some(body) = &dir.body {
                        self.walk(body);
                    }
                    self.apply_map_exits(dir, stmt);
                }
            }
            DirectiveKind::TargetExitData => self.apply_map_exits(dir, stmt),
            kind if kind.is_offload_kernel() => {
                // Kernel: explicit maps enter, implicit rules for the rest.
                self.apply_map_entries(dir);
                let fp = dir.firstprivate_vars();
                let body_vars: Vec<Symbol> = dir
                    .body
                    .as_ref()
                    .map(|b| kernel_vars(b, self.accesses))
                    .unwrap_or_default();
                // Implicitly mapped variables (not firstprivate, not in an
                // enclosing device data environment): behave like tofrom.
                for var in &body_vars {
                    if fp.contains(&var.as_str()) {
                        continue;
                    }
                    if explicitly_listed(dir, var) {
                        continue;
                    }
                    if !self.is_present(var) {
                        let mut v = self.validity(var);
                        v.dev = v.dev || v.host;
                        self.set(var, v);
                    }
                }
                // firstprivate scalars are passed by value: the device sees
                // the current host value, so a stale host value is a bug.
                for var in &fp {
                    let v = self.validity(var);
                    if !v.host {
                        self.stale(var, true, stmt.id, dir.pragma_span);
                    }
                }
                if let Some(body) = &dir.body {
                    self.check_device_body(body, stmt);
                }
                // Exit: implicit tofrom copies back; explicit maps honour the
                // reference count.
                for var in &body_vars {
                    if fp.contains(&var.as_str()) || explicitly_listed(dir, var) {
                        continue;
                    }
                    if !self.is_present(var) {
                        let mut v = self.validity(var);
                        v.host = v.host || v.dev;
                        self.set(var, v);
                    }
                }
                self.apply_map_exits(dir, stmt);
            }
            _ => {
                if let Some(body) = &dir.body {
                    self.walk(body);
                }
            }
        }
    }

    fn apply_map_entries(&mut self, dir: &OmpDirective) {
        for (map_type, items) in dir.map_clauses() {
            let mt = map_type.unwrap_or(MapType::ToFrom);
            for item in items {
                let count = self.mapped.entry(item.var.clone()).or_insert(0);
                let first = *count == 0;
                *count += 1;
                if first && mt.copies_to_device() {
                    let mut v = self.validity(&item.var);
                    v.dev = v.dev || v.host;
                    self.set(&item.var, v);
                }
            }
        }
    }

    fn apply_map_exits(&mut self, dir: &OmpDirective, stmt: &Stmt) {
        for (map_type, items) in dir.map_clauses() {
            let mt = map_type.unwrap_or(MapType::ToFrom);
            for item in items {
                let count = self.mapped.entry(item.var.clone()).or_insert(0);
                if *count > 0 {
                    *count -= 1;
                }
                if *count == 0 && mt.copies_to_host() {
                    let mut v = self.validity(&item.var);
                    v.host = v.host || v.dev;
                    self.set(&item.var, v);
                }
            }
        }
        let _ = stmt;
    }

    /// Check the statements of a kernel body: all accesses are device
    /// accesses.
    fn check_device_body(&mut self, body: &Stmt, _kernel: &Stmt) {
        body.walk(&mut |s| {
            // Collect accesses by statement; recursion handled by walk.
            let accesses: Vec<_> = self.accesses.for_stmt(s.id).cloned().collect();
            for access in accesses {
                if !self.symbols.is_aggregate(access.var) && !self.symbols.is_scalar(access.var) {
                    continue;
                }
                let mut v = self.validity(&access.var);
                if access.kind.may_read() && !v.dev {
                    // Only report variables that actually live across the
                    // host/device boundary (declared outside the kernel).
                    if self.symbols.is_global(access.var)
                        || self.symbols.is_param(access.var)
                        || self.is_present(&access.var)
                    {
                        self.stale(&access.var, true, s.id, access.span);
                        v.dev = true;
                    }
                }
                if access.kind.may_write() {
                    v.dev = true;
                    v.host = false;
                }
                self.set(&access.var, v);
            }
        });
    }

    fn check_stmt_accesses(&mut self, stmt: &Stmt, _device: bool) {
        let accesses: Vec<_> = self.accesses.for_stmt(stmt.id).cloned().collect();
        for access in accesses {
            if access.on_device {
                continue; // handled by check_device_body
            }
            let mut v = self.validity(&access.var);
            if access.kind.may_read() && !v.host {
                self.stale(&access.var, false, stmt.id, access.span);
                v.host = true;
            }
            if access.kind.may_write() {
                v.host = true;
                v.dev = false;
            }
            self.set(&access.var, v);
        }
    }

    fn stale(&mut self, var: &str, on_device: bool, stmt: NodeId, span: ompdart_frontend::Span) {
        let where_ = if on_device { "device" } else { "host" };
        self.report.stale_reads.push(StaleRead {
            function: self.function.clone(),
            variable: var.to_string(),
            on_device,
            stmt,
        });
        self.report.diagnostics.push(Diagnostic::warning(
            span,
            format!(
                "`{var}` may be read on the {where_} while its latest value lives in the other \
                 memory space (function `{}`)",
                self.function
            ),
        ));
    }
}

/// Variables referenced by a kernel body that are not declared inside it.
fn kernel_vars(body: &Stmt, accesses: &FunctionAccesses) -> Vec<Symbol> {
    let mut out: Vec<Symbol> = Vec::new();
    body.walk(&mut |s| {
        for access in accesses.for_stmt(s.id) {
            if access.on_device && !out.contains(&access.var) {
                out.push(access.var);
            }
        }
    });
    out
}

/// True if the directive explicitly lists the variable in a map clause.
fn explicitly_listed(dir: &OmpDirective, var: &str) -> bool {
    dir.map_clauses()
        .any(|(_, items)| items.iter().any(|i| i.var == var))
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
}
