//! Tree-walking interpreter for MiniC with OpenMP 5.2 offload semantics.
//!
//! The interpreter plays the role of the paper's execution testbed (an
//! NVIDIA A100 driven by a CUDA-backed OpenMP runtime, profiled with
//! Nsight Systems): it executes the program, maintains a host memory space
//! and a reference-counted device data environment, applies the implicit
//! data-mapping rules to kernels without explicit clauses, honours
//! `map`/`target data`/`target update`/`firstprivate`, and counts every
//! memcpy, byte, kernel launch and abstract operation so that the same
//! metrics the paper reports (Figures 3-6) can be computed for any program
//! variant.

use crate::memory::{DeviceEnv, Memory, ObjectKind, Section};
use crate::profile::{CostModel, TransferProfile};
use crate::value::{ObjectId, Pointer, Value};
use ompdart_frontend::ast::*;
use ompdart_frontend::omp::{Clause, DirectiveKind, MapItem, MapType, OmpDirective};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Simulator configuration. A run starts at `main`; a cost model is applied
/// to the counters afterwards, where they are read.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Upper bound on executed abstract operations (guards against runaway
    /// loops in malformed inputs).
    pub max_ops: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_ops: 400_000_000,
        }
    }
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// nsys-style transfer and execution counters.
    pub profile: TransferProfile,
    /// Lines printed through `printf`.
    pub output: Vec<String>,
    /// Value returned from the entry function.
    pub exit_code: i64,
    /// Non-fatal issues encountered (stale-data fallbacks, unknown calls).
    pub warnings: Vec<String>,
    /// Wall-clock time the simulator itself spent executing the program
    /// (the "simulate" stage timing, complementing the analysis pipeline's
    /// per-stage timings).
    pub sim_time: std::time::Duration,
}

impl Outcome {
    /// Estimated total runtime under the configured cost model.
    pub fn total_time(&self, cost: &CostModel) -> f64 {
        self.profile.total_time(cost)
    }
}

/// Fatal simulation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The entry function does not exist.
    MissingEntry(String),
    /// The operation budget was exhausted (runaway loop).
    OpBudgetExceeded(u64),
    /// A construct the simulator does not support was executed.
    Unsupported(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingEntry(name) => write!(f, "entry function `{name}` not found"),
            SimError::OpBudgetExceeded(n) => write!(f, "operation budget of {n} ops exceeded"),
            SimError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Run a parsed translation unit.
pub fn simulate(unit: &TranslationUnit, config: SimConfig) -> Result<Outcome, SimError> {
    Interpreter::new(unit, config).run()
}

/// Convenience: parse and run source text (panics on parse errors; intended
/// for tests and examples).
pub fn simulate_source(src: &str, config: SimConfig) -> Result<Outcome, SimError> {
    let (file, result) = ompdart_frontend::parser::parse_str("sim.c", src);
    assert!(
        !result.diagnostics.has_errors(),
        "parse errors:\n{}",
        result.diagnostics.render_all(&file)
    );
    simulate(&result.unit, config)
}

/// Control-flow outcome of executing a statement.
#[derive(Clone, Debug, PartialEq)]
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// A resolved storage location.
#[derive(Clone, Copy, Debug)]
struct Place {
    object: ObjectId,
    index: i64,
}

struct Frame {
    scopes: Vec<HashMap<String, ObjectId>>,
}

impl Frame {
    fn new() -> Frame {
        Frame {
            scopes: vec![HashMap::new()],
        }
    }
}

/// The interpreter.
pub struct Interpreter<'a> {
    unit: &'a TranslationUnit,
    config: SimConfig,
    mem: Memory,
    device: DeviceEnv,
    profile: TransferProfile,
    globals: HashMap<String, ObjectId>,
    frames: Vec<Frame>,
    /// Private (firstprivate) copies visible while executing a kernel.
    device_scopes: Vec<HashMap<String, ObjectId>>,
    on_device: bool,
    output: Vec<String>,
    warnings: Vec<String>,
    functions: HashMap<String, &'a FunctionDef>,
    structs: HashMap<String, Vec<String>>,
    rng_state: u64,
    ops: u64,
}

impl<'a> Interpreter<'a> {
    /// Create an interpreter for a translation unit.
    pub fn new(unit: &'a TranslationUnit, config: SimConfig) -> Self {
        let mut functions: HashMap<String, _> = HashMap::new();
        for f in unit.functions() {
            functions.insert(f.name.to_string(), f);
        }
        let mut structs: HashMap<String, Vec<String>> = HashMap::new();
        for item in &unit.items {
            if let TopLevel::Struct(s) = item {
                structs.insert(
                    s.name.to_string(),
                    s.fields.iter().map(|f| f.name.to_string()).collect(),
                );
            }
        }
        Interpreter {
            unit,
            config,
            mem: Memory::new(),
            device: DeviceEnv::new(),
            profile: TransferProfile::default(),
            globals: HashMap::new(),
            frames: Vec::new(),
            device_scopes: Vec::new(),
            on_device: false,
            output: Vec::new(),
            warnings: Vec::new(),
            functions,
            structs,
            rng_state: 0x9E3779B97F4A7C15,
            ops: 0,
        }
    }

    /// Run the program from `main`.
    pub fn run(mut self) -> Result<Outcome, SimError> {
        let start = std::time::Instant::now();
        self.init_globals()?;
        let ret = self.call_function("main", Vec::new())?;
        Ok(Outcome {
            profile: self.profile,
            output: self.output,
            exit_code: ret.as_i64(),
            warnings: self.warnings,
            sim_time: start.elapsed(),
        })
    }

    // -- setup --------------------------------------------------------------

    fn init_globals(&mut self) -> Result<(), SimError> {
        // A synthetic frame lets global initializers use constant expressions.
        self.frames.push(Frame::new());
        let items: Vec<&VarDecl> = self.unit.globals().collect();
        for decl in items {
            let obj = self.alloc_for_decl(decl)?;
            self.globals.insert(decl.name.to_string(), obj);
            if let Some(init) = decl.init.clone() {
                self.apply_init(obj, &init)?;
            }
        }
        self.frames.pop();
        Ok(())
    }

    fn type_is_floating(ty: &Type) -> bool {
        ty.element_type().is_floating()
    }

    fn alloc_for_decl(&mut self, decl: &VarDecl) -> Result<ObjectId, SimError> {
        let kind = self.object_kind_for(&decl.ty)?;
        let elem_bytes = decl.ty.scalar_size_bytes();
        let floating = Self::type_is_floating(&decl.ty);
        Ok(self.mem.alloc(&decl.name, kind, elem_bytes, floating))
    }

    fn object_kind_for(&mut self, ty: &Type) -> Result<ObjectKind, SimError> {
        match ty {
            Type::Array(..) => {
                let mut dims = Vec::new();
                let mut cur = ty;
                while let Type::Array(inner, size) = cur {
                    let n = match size {
                        Some(expr) => self.const_eval_usize(expr)?,
                        None => 0,
                    };
                    dims.push(n.max(1));
                    cur = inner;
                }
                Ok(ObjectKind::Array { dims })
            }
            Type::Struct(name) => {
                let fields = self
                    .structs
                    .get(name.as_str())
                    .cloned()
                    .unwrap_or_else(|| vec!["_0".to_string()]);
                Ok(ObjectKind::Struct { fields })
            }
            _ => Ok(ObjectKind::Scalar),
        }
    }

    fn const_eval_usize(&mut self, expr: &Expr) -> Result<usize, SimError> {
        let lookup = |name: &str| self.unit.int_constant(name);
        match expr.const_eval(&lookup) {
            Some(v) if v >= 0 => Ok(v as usize),
            _ => {
                // Fall back to full evaluation (e.g. array sized by a local).
                let v = self.eval(expr)?;
                let n = v.as_i64();
                if n < 0 {
                    Err(SimError::Unsupported("negative array size".into()))
                } else {
                    Ok(n as usize)
                }
            }
        }
    }

    fn apply_init(&mut self, obj: ObjectId, init: &Init) -> Result<(), SimError> {
        match init {
            Init::Expr(e) => {
                let v = self.eval(e)?;
                let converted = self.convert_for_object(obj, v);
                self.write_raw(obj, 0, converted);
            }
            Init::List(items) => {
                let mut idx = 0i64;
                self.apply_init_list(obj, items, &mut idx)?;
            }
        }
        Ok(())
    }

    fn apply_init_list(
        &mut self,
        obj: ObjectId,
        items: &[Init],
        idx: &mut i64,
    ) -> Result<(), SimError> {
        for item in items {
            match item {
                Init::Expr(e) => {
                    let v = self.eval(e)?;
                    let converted = self.convert_for_object(obj, v);
                    self.write_raw(obj, *idx, converted);
                    *idx += 1;
                }
                Init::List(nested) => self.apply_init_list(obj, nested, idx)?,
            }
        }
        Ok(())
    }

    fn convert_for_object(&self, obj: ObjectId, v: Value) -> Value {
        // Keep the storage class of the object (int vs double) stable so
        // comparisons between program variants are well-defined. Pointer
        // values are stored untouched.
        if matches!(v, Value::Ptr(_)) {
            return v;
        }
        match self.mem.object(obj).data.first() {
            Some(Value::Double(_)) => Value::Double(v.as_f64()),
            Some(Value::Int(_)) => Value::Int(v.as_i64()),
            _ => v,
        }
    }

    // -- scope handling -------------------------------------------------------

    fn current_frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("no active frame")
    }

    fn push_scope(&mut self) {
        self.current_frame().scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.current_frame().scopes.pop();
    }

    fn bind(&mut self, name: &str, obj: ObjectId) {
        self.current_frame()
            .scopes
            .last_mut()
            .expect("no active scope")
            .insert(name.to_string(), obj);
    }

    fn lookup(&self, name: &str) -> Option<ObjectId> {
        for scope in self.device_scopes.iter().rev() {
            if let Some(obj) = scope.get(name) {
                return Some(*obj);
            }
        }
        if let Some(frame) = self.frames.last() {
            for scope in frame.scopes.iter().rev() {
                if let Some(obj) = scope.get(name) {
                    return Some(*obj);
                }
            }
        }
        self.globals.get(name).copied()
    }

    fn warn(&mut self, msg: impl Into<String>) {
        if self.warnings.len() < 256 {
            self.warnings.push(msg.into());
        }
    }

    fn count_op(&mut self) -> Result<(), SimError> {
        self.ops += 1;
        if self.on_device {
            self.profile.device_ops += 1;
        } else {
            self.profile.host_ops += 1;
        }
        if self.ops > self.config.max_ops {
            return Err(SimError::OpBudgetExceeded(self.config.max_ops));
        }
        Ok(())
    }

    // -- memory access --------------------------------------------------------

    fn read_place(&mut self, place: Place) -> Value {
        if self.on_device && self.device.is_present(place.object) {
            self.device.read(&self.mem, place.object, place.index)
        } else {
            self.mem.read(place.object, place.index)
        }
    }

    fn write_place(&mut self, place: Place, value: Value) {
        if self.on_device && self.device.is_present(place.object) {
            self.device
                .write(&mut self.mem, place.object, place.index, value);
        } else {
            self.mem.write(place.object, place.index, value);
        }
    }

    fn write_raw(&mut self, obj: ObjectId, index: i64, value: Value) {
        self.mem.write(obj, index, value);
    }

    // -- function calls -------------------------------------------------------

    fn call_function(&mut self, name: &str, args: Vec<Value>) -> Result<Value, SimError> {
        let Some(func) = self.functions.get(name).copied() else {
            return Err(SimError::MissingEntry(name.to_string()));
        };
        let mut frame = Frame::new();
        for (i, param) in func.params.iter().enumerate() {
            let value = args.get(i).copied().unwrap_or(Value::Int(0));
            let kind = ObjectKind::Scalar;
            let floating = Self::type_is_floating(&param.ty) && !param.ty.is_pointer();
            let obj = self
                .mem
                .alloc(&param.name, kind, param.ty.scalar_size_bytes(), floating);
            let stored = if param.ty.is_pointer() || param.ty.is_array() {
                value
            } else if floating {
                Value::Double(value.as_f64())
            } else {
                value
            };
            self.mem.write(obj, 0, stored);
            frame.scopes[0].insert(param.name.to_string(), obj);
        }
        self.frames.push(frame);
        let body = func.body.as_ref().expect("call target must have a body");
        let flow = self.exec_stmt(body)?;
        self.frames.pop();
        Ok(match flow {
            Flow::Return(v) => v,
            _ => Value::Unit,
        })
    }

    // -- statements -----------------------------------------------------------

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow, SimError> {
        self.count_op()?;
        match &stmt.kind {
            StmtKind::Compound(items) => {
                self.push_scope();
                let mut flow = Flow::Normal;
                for s in items {
                    flow = self.exec_stmt(s)?;
                    if flow != Flow::Normal {
                        break;
                    }
                }
                self.pop_scope();
                Ok(flow)
            }
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::Decl(decls) => {
                for d in decls {
                    let obj = self.alloc_for_decl(d)?;
                    self.bind(&d.name, obj);
                    if let Some(init) = d.init.clone() {
                        self.apply_init(obj, &init)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval(cond)?;
                if c.truthy() {
                    self.exec_stmt(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec_stmt(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                loop {
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                    match self.exec_stmt(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile { body, cond } => {
                loop {
                    match self.exec_stmt(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                init,
                cond,
                inc,
                body,
            } => {
                self.push_scope();
                if let Some(fi) = init {
                    match fi.as_ref() {
                        ForInit::Decl(decls) => {
                            for d in decls {
                                let obj = self.alloc_for_decl(d)?;
                                self.bind(&d.name, obj);
                                if let Some(init) = d.init.clone() {
                                    self.apply_init(obj, &init)?;
                                }
                            }
                        }
                        ForInit::Expr(e) => {
                            self.eval(e)?;
                        }
                    }
                }
                let mut result = Flow::Normal;
                loop {
                    if let Some(c) = cond {
                        if !self.eval(c)?.truthy() {
                            break;
                        }
                    }
                    match self.exec_stmt(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => {
                            result = Flow::Return(v);
                            break;
                        }
                        _ => {}
                    }
                    if let Some(i) = inc {
                        self.eval(i)?;
                    }
                }
                self.pop_scope();
                Ok(result)
            }
            StmtKind::Switch { cond, body } => self.exec_switch(cond, body),
            StmtKind::Case { .. } | StmtKind::Default => Ok(Flow::Normal),
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Empty => Ok(Flow::Normal),
            StmtKind::Omp(dir) => self.exec_omp(dir),
        }
    }

    fn exec_switch(&mut self, cond: &Expr, body: &Stmt) -> Result<Flow, SimError> {
        let selector = self.eval(cond)?.as_i64();
        let StmtKind::Compound(items) = &body.kind else {
            // A switch whose body is a single statement executes it directly.
            return self.exec_stmt(body);
        };
        // Find the matching case (or default) and execute until break.
        let mut start = None;
        let mut default = None;
        for (i, s) in items.iter().enumerate() {
            match &s.kind {
                StmtKind::Case { value } => {
                    let v = self.eval(value)?.as_i64();
                    if v == selector && start.is_none() {
                        start = Some(i);
                    }
                }
                StmtKind::Default => default = Some(i),
                _ => {}
            }
        }
        let begin = match start.or(default) {
            Some(i) => i,
            None => return Ok(Flow::Normal),
        };
        self.push_scope();
        let mut flow = Flow::Normal;
        for s in &items[begin..] {
            match self.exec_stmt(s)? {
                Flow::Break => {
                    flow = Flow::Normal;
                    break;
                }
                Flow::Return(v) => {
                    flow = Flow::Return(v);
                    break;
                }
                f => flow = f,
            }
        }
        self.pop_scope();
        Ok(flow)
    }

    // -- OpenMP ---------------------------------------------------------------

    fn exec_omp(&mut self, dir: &OmpDirective) -> Result<Flow, SimError> {
        match &dir.kind {
            k if k.is_offload_kernel() => self.exec_kernel(dir),
            DirectiveKind::TargetData => self.exec_target_data(dir),
            DirectiveKind::TargetEnterData => {
                let actions = self.mapping_actions(dir)?;
                let (calls, bytes_before) = (self.profile.htod_calls, self.profile.htod_bytes);
                for (obj, map_type, section) in actions {
                    self.device
                        .map_enter(&self.mem, obj, map_type, section, &mut self.profile);
                }
                // Attribute the traffic this directive caused to the
                // enter-data sub-counters (refcounting may have skipped some
                // of it, so measure the delta instead of the clause list).
                self.profile.enter_htod_calls += self.profile.htod_calls - calls;
                self.profile.enter_htod_bytes += self.profile.htod_bytes - bytes_before;
                Ok(Flow::Normal)
            }
            DirectiveKind::TargetExitData => {
                let actions = self.mapping_actions(dir)?;
                let (calls, bytes_before) = (self.profile.dtoh_calls, self.profile.dtoh_bytes);
                for (obj, map_type, section) in actions {
                    self.device
                        .map_exit(&mut self.mem, obj, map_type, section, &mut self.profile);
                }
                self.profile.exit_dtoh_calls += self.profile.dtoh_calls - calls;
                self.profile.exit_dtoh_bytes += self.profile.dtoh_bytes - bytes_before;
                Ok(Flow::Normal)
            }
            DirectiveKind::TargetUpdate => {
                self.exec_target_update(dir)?;
                Ok(Flow::Normal)
            }
            _ => {
                // Host-side OpenMP constructs (parallel for, simd, ...) do not
                // change data-mapping behaviour: execute the body directly.
                match &dir.body {
                    Some(body) => self.exec_stmt(body),
                    None => Ok(Flow::Normal),
                }
            }
        }
    }

    fn exec_target_data(&mut self, dir: &OmpDirective) -> Result<Flow, SimError> {
        let actions = self.mapping_actions(dir)?;
        for (obj, map_type, section) in &actions {
            self.device
                .map_enter(&self.mem, *obj, *map_type, *section, &mut self.profile);
        }
        let flow = match &dir.body {
            Some(body) => self.exec_stmt(body)?,
            None => Flow::Normal,
        };
        for (obj, map_type, section) in actions.iter().rev() {
            self.device
                .map_exit(&mut self.mem, *obj, *map_type, *section, &mut self.profile);
        }
        Ok(flow)
    }

    fn exec_target_update(&mut self, dir: &OmpDirective) -> Result<(), SimError> {
        for clause in &dir.clauses {
            match clause {
                Clause::UpdateTo(items) => {
                    for item in items {
                        if let Some((obj, section)) = self.resolve_map_item(item)? {
                            if !self
                                .device
                                .update_to(&self.mem, obj, section, &mut self.profile)
                            {
                                self.warn(format!(
                                    "target update to({}): not present, so by the \
                                     specification nothing is copied",
                                    item.var
                                ));
                            }
                        }
                    }
                }
                Clause::UpdateFrom(items) => {
                    for item in items {
                        if let Some((obj, section)) = self.resolve_map_item(item)? {
                            if !self.device.update_from(
                                &mut self.mem,
                                obj,
                                section,
                                &mut self.profile,
                            ) {
                                self.warn(format!(
                                    "target update from({}): not present, so by the \
                                     specification nothing is copied",
                                    item.var
                                ));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Resolve a map item to the object it maps and the elements of it the
    /// item names. A section of a pointer counts from where the pointer
    /// points; the first subscript of a section of a multidimensional array
    /// selects whole rows.
    fn resolve_map_item(
        &mut self,
        item: &MapItem,
    ) -> Result<Option<(ObjectId, Section)>, SimError> {
        let Some(var_obj) = self.lookup(&item.var) else {
            self.warn(format!("mapped variable `{}` is not in scope", item.var));
            return Ok(None);
        };
        // A pointer variable maps the data it points to.
        let (target, offset) = match self.mem.object(var_obj).kind {
            ObjectKind::Scalar => match self.mem.read(var_obj, 0) {
                Value::Ptr(p) => (p.object, p.offset),
                _ => (var_obj, 0),
            },
            _ => (var_obj, 0),
        };
        let Some(section) = item.sections.first() else {
            return Ok(Some((target, Section::whole(self.mem.object(target)))));
        };
        let row = self.mem.object(target).strides()[0].max(1);
        let rows = (self.mem.object(target).len() / row) as i64;
        let lb = match &section.lower {
            Some(e) => self.eval(e)?.as_i64(),
            None => 0,
        };
        let len = match &section.length {
            Some(e) => self.eval(e)?.as_i64(),
            None => rows.saturating_sub(lb),
        };
        let len = len.max(0) as u64;
        let section = Section {
            lb: offset.saturating_add(lb.saturating_mul(row as i64)),
            len: len.saturating_mul(row as u64),
        };
        Ok(Some((target, section)))
    }

    /// Expand the `map` clauses of a directive into (object, map type,
    /// section) actions.
    fn mapping_actions(
        &mut self,
        dir: &OmpDirective,
    ) -> Result<Vec<(ObjectId, MapType, Section)>, SimError> {
        let mut actions = Vec::new();
        for clause in &dir.clauses {
            if let Clause::Map { map_type, items } = clause {
                let mt = map_type.unwrap_or(MapType::ToFrom);
                for item in items {
                    if let Some((obj, section)) = self.resolve_map_item(item)? {
                        actions.push((obj, mt, section));
                    }
                }
            }
        }
        Ok(actions)
    }

    fn exec_kernel(&mut self, dir: &OmpDirective) -> Result<Flow, SimError> {
        // 1. Explicit clauses.
        let mut explicit: Vec<(ObjectId, MapType, Section)> = self.mapping_actions(dir)?;
        let firstprivate: Vec<String> = dir
            .firstprivate_vars()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let private: Vec<String> = dir.private_vars().iter().map(|s| s.to_string()).collect();
        let reductions: Vec<String> = dir.reduction_vars().iter().map(|s| s.to_string()).collect();

        // 2. Variables referenced by the kernel body but declared outside it.
        let referenced = dir
            .body
            .as_ref()
            .map(|b| referenced_outer_vars(b))
            .unwrap_or_default();

        let explicitly_handled: HashSet<String> = dir
            .clauses
            .iter()
            .flat_map(|c| c.data_items().iter().map(|i| i.var.clone()))
            .collect();

        // 3. Reduction variables behave like tofrom-mapped scalars.
        for name in &reductions {
            if let Some(obj) = self.lookup(name) {
                explicit.push((obj, MapType::ToFrom, Section::whole(self.mem.object(obj))));
            }
        }

        // 4. Implicit data-mapping rules for everything else: referenced
        //    variables not covered by an explicit clause are mapped `tofrom`
        //    for the duration of the kernel. This matches the behaviour the
        //    paper's "unoptimized" baseline exhibits (the OpenMP 4.0 default
        //    and `defaultmap(tofrom: scalar)` compilers): every referenced
        //    variable is copied in on entry and out on exit, which is exactly
        //    the redundancy OMPDart's explicit `firstprivate`/`map` clauses
        //    remove. A scalar holding a pointer maps its pointee instead.
        let mut implicit: Vec<(ObjectId, MapType, Section)> = Vec::new();
        for name in &referenced {
            if explicitly_handled.contains(name)
                || private.contains(name)
                || reductions.contains(name)
            {
                continue;
            }
            let Some(obj) = self.lookup(name) else {
                continue;
            };
            let mapped = match self.mem.object(obj).kind {
                ObjectKind::Scalar => match self.mem.read(obj, 0) {
                    Value::Ptr(p) => p.object,
                    _ => obj,
                },
                _ => obj,
            };
            let whole = Section::whole(self.mem.object(mapped));
            implicit.push((mapped, MapType::ToFrom, whole));
        }

        // 5. Enter all mappings.
        let mut all_maps = explicit;
        all_maps.extend(implicit);
        for (obj, map_type, section) in &all_maps {
            self.device
                .map_enter(&self.mem, *obj, *map_type, *section, &mut self.profile);
        }

        // 6. Private copies (explicit firstprivate, explicit private).
        let mut scope = HashMap::new();
        for name in &firstprivate {
            if let Some(obj) = self.lookup(name) {
                let value = self.mem.read(obj, 0);
                let elem = self.mem.object(obj).elem_bytes;
                let floating = matches!(value, Value::Double(_));
                let copy = self.mem.alloc(name, ObjectKind::Scalar, elem, floating);
                self.mem.write(copy, 0, value);
                scope.insert(name.clone(), copy);
            }
        }
        for name in &private {
            if let Some(obj) = self.lookup(name) {
                let elem = self.mem.object(obj).elem_bytes;
                let copy = self.mem.alloc(name, ObjectKind::Scalar, elem, true);
                scope.insert(name.clone(), copy);
            }
        }
        self.device_scopes.push(scope);

        // 7. Launch and execute.
        self.profile.kernel_launches += 1;
        let was_on_device = self.on_device;
        self.on_device = true;
        let flow = match &dir.body {
            Some(body) => self.exec_stmt(body)?,
            None => Flow::Normal,
        };
        self.on_device = was_on_device;
        self.device_scopes.pop();

        // 8. Exit mappings (reverse order).
        for (obj, map_type, section) in all_maps.iter().rev() {
            self.device
                .map_exit(&mut self.mem, *obj, *map_type, *section, &mut self.profile);
        }
        match flow {
            Flow::Return(v) => Ok(Flow::Return(v)),
            _ => Ok(Flow::Normal),
        }
    }

    // -- expressions ----------------------------------------------------------

    fn eval(&mut self, expr: &Expr) -> Result<Value, SimError> {
        self.count_op()?;
        match &expr.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ok(Value::Double(*v)),
            ExprKind::CharLit(c) => Ok(Value::Int(*c as i64)),
            ExprKind::StrLit(_) => Ok(Value::Unit),
            ExprKind::Ident(name) => self.eval_ident(name),
            ExprKind::Paren(inner) => self.eval(inner),
            ExprKind::Comma(items) => {
                let mut last = Value::Unit;
                for e in items {
                    last = self.eval(e)?;
                }
                Ok(last)
            }
            ExprKind::Cast { ty, expr } => {
                let v = self.eval(expr)?;
                Ok(match ty {
                    Type::Float | Type::Double => Value::Double(v.as_f64()),
                    Type::Pointer(_) => v,
                    _ => Value::Int(v.as_i64()),
                })
            }
            ExprKind::SizeofType(ty) => Ok(Value::Int(ty.scalar_size_bytes() as i64)),
            ExprKind::SizeofExpr(e) => {
                if let Some(name) = e.base_variable() {
                    if let Some(obj) = self.lookup(name) {
                        return Ok(Value::Int(self.mem.object(obj).size_bytes() as i64));
                    }
                }
                Ok(Value::Int(8))
            }
            ExprKind::Unary {
                op,
                operand,
                postfix,
            } => self.eval_unary(*op, operand, *postfix),
            ExprKind::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            ExprKind::Assign { op, lhs, rhs } => self.eval_assign(*op, lhs, rhs),
            ExprKind::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                if self.eval(cond)?.truthy() {
                    self.eval(then_expr)
                } else {
                    self.eval(else_expr)
                }
            }
            ExprKind::Index { .. } | ExprKind::Member { .. } => match self.resolve_place(expr)? {
                PlaceOrValue::Place(p) => Ok(self.read_place(p)),
                PlaceOrValue::Value(v) => Ok(v),
            },
            ExprKind::Call { callee, args, .. } => self.eval_call(callee, args),
        }
    }

    fn eval_ident(&mut self, name: &str) -> Result<Value, SimError> {
        if let Some(obj) = self.lookup(name) {
            let kind = self.mem.object(obj).kind.clone();
            return Ok(match kind {
                ObjectKind::Array { .. } | ObjectKind::Heap { .. } | ObjectKind::Struct { .. } => {
                    Value::Ptr(Pointer::new(obj, 0))
                }
                ObjectKind::Scalar => self.read_place(Place {
                    object: obj,
                    index: 0,
                }),
            });
        }
        if let Some(v) = self.unit.constants.get(name) {
            return Ok(if v.fract() == 0.0 {
                Value::Int(*v as i64)
            } else {
                Value::Double(*v)
            });
        }
        self.warn(format!("use of undeclared identifier `{name}`"));
        Ok(Value::Int(0))
    }

    fn eval_unary(
        &mut self,
        op: UnaryOp,
        operand: &Expr,
        _postfix: bool,
    ) -> Result<Value, SimError> {
        match op {
            UnaryOp::Inc | UnaryOp::Dec => {
                let place = self.resolve_place_strict(operand)?;
                let old = self.read_place(place);
                let delta = if op == UnaryOp::Inc { 1 } else { -1 };
                let new = old.arith(Value::Int(delta), |a, b| a + b, |a, b| a + b);
                self.write_place(place, new);
                // Postfix returns the old value, prefix the new one; the
                // analyses never depend on which, but keep C semantics.
                Ok(if _postfix { old } else { new })
            }
            UnaryOp::Neg => {
                let v = self.eval(operand)?;
                Ok(match v {
                    Value::Double(d) => Value::Double(-d),
                    other => Value::Int(-other.as_i64()),
                })
            }
            UnaryOp::Plus => self.eval(operand),
            UnaryOp::Not => Ok(Value::Int(i64::from(!self.eval(operand)?.truthy()))),
            UnaryOp::BitNot => Ok(Value::Int(!self.eval(operand)?.as_i64())),
            UnaryOp::Deref => {
                let v = self.eval(operand)?;
                match v.as_ptr() {
                    Some(p) => Ok(self.read_place(Place {
                        object: p.object,
                        index: p.offset,
                    })),
                    None => {
                        self.warn("dereference of a non-pointer value");
                        Ok(Value::Int(0))
                    }
                }
            }
            UnaryOp::AddrOf => match self.resolve_place(operand)? {
                PlaceOrValue::Place(p) => Ok(Value::Ptr(Pointer::new(p.object, p.index))),
                PlaceOrValue::Value(v) => Ok(v),
            },
        }
    }

    fn eval_binary(&mut self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> Result<Value, SimError> {
        use BinaryOp::*;
        if op == LogicalAnd {
            let l = self.eval(lhs)?;
            if !l.truthy() {
                return Ok(Value::Int(0));
            }
            return Ok(Value::Int(i64::from(self.eval(rhs)?.truthy())));
        }
        if op == LogicalOr {
            let l = self.eval(lhs)?;
            if l.truthy() {
                return Ok(Value::Int(1));
            }
            return Ok(Value::Int(i64::from(self.eval(rhs)?.truthy())));
        }
        let a = self.eval(lhs)?;
        let b = self.eval(rhs)?;
        Ok(self.apply_binary(op, a, b))
    }

    fn apply_binary(&mut self, op: BinaryOp, a: Value, b: Value) -> Value {
        use BinaryOp::*;
        match op {
            Add => a.arith(b, |x, y| x.wrapping_add(y), |x, y| x + y),
            Sub => a.arith(b, |x, y| x.wrapping_sub(y), |x, y| x - y),
            Mul => a.arith(b, |x, y| x.wrapping_mul(y), |x, y| x * y),
            Div => {
                if !a.is_double() && !b.is_double() && b.as_i64() == 0 {
                    self.warn("integer division by zero");
                    Value::Int(0)
                } else if b.is_double() || a.is_double() {
                    Value::Double(a.as_f64() / b.as_f64())
                } else {
                    Value::Int(a.as_i64() / b.as_i64())
                }
            }
            Rem => {
                let d = b.as_i64();
                if d == 0 {
                    self.warn("integer remainder by zero");
                    Value::Int(0)
                } else {
                    Value::Int(a.as_i64() % d)
                }
            }
            Shl => Value::Int(a.as_i64().wrapping_shl(b.as_i64() as u32)),
            Shr => Value::Int(a.as_i64().wrapping_shr(b.as_i64() as u32)),
            Lt => a.compare(b, |x, y| x < y),
            Gt => a.compare(b, |x, y| x > y),
            Le => a.compare(b, |x, y| x <= y),
            Ge => a.compare(b, |x, y| x >= y),
            Eq => a.compare(b, |x, y| x == y),
            Ne => a.compare(b, |x, y| x != y),
            BitAnd => Value::Int(a.as_i64() & b.as_i64()),
            BitOr => Value::Int(a.as_i64() | b.as_i64()),
            BitXor => Value::Int(a.as_i64() ^ b.as_i64()),
            LogicalAnd | LogicalOr => unreachable!("handled with short-circuit"),
        }
    }

    fn eval_assign(&mut self, op: AssignOp, lhs: &Expr, rhs: &Expr) -> Result<Value, SimError> {
        let value = self.eval(rhs)?;
        let place = self.resolve_place_strict(lhs)?;
        let result = match op.binary_op() {
            None => value,
            Some(binop) => {
                let current = self.read_place(place);
                self.apply_binary(binop, current, value)
            }
        };
        // Preserve the storage class of the destination (int vs double);
        // pointer values are always stored untouched.
        let stored = if matches!(result, Value::Ptr(_)) {
            result
        } else if place_is_float_dest(&self.mem, place) {
            Value::Double(result.as_f64())
        } else {
            match self.mem.object(place.object).data.first() {
                Some(Value::Int(_)) => Value::Int(result.as_i64()),
                _ => result,
            }
        };
        self.write_place(place, stored);
        Ok(result)
    }

    fn eval_call(&mut self, callee: &str, args: &[Expr]) -> Result<Value, SimError> {
        // printf needs access to the raw format string.
        if callee == "printf" || callee == "fprintf" {
            return self.eval_printf(callee, args);
        }
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval(a)?);
        }
        if let Some(result) = self.eval_builtin(callee, &values)? {
            return Ok(result);
        }
        if self.functions.contains_key(callee) {
            return self.call_function(callee, values);
        }
        self.warn(format!("call to unknown function `{callee}` returns 0"));
        Ok(Value::Int(0))
    }

    fn eval_builtin(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, SimError> {
        let a0 = args.first().copied().unwrap_or(Value::Int(0));
        let a1 = args.get(1).copied().unwrap_or(Value::Int(0));
        let value = match name {
            "exp" | "expf" => Value::Double(a0.as_f64().exp()),
            "exp2" | "exp2f" => Value::Double(a0.as_f64().exp2()),
            "log" | "logf" => Value::Double(a0.as_f64().ln()),
            "log2" | "log2f" => Value::Double(a0.as_f64().log2()),
            "log10" => Value::Double(a0.as_f64().log10()),
            "sqrt" | "sqrtf" => Value::Double(a0.as_f64().sqrt()),
            "cbrt" | "cbrtf" => Value::Double(a0.as_f64().cbrt()),
            "fabs" | "fabsf" => Value::Double(a0.as_f64().abs()),
            "abs" | "labs" => Value::Int(a0.as_i64().abs()),
            "pow" | "powf" => Value::Double(a0.as_f64().powf(a1.as_f64())),
            "sin" | "sinf" => Value::Double(a0.as_f64().sin()),
            "cos" | "cosf" => Value::Double(a0.as_f64().cos()),
            "tan" | "tanf" => Value::Double(a0.as_f64().tan()),
            "floor" | "floorf" => Value::Double(a0.as_f64().floor()),
            "ceil" | "ceilf" => Value::Double(a0.as_f64().ceil()),
            "fmax" | "fmaxf" => Value::Double(a0.as_f64().max(a1.as_f64())),
            "fmin" | "fminf" => Value::Double(a0.as_f64().min(a1.as_f64())),
            "fmod" | "fmodf" => Value::Double(a0.as_f64() % a1.as_f64()),
            "rand" => {
                // Deterministic xorshift so program outputs are reproducible.
                self.rng_state ^= self.rng_state << 13;
                self.rng_state ^= self.rng_state >> 7;
                self.rng_state ^= self.rng_state << 17;
                Value::Int((self.rng_state % 32768) as i64)
            }
            "srand" => {
                self.rng_state = (a0.as_i64() as u64) | 1;
                Value::Unit
            }
            "malloc" | "calloc" => {
                let bytes = if name == "calloc" {
                    a0.as_i64().max(0) as u64 * a1.as_i64().max(0) as u64
                } else {
                    a0.as_i64().max(0) as u64
                };
                let elems = (bytes / 8).max(1) as usize;
                let obj = self
                    .mem
                    .alloc("heap", ObjectKind::Heap { len: elems }, 8, true);
                Value::Ptr(Pointer::new(obj, 0))
            }
            "free" => Value::Unit,
            "memset" => {
                if let Some(p) = a0.as_ptr() {
                    let len = self.mem.object(p.object).len();
                    let fill = if a1.as_i64() == 0 {
                        Value::Double(0.0)
                    } else {
                        Value::Int(a1.as_i64())
                    };
                    for i in 0..len {
                        self.mem.write(p.object, i as i64, fill);
                    }
                }
                a0
            }
            "assert" => {
                if !a0.truthy() {
                    self.warn("assertion failed");
                }
                Value::Unit
            }
            "omp_get_wtime" => Value::Double(self.ops as f64 * 1e-9),
            "omp_get_num_threads" | "omp_get_max_threads" => Value::Int(8),
            "omp_get_thread_num" => Value::Int(0),
            "omp_get_num_devices" => Value::Int(1),
            _ => return Ok(None),
        };
        Ok(Some(value))
    }

    fn eval_printf(&mut self, callee: &str, args: &[Expr]) -> Result<Value, SimError> {
        // fprintf(stderr, fmt, ...) — skip the stream argument.
        let skip = usize::from(callee == "fprintf");
        let Some(fmt_expr) = args.get(skip) else {
            return Ok(Value::Int(0));
        };
        let format = match &fmt_expr.kind {
            ExprKind::StrLit(s) => s.clone(),
            _ => {
                self.warn("printf with non-literal format string");
                String::new()
            }
        };
        let mut values = Vec::new();
        for a in &args[(skip + 1).min(args.len())..] {
            values.push(self.eval(a)?);
        }
        let rendered = format_printf(&format, &values);
        for line in rendered.split_inclusive('\n') {
            self.output.push(line.trim_end_matches('\n').to_string());
        }
        Ok(Value::Int(rendered.len() as i64))
    }

    // -- lvalue resolution ------------------------------------------------------

    fn resolve_place_strict(&mut self, expr: &Expr) -> Result<Place, SimError> {
        match self.resolve_place(expr)? {
            PlaceOrValue::Place(p) => Ok(p),
            PlaceOrValue::Value(_) => {
                self.warn("expression is not assignable; ignoring write");
                // Use a scratch location so execution can continue.
                let scratch = self.mem.alloc("<scratch>", ObjectKind::Scalar, 8, true);
                Ok(Place {
                    object: scratch,
                    index: 0,
                })
            }
        }
    }

    fn resolve_place(&mut self, expr: &Expr) -> Result<PlaceOrValue, SimError> {
        match &expr.kind {
            ExprKind::Ident(name) => {
                let Some(obj) = self.lookup(name) else {
                    return Ok(PlaceOrValue::Value(self.eval_ident(name)?));
                };
                Ok(match self.mem.object(obj).kind {
                    ObjectKind::Scalar => PlaceOrValue::Place(Place {
                        object: obj,
                        index: 0,
                    }),
                    _ => PlaceOrValue::Value(Value::Ptr(Pointer::new(obj, 0))),
                })
            }
            ExprKind::Paren(inner) => self.resolve_place(inner),
            ExprKind::Index { .. } => self.resolve_index_chain(expr),
            ExprKind::Member { base, field, arrow } => {
                let base_ptr = if *arrow {
                    self.eval(base)?.as_ptr()
                } else {
                    match self.resolve_place(base)? {
                        PlaceOrValue::Place(p) => Some(Pointer::new(p.object, p.index)),
                        PlaceOrValue::Value(v) => v.as_ptr(),
                    }
                };
                let Some(ptr) = base_ptr else {
                    self.warn("member access on a non-struct value");
                    return Ok(PlaceOrValue::Value(Value::Int(0)));
                };
                let field_index =
                    self.mem.object(ptr.object).field_index(field).unwrap_or(0) as i64;
                Ok(PlaceOrValue::Place(Place {
                    object: ptr.object,
                    index: ptr.offset + field_index,
                }))
            }
            ExprKind::Unary {
                op: UnaryOp::Deref,
                operand,
                ..
            } => {
                let v = self.eval(operand)?;
                match v.as_ptr() {
                    Some(p) => Ok(PlaceOrValue::Place(Place {
                        object: p.object,
                        index: p.offset,
                    })),
                    None => {
                        self.warn("dereference of a non-pointer value");
                        Ok(PlaceOrValue::Value(Value::Int(0)))
                    }
                }
            }
            ExprKind::Cast { expr, .. } => self.resolve_place(expr),
            _ => Ok(PlaceOrValue::Value(self.eval(expr)?)),
        }
    }

    /// Resolve a chain of `base[idx1][idx2]...` subscripts to a place,
    /// respecting multidimensional array strides.
    fn resolve_index_chain(&mut self, expr: &Expr) -> Result<PlaceOrValue, SimError> {
        // Collect indices from outermost to innermost, then reverse.
        let mut indices = Vec::new();
        let mut cur = expr;
        loop {
            match &cur.kind {
                ExprKind::Index { base, index } => {
                    indices.push(index);
                    cur = base;
                }
                ExprKind::Paren(inner) => cur = inner,
                _ => break,
            }
        }
        indices.reverse();
        // Resolve the base to (object, base offset, dims).
        let (object, base_offset, dims) = match &cur.kind {
            ExprKind::Ident(name) => {
                let Some(obj) = self.lookup(name) else {
                    self.warn(format!("subscript of undeclared identifier `{name}`"));
                    return Ok(PlaceOrValue::Value(Value::Int(0)));
                };
                match self.mem.object(obj).kind.clone() {
                    ObjectKind::Array { dims } => (obj, 0i64, dims),
                    ObjectKind::Heap { len } => (obj, 0i64, vec![len]),
                    ObjectKind::Struct { fields } => (obj, 0i64, vec![fields.len()]),
                    ObjectKind::Scalar => match self.read_place(Place {
                        object: obj,
                        index: 0,
                    }) {
                        Value::Ptr(p) => {
                            let len = self.mem.object(p.object).len();
                            (p.object, p.offset, vec![len])
                        }
                        _ => {
                            self.warn(format!("subscript of non-pointer scalar `{name}`"));
                            return Ok(PlaceOrValue::Value(Value::Int(0)));
                        }
                    },
                }
            }
            ExprKind::Unary {
                op: UnaryOp::Deref,
                operand,
                ..
            } => {
                let v = self.eval(operand)?;
                match v.as_ptr() {
                    Some(p) => {
                        let len = self.mem.object(p.object).len();
                        (p.object, p.offset, vec![len])
                    }
                    None => return Ok(PlaceOrValue::Value(Value::Int(0))),
                }
            }
            ExprKind::Member { .. } => {
                // A struct field holding a pointer.
                match self.resolve_place(cur)? {
                    PlaceOrValue::Place(p) => match self.read_place(p) {
                        Value::Ptr(ptr) => {
                            let len = self.mem.object(ptr.object).len();
                            (ptr.object, ptr.offset, vec![len])
                        }
                        _ => return Ok(PlaceOrValue::Value(Value::Int(0))),
                    },
                    PlaceOrValue::Value(_) => return Ok(PlaceOrValue::Value(Value::Int(0))),
                }
            }
            _ => {
                let v = self.eval(cur)?;
                match v.as_ptr() {
                    Some(p) => {
                        let len = self.mem.object(p.object).len();
                        (p.object, p.offset, vec![len])
                    }
                    None => return Ok(PlaceOrValue::Value(Value::Int(0))),
                }
            }
        };
        // Compute the linear offset using row-major strides.
        let mut strides = vec![1i64; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1] as i64;
        }
        let mut offset = base_offset;
        for (k, idx_expr) in indices.iter().enumerate() {
            let idx = self.eval(idx_expr)?.as_i64();
            let stride = strides.get(k).copied().unwrap_or(1);
            offset += idx * stride;
        }
        if indices.len() < dims.len() {
            // Partial indexing yields the address of a sub-array.
            return Ok(PlaceOrValue::Value(Value::Ptr(Pointer::new(
                object, offset,
            ))));
        }
        Ok(PlaceOrValue::Place(Place {
            object,
            index: offset,
        }))
    }
}

fn place_is_float_dest(mem: &Memory, place: Place) -> bool {
    matches!(
        mem.object(place.object)
            .data
            .get(place.index.max(0) as usize),
        Some(Value::Double(_))
    )
}

enum PlaceOrValue {
    Place(Place),
    Value(Value),
}

/// Names of variables referenced in a statement subtree but declared outside
/// it (used for the implicit data-mapping rules of kernel regions).
pub fn referenced_outer_vars(body: &Stmt) -> Vec<String> {
    let mut declared: HashSet<String> = HashSet::new();
    let mut referenced: Vec<String> = Vec::new();
    collect_vars(body, &mut declared, &mut referenced);
    referenced.retain(|name| !declared.contains(name));
    referenced
}

fn collect_vars(stmt: &Stmt, declared: &mut HashSet<String>, referenced: &mut Vec<String>) {
    let note_expr = |e: &Expr, declared: &HashSet<String>, referenced: &mut Vec<String>| {
        for v in e.referenced_vars() {
            if !declared.contains(&v) && !referenced.contains(&v) {
                referenced.push(v);
            }
        }
    };
    match &stmt.kind {
        StmtKind::Decl(decls) => {
            for d in decls {
                if let Some(init) = &d.init {
                    for v in init.referenced_vars() {
                        if !declared.contains(&v) && !referenced.contains(&v) {
                            referenced.push(v);
                        }
                    }
                }
                declared.insert(d.name.to_string());
            }
        }
        StmtKind::For {
            init,
            cond,
            inc,
            body,
        } => {
            if let Some(fi) = init {
                match fi.as_ref() {
                    ForInit::Decl(decls) => {
                        for d in decls {
                            if let Some(init) = &d.init {
                                for v in init.referenced_vars() {
                                    if !declared.contains(&v) && !referenced.contains(&v) {
                                        referenced.push(v);
                                    }
                                }
                            }
                            declared.insert(d.name.to_string());
                        }
                    }
                    ForInit::Expr(e) => note_expr(e, declared, referenced),
                }
            }
            if let Some(c) = cond {
                note_expr(c, declared, referenced);
            }
            if let Some(i) = inc {
                note_expr(i, declared, referenced);
            }
            collect_vars(body, declared, referenced);
            return;
        }
        _ => {
            for e in stmt.direct_exprs() {
                note_expr(e, declared, referenced);
            }
        }
    }
    match &stmt.kind {
        StmtKind::Compound(items) => {
            for s in items {
                collect_vars(s, declared, referenced);
            }
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_vars(then_branch, declared, referenced);
            if let Some(e) = else_branch {
                collect_vars(e, declared, referenced);
            }
        }
        StmtKind::While { body, .. }
        | StmtKind::DoWhile { body, .. }
        | StmtKind::Switch { body, .. } => collect_vars(body, declared, referenced),
        StmtKind::Omp(dir) => {
            if let Some(body) = &dir.body {
                collect_vars(body, declared, referenced);
            }
        }
        _ => {}
    }
}

/// A small `printf`-style formatter covering the conversions used by the
/// benchmark ports (`%d`, `%ld`, `%u`, `%zu`, `%f`, `%e`, `%g`, `%c`, `%%`,
/// optional width/precision).
pub fn format_printf(format: &str, args: &[Value]) -> String {
    let mut out = String::new();
    let mut chars = format.chars().peekable();
    let mut arg_idx = 0usize;
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        // Parse the conversion specification.
        let mut spec = String::new();
        let mut conv = None;
        while let Some(&next) = chars.peek() {
            if next.is_ascii_alphabetic() || next == '%' {
                conv = Some(next);
                chars.next();
                if matches!(next, 'l' | 'z' | 'h') {
                    // length modifier: keep scanning for the real conversion
                    conv = None;
                    continue;
                }
                break;
            }
            spec.push(next);
            chars.next();
        }
        let Some(conv) = conv else { continue };
        if conv == '%' {
            out.push('%');
            continue;
        }
        let value = args.get(arg_idx).copied().unwrap_or(Value::Int(0));
        arg_idx += 1;
        let precision = spec
            .split('.')
            .nth(1)
            .and_then(|p| p.parse::<usize>().ok())
            .unwrap_or(6);
        match conv {
            'd' | 'i' | 'u' | 'x' => out.push_str(&value.as_i64().to_string()),
            'c' => out.push(char::from_u32(value.as_i64() as u32).unwrap_or('?')),
            'f' | 'F' => out.push_str(&format!("{:.*}", precision, value.as_f64())),
            'e' | 'E' => out.push_str(&format!("{:.*e}", precision, value.as_f64())),
            'g' | 'G' => out.push_str(&format!("{}", value.as_f64())),
            's' => out.push_str("<str>"),
            _ => out.push('?'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Outcome {
        simulate_source(src, SimConfig::default()).expect("simulation failed")
    }

    #[test]
    fn arithmetic_and_output() {
        let out = run("int main() { int a = 6; int b = 7; printf(\"%d\\n\", a * b); return 0; }\n");
        assert_eq!(out.output, vec!["42"]);
        assert_eq!(out.exit_code, 0);
    }

    #[test]
    fn loops_and_arrays() {
        let out = run(
            "#define N 10\nint main() { double a[N]; double s = 0.0; for (int i = 0; i < N; i++) a[i] = i * 0.5; for (int i = 0; i < N; i++) s += a[i]; printf(\"%.1f\\n\", s); return 0; }\n",
        );
        assert_eq!(out.output, vec!["22.5"]);
    }

    #[test]
    fn two_dimensional_arrays() {
        let out = run(
            "#define R 3\n#define C 4\nint main() { int g[R][C]; for (int i = 0; i < R; i++) for (int j = 0; j < C; j++) g[i][j] = i * 10 + j; printf(\"%d %d\\n\", g[2][3], g[0][1]); return 0; }\n",
        );
        assert_eq!(out.output, vec!["23 1"]);
    }

    #[test]
    fn functions_and_pointers() {
        let out = run(
            "void fill(double *v, int n, double x) { for (int i = 0; i < n; i++) v[i] = x; }\ndouble total(const double *v, int n) { double s = 0.0; for (int i = 0; i < n; i++) s += v[i]; return s; }\nint main() { double buf[8]; fill(buf, 8, 2.5); printf(\"%.1f\\n\", total(buf, 8)); return 0; }\n",
        );
        assert_eq!(out.output, vec!["20.0"]);
    }

    #[test]
    fn structs_and_member_access() {
        let out = run(
            "struct point { double x; double y; };\nint main() { struct point p; p.x = 3.0; p.y = 4.0; struct point *q = &p; printf(\"%.1f\\n\", q->x * q->x + q->y * q->y); return 0; }\n",
        );
        assert_eq!(out.output, vec!["25.0"]);
    }

    #[test]
    fn implicit_kernel_mapping_counts_transfers() {
        // One kernel, one array of 64 doubles: implicit tofrom => 1 HtoD and
        // 1 DtoH memcpy of 512 bytes each, plus exactly one kernel launch.
        let out = run(
            "#define N 64\ndouble a[N];\nint main() {\n#pragma omp target teams distribute parallel for\nfor (int i = 0; i < N; i++) a[i] = i;\nreturn 0; }\n",
        );
        assert_eq!(out.profile.kernel_launches, 1);
        assert_eq!(out.profile.htod_calls, 1);
        assert_eq!(out.profile.dtoh_calls, 1);
        assert_eq!(out.profile.htod_bytes, 512);
        assert_eq!(out.profile.dtoh_bytes, 512);
    }

    #[test]
    fn kernel_in_loop_multiplies_transfers() {
        // The motivating Listing 1 of the paper: a kernel nested in a loop
        // re-transfers the array every iteration under implicit rules.
        let out = run(
            "#define N 32\nint a[N];\nint main() {\nfor (int it = 0; it < 10; it++) {\n#pragma omp target\nfor (int j = 0; j < N; j++) a[j] += j;\n}\nreturn 0; }\n",
        );
        assert_eq!(out.profile.kernel_launches, 10);
        assert_eq!(out.profile.htod_calls, 10);
        assert_eq!(out.profile.dtoh_calls, 10);
        // Data is still correct because every kernel exit copies back.
        assert_eq!(out.warnings.len(), 0);
    }

    #[test]
    fn target_data_region_eliminates_intermediate_copies() {
        let unopt = run(
            "#define N 32\nint a[N];\nint main() {\nfor (int it = 0; it < 10; it++) {\n#pragma omp target\nfor (int j = 0; j < N; j++) a[j] += 1;\n}\nprintf(\"%d\\n\", a[5]);\nreturn 0; }\n",
        );
        let opt = run(
            "#define N 32\nint a[N];\nint main() {\n#pragma omp target data map(tofrom: a[0:N])\n{\nfor (int it = 0; it < 10; it++) {\n#pragma omp target\nfor (int j = 0; j < N; j++) a[j] += 1;\n}\n}\nprintf(\"%d\\n\", a[5]);\nreturn 0; }\n",
        );
        // Same program result...
        assert_eq!(unopt.output, opt.output);
        assert_eq!(opt.output, vec!["10"]);
        // ...with far fewer transfers.
        assert_eq!(opt.profile.htod_calls, 1);
        assert_eq!(opt.profile.dtoh_calls, 1);
        assert_eq!(unopt.profile.htod_calls, 10);
        assert!(opt.profile.total_bytes() < unopt.profile.total_bytes());
    }

    /// A transfer moves exactly the section its clause names: a short
    /// `update from` leaves the host's last element stale, so what the
    /// program prints changes with the section, and the bytes follow it.
    #[test]
    fn a_short_section_leaves_the_rest_stale() {
        let program = |update: &str| {
            format!(
                "#define N 8\ndouble a[N];\nint main() {{\nint n = N;\n\
                 #pragma omp target data map(alloc: a[0:n])\n{{\n\
                 #pragma omp target\nfor (int i = 0; i < n; i++) a[i] = i + 1.0;\n\
                 #pragma omp target update from({update})\n\
                 printf(\"%.1f %.1f\\n\", a[0], a[n - 1]);\n}}\nreturn 0; }}\n"
            )
        };
        let full = run(&program("a[0:n]"));
        assert_eq!(full.output, vec!["1.0 8.0"]);
        let short = run(&program("a[0:n-1]"));
        assert_eq!(short.output, vec!["1.0 0.0"]);
        assert_eq!(full.profile.dtoh_bytes - short.profile.dtoh_bytes, 8);
        // Shifted by one, the first element is the stale one.
        let shifted = run(&program("a[1:n-1]"));
        assert_eq!(shifted.output, vec!["0.0 8.0"]);
    }

    #[test]
    fn firstprivate_scalar_avoids_memcpy() {
        let mapped = run(
            "#define N 16\ndouble a[N];\nint main() { double scale = 2.0;\n#pragma omp target map(to: scale) map(tofrom: a[0:N])\nfor (int i = 0; i < N; i++) a[i] = scale * i;\nprintf(\"%.1f\\n\", a[3]);\nreturn 0; }\n",
        );
        let fp = run(
            "#define N 16\ndouble a[N];\nint main() { double scale = 2.0;\n#pragma omp target map(tofrom: a[0:N]) firstprivate(scale)\nfor (int i = 0; i < N; i++) a[i] = scale * i;\nprintf(\"%.1f\\n\", a[3]);\nreturn 0; }\n",
        );
        assert_eq!(mapped.output, fp.output);
        assert_eq!(mapped.output, vec!["6.0"]);
        // The explicit map(to: scale) costs one extra HtoD call.
        assert_eq!(mapped.profile.htod_calls, fp.profile.htod_calls + 1);
    }

    #[test]
    fn stale_data_bug_is_observable() {
        // The incorrect mapping of Listing 3: the host sum reads stale data
        // because the inner `map(from:)` does not copy while the outer region
        // holds a reference.
        let src = "\
#define N 8
#define M 3
int a[N];
int main() {
  int sum = 0;
  #pragma omp target data map(tofrom: a[0:N])
  {
    for (int i = 0; i < M; i++) {
      #pragma omp target map(from: a[0:N])
      for (int j = 0; j < N; j++) a[j] += j;
      for (int j = 0; j < N; j++) sum += a[j];
    }
  }
  printf(\"%d\\n\", sum);
  return 0;
}
";
        let buggy = run(src);
        // Correct version uses `update from` after the kernel.
        let fixed = src.replace(
            "#pragma omp target map(from: a[0:N])\n      for (int j = 0; j < N; j++) a[j] += j;",
            "#pragma omp target map(alloc: a[0:N])\n      for (int j = 0; j < N; j++) a[j] += j;\n      #pragma omp target update from(a[0:N])",
        );
        let fixed = run(&fixed);
        assert_ne!(
            buggy.output, fixed.output,
            "stale data must change the result"
        );
        // With the update, each iteration sums the freshly computed values:
        // iteration i sums sum_j j*(i+1) = 28*(i+1); total = 28*(1+2+3) = 168.
        assert_eq!(fixed.output, vec!["168"]);
        assert_eq!(buggy.output, vec!["0"]);
    }

    #[test]
    fn target_update_counts() {
        let out = run(
            "#define N 4\ndouble a[N];\nint main() {\n#pragma omp target data map(to: a[0:N])\n{\n#pragma omp target\nfor (int i = 0; i < N; i++) a[i] = i + 1.0;\n#pragma omp target update from(a[0:N])\n}\nprintf(\"%.0f\\n\", a[3]);\nreturn 0; }\n",
        );
        assert_eq!(out.output, vec!["4"]);
        assert_eq!(out.profile.dtoh_calls, 1);
    }

    #[test]
    fn reduction_maps_scalar_tofrom() {
        let out = run(
            "#define N 100\ndouble a[N];\nint main() {\nfor (int i = 0; i < N; i++) a[i] = 1.0;\ndouble sum = 0.0;\n#pragma omp target teams distribute parallel for reduction(+: sum) map(to: a[0:N])\nfor (int i = 0; i < N; i++) sum += a[i];\nprintf(\"%.0f\\n\", sum);\nreturn 0; }\n",
        );
        assert_eq!(out.output, vec!["100"]);
        // a (to) + sum (tofrom) => 2 HtoD, sum back => 1 DtoH
        assert_eq!(out.profile.htod_calls, 2);
        assert_eq!(out.profile.dtoh_calls, 1);
    }

    #[test]
    fn op_budget_guards_infinite_loops() {
        let cfg = SimConfig { max_ops: 10_000 };
        let err = simulate_source("int main() { while (1) { int x = 0; } return 0; }\n", cfg)
            .unwrap_err();
        assert!(matches!(err, SimError::OpBudgetExceeded(_)));
    }

    #[test]
    fn missing_entry_is_reported() {
        let err =
            simulate_source("int helper() { return 1; }\n", SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::MissingEntry(_)));
    }

    #[test]
    fn switch_and_break() {
        let out = run(
            "int classify(int x) { switch (x) { case 0: return 10; case 1: return 20; default: return 30; } }\nint main() { printf(\"%d %d %d\\n\", classify(0), classify(1), classify(7)); return 0; }\n",
        );
        assert_eq!(out.output, vec!["10 20 30"]);
    }

    #[test]
    fn while_do_while_and_ternary() {
        let out = run(
            "int main() { int i = 0; int n = 0; while (i < 5) { n += i; i++; } do { n--; } while (n > 10); int m = n > 5 ? 1 : 2; printf(\"%d %d\\n\", n, m); return 0; }\n",
        );
        assert_eq!(out.output, vec!["9 1"]);
    }

    #[test]
    fn printf_formats() {
        assert_eq!(format_printf("%d items", &[Value::Int(3)]), "3 items");
        assert_eq!(format_printf("%.2f", &[Value::Double(1.2345)]), "1.23");
        assert_eq!(format_printf("%e", &[Value::Double(1234.5)]), "1.234500e3");
        assert_eq!(format_printf("100%%", &[]), "100%");
        assert_eq!(format_printf("%ld", &[Value::Int(9)]), "9");
        assert_eq!(format_printf("%c", &[Value::Int(65)]), "A");
    }

    #[test]
    fn malloc_and_heap_access() {
        let out = run(
            "int main() { double *p = (double *)malloc(8 * sizeof(double)); for (int i = 0; i < 8; i++) p[i] = i; printf(\"%.0f\\n\", p[7]); free(p); return 0; }\n",
        );
        assert_eq!(out.output, vec!["7"]);
    }

    #[test]
    fn host_and_device_ops_are_attributed() {
        let out = run(
            "#define N 64\ndouble a[N];\nint main() {\n#pragma omp target teams distribute parallel for\nfor (int i = 0; i < N; i++) a[i] = i * 2.0;\ndouble s = 0.0;\nfor (int i = 0; i < N; i++) s += a[i];\nprintf(\"%.0f\\n\", s);\nreturn 0; }\n",
        );
        assert!(out.profile.device_ops > 0);
        assert!(out.profile.host_ops > 0);
        assert_eq!(out.output, vec!["4032"]);
    }
}
