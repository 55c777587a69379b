//! A unit's **interface**: everything the rest of a program reads of it.
//!
//! A translation unit has two halves. Its *body* — the AST, the graphs, the
//! classified accesses, the seed summaries ([`crate::pipeline::UnitBody`])
//! — is large, derived from the source text, and needed only to *plan* the
//! unit. Its *interface* — [`UnitExports`] — is what the link reads of it,
//! linked with other units or alone (its closed world): per defined
//! function its name, its seed summary, its call sites as the fixed point
//! reads them ([`LinkCall`]) and the callees its plans depend on. It is
//! small, holds no
//! node id, span or symbol table, and is a pure function of the unit's bytes
//! and the analysis options, so it is persisted ([`UnitExports::encode`],
//! the store's interface record) and a restart links a program from
//! interfaces alone, the way ThinLTO links from function summaries: a body
//! is built only for the units an edit reaches.
//!
//! There is one constructor (`UnitExports::assemble`) for a unit parsed this
//! run and one restored from its encoding ([`UnitExports::decode`]): it
//! resolves names for the unit's *name* —
//! `static` functions link under `name@unit` — which is why the encoding,
//! like the store's key, is of the content alone and a renamed or copied
//! file decodes its own.

use crate::interproc::{
    visible_globals, ArgTarget, Effect, FunctionSummary, LinkArg, LinkCall, PropagationNode,
};
use crate::pipeline::key::{callee_keys, local_fingerprint, CalleeKey};
use crate::pipeline::{AccessArtifact, SummariesArtifact};
use crate::OmpDartOptions;
use ompdart_frontend::ast::TranslationUnit;
use ompdart_frontend::intern::FnvBuild;
use ompdart_frontend::Symbol;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The unit-private symbol a cross-unit `static` function links under:
/// `name@unit`. `@` cannot appear in a C identifier, so mangled names can
/// never collide with source-level ones. Calls inside the defining unit
/// resolve to the mangled symbol; other units never see it.
fn mangle_static(name: &str, unit: &str) -> String {
    format!("{name}@{unit}")
}

/// The source-level name of a link-resolved name: the part of a static's
/// `name@unit` symbol before the `@`, any other name itself.
pub(crate) fn source_name(resolved: &str) -> &str {
    resolved.split('@').next().unwrap_or(resolved)
}

/// The link-resolved name of `name` as a unit with the `(source, mangled)`
/// statics `statics` spells it: its own static's mangled symbol, shadowing
/// any same-named external function as C scoping does, else `name` itself.
pub(crate) fn resolve(statics: &[(Symbol, Symbol)], name: Symbol) -> Symbol {
    match statics.iter().find(|(source, _)| *source == name) {
        Some(&(_, mangled)) => mangled,
        None => name,
    }
}

/// One function's propagation inputs, resolved once per unit *content*:
/// its call list with callee names link-resolved, its local seed summary
/// under its resolved name, and its local fingerprint.
/// [`crate::program::Program::relink`] borrows these for exactly the
/// functions it re-converges — no per-relink name mangling, call
/// re-resolution, hashing or node rebuilding.
#[derive(Debug, PartialEq)]
pub(crate) struct LinkFunction {
    /// Call sites with callee names link-resolved.
    pub(crate) calls: Vec<LinkCall>,
    /// The local seed summary under the resolved name (the unit's own seed
    /// `Arc` unless the function is a renamed static).
    pub(crate) seed: Arc<FunctionSummary>,
    /// Fingerprint of everything the cross-unit propagation reads from the
    /// function's caller side (see [`local_fingerprint`]).
    pub(crate) local_fp: u64,
}

/// One function a unit defines, as the rest of the program reads it.
#[derive(Debug, PartialEq)]
pub(crate) struct ExportedFunction {
    /// Source-level name.
    pub(crate) source: Symbol,
    /// Link-resolved name: `name@unit` for statics, `source` otherwise.
    pub(crate) resolved: Symbol,
    /// The function's direct callees: what the unit's imports fingerprint,
    /// and the function's own plan key, hash against the converged
    /// summaries.
    pub(crate) callees: Vec<CalleeKey>,
    /// The propagation inputs.
    pub(crate) link: LinkFunction,
}

impl ExportedFunction {
    /// The propagation node of this function.
    pub(crate) fn node<'a>(&'a self, globals: &'a [Symbol]) -> PropagationNode<'a> {
        PropagationNode {
            name: self.resolved,
            calls: &self.link.calls,
            globals,
        }
    }
}

/// One defined function as its unit's bytes describe it, names unresolved:
/// the input of [`UnitExports::assemble`].
pub(crate) struct FunctionParts {
    pub(crate) name: Symbol,
    pub(crate) is_static: bool,
    pub(crate) callees: Vec<CalleeKey>,
    /// Seed summary and call sites, under source-level names.
    pub(crate) link: (Arc<FunctionSummary>, Vec<LinkCall>),
}

/// A unit's interface (see the module docs). Memoized on the
/// [`crate::pipeline::SummarizedUnit`] — which keeps its `Arc` across rounds
/// for as long as its content stays resident in the session's unit table —
/// so the AST walks, name mangling, call resolution and fingerprinting
/// behind it run once per resident version, not once per relink; restored
/// from the store, they do not run at all. It names no variable of the
/// unit's own beyond its functions' seeds and call sites: what another
/// unit's plan can read of it is in the converged summaries alone
/// (`interproc::DeviceNames`).
#[derive(Debug, PartialEq)]
pub struct UnitExports {
    /// Every defined function, in source order.
    pub(crate) functions: Vec<ExportedFunction>,
    /// `(source, mangled)` for the unit's `static` functions, sorted: how
    /// the unit's names resolve in the program's one summary table (its
    /// [`crate::program::LinkContext`] shares this list).
    pub(crate) statics_mangled: Arc<[(Symbol, Symbol)]>,
    /// The globals every function of the unit can see, sorted; what an
    /// unknown callee clobbers in pessimistic-globals mode, and empty when
    /// that mode is off.
    pub(crate) globals: Vec<Symbol>,
}

impl UnitExports {
    /// The interface of the unit called `unit`, from its stage artifacts.
    pub(crate) fn of(
        unit: &str,
        ast: &TranslationUnit,
        accesses: &AccessArtifact,
        summaries: &SummariesArtifact,
        options: &OmpDartOptions,
    ) -> UnitExports {
        let globals = match options.pessimistic_globals {
            true => visible_globals(ast),
            false => Vec::new(),
        };
        // Every defined function has a graph, so accesses, symbols and a seed.
        let functions = ast.functions().map(|f| {
            let sym = &accesses.symbols[&f.name];
            let callees = callee_keys(f.name, accesses, ast);
            let key = |callee: Symbol| {
                let at = callees.binary_search_by(|key| key.name.cmp(&callee));
                &callees[at.expect("every callee has a key")]
            };
            let calls = (accesses.accesses[&f.name].calls.iter())
                .map(|call| LinkCall::of(call, f, sym, key(call.callee)))
                .collect();
            FunctionParts {
                name: f.name,
                is_static: f.is_static,
                callees,
                link: (Arc::clone(&summaries.seeds[&f.name]), calls),
            }
        });
        UnitExports::assemble(unit, globals, functions.collect())
    }

    /// The one constructor: resolve `functions`' names for the unit called
    /// `unit` and derive the indexes and fingerprints the link stage reads.
    pub(crate) fn assemble(
        unit: &str,
        globals: Vec<Symbol>,
        functions: Vec<FunctionParts>,
    ) -> UnitExports {
        let mut statics_mangled: Vec<(Symbol, Symbol)> = (functions.iter())
            .filter(|f| f.is_static)
            .map(|f| (f.name, Symbol::intern(&mangle_static(&f.name, unit))))
            .collect();
        statics_mangled.sort_unstable();
        statics_mangled.dedup();
        let resolve = |name: Symbol| resolve(&statics_mangled, name);
        let functions: Vec<ExportedFunction> = (functions.into_iter())
            .map(|f| {
                let resolved = resolve(f.name);
                let (seed, mut calls) = f.link;
                for call in &mut calls {
                    call.callee = resolve(call.callee);
                }
                let seed = if resolved == f.name {
                    seed
                } else {
                    let mut seed = Arc::unwrap_or_clone(seed);
                    seed.name = resolved;
                    Arc::new(seed)
                };
                ExportedFunction {
                    source: f.name,
                    resolved,
                    callees: f.callees,
                    link: LinkFunction {
                        local_fp: local_fingerprint(&seed, &calls, &globals),
                        calls,
                        seed,
                    },
                }
            })
            .collect();
        UnitExports {
            functions,
            statics_mangled: statics_mangled.into(),
            globals,
        }
    }

    /// Append the interface's encoding to `out`: text, one line for the
    /// unit and one per function, names as the source spells them (so it is
    /// the same for every name the content is saved under). Returns false,
    /// with `out` as it was, for an interface holding a name the format has
    /// no spelling for.
    pub fn encode(&self, out: &mut Vec<u8>) -> bool {
        let start = out.len();
        let encoded = self.encode_lines(out).is_some();
        if !encoded {
            out.truncate(start);
        }
        encoded
    }

    fn encode_lines(&self, out: &mut Vec<u8>) -> Option<()> {
        let unresolve = |name: Symbol| -> Symbol {
            match self.statics_mangled.iter().find(|(_, m)| *m == name) {
                Some(&(source, _)) => source,
                None => name,
            }
        };
        // A name is one token: not empty, no blank, no control byte.
        fn name(out: &mut Vec<u8>, name: &str) -> Option<()> {
            let plain = !name.is_empty() && name.bytes().all(|b| b > b' ' && b != 0x7f);
            plain.then(|| {
                out.push(b' ');
                out.extend_from_slice(name.as_bytes());
            })
        }
        // A number is a blank and its decimal digits (no formatter: this
        // runs once per token of every unit a populating run parses).
        fn number(out: &mut Vec<u8>, n: usize) {
            let mut digits = [0u8; 20];
            let mut at = digits.len();
            let mut rest = n;
            loop {
                at -= 1;
                digits[at] = b'0' + (rest % 10) as u8;
                rest /= 10;
                if rest == 0 {
                    break;
                }
            }
            out.push(b' ');
            out.extend_from_slice(&digits[at..]);
        }
        let effect = |e: &Effect| usize::from(e.byte());
        out.extend_from_slice(self.functions.len().to_string().as_bytes());
        number(out, self.globals.len());
        for global in &self.globals {
            name(out, global)?;
        }
        for f in &self.functions {
            let is_static = f.source != f.resolved;
            out.extend_from_slice(&[b'\n', b'0' + u8::from(is_static)]);
            name(out, &f.source)?;
            number(out, f.callees.len());
            for callee in &f.callees {
                name(out, &callee.name)?;
                out.extend_from_slice(b" -");
                for byte in &callee.proto {
                    let hex = |nibble: u8| b"0123456789abcdef"[usize::from(nibble)];
                    out.extend_from_slice(&[hex(byte >> 4), hex(byte & 15)]);
                }
            }
            let link = &f.link;
            let seed = &link.seed;
            number(out, usize::from(seed.has_kernels));
            number(out, seed.param_effects.len());
            for e in &seed.param_effects {
                number(out, effect(e));
            }
            number(out, seed.global_effects.len());
            for (global, e) in &seed.global_effects {
                name(out, global)?;
                number(out, effect(e));
            }
            number(out, link.calls.len());
            for call in &link.calls {
                name(out, &unresolve(call.callee))?;
                number(out, usize::from(call.on_device));
                number(out, call.args.len());
                for arg in &call.args {
                    number(out, arg.position as usize);
                    // A `const` pointee spells its target in capitals.
                    let [param, global] = match arg.const_pointee {
                        true => *b"PG",
                        false => *b"pg",
                    };
                    match arg.target {
                        ArgTarget::Param(at) => {
                            out.extend_from_slice(&[b' ', param]);
                            number(out, at as usize);
                        }
                        ArgTarget::Global(var) => {
                            out.extend_from_slice(&[b' ', global]);
                            name(out, &var)?;
                        }
                    }
                }
            }
        }
        Some(())
    }

    /// The interface `payload` encodes, with names resolved for the unit
    /// called `unit`; `None` for anything [`Self::encode`] does not write.
    pub fn decode<'a>(unit: &str, payload: &'a str) -> Option<UnitExports> {
        let mut tokens = payload.split_ascii_whitespace();
        let mut token = || tokens.next();
        // A name is spelled once per use: like the lexer, go to the
        // process-wide symbol table once per distinct name.
        let mut names: HashMap<&str, Symbol, FnvBuild> = HashMap::default();
        let mut symbol = |token: Option<&'a str>| {
            token.map(|name| *names.entry(name).or_insert_with(|| Symbol::intern(name)))
        };
        fn number<T: std::str::FromStr>(token: Option<&str>) -> Option<T> {
            token?.parse().ok()
        }
        fn flag(token: Option<&str>) -> Option<bool> {
            match token? {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            }
        }
        let effect = |token: Option<&str>| number::<u8>(token).map(Effect::from_byte);
        let function_count: usize = number(token())?;
        let global_count: usize = number(token())?;
        let globals = (0..global_count)
            .map(|_| symbol(token()))
            .collect::<Option<Vec<Symbol>>>()?;
        let mut functions = Vec::new();
        for _ in 0..function_count {
            let is_static = flag(token())?;
            let name = symbol(token())?;
            let callee_count: usize = number(token())?;
            let mut callees = Vec::new();
            for _ in 0..callee_count {
                let name = symbol(token())?;
                let hex = token()?.strip_prefix('-')?.as_bytes();
                let proto = (hex.chunks(2))
                    .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok())
                    .collect::<Option<Vec<u8>>>()?;
                callees.push(CalleeKey { name, proto });
            }
            let has_kernels = flag(token())?;
            let param_count: usize = number(token())?;
            let param_effects = (0..param_count)
                .map(|_| effect(token()))
                .collect::<Option<Vec<Effect>>>()?;
            let global_count: usize = number(token())?;
            let mut global_effects = BTreeMap::new();
            for _ in 0..global_count {
                global_effects.insert(symbol(token())?, effect(token())?);
            }
            let call_count: usize = number(token())?;
            let mut calls = Vec::new();
            for _ in 0..call_count {
                let callee = symbol(token())?;
                let on_device = flag(token())?;
                let arg_count: usize = number(token())?;
                let mut args = Vec::new();
                for _ in 0..arg_count {
                    let position: u32 = number(token())?;
                    let spelled = token()?;
                    let target = match spelled {
                        // The fixed point indexes the caller's parameter
                        // effects with it.
                        "p" | "P" => ArgTarget::Param(
                            number(token()).filter(|at| (*at as usize) < param_count)?,
                        ),
                        "g" | "G" => ArgTarget::Global(symbol(token())?),
                        _ => return None,
                    };
                    args.push(LinkArg {
                        position,
                        target,
                        const_pointee: matches!(spelled, "P" | "G"),
                    });
                }
                calls.push(LinkCall {
                    callee,
                    on_device,
                    args,
                });
            }
            let seed = FunctionSummary {
                name,
                param_effects,
                global_effects,
                has_kernels,
            };
            functions.push(FunctionParts {
                name,
                is_static,
                callees,
                link: (Arc::new(seed), calls),
            });
        }
        if token().is_some() {
            return None;
        }
        let exports = UnitExports::assemble(unit, globals, functions);
        // As in a unit that parsed, no name is defined twice, so the unit
        // links, alone or with others that do not define it.
        let mut resolved: Vec<Symbol> = exports.functions.iter().map(|f| f.resolved).collect();
        resolved.sort_unstable();
        resolved
            .windows(2)
            .all(|pair| pair[0] != pair[1])
            .then_some(exports)
    }
}
