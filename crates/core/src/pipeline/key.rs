//! Every fingerprint a cache key is made of, with the rule for each, and
//! the one hasher behind them ([`FnvHasher`], FNV-1a). The store's record
//! layout and content hash belong to the pack format ([`crate::store`]).

use super::AccessArtifact;
use crate::interface::{source_name, UnitExports};
use crate::interproc::{ArgTarget, DeviceNames, FunctionSummary, LinkCall};
use crate::OmpDartOptions;
use ompdart_frontend::ast::TranslationUnit;
use ompdart_frontend::intern::FnvHasher;
use ompdart_frontend::Symbol;
use std::hash::Hasher;

/// Write `s` and a terminating 0, so adjacent strings cannot trade bytes.
/// (`str::hash` terminates with `0xff`: the keys are written with 0.)
fn write_str(h: &mut FnvHasher, s: &str) {
    h.write(s.as_bytes());
    h.write(&[0]);
}

/// Write `v` little-endian, on every target.
fn write_u64(h: &mut FnvHasher, v: u64) {
    h.write(&v.to_le_bytes());
}

/// Stable fingerprint of an [`OmpDartOptions`] value. Part of every
/// persistent store key: plans produced under different options are never
/// interchangeable. The destructuring names every field,
/// so a new option cannot be left out of the keys.
pub fn options_fingerprint(options: &OmpDartOptions) -> u64 {
    let OmpDartOptions {
        pessimistic_globals,
    } = *options;
    let mut h = FnvHasher::default();
    h.write(&[u8::from(pessimistic_globals)]);
    h.finish()
}

/// Fingerprint of a whole summary: what the link's dirty check compares
/// (a function's local fingerprint hashes its seed's).
pub(crate) fn summary_fingerprint(s: &FunctionSummary) -> u64 {
    fingerprint_where(s, &s.name, |_| true)
}

/// Fingerprint of what a caller's plan can read of summary `s`: its name as
/// its callers spell it (for a `static`, the part of its `name@unit` symbol
/// before the `@`), `has_kernels`, every parameter effect, and its effects
/// on globals named in the program's device names — none on any other
/// global. A plan maps only variables its region touches on the device, and
/// a callee's effect on a global reaches it only where some converged
/// summary touches that global on the device
/// ([`crate::interproc::DeviceNames`]).
pub(crate) fn projected_fingerprint(s: &FunctionSummary, device: &DeviceNames) -> u64 {
    fingerprint_where(s, source_name(&s.name), |global| device.contains(global))
}

/// The fingerprint of `s`, named `name`, with only the global effects
/// `keep` holds.
fn fingerprint_where(s: &FunctionSummary, name: &str, keep: impl Fn(Symbol) -> bool) -> u64 {
    let mut h = FnvHasher::default();
    write_str(&mut h, name);
    h.write(&[u8::from(s.has_kernels)]);
    for e in &s.param_effects {
        h.write(&[e.byte()]);
    }
    // `BTreeMap<Symbol>` iterates in resolved-string order already.
    for (name, e) in s.global_effects.iter().filter(|(name, _)| keep(**name)) {
        write_str(&mut h, name);
        h.write(&[e.byte()]);
    }
    h.finish()
}

/// One direct callee of a function, as the function's callee fingerprint
/// reads it: the name its call sites spell, and the bytes hashed when that
/// name has no summary — the parameter count, `const` qualifiers and
/// variadic flag of the visible prototype the pessimistic fallback reads
/// (empty without one).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct CalleeKey {
    pub(crate) name: Symbol,
    pub(crate) proto: Vec<u8>,
}

impl CalleeKey {
    /// True if the visible prototype declares parameter `position`'s
    /// pointee `const` (`proto`: count, a byte per parameter, variadic).
    pub(crate) fn const_pointee(&self, position: usize) -> bool {
        self.proto.len() > 9 + position && self.proto[8 + position] == 1
    }
}

/// The direct callees of `func_name`, sorted by name and de-duplicated:
/// everything about a function's callee fingerprint that depends on the
/// unit alone, so the link stage memoises it per unit content.
pub(crate) fn callee_keys(
    func_name: Symbol,
    accesses: &AccessArtifact,
    unit: &TranslationUnit,
) -> Vec<CalleeKey> {
    let mut names: Vec<Symbol> = accesses
        .accesses
        .get(&func_name)
        .map(|acc| acc.calls.iter().map(|c| c.callee).collect())
        .unwrap_or_default();
    names.sort_unstable();
    names.dedup();
    let key = |name: Symbol| {
        let mut proto = Vec::new();
        if let Some(decl) = unit.all_functions().find(|f| f.name == name) {
            proto.extend_from_slice(&(decl.params.len() as u64).to_le_bytes());
            proto.extend(decl.params.iter().map(|p| u8::from(p.is_const_pointee)));
            proto.push(u8::from(decl.is_variadic));
        }
        CalleeKey { name, proto }
    };
    names.into_iter().map(key).collect()
}

/// Fingerprint of the interprocedural facts a function's plan consumes: the
/// projected summary fingerprint (`projected_fp`, [`projected_fingerprint`])
/// of every direct callee, or — for callees without a summary — the shape
/// of the visible prototype: one function's share of its unit's imports
/// fingerprint. In a linked program the summaries are the *whole-program*
/// ones, so a callee edited in another unit moves it exactly when its
/// converged summary moved on a global in the device names, its parameters
/// or its kernels.
pub(crate) fn callees_fingerprint(
    callees: &[CalleeKey],
    projected_fp: impl Fn(Symbol) -> Option<u64>,
) -> u64 {
    let mut h = FnvHasher::default();
    for callee in callees {
        write_str(&mut h, &callee.name);
        match projected_fp(callee.name) {
            Some(fingerprint) => {
                h.write(&[1]);
                write_u64(&mut h, fingerprint);
            }
            None => {
                h.write(&[2]);
                h.write(&callee.proto);
            }
        }
    }
    h.finish()
}

/// Fingerprint of everything the cross-unit propagation reads from one
/// function's caller side: its local seed summary, every call site — the
/// resolved callee, the execution space, where each by-reference argument
/// lands and whether its pointee is `const` — and the globals an unknown
/// callee would clobber. Two links in which every function's local
/// fingerprint matches converge to identical summaries — which is what
/// lets the incremental relink skip them.
pub(crate) fn local_fingerprint(
    seed: &FunctionSummary,
    calls: &[LinkCall],
    globals: &[Symbol],
) -> u64 {
    let mut h = FnvHasher::default();
    write_u64(&mut h, summary_fingerprint(seed));
    for call in calls {
        write_str(&mut h, &call.callee);
        h.write(&[u8::from(call.on_device)]);
        for arg in &call.args {
            write_u64(&mut h, u64::from(arg.position));
            h.write(&[u8::from(arg.const_pointee)]);
            match arg.target {
                ArgTarget::Param(at) => {
                    h.write(&[1]);
                    write_u64(&mut h, u64::from(at));
                }
                ArgTarget::Global(var) => {
                    h.write(&[2]);
                    write_str(&mut h, &var);
                }
            }
        }
        h.write(&[0xfd]);
    }
    for global in globals {
        write_str(&mut h, global);
    }
    h.finish()
}

/// Fingerprint of everything a unit's plans read of the rest of the
/// program: per defined function, its source name and its
/// [`callees_fingerprint`] under `projected_fp` (a callee's projected
/// summary fingerprint, resolved as the unit's `LinkContext` resolves it).
/// The unit's imports fingerprint, half of its plan key.
pub(crate) fn imports_fingerprint(
    exports: &UnitExports,
    projected_fp: impl Fn(Symbol) -> Option<u64>,
) -> u64 {
    let mut h = FnvHasher::default();
    for f in &exports.functions {
        write_str(&mut h, &f.source);
        write_u64(&mut h, callees_fingerprint(&f.callees, &projected_fp));
        h.write(&[0xee]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys persist in packs, so their bytes are pinned: FNV-1a from the
    /// offset basis over 0-terminated strings and little-endian integers
    /// (the values are FNV-1a of the byte strings in the comments). A
    /// function without callees hashes nothing: its fingerprint is the
    /// offset basis, which a hasher that started at 0 would move.
    #[test]
    fn fingerprints_keep_their_stored_values() {
        let options = |pessimistic_globals| OmpDartOptions {
            pessimistic_globals,
        };
        // [0] and [1].
        assert_eq!(options_fingerprint(&options(false)), 0xaf63_bd4c_8601_b7df);
        assert_eq!(options_fingerprint(&options(true)), 0xaf63_bc4c_8601_b62c);
        assert_eq!(callees_fingerprint(&[], |_| None), 0xcbf2_9ce4_8422_2325);
        let main = [CalleeKey {
            name: Symbol::intern("main"),
            proto: Vec::new(),
        }];
        // "main\0", 2 (no summary), the empty prototype.
        assert_eq!(callees_fingerprint(&main, |_| None), 0xa9e6_7873_e942_f66e);
        // "main\0", 1 (a summary), 7 as eight little-endian bytes.
        assert_eq!(
            callees_fingerprint(&main, |_| Some(7)),
            0xd8c1_090c_3fe3_e43c
        );
    }
}
