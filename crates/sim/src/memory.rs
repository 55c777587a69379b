//! Host memory and the device data environment.
//!
//! The host side is a simple arena of named objects (scalars, arrays,
//! structs, heap blocks). The device side implements the OpenMP 5.2 device
//! data environment: a *present table* keyed by the corresponding host
//! object, with a **reference count** that governs when data is actually
//! copied (Section 5.8 of the specification, and the trap illustrated by
//! Listing 3 of the paper: an inner `map(from:)` nested inside an enclosing
//! mapping does not copy anything until the count drops to zero).

use crate::profile::TransferProfile;
use crate::value::{ObjectId, Value};
use ompdart_frontend::omp::MapType;
use std::collections::HashMap;

/// What kind of storage an object provides.
#[derive(Clone, Debug, PartialEq)]
pub enum ObjectKind {
    /// A single scalar variable.
    Scalar,
    /// An array with the given dimension extents.
    Array { dims: Vec<usize> },
    /// A struct with named fields (one value slot per field).
    Struct { fields: Vec<String> },
    /// A heap allocation of `len` elements (from `malloc`).
    Heap { len: usize },
}

impl ObjectKind {
    /// Number of value slots this kind occupies.
    pub fn slot_count(&self) -> usize {
        match self {
            ObjectKind::Scalar => 1,
            ObjectKind::Array { dims } => dims.iter().product::<usize>().max(1),
            ObjectKind::Struct { fields } => fields.len().max(1),
            ObjectKind::Heap { len } => (*len).max(1),
        }
    }

    /// True for kinds whose storage OpenMP maps as an aggregate block.
    pub fn is_aggregate(&self) -> bool {
        !matches!(self, ObjectKind::Scalar)
    }
}

/// One allocated object in host memory.
#[derive(Clone, Debug)]
pub struct MemObject {
    pub id: ObjectId,
    pub name: String,
    pub kind: ObjectKind,
    /// Size in bytes of one element (used for transfer accounting).
    pub elem_bytes: u64,
    pub data: Vec<Value>,
}

impl MemObject {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.elem_bytes
    }

    /// Row-major strides for a multidimensional array; `[1]` for others.
    pub fn strides(&self) -> Vec<usize> {
        match &self.kind {
            ObjectKind::Array { dims } => {
                let mut strides = vec![1usize; dims.len()];
                for i in (0..dims.len().saturating_sub(1)).rev() {
                    strides[i] = strides[i + 1] * dims[i + 1];
                }
                strides
            }
            _ => vec![1],
        }
    }

    /// Index of a named struct field.
    pub fn field_index(&self, field: &str) -> Option<usize> {
        match &self.kind {
            ObjectKind::Struct { fields } => fields.iter().position(|f| f == field),
            _ => None,
        }
    }
}

/// The host memory arena.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    objects: Vec<MemObject>,
}

impl Memory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a new object and return its id. All slots start as
    /// `Value::Int(0)` for integer-like elements and `Value::Double(0.0)`
    /// when `floating` is set (C static initialization semantics; stack
    /// variables in the benchmarks are always explicitly initialized).
    pub fn alloc(
        &mut self,
        name: &str,
        kind: ObjectKind,
        elem_bytes: u64,
        floating: bool,
    ) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        let init = if floating {
            Value::Double(0.0)
        } else {
            Value::Int(0)
        };
        let data = vec![init; kind.slot_count()];
        self.objects.push(MemObject {
            id,
            name: name.to_string(),
            kind,
            elem_bytes,
            data,
        });
        id
    }

    pub fn object(&self, id: ObjectId) -> &MemObject {
        &self.objects[id.0 as usize]
    }

    pub fn object_mut(&mut self, id: ObjectId) -> &mut MemObject {
        &mut self.objects[id.0 as usize]
    }

    /// Number of allocated objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Read a slot (out-of-range reads return `Unit` — the interpreter
    /// reports a diagnostic at a higher level).
    pub fn read(&self, id: ObjectId, index: i64) -> Value {
        let obj = self.object(id);
        if index < 0 || index as usize >= obj.data.len() {
            return Value::Unit;
        }
        obj.data[index as usize]
    }

    /// Write a slot; out-of-range writes are ignored.
    pub fn write(&mut self, id: ObjectId, index: i64, value: Value) {
        let obj = self.object_mut(id);
        if index >= 0 && (index as usize) < obj.data.len() {
            obj.data[index as usize] = value;
        }
    }

    /// Iterate over all objects.
    pub fn objects(&self) -> impl Iterator<Item = &MemObject> {
        self.objects.iter()
    }
}

/// The elements of an object one map item names, `[lb, lb + len)` in the
/// object's flat storage. A transfer of it copies exactly those elements
/// that lie inside the object and is accounted as `len` elements, as the
/// clause says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Section {
    pub lb: i64,
    pub len: u64,
}

impl Section {
    /// The whole object.
    pub fn whole(obj: &MemObject) -> Section {
        Section {
            lb: 0,
            len: obj.len() as u64,
        }
    }

    /// The elements of an object of `n` elements this section copies.
    fn range(self, n: usize) -> std::ops::Range<usize> {
        let clamp = |at: i64| at.clamp(0, n as i64) as usize;
        let end = self.lb.saturating_add(self.len.min(i64::MAX as u64) as i64);
        clamp(self.lb)..clamp(end)
    }

    /// The bytes a transfer of this section of `obj` accounts for.
    fn bytes(self, obj: &MemObject) -> u64 {
        self.len.saturating_mul(obj.elem_bytes)
    }
}

/// Copy the elements of `section` from `src` to `dst` (two copies of one
/// object).
fn copy_section(dst: &mut [Value], src: &[Value], section: Section) {
    let range = section.range(src.len().min(dst.len()));
    dst[range.clone()].copy_from_slice(&src[range]);
}

/// One entry of the device present table.
#[derive(Clone, Debug)]
pub struct DeviceEntry {
    pub data: Vec<Value>,
    pub ref_count: u32,
}

/// The device data environment: present table + transfer accounting.
#[derive(Clone, Debug, Default)]
pub struct DeviceEnv {
    entries: HashMap<ObjectId, DeviceEntry>,
}

impl DeviceEnv {
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the object currently has a corresponding device allocation.
    pub fn is_present(&self, id: ObjectId) -> bool {
        self.entries.contains_key(&id)
    }

    /// The current reference count of an object (0 if absent).
    pub fn ref_count(&self, id: ObjectId) -> u32 {
        self.entries.get(&id).map(|e| e.ref_count).unwrap_or(0)
    }

    /// Enter a mapping of `section` of `id` with the given map type. The
    /// device allocation always holds the whole object; a copy moves the
    /// section only.
    pub fn map_enter(
        &mut self,
        host: &Memory,
        id: ObjectId,
        map_type: MapType,
        section: Section,
        profile: &mut TransferProfile,
    ) {
        let obj = host.object(id);
        let entry = self.entries.entry(id).or_insert_with(|| {
            profile.device_allocs += 1;
            DeviceEntry {
                data: vec![Value::Unit; obj.len()],
                ref_count: 0,
            }
        });
        if entry.ref_count == 0 && map_type.copies_to_device() {
            copy_section(&mut entry.data, &obj.data, section);
            profile.record_htod(section.bytes(obj));
        }
        entry.ref_count += 1;
    }

    /// Exit a mapping of `section` of `id`. Copies the section back to the
    /// host only when the reference count drops to zero and the map type
    /// requests it.
    pub fn map_exit(
        &mut self,
        host: &mut Memory,
        id: ObjectId,
        map_type: MapType,
        section: Section,
        profile: &mut TransferProfile,
    ) {
        let remove = if let Some(entry) = self.entries.get_mut(&id) {
            if entry.ref_count > 0 {
                entry.ref_count -= 1;
            }
            if entry.ref_count == 0 {
                if map_type.copies_to_host() {
                    let obj = host.object_mut(id);
                    copy_section(&mut obj.data, &entry.data, section);
                    profile.record_dtoh(section.bytes(obj));
                }
                true
            } else {
                false
            }
        } else {
            false
        };
        if remove {
            self.entries.remove(&id);
        }
    }

    /// `target update to(...)`: refresh `section` of the device copy from
    /// the host. The update is unconditional whenever the object is present.
    /// Returns true if the object was present.
    pub fn update_to(
        &mut self,
        host: &Memory,
        id: ObjectId,
        section: Section,
        profile: &mut TransferProfile,
    ) -> bool {
        match self.entries.get_mut(&id) {
            Some(entry) => {
                let obj = host.object(id);
                copy_section(&mut entry.data, &obj.data, section);
                profile.record_htod(section.bytes(obj));
                true
            }
            None => false,
        }
    }

    /// `target update from(...)`: refresh `section` of the host copy from
    /// the device.
    pub fn update_from(
        &mut self,
        host: &mut Memory,
        id: ObjectId,
        section: Section,
        profile: &mut TransferProfile,
    ) -> bool {
        match self.entries.get(&id) {
            Some(entry) => {
                let obj = host.object_mut(id);
                copy_section(&mut obj.data, &entry.data, section);
                profile.record_dtoh(section.bytes(obj));
                true
            }
            None => false,
        }
    }

    /// Read an element of the device copy of an object. Falls back to the
    /// host value when the object is not mapped (the interpreter flags this
    /// as a diagnostic separately).
    pub fn read(&self, host: &Memory, id: ObjectId, index: i64) -> Value {
        match self.entries.get(&id) {
            Some(entry) => {
                if index < 0 || index as usize >= entry.data.len() {
                    Value::Unit
                } else {
                    entry.data[index as usize]
                }
            }
            None => host.read(id, index),
        }
    }

    /// Write an element of the device copy of an object. Unmapped objects
    /// fall back to host storage.
    pub fn write(&mut self, host: &mut Memory, id: ObjectId, index: i64, value: Value) {
        match self.entries.get_mut(&id) {
            Some(entry) => {
                if index >= 0 && (index as usize) < entry.data.len() {
                    entry.data[index as usize] = value;
                }
            }
            None => host.write(id, index, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup_array(n: usize) -> (Memory, ObjectId) {
        let mut mem = Memory::new();
        let id = mem.alloc("a", ObjectKind::Array { dims: vec![n] }, 8, true);
        for i in 0..n {
            mem.write(id, i as i64, Value::Double(i as f64));
        }
        (mem, id)
    }

    #[test]
    fn alloc_and_rw() {
        let (mem, id) = setup_array(4);
        assert_eq!(mem.read(id, 2), Value::Double(2.0));
        assert_eq!(mem.read(id, 10), Value::Unit);
        assert_eq!(mem.object(id).size_bytes(), 32);
    }

    #[test]
    fn strides_for_2d_array() {
        let mut mem = Memory::new();
        let id = mem.alloc("g", ObjectKind::Array { dims: vec![3, 5] }, 8, true);
        assert_eq!(mem.object(id).strides(), vec![5, 1]);
        assert_eq!(mem.object(id).len(), 15);
    }

    #[test]
    fn struct_field_index() {
        let mut mem = Memory::new();
        let id = mem.alloc(
            "p",
            ObjectKind::Struct {
                fields: vec!["x".into(), "y".into()],
            },
            8,
            true,
        );
        assert_eq!(mem.object(id).field_index("y"), Some(1));
        assert_eq!(mem.object(id).field_index("z"), None);
    }

    #[test]
    fn map_to_copies_once() {
        let (mem, id) = setup_array(8);
        let whole = Section::whole(mem.object(id));
        let mut dev = DeviceEnv::new();
        let mut prof = TransferProfile::default();
        dev.map_enter(&mem, id, MapType::To, whole, &mut prof);
        assert_eq!(prof.htod_calls, 1);
        assert_eq!(prof.htod_bytes, 64);
        assert!(dev.is_present(id));
        // Nested mapping: no additional copy.
        dev.map_enter(&mem, id, MapType::To, whole, &mut prof);
        assert_eq!(prof.htod_calls, 1);
        assert_eq!(dev.ref_count(id), 2);
    }

    #[test]
    fn reference_count_governs_copy_back() {
        // Reproduces the Listing 3 trap: an inner `from` mapping nested in an
        // outer mapping does not copy anything until the outer region exits.
        let (mut mem, id) = setup_array(4);
        let whole = Section::whole(mem.object(id));
        let mut dev = DeviceEnv::new();
        let mut prof = TransferProfile::default();
        dev.map_enter(&mem, id, MapType::ToFrom, whole, &mut prof); // outer region
        dev.map_enter(&mem, id, MapType::From, whole, &mut prof); // inner kernel
        dev.write(&mut mem, id, 0, Value::Double(99.0));
        dev.map_exit(&mut mem, id, MapType::From, whole, &mut prof); // inner exit
        assert_eq!(
            prof.dtoh_calls, 0,
            "inner exit must not copy while refcount > 0"
        );
        assert_eq!(mem.read(id, 0), Value::Double(0.0), "host still stale");
        dev.map_exit(&mut mem, id, MapType::ToFrom, whole, &mut prof); // outer exit
        assert_eq!(prof.dtoh_calls, 1);
        assert_eq!(mem.read(id, 0), Value::Double(99.0));
        assert!(!dev.is_present(id));
    }

    #[test]
    fn alloc_map_does_not_transfer() {
        let (mut mem, id) = setup_array(4);
        let whole = Section::whole(mem.object(id));
        let mut dev = DeviceEnv::new();
        let mut prof = TransferProfile::default();
        dev.map_enter(&mem, id, MapType::Alloc, whole, &mut prof);
        assert_eq!(prof.htod_calls, 0);
        assert_eq!(prof.device_allocs, 1);
        dev.map_exit(&mut mem, id, MapType::Alloc, whole, &mut prof);
        assert_eq!(prof.dtoh_calls, 0);
    }

    #[test]
    fn update_directions() {
        let (mut mem, id) = setup_array(4);
        let whole = Section::whole(mem.object(id));
        let mut dev = DeviceEnv::new();
        let mut prof = TransferProfile::default();
        dev.map_enter(&mem, id, MapType::Alloc, whole, &mut prof);
        assert!(dev.update_to(&mem, id, whole, &mut prof));
        assert_eq!(prof.htod_calls, 1);
        dev.write(&mut mem, id, 1, Value::Double(-5.0));
        assert!(dev.update_from(&mut mem, id, whole, &mut prof));
        assert_eq!(prof.dtoh_calls, 1);
        assert_eq!(mem.read(id, 1), Value::Double(-5.0));
        // Updates on absent objects are no-ops reported to the caller.
        let other = mem.alloc("b", ObjectKind::Scalar, 8, true);
        assert!(!dev.update_to(&mem, other, Section::whole(mem.object(other)), &mut prof));
    }

    #[test]
    fn unmapped_device_access_falls_back_to_host() {
        let (mut mem, id) = setup_array(2);
        let mut dev = DeviceEnv::new();
        assert_eq!(dev.read(&mem, id, 1), Value::Double(1.0));
        dev.write(&mut mem, id, 1, Value::Double(7.0));
        assert_eq!(mem.read(id, 1), Value::Double(7.0));
    }

    #[test]
    fn stale_host_read_is_observable() {
        // Device writes are invisible on the host until copied back: this is
        // exactly the bug class OMPDart must avoid introducing.
        let (mut mem, id) = setup_array(2);
        let whole = Section::whole(mem.object(id));
        let mut dev = DeviceEnv::new();
        let mut prof = TransferProfile::default();
        dev.map_enter(&mem, id, MapType::To, whole, &mut prof);
        dev.write(&mut mem, id, 0, Value::Double(42.0));
        assert_eq!(mem.read(id, 0), Value::Double(0.0));
        dev.map_exit(&mut mem, id, MapType::To, whole, &mut prof);
        // `to` never copies back: the device result is lost.
        assert_eq!(mem.read(id, 0), Value::Double(0.0));
    }

    #[test]
    fn a_section_copies_only_its_elements() {
        let (mut mem, id) = setup_array(4);
        let mut dev = DeviceEnv::new();
        let mut prof = TransferProfile::default();
        let shifted = Section { lb: 1, len: 2 };
        dev.map_enter(&mem, id, MapType::To, shifted, &mut prof);
        assert_eq!(prof.htod_bytes, 16);
        // Allocated whole, copied in part.
        let device: Vec<Value> = (0..4).map(|i| dev.read(&mem, id, i)).collect();
        assert_eq!(device[0], Value::Unit);
        assert_eq!(device[1..3], [Value::Double(1.0), Value::Double(2.0)]);
        assert_eq!(device[3], Value::Unit);
        for i in 0..4 {
            dev.write(&mut mem, id, i, Value::Double(10.0 + i as f64));
        }
        // A section reaching past the object copies what lies inside it and
        // accounts for what the clause says.
        assert!(dev.update_from(&mut mem, id, Section { lb: 2, len: 5 }, &mut prof));
        assert_eq!(prof.dtoh_bytes, 40);
        let host: Vec<Value> = (0..4).map(|i| mem.read(id, i)).collect();
        assert_eq!(
            host,
            [0.0, 1.0, 12.0, 13.0].map(Value::Double),
            "elements outside the section keep the host's values"
        );
        assert!(dev.update_from(&mut mem, id, Section { lb: -3, len: 2 }, &mut prof));
        assert_eq!(mem.read(id, 0), Value::Double(0.0));
        dev.map_exit(&mut mem, id, MapType::From, shifted, &mut prof);
        assert_eq!(mem.read(id, 1), Value::Double(11.0));
        assert_eq!(mem.read(id, 0), Value::Double(0.0));
        assert!(!dev.is_present(id));
    }
}
