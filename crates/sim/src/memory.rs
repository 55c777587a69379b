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

    /// Enter a mapping for `id` with the given map type. `bytes` is the
    /// transfer size to account if a copy happens (the caller computes it
    /// from array sections). Data is physically copied whole-object to keep
    /// the simulation simple; accounting uses `bytes`.
    pub fn map_enter(
        &mut self,
        host: &Memory,
        id: ObjectId,
        map_type: MapType,
        bytes: u64,
        profile: &mut TransferProfile,
    ) {
        let host_len = host.object(id).len();
        let entry = self.entries.entry(id).or_insert_with(|| {
            profile.device_allocs += 1;
            DeviceEntry {
                data: vec![Value::Unit; host_len],
                ref_count: 0,
            }
        });
        if entry.ref_count == 0 && map_type.copies_to_device() {
            entry.data.clone_from(&host.object(id).data);
            profile.record_htod(bytes);
        }
        entry.ref_count += 1;
    }

    /// Exit a mapping for `id`. Copies back to the host only when the
    /// reference count drops to zero and the map type requests it.
    pub fn map_exit(
        &mut self,
        host: &mut Memory,
        id: ObjectId,
        map_type: MapType,
        bytes: u64,
        profile: &mut TransferProfile,
    ) {
        let remove = if let Some(entry) = self.entries.get_mut(&id) {
            if entry.ref_count > 0 {
                entry.ref_count -= 1;
            }
            if entry.ref_count == 0 {
                if map_type.copies_to_host() {
                    host.object_mut(id).data.clone_from(&entry.data);
                    profile.record_dtoh(bytes);
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

    /// `target update to(...)`: refresh the device copy from the host. The
    /// update is unconditional whenever the object is present. Returns true
    /// if the object was present.
    pub fn update_to(
        &mut self,
        host: &Memory,
        id: ObjectId,
        bytes: u64,
        profile: &mut TransferProfile,
    ) -> bool {
        match self.entries.get_mut(&id) {
            Some(entry) => {
                entry.data.clone_from(&host.object(id).data);
                profile.record_htod(bytes);
                true
            }
            None => false,
        }
    }

    /// `target update from(...)`: refresh the host copy from the device.
    pub fn update_from(
        &mut self,
        host: &mut Memory,
        id: ObjectId,
        bytes: u64,
        profile: &mut TransferProfile,
    ) -> bool {
        match self.entries.get(&id) {
            Some(entry) => {
                host.object_mut(id).data.clone_from(&entry.data);
                profile.record_dtoh(bytes);
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
        let mut dev = DeviceEnv::new();
        let mut prof = TransferProfile::default();
        dev.map_enter(&mem, id, MapType::To, 64, &mut prof);
        assert_eq!(prof.htod_calls, 1);
        assert_eq!(prof.htod_bytes, 64);
        assert!(dev.is_present(id));
        // Nested mapping: no additional copy.
        dev.map_enter(&mem, id, MapType::To, 64, &mut prof);
        assert_eq!(prof.htod_calls, 1);
        assert_eq!(dev.ref_count(id), 2);
    }

    #[test]
    fn reference_count_governs_copy_back() {
        // Reproduces the Listing 3 trap: an inner `from` mapping nested in an
        // outer mapping does not copy anything until the outer region exits.
        let (mut mem, id) = setup_array(4);
        let mut dev = DeviceEnv::new();
        let mut prof = TransferProfile::default();
        dev.map_enter(&mem, id, MapType::ToFrom, 32, &mut prof); // outer region
        dev.map_enter(&mem, id, MapType::From, 32, &mut prof); // inner kernel
        dev.write(&mut mem, id, 0, Value::Double(99.0));
        dev.map_exit(&mut mem, id, MapType::From, 32, &mut prof); // inner exit
        assert_eq!(
            prof.dtoh_calls, 0,
            "inner exit must not copy while refcount > 0"
        );
        assert_eq!(mem.read(id, 0), Value::Double(0.0), "host still stale");
        dev.map_exit(&mut mem, id, MapType::ToFrom, 32, &mut prof); // outer exit
        assert_eq!(prof.dtoh_calls, 1);
        assert_eq!(mem.read(id, 0), Value::Double(99.0));
        assert!(!dev.is_present(id));
    }

    #[test]
    fn alloc_map_does_not_transfer() {
        let (mut mem, id) = setup_array(4);
        let mut dev = DeviceEnv::new();
        let mut prof = TransferProfile::default();
        dev.map_enter(&mem, id, MapType::Alloc, 32, &mut prof);
        assert_eq!(prof.htod_calls, 0);
        assert_eq!(prof.device_allocs, 1);
        dev.map_exit(&mut mem, id, MapType::Alloc, 32, &mut prof);
        assert_eq!(prof.dtoh_calls, 0);
    }

    #[test]
    fn update_directions() {
        let (mut mem, id) = setup_array(4);
        let mut dev = DeviceEnv::new();
        let mut prof = TransferProfile::default();
        dev.map_enter(&mem, id, MapType::Alloc, 32, &mut prof);
        assert!(dev.update_to(&mem, id, 32, &mut prof));
        assert_eq!(prof.htod_calls, 1);
        dev.write(&mut mem, id, 1, Value::Double(-5.0));
        assert!(dev.update_from(&mut mem, id, 32, &mut prof));
        assert_eq!(prof.dtoh_calls, 1);
        assert_eq!(mem.read(id, 1), Value::Double(-5.0));
        // Updates on absent objects are no-ops reported to the caller.
        let other = mem.alloc("b", ObjectKind::Scalar, 8, true);
        assert!(!dev.update_to(&mem, other, 8, &mut prof));
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
        let mut dev = DeviceEnv::new();
        let mut prof = TransferProfile::default();
        dev.map_enter(&mem, id, MapType::To, 16, &mut prof);
        dev.write(&mut mem, id, 0, Value::Double(42.0));
        assert_eq!(mem.read(id, 0), Value::Double(0.0));
        dev.map_exit(&mut mem, id, MapType::To, 16, &mut prof);
        // `to` never copies back: the device result is lost.
        assert_eq!(mem.read(id, 0), Value::Double(0.0));
    }
}
