//! Device-resident objects: the handle table and the host-buffer pool.
//!
//! Every handle a [`GpuDevice`](crate::device::GpuDevice) gives out names a
//! slot of an [`ObjectTable`], a slab: dense slots, a free list, and a
//! per-slot generation packed into the upper half of the handle's `u64`.
//! A lookup is an index plus two compares, and a handle that is stale
//! (freed, double-freed, or outlived by a later tenant of its slot) or of
//! the wrong type resolves to [`GpuError::InvalidHandle`], never to another
//! object.
//!
//! Payloads live in host RAM (this is a simulator), so the table also owns
//! the [`BufferPool`] that recycles the `Vec<f64>`s behind freed device
//! vectors. Recycling is a host-side economy only: modelled device bytes
//! are [`DeviceMemory`](crate::memory::DeviceMemory)'s business and are
//! charged per object exactly as if every buffer were fresh.

use crate::device::{
    EtaHandle, FactorHandle, GpuError, MatrixHandle, Result, SparseEtaHandle, SparseFactorHandle,
    SparseHandle, VectorHandle,
};
use gmip_linalg::{CsrMatrix, DenseMatrix, EtaFile, LuFactors, SparseEtaFile, SparseLu};

/// Payload of one device object.
#[derive(Debug)]
pub(crate) enum Obj {
    Matrix(DenseMatrix),
    Vector(Vec<f64>),
    Factors(LuFactors),
    Sparse(CsrMatrix),
    SparseFactors(SparseLu),
    Eta(EtaFile),
    SparseEta(SparseEtaFile),
    Raw,
}

#[derive(Debug)]
struct Slot {
    /// Bumped on every free, so handles to earlier tenants stop matching.
    generation: u32,
    /// Modelled device bytes of the current tenant.
    bytes: usize,
    obj: Option<Obj>,
}

/// Slab of live device objects, addressed by generation-tagged handles.
#[derive(Debug, Default)]
pub(crate) struct ObjectTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

const INDEX_BITS: u32 = 32;

fn split(id: u64) -> (usize, u32) {
    (
        (id & u64::from(u32::MAX)) as usize,
        (id >> INDEX_BITS) as u32,
    )
}

impl ObjectTable {
    /// Stores `obj`, returning its handle id.
    pub(crate) fn insert(&mut self, obj: Obj, bytes: usize) -> u64 {
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                let i = u32::try_from(self.slots.len()).expect("device object table full");
                // Generations start at 1 so no live handle is ever id 0.
                self.slots.push(Slot {
                    generation: 1,
                    bytes: 0,
                    obj: None,
                });
                i
            }
        };
        let slot = &mut self.slots[index as usize];
        slot.bytes = bytes;
        slot.obj = Some(obj);
        u64::from(slot.generation) << INDEX_BITS | u64::from(index)
    }

    /// Removes the object `id` names, returning it with its modelled bytes;
    /// `None` when `id` is not live.
    pub(crate) fn remove(&mut self, id: u64) -> Option<(Obj, usize)> {
        let (index, generation) = split(id);
        let slot = self.slots.get_mut(index)?;
        if slot.generation != generation {
            return None;
        }
        let obj = slot.obj.take()?;
        // A slot whose generation counter is exhausted is retired rather
        // than wrapped: reuse would let a 2^32-frees-old handle match again.
        if slot.generation < u32::MAX {
            slot.generation += 1;
            self.free.push(index as u32);
        }
        Some((obj, slot.bytes))
    }

    fn get(&self, id: u64) -> Option<&Obj> {
        let (index, generation) = split(id);
        let slot = self.slots.get(index)?;
        if slot.generation != generation {
            return None;
        }
        slot.obj.as_ref()
    }

    /// The live object `id` names and its modelled byte count, both mutable
    /// (kernels that grow an object in place adjust the count).
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<(&mut Obj, &mut usize)> {
        let (index, generation) = split(id);
        let slot = self.slots.get_mut(index)?;
        if slot.generation != generation {
            return None;
        }
        Some((slot.obj.as_mut()?, &mut slot.bytes))
    }

    /// Mutable payload of a device vector.
    pub(crate) fn vector_mut(&mut self, h: VectorHandle) -> Result<&mut Vec<f64>> {
        match self.get_mut(h.0) {
            Some((Obj::Vector(v), _)) => Ok(v),
            _ => Err(GpuError::InvalidHandle(h.0)),
        }
    }
}

macro_rules! typed_lookup {
    ($($name:ident($handle:ty) -> $variant:ident($payload:ty);)*) => {
        impl ObjectTable {
            $(
                pub(crate) fn $name(&self, h: $handle) -> Result<&$payload> {
                    match self.get(h.0) {
                        Some(Obj::$variant(x)) => Ok(x),
                        _ => Err(GpuError::InvalidHandle(h.0)),
                    }
                }
            )*
        }
    };
}

typed_lookup! {
    matrix(MatrixHandle) -> Matrix(DenseMatrix);
    vector(VectorHandle) -> Vector(Vec<f64>);
    factors(FactorHandle) -> Factors(LuFactors);
    sparse(SparseHandle) -> Sparse(CsrMatrix);
    sparse_factors(SparseFactorHandle) -> SparseFactors(SparseLu);
    eta(EtaHandle) -> Eta(EtaFile);
    sparse_eta(SparseEtaHandle) -> SparseEta(SparseEtaFile);
}

/// Bounded pool of host buffers recycled from freed device vectors.
///
/// At most [`BufferPool::SLOTS`] buffers are retained, each no larger than
/// the largest vector the device has seen, so retained memory is bounded by
/// a constant times that vector.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    free: Vec<Vec<f64>>,
}

impl BufferPool {
    /// Buffers retained at most; further returns are dropped.
    pub(crate) const SLOTS: usize = 16;

    /// A zeroed buffer of `len` elements: the smallest retained buffer that
    /// already holds `len`, else the largest one grown to fit (so a repeating
    /// demand converges on buffers that all fit), else a fresh allocation.
    pub(crate) fn take(&mut self, len: usize) -> Vec<f64> {
        let caps = self.free.iter().map(Vec::capacity).enumerate();
        let pick = caps
            .clone()
            .filter(|&(_, cap)| cap >= len)
            .min_by_key(|&(_, cap)| cap)
            .or_else(|| caps.max_by_key(|&(_, cap)| cap));
        let mut buf = match pick {
            Some((i, _)) => self.free.swap_remove(i),
            None => Vec::new(),
        };
        buf.clear();
        buf.reserve_exact(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool (dropped when the pool is full).
    pub(crate) fn put(&mut self, buf: Vec<f64>) {
        if self.free.len() < Self::SLOTS {
            self.free.push(buf);
        }
    }

    /// Host bytes currently retained.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.free
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<f64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_and_recycled_handles_never_resolve() {
        let mut t = ObjectTable::default();
        let a = t.insert(Obj::Vector(vec![1.0]), 8);
        assert!(t.vector(VectorHandle(a)).is_ok());
        assert!(matches!(t.remove(a), Some((Obj::Vector(_), 8))));
        // Freed, then double-freed.
        assert!(t.vector(VectorHandle(a)).is_err());
        assert!(t.remove(a).is_none());
        // The slot is reused, under a new generation.
        let b = t.insert(Obj::Vector(vec![2.0]), 8);
        assert_eq!(split(a).0, split(b).0);
        assert_ne!(a, b);
        assert!(t.vector(VectorHandle(a)).is_err());
        assert_eq!(t.vector(VectorHandle(b)).unwrap(), &vec![2.0]);
        // Wrong type.
        assert!(t.matrix(MatrixHandle(b)).is_err());
        // Ids that were never issued.
        assert!(t.remove(0).is_none());
        assert!(t.remove(u64::MAX).is_none());
    }

    #[test]
    fn exhausted_generation_retires_the_slot() {
        let mut t = ObjectTable::default();
        let a = t.insert(Obj::Raw, 0);
        t.slots[0].generation = u32::MAX;
        let last = u64::from(u32::MAX) << INDEX_BITS | (a & u64::from(u32::MAX));
        assert!(t.remove(last).is_some());
        assert!(t.free.is_empty(), "retired slot must not be reused");
        assert!(t.remove(last).is_none());
        let b = t.insert(Obj::Raw, 0);
        assert_eq!(split(b).0, 1);
    }

    #[test]
    fn pool_prefers_best_fit_and_stays_bounded() {
        let mut p = BufferPool::default();
        p.put(Vec::with_capacity(64));
        p.put(Vec::with_capacity(8));
        p.put(Vec::with_capacity(16));
        let b = p.take(10);
        assert_eq!((b.len(), b.capacity()), (10, 16));
        assert!(b.iter().all(|&x| x == 0.0));
        // Nothing fits 100: the largest buffer is grown, not a small one.
        let big = p.take(100);
        assert_eq!(big.capacity(), 100);
        assert_eq!(p.retained_bytes(), 8 * 8);
        for _ in 0..2 * BufferPool::SLOTS {
            p.put(Vec::with_capacity(4));
        }
        assert_eq!(p.free.len(), BufferPool::SLOTS);
    }
}
