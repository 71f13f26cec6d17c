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
//!
//! So is residency. A slot can outlive its *tenant*: a vacated object keeps
//! its slot, its handle and its host storage but owns no modelled byte and
//! answers no read, until a kernel writes it again and its result moves in
//! (`detach` / `attach`, [`Resident`]). To `DeviceMemory` a re-tenanted
//! slot is a freed object and a new one; on the host nothing was created.
//!
//! The lookups are `#[inline]`: the storage-generic kernels are instantiated
//! in the crates that call them, where a lookup that is not would be a call
//! across the crate boundary (3–5 ns on every kernel of a 30 ns pivot step).

use crate::device::{GpuError, Result, VectorHandle};
use gmip_linalg::{CsrMatrix, DenseMatrix, EtaFile, LuFactors, SparseEtaFile, SparseLu};

/// Payload of one device object. The wide payloads are boxed: a slot is
/// sized by the widest variant, and an engine keeps some twenty slots —
/// mostly vectors — for life.
///
/// `pub` in name only, like [`Payload`]: this module is private, and the
/// sealed half of [`Storage`](crate::device::Storage) has to name both.
#[derive(Debug)]
pub enum Obj {
    Matrix(DenseMatrix),
    Vector(Vec<f64>),
    Factors(Box<LuFactors>),
    Sparse(Box<CsrMatrix>),
    SparseFactors(Box<SparseLu>),
    Eta(Box<EtaFile>),
    SparseEta(Box<SparseEtaFile>),
    Raw,
}

#[derive(Debug)]
struct Slot {
    /// Bumped on every free, so handles to earlier tenants stop matching.
    generation: u32,
    /// Whether the payload is a tenant kernels may read; a vacated or
    /// half-written resident object is not.
    live: bool,
    /// Modelled device bytes the slot still accounts for.
    bytes: usize,
    obj: Option<Obj>,
}

/// A resident object as the kernel that re-tenants it sees it: the storage
/// whether or not a tenant is live, and the two fields that say so.
#[derive(Debug)]
pub(crate) struct Resident<'a> {
    pub(crate) obj: &'a mut Obj,
    pub(crate) bytes: &'a mut usize,
    pub(crate) live: &'a mut bool,
}

/// Slab of live device objects, addressed by generation-tagged handles.
#[derive(Debug, Default)]
pub(crate) struct ObjectTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    created: u64,
}

const INDEX_BITS: u32 = 32;

#[inline]
fn split(id: u64) -> (usize, u32) {
    (
        (id & u64::from(u32::MAX)) as usize,
        (id >> INDEX_BITS) as u32,
    )
}

impl ObjectTable {
    /// Stores `obj`, returning its handle id; `live` says whether it moves
    /// in as a tenant of `bytes` modelled bytes or as vacant storage.
    pub(crate) fn insert(&mut self, obj: Obj, bytes: usize, live: bool) -> u64 {
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                let i = u32::try_from(self.slots.len()).expect("device object table full");
                // Generations start at 1 so no live handle is ever id 0.
                self.slots.push(Slot {
                    generation: 1,
                    live: false,
                    bytes: 0,
                    obj: None,
                });
                i
            }
        };
        self.created += 1;
        let slot = &mut self.slots[index as usize];
        slot.bytes = bytes;
        slot.live = live;
        slot.obj = Some(obj);
        u64::from(slot.generation) << INDEX_BITS | u64::from(index)
    }

    /// Objects ever stored: what a warm simplex iteration must not move.
    pub(crate) fn created(&self) -> u64 {
        self.created
    }

    /// Removes the object `id` names, returning it with the modelled bytes
    /// it still accounted for; `None` when `id` is not in the table.
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

    #[inline]
    fn get(&self, id: u64) -> Option<&Obj> {
        let (index, generation) = split(id);
        let slot = self.slots.get(index)?;
        if slot.generation != generation || !slot.live {
            return None;
        }
        slot.obj.as_ref()
    }

    /// The payload of the live object `id` names; a handle that is stale
    /// or names an object of another type than `P` is invalid.
    pub(crate) fn read<P: Payload>(&self, id: impl Into<u64>) -> Result<&P> {
        let id = id.into();
        self.get(id)
            .and_then(P::of)
            .ok_or(GpuError::InvalidHandle(id))
    }

    /// The live object `id` names and its modelled byte count, both mutable
    /// (kernels that grow an object in place adjust the count).
    #[inline]
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<(&mut Obj, &mut usize)> {
        let r = self.resident_mut(id).filter(|r| *r.live)?;
        Some((r.obj, r.bytes))
    }

    /// The object `id` names, tenanted or vacant.
    #[inline]
    pub(crate) fn resident_mut(&mut self, id: u64) -> Option<Resident<'_>> {
        let (index, generation) = split(id);
        let slot = self.slots.get_mut(index)?;
        if slot.generation != generation {
            return None;
        }
        Some(Resident {
            obj: slot.obj.as_mut()?,
            bytes: &mut slot.bytes,
            live: &mut slot.live,
        })
    }

    /// Resident object `id` for a kernel to write, together with the live
    /// object `source` it reads from.
    #[inline]
    pub(crate) fn resident_with(&mut self, id: u64, source: u64) -> Option<(Resident<'_>, &Obj)> {
        let ((i, gen_i), (j, gen_j)) = (split(id), split(source));
        let [dst, src] = self.slots.get_disjoint_mut([i, j]).ok()?;
        if dst.generation != gen_i || src.generation != gen_j || !src.live {
            return None;
        }
        let resident = Resident {
            obj: dst.obj.as_mut()?,
            bytes: &mut dst.bytes,
            live: &mut dst.live,
        };
        Some((resident, src.obj.as_ref()?))
    }

    /// Payload of a live device vector.
    #[inline]
    pub(crate) fn vector(&self, h: VectorHandle) -> Result<&Vec<f64>> {
        self.read(h)
    }

    /// Mutable payload of a device vector.
    #[inline]
    pub(crate) fn vector_mut(&mut self, h: VectorHandle) -> Result<&mut Vec<f64>> {
        match self.get_mut(h.0) {
            Some((Obj::Vector(v), _)) => Ok(v),
            _ => Err(GpuError::InvalidHandle(h.0)),
        }
    }

    /// Takes the storage of vector `h`, tenanted or vacant, for a kernel to
    /// fill while it reads other objects. Until [`attach`](Self::attach)
    /// gives it back `h` answers no read — not even as an input of the
    /// kernel that is writing it.
    #[inline]
    pub(crate) fn detach(&mut self, h: VectorHandle) -> Result<Vec<f64>> {
        match self.resident_mut(h.0) {
            Some(Resident {
                obj: Obj::Vector(v),
                live,
                ..
            }) => {
                *live = false;
                Ok(std::mem::take(v))
            }
            _ => Err(GpuError::InvalidHandle(h.0)),
        }
    }

    /// Gives vector `h` its storage back. With `tenant = Some(bytes)` the
    /// contents become its live tenant, accounting for `bytes`, and the
    /// bytes of the tenant it replaces are returned; with `None` the
    /// contents are not to be read and the slot keeps accounting for what it
    /// did (returns 0).
    #[inline]
    pub(crate) fn attach(
        &mut self,
        h: VectorHandle,
        buf: Vec<f64>,
        tenant: Option<usize>,
    ) -> usize {
        let Some(Resident {
            obj: Obj::Vector(v),
            bytes,
            live,
        }) = self.resident_mut(h.0)
        else {
            return 0;
        };
        *v = buf;
        match tenant {
            Some(new) => {
                *live = true;
                std::mem::replace(bytes, new)
            }
            None => 0,
        }
    }
}

/// A payload type and the [`Obj`] variant that holds it: objects are looked
/// up by what the caller means to read, and an object of another type is
/// not there.
pub trait Payload: Sized {
    fn of(obj: &Obj) -> Option<&Self>;
    fn of_mut(obj: &mut Obj) -> Option<&mut Self>;
    fn into_obj(self) -> Obj;
}

macro_rules! payloads {
    ($($variant:ident($payload:ty);)*) => {
        $(
            impl Payload for $payload {
                #[inline]
                fn of(obj: &Obj) -> Option<&Self> {
                    match obj {
                        Obj::$variant(x) => Some(x),
                        _ => None,
                    }
                }
                #[inline]
                fn of_mut(obj: &mut Obj) -> Option<&mut Self> {
                    match obj {
                        Obj::$variant(x) => Some(x),
                        _ => None,
                    }
                }
                fn into_obj(self) -> Obj {
                    Obj::$variant(self.into())
                }
            }
        )*
    };
}

payloads! {
    Matrix(DenseMatrix);
    Vector(Vec<f64>);
    Factors(LuFactors);
    Sparse(CsrMatrix);
    SparseFactors(SparseLu);
    Eta(EtaFile);
    SparseEta(SparseEtaFile);
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
        let a = t.insert(Obj::Vector(vec![1.0]), 8, true);
        assert!(t.vector(VectorHandle(a)).is_ok());
        assert!(matches!(t.remove(a), Some((Obj::Vector(_), 8))));
        // Freed, then double-freed.
        assert!(t.vector(VectorHandle(a)).is_err());
        assert!(t.remove(a).is_none());
        // The slot is reused, under a new generation.
        let b = t.insert(Obj::Vector(vec![2.0]), 8, true);
        assert_eq!(split(a).0, split(b).0);
        assert_ne!(a, b);
        assert!(t.vector(VectorHandle(a)).is_err());
        assert_eq!(t.vector(VectorHandle(b)).unwrap(), &vec![2.0]);
        // Wrong type.
        assert!(t.read::<DenseMatrix>(b).is_err());
        // Ids that were never issued.
        assert!(t.remove(0).is_none());
        assert!(t.remove(u64::MAX).is_none());
    }

    #[test]
    fn exhausted_generation_retires_the_slot() {
        let mut t = ObjectTable::default();
        let a = t.insert(Obj::Raw, 0, true);
        t.slots[0].generation = u32::MAX;
        let last = u64::from(u32::MAX) << INDEX_BITS | (a & u64::from(u32::MAX));
        assert!(t.remove(last).is_some());
        assert!(t.free.is_empty(), "retired slot must not be reused");
        assert!(t.remove(last).is_none());
        let b = t.insert(Obj::Raw, 0, true);
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
