//! Secure-RAM allocator.
//!
//! TrustZone platforms dedicate a small carve-out of DRAM (tens of MiB on
//! the Jetson class, far less on weaker SoCs) to the secure world. The
//! paper's §V names this as a core limitation: *"TEE technologies like
//! TrustZone provide relatively small memory resources for applications"*.
//!
//! [`SecureRam`] models that carve-out as a first-fit free-list allocator.
//! Every allocation is a [`SecureReservation`]: a span of the carve-out
//! (offset plus simulated physical address) that is returned to the pool
//! when it drops. A reservation holds no bytes. Most of the carve-out is
//! only *accounted*: a TA's or PTA's declared footprint and the shared
//! model weights ([`SecureRam::reserve_shared`]) must fit, but the
//! simulation never reads or writes them, so they are bare reservations
//! ([`SecureRam::reserve`]) and cost no host memory. Memory that does hold
//! data — driver I/O buffers, a TA's `secure_alloc` — is a [`SecureBuf`]:
//! a reservation plus its zeroed host bytes ([`SecureRam::alloc`]). Both
//! paths charge the pool identically, so offsets, addresses, usage, the
//! allocation count and the high-water mark do not depend on which one a
//! caller takes. Exhaustion is a first-class, observable failure so
//! experiments can report when a model or driver no longer fits.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::error::TzError;
use crate::stats::TzStats;
use crate::Result;

/// Default allocation alignment (one cache line).
const DEFAULT_ALIGN: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeBlock {
    offset: usize,
    size: usize,
}

#[derive(Debug)]
struct SecureRamInner {
    base_addr: u64,
    capacity: usize,
    free_list: Vec<FreeBlock>,
    in_use: usize,
    allocation_count: u64,
    failed_allocations: u64,
}

impl SecureRamInner {
    fn available(&self) -> usize {
        self.capacity - self.in_use
    }

    fn alloc(&mut self, size: usize) -> Option<usize> {
        let size = round_up(size.max(1), DEFAULT_ALIGN);
        let idx = self.free_list.iter().position(|b| b.size >= size)?;
        let block = self.free_list[idx];
        let offset = block.offset;
        if block.size == size {
            self.free_list.remove(idx);
        } else {
            self.free_list[idx] = FreeBlock {
                offset: block.offset + size,
                size: block.size - size,
            };
        }
        self.in_use += size;
        self.allocation_count += 1;
        Some(offset)
    }

    fn free(&mut self, offset: usize, size: usize) {
        let size = round_up(size.max(1), DEFAULT_ALIGN);
        self.in_use -= size;
        self.free_list.push(FreeBlock { offset, size });
        self.free_list.sort_by_key(|b| b.offset);
        // Coalesce adjacent blocks to fight fragmentation.
        let mut merged: Vec<FreeBlock> = Vec::with_capacity(self.free_list.len());
        for block in self.free_list.drain(..) {
            match merged.last_mut() {
                Some(last) if last.offset + last.size == block.offset => {
                    last.size += block.size;
                }
                _ => merged.push(block),
            }
        }
        self.free_list = merged;
    }
}

fn round_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

/// The secure-RAM carve-out allocator.
///
/// Cloning yields another handle onto the same pool.
///
/// ```
/// use perisec_tz::secure_mem::SecureRam;
/// use perisec_tz::stats::TzStats;
///
/// let ram = SecureRam::new(0xF000_0000, 64 * 1024, TzStats::new());
/// let buf = ram.alloc(4096).expect("fits");
/// assert!(ram.bytes_in_use() >= 4096);
/// drop(buf);
/// assert_eq!(ram.bytes_in_use(), 0);
/// ```
#[derive(Clone)]
pub struct SecureRam {
    inner: Arc<Mutex<SecureRamInner>>,
    shared: Arc<Mutex<SharedRegistry>>,
    stats: TzStats,
}

/// Registry of content-keyed shared reservations (see
/// [`SecureRam::reserve_shared`]). Entries are weak so the underlying
/// buffer is freed when the last [`SharedReservation`] drops.
#[derive(Default)]
struct SharedRegistry {
    entries: HashMap<u64, Weak<SharedEntry>>,
    /// Cumulative bytes that were *not* allocated because an identical
    /// reservation already existed — the model-dedup saving.
    deduped_bytes: u64,
    /// Number of reservations that were served from an existing entry.
    dedup_hits: u64,
}

struct SharedEntry {
    key: u64,
    reservation: SecureReservation,
}

impl fmt::Debug for SecureRam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SecureRam")
            .field("base_addr", &format_args!("{:#x}", inner.base_addr))
            .field("capacity", &inner.capacity)
            .field("in_use", &inner.in_use)
            .finish()
    }
}

impl SecureRam {
    /// Creates a pool of `capacity` bytes whose first byte has simulated
    /// physical address `base_addr`.
    pub fn new(base_addr: u64, capacity: usize, stats: TzStats) -> Self {
        SecureRam {
            inner: Arc::new(Mutex::new(SecureRamInner {
                base_addr,
                capacity,
                free_list: vec![FreeBlock {
                    offset: 0,
                    size: capacity,
                }],
                in_use: 0,
                allocation_count: 0,
                failed_allocations: 0,
            })),
            shared: Arc::new(Mutex::new(SharedRegistry::default())),
            stats,
        }
    }

    /// Reserves `size` bytes under a shared content `key` — the
    /// model-dedup path. The first reservation for a key allocates from
    /// the carve-out; every later reservation for the same key (while any
    /// earlier one is still alive) charges **nothing** and hands back a
    /// handle onto the same allocation. This models co-resident TAs
    /// hosting the same read-only model weights: the paper's "smaller ML
    /// models" mitigation generalized to model *sharing* — N sessions,
    /// one copy of the weights in secure RAM.
    ///
    /// The saving is observable through [`SecureRam::dedup_saved_bytes`]
    /// and [`SecureRam::dedup_hits`]. When the last handle for a key
    /// drops, the allocation is returned to the pool; a later reservation
    /// for the key allocates afresh.
    ///
    /// # Errors
    ///
    /// Returns [`TzError::SecureRamExhausted`] if the first reservation
    /// for the key does not fit, and [`TzError::SharedReservationMismatch`]
    /// if a later reservation requests a different size than the live
    /// allocation under the key holds — serving that silently would hand
    /// back a wrong-size buffer and credit phantom dedup savings.
    pub fn reserve_shared(&self, key: u64, size: usize) -> Result<SharedReservation> {
        let mut shared = self.shared.lock();
        if let Some(entry) = shared.entries.get(&key).and_then(Weak::upgrade) {
            if entry.reservation.len() != size {
                return Err(TzError::SharedReservationMismatch {
                    key,
                    existing: entry.reservation.len(),
                    requested: size,
                });
            }
            shared.deduped_bytes += round_up(size.max(1), DEFAULT_ALIGN) as u64;
            shared.dedup_hits += 1;
            return Ok(SharedReservation { entry });
        }
        let reservation = self.reserve(size)?;
        let entry = Arc::new(SharedEntry { key, reservation });
        shared.entries.retain(|_, e| e.strong_count() > 0);
        shared.entries.insert(key, Arc::downgrade(&entry));
        Ok(SharedReservation { entry })
    }

    /// Cumulative bytes saved by shared reservations: what co-resident
    /// sessions *would* have allocated without dedup, minus what they did.
    pub fn dedup_saved_bytes(&self) -> u64 {
        self.shared.lock().deduped_bytes
    }

    /// Number of shared reservations that were served from an existing
    /// allocation instead of allocating again.
    pub fn dedup_hits(&self) -> u64 {
        self.shared.lock().dedup_hits
    }

    /// Number of distinct live shared allocations.
    pub fn shared_reservation_count(&self) -> usize {
        self.shared
            .lock()
            .entries
            .values()
            .filter(|e| e.strong_count() > 0)
            .count()
    }

    /// Reserves `size` bytes of the carve-out without backing them with
    /// host memory: the span counts against the pool until the returned
    /// [`SecureReservation`] drops, but holds no data. Use it for memory
    /// the simulation only accounts for, such as a declared footprint.
    ///
    /// # Errors
    ///
    /// Returns [`TzError::SecureRamExhausted`] if no free block is large
    /// enough (either genuinely out of memory, or fragmented).
    pub fn reserve(&self, size: usize) -> Result<SecureReservation> {
        let mut inner = self.inner.lock();
        match inner.alloc(size) {
            Some(offset) => {
                let addr = inner.base_addr + offset as u64;
                let in_use = inner.in_use as u64;
                drop(inner);
                self.stats.record_secure_ram_usage(in_use);
                Ok(SecureReservation {
                    addr,
                    offset,
                    len: size,
                    pool: Arc::downgrade(&self.inner),
                })
            }
            None => {
                inner.failed_allocations += 1;
                let available = inner.available();
                Err(TzError::SecureRamExhausted {
                    requested: size,
                    available,
                })
            }
        }
    }

    /// Allocates a zeroed secure buffer of `size` bytes: a
    /// [`SecureRam::reserve`] reservation plus its host bytes.
    ///
    /// # Errors
    ///
    /// Same as [`SecureRam::reserve`].
    pub fn alloc(&self, size: usize) -> Result<SecureBuf> {
        let reservation = self.reserve(size)?;
        Ok(SecureBuf {
            data: vec![0u8; size],
            reservation,
        })
    }

    /// Total pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Bytes currently allocated (after alignment rounding).
    pub fn bytes_in_use(&self) -> usize {
        self.inner.lock().in_use
    }

    /// Bytes currently free.
    pub fn bytes_available(&self) -> usize {
        self.inner.lock().available()
    }

    /// Number of successful allocations over the pool's lifetime.
    pub fn allocation_count(&self) -> u64 {
        self.inner.lock().allocation_count
    }

    /// Number of failed allocations over the pool's lifetime.
    pub fn failed_allocations(&self) -> u64 {
        self.inner.lock().failed_allocations
    }

    /// Simulated physical base address of the pool.
    pub fn base_addr(&self) -> u64 {
        self.inner.lock().base_addr
    }

    /// Returns `true` if a buffer of `size` bytes would currently fit.
    pub fn would_fit(&self, size: usize) -> bool {
        let size = round_up(size.max(1), DEFAULT_ALIGN);
        self.inner.lock().free_list.iter().any(|b| b.size >= size)
    }
}

/// A span of the secure carve-out, held for accounting only.
///
/// The span counts against the pool from [`SecureRam::reserve`] until the
/// reservation drops. It has an offset and a simulated physical address
/// but no bytes, and deliberately no data accessors: code that needs to
/// read or write secure memory must allocate a [`SecureBuf`].
pub struct SecureReservation {
    addr: u64,
    offset: usize,
    len: usize,
    pool: Weak<Mutex<SecureRamInner>>,
}

impl SecureReservation {
    /// Simulated physical address of the first byte.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Reserved length in bytes (before alignment rounding).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the reservation is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Debug for SecureReservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecureReservation")
            .field("addr", &format_args!("{:#x}", self.addr))
            .field("len", &self.len)
            .finish()
    }
}

impl Drop for SecureReservation {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.lock().free(self.offset, self.len);
        }
    }
}

/// An owned buffer allocated from secure RAM: a [`SecureReservation`] plus
/// the bytes it holds.
///
/// The buffer's bytes live on the host heap (this is a simulation), but the
/// allocation is accounted against the secure carve-out and freed back to it
/// on drop. The simulated physical address is stable for the lifetime of the
/// buffer and lies inside the TZASC secure region, so passing it to
/// [`crate::tzasc::Tzasc::check_access`] from the normal world faults —
/// exactly the protection the paper relies on.
pub struct SecureBuf {
    reservation: SecureReservation,
    data: Vec<u8>,
}

impl SecureBuf {
    /// Simulated physical address of the first byte.
    pub fn addr(&self) -> u64 {
        self.reservation.addr()
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the contents.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Copies `src` into the buffer starting at `offset`, returning the
    /// number of bytes copied (truncated at the end of the buffer).
    pub fn write_at(&mut self, offset: usize, src: &[u8]) -> usize {
        if offset >= self.data.len() {
            return 0;
        }
        let n = src.len().min(self.data.len() - offset);
        self.data[offset..offset + n].copy_from_slice(&src[..n]);
        n
    }
}

impl fmt::Debug for SecureBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecureBuf")
            .field("addr", &format_args!("{:#x}", self.addr()))
            .field("len", &self.data.len())
            .finish()
    }
}

impl AsRef<[u8]> for SecureBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl AsMut<[u8]> for SecureBuf {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// A handle onto a content-keyed shared secure-RAM reservation (see
/// [`SecureRam::reserve_shared`]). All handles for one key refer to the
/// **same** allocation; the allocation is freed when the last handle
/// drops. Handles are read-only: shared reservations model read-only
/// model weights, which is what makes charging them once sound.
#[derive(Clone)]
pub struct SharedReservation {
    entry: Arc<SharedEntry>,
}

impl SharedReservation {
    /// The content key the reservation was made under.
    pub fn key(&self) -> u64 {
        self.entry.key
    }

    /// Simulated physical address of the shared allocation.
    pub fn addr(&self) -> u64 {
        self.entry.reservation.addr()
    }

    /// Size of the shared allocation in bytes.
    pub fn len(&self) -> usize {
        self.entry.reservation.len()
    }

    /// Whether the reservation is empty.
    pub fn is_empty(&self) -> bool {
        self.entry.reservation.is_empty()
    }

    /// Number of live handles onto this allocation (co-resident users).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.entry)
    }
}

impl fmt::Debug for SharedReservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedReservation")
            .field("key", &format_args!("{:#x}", self.entry.key))
            .field(
                "addr",
                &format_args!("{:#x}", self.entry.reservation.addr()),
            )
            .field("len", &self.entry.reservation.len())
            .field("handles", &Arc::strong_count(&self.entry))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity: usize) -> SecureRam {
        SecureRam::new(0xF000_0000, capacity, TzStats::new())
    }

    #[test]
    fn alloc_and_drop_returns_memory() {
        let ram = pool(16 * 1024);
        let a = ram.alloc(1000).unwrap();
        let b = ram.alloc(2000).unwrap();
        assert!(ram.bytes_in_use() >= 3000);
        assert_ne!(a.addr(), b.addr());
        drop(a);
        drop(b);
        assert_eq!(ram.bytes_in_use(), 0);
        assert_eq!(ram.allocation_count(), 2);
    }

    #[test]
    fn exhaustion_is_reported_not_panicked() {
        let ram = pool(4 * 1024);
        let _a = ram.alloc(3 * 1024).unwrap();
        let err = ram.alloc(2 * 1024).unwrap_err();
        assert!(matches!(err, TzError::SecureRamExhausted { .. }));
        assert_eq!(ram.failed_allocations(), 1);
    }

    #[test]
    fn freed_blocks_coalesce() {
        let ram = pool(8 * 1024);
        let a = ram.alloc(2 * 1024).unwrap();
        let b = ram.alloc(2 * 1024).unwrap();
        let c = ram.alloc(2 * 1024).unwrap();
        drop(a);
        drop(b);
        drop(c);
        // After everything is freed a single 8 KiB allocation must succeed
        // again, which requires the free blocks to have been merged.
        let big = ram.alloc(8 * 1024 - DEFAULT_ALIGN).unwrap();
        assert!(!big.is_empty());
    }

    #[test]
    fn addresses_fall_inside_the_carveout() {
        let ram = pool(64 * 1024);
        let buf = ram.alloc(128).unwrap();
        assert!(buf.addr() >= ram.base_addr());
        assert!(buf.addr() < ram.base_addr() + ram.capacity() as u64);
    }

    #[test]
    fn buffers_are_zeroed_and_writable() {
        let ram = pool(4 * 1024);
        let mut buf = ram.alloc(64).unwrap();
        assert!(buf.as_slice().iter().all(|&b| b == 0));
        let written = buf.write_at(60, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(written, 4);
        assert_eq!(&buf.as_slice()[60..64], &[1, 2, 3, 4]);
        assert_eq!(buf.write_at(64, &[9]), 0);
    }

    #[test]
    fn reservations_account_exactly_like_buffers() {
        // The same allocation sequence through `reserve` and `alloc` lands
        // on the same offsets and leaves the same counters behind.
        let sizes = [1000, 64, 4096, 1];
        let (stats_r, stats_b) = (TzStats::new(), TzStats::new());
        let by_reserve = SecureRam::new(0xF000_0000, 16 * 1024, stats_r.clone());
        let by_alloc = SecureRam::new(0xF000_0000, 16 * 1024, stats_b.clone());
        let reservations: Vec<_> = sizes
            .iter()
            .map(|&n| by_reserve.reserve(n).unwrap())
            .collect();
        let buffers: Vec<_> = sizes.iter().map(|&n| by_alloc.alloc(n).unwrap()).collect();
        for (r, b) in reservations.iter().zip(&buffers) {
            assert_eq!(r.addr(), b.addr());
            assert_eq!(r.len(), b.len());
        }
        assert_eq!(by_reserve.bytes_in_use(), by_alloc.bytes_in_use());
        assert_eq!(by_reserve.allocation_count(), by_alloc.allocation_count());
        drop(reservations);
        drop(buffers);
        assert_eq!(by_reserve.bytes_in_use(), 0);
        assert_eq!(by_alloc.bytes_in_use(), 0);
        assert_eq!(
            stats_r.snapshot().secure_ram_peak_bytes,
            stats_b.snapshot().secure_ram_peak_bytes
        );
    }

    #[test]
    fn peak_usage_is_recorded_in_stats() {
        let stats = TzStats::new();
        let ram = SecureRam::new(0xF000_0000, 32 * 1024, stats.clone());
        let a = ram.alloc(10_000).unwrap();
        let b = ram.alloc(10_000).unwrap();
        drop(a);
        drop(b);
        assert!(stats.snapshot().secure_ram_peak_bytes >= 20_000);
    }

    #[test]
    fn shared_reservations_charge_once_per_key() {
        let ram = pool(64 * 1024);
        let a = ram.reserve_shared(0x0DE1, 10_000).unwrap();
        let used_after_first = ram.bytes_in_use();
        assert!(used_after_first >= 10_000);
        // A second co-resident session with the same weights: no new bytes.
        let b = ram.reserve_shared(a.key(), 10_000).unwrap();
        assert_eq!(ram.bytes_in_use(), used_after_first);
        assert_eq!(a.addr(), b.addr());
        assert_eq!(b.handle_count(), 2);
        assert!(ram.dedup_saved_bytes() >= 10_000);
        assert_eq!(ram.dedup_hits(), 1);
        assert_eq!(ram.shared_reservation_count(), 1);
        // A different key is a different allocation.
        let c = ram.reserve_shared(0x07E2, 4_000).unwrap();
        assert_ne!(c.addr(), a.addr());
        assert_eq!(ram.shared_reservation_count(), 2);
        let used_after_c = ram.bytes_in_use();
        // Dropping one handle keeps the shared allocation alive...
        drop(a);
        assert_eq!(ram.bytes_in_use(), used_after_c);
        // ...dropping the last frees it.
        drop(b);
        assert_eq!(ram.bytes_in_use(), used_after_c - used_after_first);
        // A fresh key allocates afresh.
        let again = ram.reserve_shared(0x0DE1, 8_000).unwrap();
        assert!(!again.is_empty());
        drop(c);
        drop(again);
        assert_eq!(ram.bytes_in_use(), 0);
    }

    #[test]
    fn shared_reservation_exhaustion_is_reported() {
        let ram = pool(8 * 1024);
        let _a = ram.reserve_shared(1, 6 * 1024).unwrap();
        let err = ram.reserve_shared(2, 6 * 1024).unwrap_err();
        assert!(matches!(err, TzError::SecureRamExhausted { .. }));
        // The same key still dedups even under pressure.
        let b = ram.reserve_shared(1, 6 * 1024).unwrap();
        assert_eq!(b.handle_count(), 2);
    }

    #[test]
    fn shared_reservation_size_mismatch_is_rejected() {
        let ram = pool(64 * 1024);
        let a = ram.reserve_shared(9, 10_000).unwrap();
        let err = ram.reserve_shared(9, 12_000).unwrap_err();
        assert!(matches!(
            err,
            TzError::SharedReservationMismatch {
                key: 9,
                existing: 10_000,
                requested: 12_000,
            }
        ));
        // Nothing was credited for the rejected request.
        assert_eq!(ram.dedup_hits(), 0);
        assert_eq!(ram.dedup_saved_bytes(), 0);
        // A matching size still dedups.
        assert!(ram.reserve_shared(9, 10_000).is_ok());
        drop(a);
    }

    #[test]
    fn would_fit_predicts_alloc_success() {
        let ram = pool(4 * 1024);
        assert!(ram.would_fit(4 * 1024 - DEFAULT_ALIGN));
        let _hold = ram.alloc(3 * 1024).unwrap();
        assert!(!ram.would_fit(2 * 1024));
        assert!(ram.would_fit(512));
    }
}
