//! Shared counters for the machine model.
//!
//! Every layer of the stack increments the same [`TzStats`] instance, so an
//! experiment can ask "how many world switches / SMCs / cross-world bytes
//! did this end-to-end run cost?" — the quantities the paper identifies as
//! the dominant TEE overheads (§V).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A snapshot of the machine-model counters, suitable for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TzStatsSnapshot {
    /// Number of secure monitor calls issued.
    pub smc_calls: u64,
    /// Number of world switches (each direction counts once).
    pub world_switches: u64,
    /// Bytes copied from the normal world into the secure world.
    pub bytes_to_secure: u64,
    /// Bytes copied from the secure world into the normal world.
    pub bytes_to_normal: u64,
    /// Supplicant RPC round trips.
    pub supplicant_rpcs: u64,
    /// Normal-world interrupts taken.
    pub irqs: u64,
    /// Secure-world (FIQ-routed) interrupts taken.
    pub secure_irqs: u64,
    /// Peak bytes allocated from secure RAM.
    pub secure_ram_peak_bytes: u64,
    /// TZASC permission faults observed (and rejected).
    pub permission_faults: u64,
}

/// Thread-safe counters shared by all components of one simulated platform.
///
/// Cloning yields another handle to the same counters.
#[derive(Debug, Clone, Default)]
pub struct TzStats {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    smc_calls: AtomicU64,
    world_switches: AtomicU64,
    bytes_to_secure: AtomicU64,
    bytes_to_normal: AtomicU64,
    supplicant_rpcs: AtomicU64,
    irqs: AtomicU64,
    secure_irqs: AtomicU64,
    secure_ram_peak_bytes: AtomicU64,
    permission_faults: AtomicU64,
}

impl TzStats {
    /// Creates a fresh set of counters, all zero.
    pub fn new() -> Self {
        TzStats::default()
    }

    /// Records one SMC.
    pub fn record_smc(&self) {
        self.inner.smc_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one world switch.
    pub fn record_world_switch(&self) {
        self.inner.world_switches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a copy of `bytes` into the secure world.
    pub fn record_copy_to_secure(&self, bytes: u64) {
        self.inner
            .bytes_to_secure
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a copy of `bytes` into the normal world.
    pub fn record_copy_to_normal(&self, bytes: u64) {
        self.inner
            .bytes_to_normal
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one supplicant RPC round trip.
    pub fn record_supplicant_rpc(&self) {
        self.inner.supplicant_rpcs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a normal-world interrupt.
    pub fn record_irq(&self) {
        self.inner.irqs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a secure interrupt.
    pub fn record_secure_irq(&self) {
        self.record_secure_irqs(1);
    }

    /// Records `count` secure interrupts at once.
    pub fn record_secure_irqs(&self, count: u64) {
        self.inner.secure_irqs.fetch_add(count, Ordering::Relaxed);
    }

    /// Records the current secure-RAM usage, updating the peak if needed.
    pub fn record_secure_ram_usage(&self, bytes_in_use: u64) {
        self.inner
            .secure_ram_peak_bytes
            .fetch_max(bytes_in_use, Ordering::Relaxed);
    }

    /// Records a rejected TZASC access.
    pub fn record_permission_fault(&self) {
        self.inner.permission_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of SMCs so far.
    pub fn smc_calls(&self) -> u64 {
        self.inner.smc_calls.load(Ordering::Relaxed)
    }

    /// Number of world switches so far.
    pub fn world_switches(&self) -> u64 {
        self.inner.world_switches.load(Ordering::Relaxed)
    }

    /// Number of supplicant RPCs so far.
    pub fn supplicant_rpcs(&self) -> u64 {
        self.inner.supplicant_rpcs.load(Ordering::Relaxed)
    }

    /// Number of TZASC permission faults so far.
    pub fn permission_faults(&self) -> u64 {
        self.inner.permission_faults.load(Ordering::Relaxed)
    }

    /// Takes a consistent-enough snapshot of all counters for reporting.
    pub fn snapshot(&self) -> TzStatsSnapshot {
        TzStatsSnapshot {
            smc_calls: self.inner.smc_calls.load(Ordering::Relaxed),
            world_switches: self.inner.world_switches.load(Ordering::Relaxed),
            bytes_to_secure: self.inner.bytes_to_secure.load(Ordering::Relaxed),
            bytes_to_normal: self.inner.bytes_to_normal.load(Ordering::Relaxed),
            supplicant_rpcs: self.inner.supplicant_rpcs.load(Ordering::Relaxed),
            irqs: self.inner.irqs.load(Ordering::Relaxed),
            secure_irqs: self.inner.secure_irqs.load(Ordering::Relaxed),
            secure_ram_peak_bytes: self.inner.secure_ram_peak_bytes.load(Ordering::Relaxed),
            permission_faults: self.inner.permission_faults.load(Ordering::Relaxed),
        }
    }
}

impl TzStatsSnapshot {
    /// Difference between two snapshots (`self` taken after `earlier`).
    ///
    /// Peak values are not differenced; the later peak is kept.
    #[must_use]
    pub fn delta_since(&self, earlier: &TzStatsSnapshot) -> TzStatsSnapshot {
        TzStatsSnapshot {
            smc_calls: self.smc_calls - earlier.smc_calls,
            world_switches: self.world_switches - earlier.world_switches,
            bytes_to_secure: self.bytes_to_secure - earlier.bytes_to_secure,
            bytes_to_normal: self.bytes_to_normal - earlier.bytes_to_normal,
            supplicant_rpcs: self.supplicant_rpcs - earlier.supplicant_rpcs,
            irqs: self.irqs - earlier.irqs,
            secure_irqs: self.secure_irqs - earlier.secure_irqs,
            secure_ram_peak_bytes: self.secure_ram_peak_bytes,
            permission_faults: self.permission_faults - earlier.permission_faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_are_shared() {
        let stats = TzStats::new();
        let other = stats.clone();
        stats.record_smc();
        other.record_smc();
        stats.record_world_switch();
        stats.record_copy_to_secure(100);
        other.record_copy_to_normal(50);
        stats.record_supplicant_rpc();

        let snap = other.snapshot();
        assert_eq!(snap.smc_calls, 2);
        assert_eq!(snap.world_switches, 1);
        assert_eq!(snap.bytes_to_secure, 100);
        assert_eq!(snap.bytes_to_normal, 50);
        assert_eq!(snap.supplicant_rpcs, 1);
    }

    #[test]
    fn peak_secure_ram_tracks_maximum() {
        let stats = TzStats::new();
        stats.record_secure_ram_usage(1_000);
        stats.record_secure_ram_usage(5_000);
        stats.record_secure_ram_usage(2_000);
        assert_eq!(stats.snapshot().secure_ram_peak_bytes, 5_000);
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let stats = TzStats::new();
        stats.record_smc();
        let before = stats.snapshot();
        stats.record_smc();
        stats.record_smc();
        stats.record_irq();
        let after = stats.snapshot();
        let delta = after.delta_since(&before);
        assert_eq!(delta.smc_calls, 2);
        assert_eq!(delta.irqs, 1);
        assert_eq!(delta.world_switches, 0);
    }

    #[test]
    fn stats_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TzStats>();
    }
}
