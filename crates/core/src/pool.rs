//! The secure-core pool: N TEE cores over one TZDRAM carve-out.
//!
//! On a multi-core TrustZone SoC every application core can enter the
//! secure world, each with its own banked state and its own monitor
//! transitions, while all of them share the single physical secure
//! carve-out. The pool reproduces that shape: each [`TeeCoreHandle`] owns
//! a full [`Platform`] — its own virtual clock (cores run concurrently,
//! so wall time is the *max* over cores, not the sum), its own
//! [`perisec_tz::monitor::SecureMonitor`] and world-switch counters — and
//! a booted [`TeeCore`], while every core's secure allocations are
//! charged against the **one** shared [`SecureRam`] pool. That shared
//! carve-out is what makes cross-core model deduplication
//! ([`SecureRam::reserve_shared`]) observable: two vision TAs on two
//! cores holding the same weights cost the carve-out one copy.

use std::sync::Arc;

use perisec_optee::{Supplicant, TeeCore};
use perisec_tz::cost::CostModel;
use perisec_tz::platform::{Platform, PlatformSpec};
use perisec_tz::power::PowerModel;
use perisec_tz::secure_mem::SecureRam;
use perisec_tz::stats::{TzStats, TzStatsSnapshot};
use perisec_tz::time::{SimDuration, SimInstant};

use crate::{CoreError, Result};

/// Configuration of a secure-core pool.
#[derive(Debug, Clone)]
pub struct TeePoolConfig {
    /// Number of secure cores (TA sessions the scheduler can place onto).
    pub cores: usize,
    /// The SoC every core instantiates (cores share its memory map).
    pub spec: PlatformSpec,
    /// Latency cost model applied per core.
    pub cost: CostModel,
    /// Power model applied per core.
    pub power: PowerModel,
    /// Override of the shared carve-out size (KiB), if set.
    pub secure_ram_kib: Option<u64>,
}

impl TeePoolConfig {
    /// A pool of `cores` secure cores on the Jetson-class platform.
    pub fn jetson(cores: usize) -> Self {
        TeePoolConfig {
            cores,
            spec: PlatformSpec::jetson_agx_xavier(),
            cost: CostModel::jetson_agx_xavier(),
            power: PowerModel::jetson_agx_xavier(),
            secure_ram_kib: None,
        }
    }

    /// A single-core "pool" on the constrained MCU — that platform has
    /// one application core, so this is the only pool shape it admits
    /// (boot rejects anything larger).
    pub fn constrained_mcu() -> Self {
        TeePoolConfig {
            cores: 1,
            spec: PlatformSpec::constrained_mcu(),
            cost: CostModel::constrained_mcu(),
            power: PowerModel::constrained_mcu(),
            secure_ram_kib: None,
        }
    }

    /// A pool of `cores` secure cores on the quad-core IoT gateway — the
    /// platform where a single vision TA is outrun by a high-fps sensor
    /// and sharding starts to pay.
    pub fn iot_quad_node(cores: usize) -> Self {
        TeePoolConfig {
            cores,
            spec: PlatformSpec::iot_quad_node(),
            cost: CostModel::iot_quad_node(),
            power: PowerModel::iot_quad_node(),
            secure_ram_kib: None,
        }
    }
}

impl Default for TeePoolConfig {
    fn default() -> Self {
        TeePoolConfig::jetson(2)
    }
}

/// One secure core of the pool: a platform plus its booted TEE core.
pub struct TeeCoreHandle {
    platform: Platform,
    core: Arc<TeeCore>,
}

impl TeeCoreHandle {
    /// The core's platform (clock, monitor, counters, shared carve-out).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The core's OP-TEE instance.
    pub fn core(&self) -> &Arc<TeeCore> {
        &self.core
    }

    /// Virtual time this core has reached.
    pub fn virtual_time(&self) -> SimDuration {
        self.platform
            .clock()
            .now()
            .duration_since(SimInstant::EPOCH)
    }
}

impl std::fmt::Debug for TeeCoreHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeCoreHandle")
            .field("virtual_time", &self.virtual_time())
            .finish()
    }
}

/// A pool of secure cores sharing one TZDRAM carve-out.
pub struct TeePool {
    cores: Vec<TeeCoreHandle>,
    secure_ram: SecureRam,
    /// Counter set backing the shared carve-out (its peak-usage record);
    /// folded into [`TeePool::aggregate_delta`] so sharded reports carry
    /// the real pool-wide peak rather than per-core zeroes.
    stats: TzStats,
}

impl std::fmt::Debug for TeePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeePool")
            .field("cores", &self.cores.len())
            .field("secure_ram_in_use", &self.secure_ram.bytes_in_use())
            .finish()
    }
}

impl TeePool {
    /// Boots a pool: one shared carve-out, then per core a sibling
    /// platform and a TEE core. `make_supplicant` provides each core's
    /// normal-world supplicant (the caller wires them to its network
    /// fabric so every core's relay lands at the same cloud).
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for zero cores or more secure cores than the
    /// SoC has application cores — a pool cannot schedule onto silicon
    /// that is not there.
    pub fn boot(
        config: &TeePoolConfig,
        mut make_supplicant: impl FnMut(usize) -> Arc<Supplicant>,
    ) -> Result<Self> {
        if config.cores == 0 {
            return Err(CoreError::Config {
                reason: "tee pool needs at least one secure core".to_owned(),
            });
        }
        if config.cores > config.spec.cpu_cores as usize {
            return Err(CoreError::Config {
                reason: format!(
                    "tee pool of {} secure cores exceeds the {} application cores of {}",
                    config.cores, config.spec.cpu_cores, config.spec.name
                ),
            });
        }
        let mut spec = config.spec.clone();
        if let Some(kib) = config.secure_ram_kib {
            spec.secure_ram_kib = kib;
        }
        // The one physical carve-out. Its peak-usage accounting lands in a
        // pool-level counter set (per-core counters keep tracking each
        // core's own transitions).
        let stats = TzStats::new();
        let secure_ram = SecureRam::new(spec.secure_base, spec.secure_ram_bytes(), stats.clone());
        let mut cores = Vec::with_capacity(config.cores);
        for index in 0..config.cores {
            let platform = Platform::builder()
                .spec(spec.clone())
                .cost_model(config.cost.clone())
                .power_model(config.power.clone())
                .shared_secure_ram(secure_ram.clone())
                .build();
            let core = TeeCore::boot(platform.clone(), make_supplicant(index));
            cores.push(TeeCoreHandle { platform, core });
        }
        Ok(TeePool {
            cores,
            secure_ram,
            stats,
        })
    }

    /// Number of secure cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the pool has no cores (never true for a booted pool).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// The cores, in scheduling order.
    pub fn cores(&self) -> &[TeeCoreHandle] {
        &self.cores
    }

    /// One core by index.
    pub fn core(&self, index: usize) -> &TeeCoreHandle {
        &self.cores[index]
    }

    /// The shared TZDRAM carve-out.
    pub fn secure_ram(&self) -> &SecureRam {
        &self.secure_ram
    }

    /// Installs `tracer` on every core's TEE (see `TeeCore::set_tracer`):
    /// SMC-boundary and TA-inference spans from all secure cores land in
    /// the one device trace. Note the spans timestamp off each *core's*
    /// clock — per-core virtual time, exactly what the pool's max-over-
    /// cores wall-time model means.
    pub fn set_tracer(&self, tracer: &perisec_telemetry::Tracer) {
        for handle in &self.cores {
            handle.core().set_tracer(tracer.clone());
        }
    }

    /// Per-core counter snapshots, in core order.
    pub fn snapshots(&self) -> Vec<TzStatsSnapshot> {
        self.cores
            .iter()
            .map(|c| c.platform.stats().snapshot())
            .collect()
    }

    /// Sums per-core deltas since `before` into one pool-wide snapshot.
    /// The secure-RAM peak is the max of the per-core records and the
    /// shared carve-out's own record — allocations against the shared
    /// pool land in the pool's counters, not any single core's.
    ///
    /// # Panics
    ///
    /// Panics if `before` was not produced by [`TeePool::snapshots`] of
    /// this pool (length mismatch).
    pub fn aggregate_delta(&self, before: &[TzStatsSnapshot]) -> TzStatsSnapshot {
        assert_eq!(
            before.len(),
            self.cores.len(),
            "snapshot vector belongs to a different pool"
        );
        let mut total = TzStatsSnapshot {
            secure_ram_peak_bytes: self.stats.snapshot().secure_ram_peak_bytes,
            ..TzStatsSnapshot::default()
        };
        for (core, earlier) in self.cores.iter().zip(before) {
            let delta = core.platform.stats().snapshot().delta_since(earlier);
            total.smc_calls += delta.smc_calls;
            total.world_switches += delta.world_switches;
            total.bytes_to_secure += delta.bytes_to_secure;
            total.bytes_to_normal += delta.bytes_to_normal;
            total.supplicant_rpcs += delta.supplicant_rpcs;
            total.irqs += delta.irqs;
            total.secure_irqs += delta.secure_irqs;
            total.secure_ram_peak_bytes =
                total.secure_ram_peak_bytes.max(delta.secure_ram_peak_bytes);
            total.permission_faults += delta.permission_faults;
        }
        total
    }

    /// Wall-clock virtual time of the pool: cores run concurrently, so
    /// the device has finished when its slowest core has.
    pub fn max_virtual_time(&self) -> SimDuration {
        self.cores
            .iter()
            .map(TeeCoreHandle::virtual_time)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perisec_tz::world::World;

    fn booted(cores: usize) -> TeePool {
        TeePool::boot(&TeePoolConfig::jetson(cores), |_| {
            Arc::new(Supplicant::new())
        })
        .unwrap()
    }

    #[test]
    fn pool_rejects_degenerate_core_counts() {
        assert!(TeePool::boot(&TeePoolConfig::jetson(0), |_| Arc::new(Supplicant::new())).is_err());
        // The quad node has 4 application cores; 8 secure cores is fiction.
        assert!(
            TeePool::boot(&TeePoolConfig::iot_quad_node(8), |_| Arc::new(
                Supplicant::new()
            ))
            .is_err()
        );
        assert!(
            TeePool::boot(&TeePoolConfig::iot_quad_node(4), |_| Arc::new(
                Supplicant::new()
            ))
            .is_ok()
        );
    }

    #[test]
    fn cores_share_the_carveout_but_not_clocks_or_counters() {
        let pool = booted(3);
        assert_eq!(pool.len(), 3);
        let buf = pool.core(0).platform().secure_ram().alloc(4096).unwrap();
        assert!(pool.core(2).platform().secure_ram().bytes_in_use() >= 4096);
        assert!(pool.secure_ram().bytes_in_use() >= 4096);
        drop(buf);

        pool.core(1)
            .platform()
            .charge_cpu(World::Secure, SimDuration::from_micros(11));
        pool.core(1)
            .platform()
            .monitor()
            .world_switch(World::Secure);
        assert_eq!(pool.core(0).virtual_time(), SimDuration::ZERO);
        assert!(pool.core(1).virtual_time() >= SimDuration::from_micros(11));
        assert_eq!(pool.max_virtual_time(), pool.core(1).virtual_time());
        let snaps = pool.snapshots();
        assert_eq!(snaps[0].world_switches, 0);
        assert_eq!(snaps[1].world_switches, 1);
        // TA registration reserves per core; both land in the shared pool,
        // whose peak record survives into the aggregated snapshot.
        let delta = pool.aggregate_delta(&vec![TzStatsSnapshot::default(); 3]);
        assert_eq!(delta.world_switches, 1);
        assert!(delta.secure_ram_peak_bytes >= 4096);
    }
}
