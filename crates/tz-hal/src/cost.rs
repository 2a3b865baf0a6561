//! Calibrated latency cost model.
//!
//! The paper's performance concerns (§III, §V) are dominated by a handful of
//! mechanisms: secure monitor calls, full world switches, cross-world buffer
//! copies, secure-memory management and supplicant RPCs. The [`CostModel`]
//! assigns a latency to each of these; the default values are calibrated
//! against published OP-TEE / TrustZone measurements on Armv8 application
//! cores (Göttel et al. DAIS'19 report OP-TEE session open in the hundreds
//! of microseconds and command invocation round trips in the tens of
//! microseconds on comparable hardware; raw SMC round trips are single-digit
//! microseconds).
//!
//! The absolute values matter less than their *ratios*: experiments report
//! relative overheads (secure vs. normal-world pipelines), which is the
//! property the model is designed to preserve.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Latency parameters for the TrustZone machine model.
///
/// Construct with [`CostModel::jetson_agx_xavier`] (the paper's platform),
/// [`CostModel::constrained_mcu`] (a much weaker IoT node, used in
/// sensitivity experiments), or [`CostModel::builder`] for custom values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Raw SMC trap into the secure monitor and back (no OP-TEE work).
    pub smc_round_trip: SimDuration,
    /// A full world switch: bank registers, switch translation tables,
    /// signal the other world's scheduler.
    pub world_switch: SimDuration,
    /// Fixed overhead of dispatching a command to a pseudo TA once already
    /// in the secure world.
    pub pta_dispatch: SimDuration,
    /// Fixed overhead of dispatching a command to a user-mode TA (includes
    /// the secure user/kernel transition).
    pub ta_dispatch: SimDuration,
    /// Opening a TEE session (TA lookup, instance creation bookkeeping).
    pub session_open: SimDuration,
    /// A supplicant RPC round trip (secure world -> normal-world daemon ->
    /// secure world), excluding the world switches themselves which are
    /// charged separately.
    pub supplicant_rpc: SimDuration,
    /// Per-byte cost of copying data across the world boundary (shared
    /// memory staging plus cache maintenance).
    pub cross_world_copy_per_byte: SimDuration,
    /// Per-byte cost of an ordinary in-world memory copy.
    pub in_world_copy_per_byte: SimDuration,
    /// Allocating one secure page (TZASC bookkeeping + zeroing).
    pub secure_page_alloc: SimDuration,
    /// Taking an interrupt in the normal world.
    pub irq_entry: SimDuration,
    /// Taking a secure (FIQ-routed) interrupt in the secure world.
    pub secure_irq_entry: SimDuration,
    /// Per-byte cost of one multiply-accumulate-bound ML operation executed
    /// by the CPU in the normal world. Secure-world execution is scaled by
    /// [`CostModel::secure_compute_penalty`].
    pub compute_per_flop: SimDuration,
    /// Multiplier applied to compute executed inside the TEE (smaller
    /// caches available to the secure partition, no GPU offload).
    pub secure_compute_penalty: f64,
}

impl CostModel {
    /// Cost model calibrated for a Jetson-AGX-Xavier-class Armv8.2 platform,
    /// the development kit used by the paper's proof of concept.
    pub fn jetson_agx_xavier() -> Self {
        CostModel {
            smc_round_trip: SimDuration::from_nanos(2_500),
            world_switch: SimDuration::from_nanos(4_000),
            pta_dispatch: SimDuration::from_nanos(1_200),
            ta_dispatch: SimDuration::from_nanos(9_000),
            session_open: SimDuration::from_micros(350),
            supplicant_rpc: SimDuration::from_micros(18),
            cross_world_copy_per_byte: SimDuration::from_nanos(2),
            in_world_copy_per_byte: SimDuration::from_nanos(0),
            secure_page_alloc: SimDuration::from_micros(3),
            irq_entry: SimDuration::from_nanos(800),
            secure_irq_entry: SimDuration::from_nanos(1_500),
            compute_per_flop: SimDuration::from_nanos(1),
            secure_compute_penalty: 1.35,
        }
    }

    /// Cost model for a much weaker, microcontroller-class IoT node.
    ///
    /// Used by sensitivity experiments to show how the trade-offs shift when
    /// the platform is slower: every fixed cost grows and the secure compute
    /// penalty is steeper because the secure partition loses a larger share
    /// of an already small cache.
    pub fn constrained_mcu() -> Self {
        CostModel {
            smc_round_trip: SimDuration::from_micros(12),
            world_switch: SimDuration::from_micros(25),
            pta_dispatch: SimDuration::from_micros(6),
            ta_dispatch: SimDuration::from_micros(40),
            session_open: SimDuration::from_millis(2),
            supplicant_rpc: SimDuration::from_micros(120),
            cross_world_copy_per_byte: SimDuration::from_nanos(12),
            in_world_copy_per_byte: SimDuration::from_nanos(2),
            secure_page_alloc: SimDuration::from_micros(15),
            irq_entry: SimDuration::from_micros(3),
            secure_irq_entry: SimDuration::from_micros(6),
            compute_per_flop: SimDuration::from_nanos(8),
            secure_compute_penalty: 1.8,
        }
    }

    /// Cost model for the quad-core IoT gateway
    /// ([`PlatformSpec::iot_quad_node`](crate::platform::PlatformSpec::iot_quad_node)
    /// in the platform module): an Armv8 node several times slower
    /// than the Jetson but far ahead of the microcontroller class. Every
    /// fixed TEE cost sits between the two presets, which is exactly the
    /// regime where sharding TA sessions across secure cores starts to
    /// pay: one core is outrun by a high-fps sensor, two keep up.
    pub fn iot_quad_node() -> Self {
        CostModel {
            smc_round_trip: SimDuration::from_micros(6),
            world_switch: SimDuration::from_micros(12),
            pta_dispatch: SimDuration::from_micros(3),
            ta_dispatch: SimDuration::from_micros(20),
            session_open: SimDuration::from_micros(900),
            supplicant_rpc: SimDuration::from_micros(60),
            cross_world_copy_per_byte: SimDuration::from_nanos(6),
            in_world_copy_per_byte: SimDuration::from_nanos(1),
            secure_page_alloc: SimDuration::from_micros(8),
            irq_entry: SimDuration::from_nanos(1_500),
            secure_irq_entry: SimDuration::from_micros(3),
            compute_per_flop: SimDuration::from_nanos(5),
            secure_compute_penalty: 1.6,
        }
    }

    /// A zero-cost model, useful in unit tests that only care about
    /// functional behaviour.
    pub fn free() -> Self {
        CostModel {
            smc_round_trip: SimDuration::ZERO,
            world_switch: SimDuration::ZERO,
            pta_dispatch: SimDuration::ZERO,
            ta_dispatch: SimDuration::ZERO,
            session_open: SimDuration::ZERO,
            supplicant_rpc: SimDuration::ZERO,
            cross_world_copy_per_byte: SimDuration::ZERO,
            in_world_copy_per_byte: SimDuration::ZERO,
            secure_page_alloc: SimDuration::ZERO,
            irq_entry: SimDuration::ZERO,
            secure_irq_entry: SimDuration::ZERO,
            compute_per_flop: SimDuration::ZERO,
            secure_compute_penalty: 1.0,
        }
    }

    /// Starts building a custom cost model from the Jetson baseline.
    pub fn builder() -> CostModelBuilder {
        CostModelBuilder {
            model: CostModel::jetson_agx_xavier(),
        }
    }

    /// Cost of copying `bytes` across the world boundary.
    pub fn cross_world_copy(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(
            self.cross_world_copy_per_byte
                .as_nanos()
                .saturating_mul(bytes as u64),
        )
    }

    /// Cost of copying `bytes` within one world.
    pub fn in_world_copy(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(
            self.in_world_copy_per_byte
                .as_nanos()
                .saturating_mul(bytes as u64),
        )
    }

    /// Cost of executing `flops` floating-point-equivalent operations in the
    /// given world.
    pub fn compute(&self, flops: u64, secure: bool) -> SimDuration {
        let base = SimDuration::from_nanos(self.compute_per_flop.as_nanos().saturating_mul(flops));
        if secure {
            base * self.secure_compute_penalty
        } else {
            base
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::jetson_agx_xavier()
    }
}

/// Builder for [`CostModel`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct CostModelBuilder {
    model: CostModel,
}

impl CostModelBuilder {
    /// Sets the SMC round-trip latency.
    pub fn smc_round_trip(mut self, d: SimDuration) -> Self {
        self.model.smc_round_trip = d;
        self
    }

    /// Sets the world-switch latency.
    pub fn world_switch(mut self, d: SimDuration) -> Self {
        self.model.world_switch = d;
        self
    }

    /// Sets the PTA dispatch overhead.
    pub fn pta_dispatch(mut self, d: SimDuration) -> Self {
        self.model.pta_dispatch = d;
        self
    }

    /// Sets the TA dispatch overhead.
    pub fn ta_dispatch(mut self, d: SimDuration) -> Self {
        self.model.ta_dispatch = d;
        self
    }

    /// Sets the session-open cost.
    pub fn session_open(mut self, d: SimDuration) -> Self {
        self.model.session_open = d;
        self
    }

    /// Sets the supplicant RPC round-trip cost.
    pub fn supplicant_rpc(mut self, d: SimDuration) -> Self {
        self.model.supplicant_rpc = d;
        self
    }

    /// Sets the per-byte cross-world copy cost.
    pub fn cross_world_copy_per_byte(mut self, d: SimDuration) -> Self {
        self.model.cross_world_copy_per_byte = d;
        self
    }

    /// Sets the per-flop compute cost.
    pub fn compute_per_flop(mut self, d: SimDuration) -> Self {
        self.model.compute_per_flop = d;
        self
    }

    /// Sets the secure compute penalty multiplier.
    pub fn secure_compute_penalty(mut self, penalty: f64) -> Self {
        self.model.secure_compute_penalty = penalty.max(1.0);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> CostModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jetson_costs_have_expected_ordering() {
        let c = CostModel::jetson_agx_xavier();
        // A session open is the most expensive single operation; raw SMC the cheapest.
        assert!(c.session_open > c.ta_dispatch);
        assert!(c.ta_dispatch > c.pta_dispatch);
        assert!(c.world_switch > c.smc_round_trip / 2);
        assert!(c.secure_compute_penalty > 1.0);
    }

    #[test]
    fn constrained_platform_is_uniformly_slower() {
        let fast = CostModel::jetson_agx_xavier();
        let slow = CostModel::constrained_mcu();
        assert!(slow.smc_round_trip > fast.smc_round_trip);
        assert!(slow.world_switch > fast.world_switch);
        assert!(slow.supplicant_rpc > fast.supplicant_rpc);
        assert!(slow.compute_per_flop > fast.compute_per_flop);
    }

    #[test]
    fn copy_costs_scale_linearly() {
        let c = CostModel::jetson_agx_xavier();
        let one_kib = c.cross_world_copy(1024);
        let four_kib = c.cross_world_copy(4096);
        assert_eq!(four_kib.as_nanos(), one_kib.as_nanos() * 4);
    }

    #[test]
    fn secure_compute_is_penalized() {
        let c = CostModel::jetson_agx_xavier();
        let normal = c.compute(1_000_000, false);
        let secure = c.compute(1_000_000, true);
        assert!(secure > normal);
        let ratio = secure.as_secs_f64() / normal.as_secs_f64();
        assert!((ratio - c.secure_compute_penalty).abs() < 0.01);
    }

    #[test]
    fn builder_overrides_only_requested_fields() {
        let base = CostModel::jetson_agx_xavier();
        let custom = CostModel::builder()
            .world_switch(SimDuration::from_micros(50))
            .secure_compute_penalty(0.2) // clamped up to 1.0
            .build();
        assert_eq!(custom.world_switch, SimDuration::from_micros(50));
        assert_eq!(custom.smc_round_trip, base.smc_round_trip);
        assert_eq!(custom.secure_compute_penalty, 1.0);
    }

    #[test]
    fn free_model_charges_nothing() {
        let c = CostModel::free();
        assert!(c.cross_world_copy(1 << 20).is_zero());
        assert!(c.compute(1 << 20, true).is_zero());
    }
}
