//! Platform power and energy model.
//!
//! The paper expects the secure pipeline to come "at a cost of decreased
//! performance, and increased power consumption" (§III). This module models
//! that claim: each platform component has an idle draw and an active draw;
//! components report busy intervals against the shared virtual clock, and
//! the [`EnergyMeter`] integrates draw over time to yield per-component and
//! total energy.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimInstant};

/// A platform component tracked by the power model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Component {
    /// CPU cycles spent in the normal world (Linux kernel + user space).
    CpuNormalWorld,
    /// CPU cycles spent in the secure world (OP-TEE core, PTAs, TAs).
    CpuSecureWorld,
    /// DRAM refresh/activity.
    Dram,
    /// The I2S controller block.
    I2sController,
    /// The external MEMS microphone.
    Microphone,
    /// The camera sensor and its interface.
    Camera,
    /// The DMA engine.
    DmaEngine,
    /// The network interface (Wi-Fi/Ethernet) used by the relay.
    Network,
    /// Always-on platform overhead (PMIC, rails, fixed leakage).
    Baseline,
}

impl Component {
    /// All components, in reporting order.
    pub const ALL: [Component; 9] = [
        Component::Baseline,
        Component::CpuNormalWorld,
        Component::CpuSecureWorld,
        Component::Dram,
        Component::I2sController,
        Component::Microphone,
        Component::Camera,
        Component::DmaEngine,
        Component::Network,
    ];
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Component::CpuNormalWorld => "cpu-normal-world",
            Component::CpuSecureWorld => "cpu-secure-world",
            Component::Dram => "dram",
            Component::I2sController => "i2s-controller",
            Component::Microphone => "microphone",
            Component::Camera => "camera",
            Component::DmaEngine => "dma-engine",
            Component::Network => "network",
            Component::Baseline => "baseline",
        };
        write!(f, "{name}")
    }
}

/// Per-component draw in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Draw {
    /// Draw while idle (mW).
    pub idle_mw: f64,
    /// Draw while active (mW).
    pub active_mw: f64,
}

/// Power parameters of the platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    draws: BTreeMap<Component, Draw>,
}

impl PowerModel {
    /// Power model loosely calibrated against a Jetson-AGX-Xavier-class
    /// module in its 30 W envelope. Absolute numbers are representative;
    /// what experiments rely on is the *relative* increase when the secure
    /// world is busy more of the time.
    pub fn jetson_agx_xavier() -> Self {
        let mut draws = BTreeMap::new();
        draws.insert(
            Component::Baseline,
            Draw {
                idle_mw: 2_500.0,
                active_mw: 2_500.0,
            },
        );
        draws.insert(
            Component::CpuNormalWorld,
            Draw {
                idle_mw: 350.0,
                active_mw: 4_500.0,
            },
        );
        // The secure partition runs at the same DVFS point but without the
        // shared-cache benefits, so active draw per unit of useful work is
        // slightly higher.
        draws.insert(
            Component::CpuSecureWorld,
            Draw {
                idle_mw: 50.0,
                active_mw: 5_000.0,
            },
        );
        draws.insert(
            Component::Dram,
            Draw {
                idle_mw: 600.0,
                active_mw: 1_800.0,
            },
        );
        draws.insert(
            Component::I2sController,
            Draw {
                idle_mw: 5.0,
                active_mw: 35.0,
            },
        );
        draws.insert(
            Component::Microphone,
            Draw {
                idle_mw: 0.5,
                active_mw: 3.5,
            },
        );
        draws.insert(
            Component::Camera,
            Draw {
                idle_mw: 10.0,
                active_mw: 950.0,
            },
        );
        draws.insert(
            Component::DmaEngine,
            Draw {
                idle_mw: 2.0,
                active_mw: 120.0,
            },
        );
        draws.insert(
            Component::Network,
            Draw {
                idle_mw: 90.0,
                active_mw: 1_100.0,
            },
        );
        PowerModel { draws }
    }

    /// Power model for a small battery-powered IoT node.
    pub fn constrained_mcu() -> Self {
        let mut draws = BTreeMap::new();
        draws.insert(
            Component::Baseline,
            Draw {
                idle_mw: 30.0,
                active_mw: 30.0,
            },
        );
        draws.insert(
            Component::CpuNormalWorld,
            Draw {
                idle_mw: 4.0,
                active_mw: 180.0,
            },
        );
        draws.insert(
            Component::CpuSecureWorld,
            Draw {
                idle_mw: 1.0,
                active_mw: 210.0,
            },
        );
        draws.insert(
            Component::Dram,
            Draw {
                idle_mw: 8.0,
                active_mw: 45.0,
            },
        );
        draws.insert(
            Component::I2sController,
            Draw {
                idle_mw: 1.0,
                active_mw: 12.0,
            },
        );
        draws.insert(
            Component::Microphone,
            Draw {
                idle_mw: 0.3,
                active_mw: 2.0,
            },
        );
        draws.insert(
            Component::Camera,
            Draw {
                idle_mw: 2.0,
                active_mw: 300.0,
            },
        );
        draws.insert(
            Component::DmaEngine,
            Draw {
                idle_mw: 0.5,
                active_mw: 25.0,
            },
        );
        draws.insert(
            Component::Network,
            Draw {
                idle_mw: 15.0,
                active_mw: 400.0,
            },
        );
        PowerModel { draws }
    }

    /// Power model for the quad-core IoT gateway — a Raspberry-Pi-class
    /// node in a ~6 W envelope, between the microcontroller and the
    /// Jetson presets.
    pub fn iot_quad_node() -> Self {
        let mut draws = BTreeMap::new();
        draws.insert(
            Component::Baseline,
            Draw {
                idle_mw: 600.0,
                active_mw: 600.0,
            },
        );
        draws.insert(
            Component::CpuNormalWorld,
            Draw {
                idle_mw: 80.0,
                active_mw: 1_400.0,
            },
        );
        draws.insert(
            Component::CpuSecureWorld,
            Draw {
                idle_mw: 12.0,
                active_mw: 1_550.0,
            },
        );
        draws.insert(
            Component::Dram,
            Draw {
                idle_mw: 120.0,
                active_mw: 450.0,
            },
        );
        draws.insert(
            Component::I2sController,
            Draw {
                idle_mw: 2.0,
                active_mw: 20.0,
            },
        );
        draws.insert(
            Component::Microphone,
            Draw {
                idle_mw: 0.4,
                active_mw: 3.0,
            },
        );
        draws.insert(
            Component::Camera,
            Draw {
                idle_mw: 5.0,
                active_mw: 600.0,
            },
        );
        draws.insert(
            Component::DmaEngine,
            Draw {
                idle_mw: 1.0,
                active_mw: 60.0,
            },
        );
        draws.insert(
            Component::Network,
            Draw {
                idle_mw: 45.0,
                active_mw: 750.0,
            },
        );
        PowerModel { draws }
    }

    /// Draw parameters for one component.
    ///
    /// Unknown components (possible because the enum is non-exhaustive)
    /// report zero draw.
    pub fn draw(&self, component: Component) -> Draw {
        self.draws.get(&component).copied().unwrap_or(Draw {
            idle_mw: 0.0,
            active_mw: 0.0,
        })
    }

    /// Overrides the draw of one component (used in ablations).
    pub fn set_draw(&mut self, component: Component, draw: Draw) {
        self.draws.insert(component, draw);
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::jetson_agx_xavier()
    }
}

/// Accumulated busy time per component plus the window over which it was
/// observed; converts to energy via the [`PowerModel`].
#[derive(Debug, Clone, Default)]
struct MeterInner {
    busy: BTreeMap<Component, SimDuration>,
    window_start: SimInstant,
}

/// Energy accounting for one experiment run.
///
/// Components call [`EnergyMeter::record_busy`] with the duration they were
/// active; the harness calls [`EnergyMeter::report_until`] to integrate
/// idle draw over the rest of the observation window.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: PowerModel,
    inner: Arc<Mutex<MeterInner>>,
}

impl EnergyMeter {
    /// Creates a meter whose observation window starts at `start`.
    pub fn new(model: PowerModel, start: SimInstant) -> Self {
        EnergyMeter {
            model,
            inner: Arc::new(Mutex::new(MeterInner {
                busy: BTreeMap::new(),
                window_start: start,
            })),
        }
    }

    /// Records that `component` was active for `duration`.
    pub fn record_busy(&self, component: Component, duration: SimDuration) {
        if duration.is_zero() {
            return;
        }
        let mut inner = self.inner.lock();
        *inner.busy.entry(component).or_insert(SimDuration::ZERO) += duration;
    }

    /// Produces the energy report for the window ending at `end`.
    pub fn report_until(&self, end: SimInstant) -> EnergyReport {
        let inner = self.inner.lock();
        let window = end.duration_since(inner.window_start);
        let mut per_component = BTreeMap::new();
        let mut total_mj = 0.0;
        for &component in Component::ALL.iter() {
            let draw = self.model.draw(component);
            let busy = inner
                .busy
                .get(&component)
                .copied()
                .unwrap_or(SimDuration::ZERO);
            // Busy time cannot exceed the window in a well-formed run, but a
            // component may legitimately be busy on overlapping operations;
            // clamp so idle time never goes negative.
            let busy_clamped = busy.min(window);
            let idle = window - busy_clamped;
            let energy_mj =
                draw.active_mw * busy_clamped.as_secs_f64() + draw.idle_mw * idle.as_secs_f64();
            total_mj += energy_mj;
            per_component.insert(component, ComponentEnergy { busy, energy_mj });
        }
        EnergyReport {
            window,
            total_mj,
            per_component,
        }
    }

    /// The power model backing this meter.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }
}

/// Energy attributed to one component over the observation window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComponentEnergy {
    /// Active time recorded for the component.
    pub busy: SimDuration,
    /// Energy in millijoules (active + idle over the window).
    pub energy_mj: f64,
}

/// Energy report for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Length of the observation window.
    pub window: SimDuration,
    /// Total energy over the window, in millijoules.
    pub total_mj: f64,
    /// Per-component breakdown.
    pub per_component: BTreeMap<Component, ComponentEnergy>,
}

impl EnergyReport {
    /// Average power over the window, in milliwatts.
    pub fn average_power_mw(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_mj / secs
        }
    }

    /// Energy of one component in millijoules.
    pub fn component_mj(&self, component: Component) -> f64 {
        self.per_component
            .get(&component)
            .map(|c| c.energy_mj)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_platform_still_draws_baseline_power() {
        let meter = EnergyMeter::new(PowerModel::jetson_agx_xavier(), SimInstant::EPOCH);
        let report = meter.report_until(SimInstant::EPOCH + SimDuration::from_secs(10));
        // Baseline alone over 10 s at 2.5 W = 25 J = 25_000 mJ.
        assert!(report.component_mj(Component::Baseline) > 24_000.0);
        assert!(report.total_mj > report.component_mj(Component::Baseline));
        assert!(report.average_power_mw() > 2_500.0);
    }

    #[test]
    fn activity_increases_energy() {
        let model = PowerModel::jetson_agx_xavier();
        let idle_meter = EnergyMeter::new(model.clone(), SimInstant::EPOCH);
        let busy_meter = EnergyMeter::new(model, SimInstant::EPOCH);
        busy_meter.record_busy(Component::CpuSecureWorld, SimDuration::from_secs(5));
        let end = SimInstant::EPOCH + SimDuration::from_secs(10);
        let idle = idle_meter.report_until(end);
        let busy = busy_meter.report_until(end);
        assert!(busy.total_mj > idle.total_mj);
        assert!(
            busy.component_mj(Component::CpuSecureWorld)
                > idle.component_mj(Component::CpuSecureWorld)
        );
    }

    #[test]
    fn busy_time_is_clamped_to_window() {
        let meter = EnergyMeter::new(PowerModel::jetson_agx_xavier(), SimInstant::EPOCH);
        meter.record_busy(Component::Network, SimDuration::from_secs(100));
        let report = meter.report_until(SimInstant::EPOCH + SimDuration::from_secs(1));
        let draw = meter.model().draw(Component::Network);
        // Energy must not exceed active draw over the whole window.
        assert!(report.component_mj(Component::Network) <= draw.active_mw * 1.05);
    }

    #[test]
    fn zero_window_reports_zero_power() {
        let meter = EnergyMeter::new(PowerModel::default(), SimInstant::EPOCH);
        let report = meter.report_until(SimInstant::EPOCH);
        assert_eq!(report.average_power_mw(), 0.0);
        assert_eq!(report.total_mj, 0.0);
    }

    #[test]
    fn constrained_platform_draws_less() {
        let big = PowerModel::jetson_agx_xavier();
        let small = PowerModel::constrained_mcu();
        for &c in Component::ALL.iter() {
            assert!(small.draw(c).active_mw <= big.draw(c).active_mw);
        }
    }

    #[test]
    fn set_draw_overrides_component() {
        let mut model = PowerModel::default();
        model.set_draw(
            Component::Camera,
            Draw {
                idle_mw: 0.0,
                active_mw: 1.0,
            },
        );
        assert_eq!(model.draw(Component::Camera).active_mw, 1.0);
    }
}
