//! What one measuring child process reports to the orchestrating parent,
//! and the line format it travels in over the child's standard output.

use std::collections::BTreeMap;

/// One device's cloud outcome, as the checker compares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceOutcome {
    /// Decisions the cloud committed for the device.
    pub events: u64,
    /// Digest of those decisions, in commit order.
    pub digest: String,
    /// Ground-truth sensitive events that reached the cloud.
    pub leaked: u64,
    /// Raw sensor payload bytes that reached the cloud.
    pub payload_bytes: u64,
}

/// The numbers and outcomes of one child run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildReport {
    /// Named numeric results.
    pub metrics: BTreeMap<String, f64>,
    /// Digest of the run's whole decision artifact
    /// (`FleetReport::cloud_decisions_json`), empty when not applicable.
    pub digest: String,
    /// Per-device outcomes, in device order (fleets only).
    pub devices: Vec<DeviceOutcome>,
}

impl ChildReport {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// A metric, or 0 when it was not reported.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The line format: `m <name> <value>`, `digest <hex>` and
    /// `d <events> <digest> <leaked> <payload>`.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("m {name} {value}\n"));
        }
        if !self.digest.is_empty() {
            out.push_str(&format!("digest {}\n", self.digest));
        }
        for d in &self.devices {
            out.push_str(&format!(
                "d {} {} {} {}\n",
                d.events, d.digest, d.leaked, d.payload_bytes
            ));
        }
        out
    }

    /// Parses [`ChildReport::encode`] output.
    ///
    /// # Errors
    ///
    /// Names the first line that does not parse.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut report = ChildReport::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("unparsable child line: {line:?}");
            match fields.as_slice() {
                ["m", name, value] => {
                    let value: f64 = value.parse().map_err(|_| bad())?;
                    report.metrics.insert((*name).to_owned(), value);
                }
                ["digest", hex] => report.digest = (*hex).to_owned(),
                ["d", events, digest, leaked, payload] => report.devices.push(DeviceOutcome {
                    events: events.parse().map_err(|_| bad())?,
                    digest: (*digest).to_owned(),
                    leaked: leaked.parse().map_err(|_| bad())?,
                    payload_bytes: payload.parse().map_err(|_| bad())?,
                }),
                _ => return Err(bad()),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_format_round_trips() {
        let mut report = ChildReport::default();
        report.set("events_per_s", 12345.678901);
        report.set("setup_s", 0.1);
        report.digest = "00ff".to_owned();
        report.devices.push(DeviceOutcome {
            events: 2,
            digest: "abcd".to_owned(),
            leaked: 0,
            payload_bytes: 0,
        });
        assert_eq!(ChildReport::decode(&report.encode()).unwrap(), report);
        assert!(ChildReport::decode("m only-two").is_err());
    }
}
