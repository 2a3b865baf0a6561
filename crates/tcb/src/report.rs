//! Serializable TCB reports.

use serde::{Deserialize, Serialize};

use crate::analysis::TcbAnalysis;
use crate::prune::PrunedImage;

/// The complete TCB-minimization report for one platform/driver/trace
/// combination (the content of experiment E1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TcbReport {
    /// The trace analysis (per-task minimal sets).
    pub analysis: TcbAnalysis,
    /// The image built from the full driver.
    pub full_image: PrunedImage,
    /// The image built from the traced minimal set of the record task.
    pub pruned_image: PrunedImage,
}

impl TcbReport {
    /// Lines-of-code reduction factor (full / pruned).
    pub fn loc_reduction(&self) -> f64 {
        if self.pruned_image.loc == 0 {
            return 0.0;
        }
        self.full_image.loc as f64 / self.pruned_image.loc as f64
    }

    /// Renders the per-task table as markdown (experiment E1 prints it).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| task | functions | loc | % of driver |\n");
        out.push_str("|---|---|---|---|\n");
        out.push_str(&format!(
            "| (full driver) | {} | {} | 100.0% |\n",
            self.analysis.total_functions, self.analysis.total_loc
        ));
        for task in &self.analysis.tasks {
            out.push_str(&format!(
                "| {} | {} | {} | {:.1}% |\n",
                task.task,
                task.functions.len(),
                task.loc,
                100.0 * task.loc_fraction(self.analysis.total_loc)
            ));
        }
        out.push_str(&format!(
            "\nPruned OP-TEE image: {} KiB (driver portion {} KiB, {:.1}x smaller than porting the full driver)\n",
            self.pruned_image.image_bytes / 1024,
            self.pruned_image.driver_bytes / 1024,
            self.loc_reduction()
        ));
        out
    }

    /// Serializes the report to JSON.
    ///
    /// # Panics
    ///
    /// Never panics: all fields are plain data.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report is serializable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::PruneStrategy;
    use perisec_kernel::catalog::DriverCatalog;
    use perisec_kernel::trace::FunctionTracer;
    use perisec_tz::time::SimInstant;
    use std::collections::BTreeSet;

    fn simple_report() -> TcbReport {
        let catalog = DriverCatalog::tegra_audio_stack();
        let tracer = FunctionTracer::new();
        tracer.enable();
        tracer.begin_task("record");
        for f in [
            "tegra210_i2s_hw_params",
            "tegra210_i2s_trigger_start_capture",
        ] {
            tracer.record(f, SimInstant::EPOCH);
        }
        tracer.end_task();
        let analysis = TcbAnalysis::analyze(&catalog, &tracer.log());
        let full_image = PrunedImage::build(&catalog, &PruneStrategy::KeepAll);
        let functions: BTreeSet<String> = analysis.task("record").unwrap().functions.clone();
        let pruned_image =
            PrunedImage::build(&catalog, &PruneStrategy::TracedFunctions { functions });
        TcbReport {
            analysis,
            full_image,
            pruned_image,
        }
    }

    #[test]
    fn report_computes_reduction_and_renders() {
        let report = simple_report();
        assert!(report.loc_reduction() > 10.0);
        let md = report.to_markdown();
        assert!(md.contains("| record |"));
        assert!(md.contains("full driver"));
        let json = report.to_json();
        assert!(json.contains("\"pruned_image\""));
        let parsed: TcbReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
    }
}
