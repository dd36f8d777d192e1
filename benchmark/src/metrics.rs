//! The metric tables: every name the benchmark prints, with its unit,
//! its direction, and how a run set turns samples into the reported value.
//! `BENCHMARK.json` lists the same names (a unit test holds the two equal).

/// How a metric's reported value comes about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Host seconds measured in every timed run; the fastest run's value is
    /// reported. Everything else on a shared host only ever adds time, so
    /// the minimum is the closest a handful of runs get to the program's
    /// own cost; measured on this host it is two to three times steadier
    /// from one invocation to the next than the median (README, "Measured
    /// spread"). Median, min, max and count are all in the result file.
    Fastest,
    /// Measured in every timed run and not a host time (a share, a size);
    /// the median is reported.
    Median,
    /// Counted in every run and must repeat exactly from run to run.
    Exact,
    /// Taken from the one traced run of a workload.
    Traced,
    /// Computed by the parent from other values.
    Derived,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, source: Source) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
    }
}

use Source::{Derived, Exact, Fastest, Median, Traced};

/// What a user of the system sees, the same on every workload.
/// (`failed_share` of ISSUE 11 is always 0 on a healthy tree, and the
/// benchmark contract wants end-to-end metrics that are never 0: failures
/// are reported as `failed` / `attempted` and as a per-layer metric.)
pub const END_TO_END: [Metric; 6] = [
    m("wall_s", "s", "lower", Fastest),
    m("setup_s", "s", "lower", Fastest),
    m("solve_s", "s", "lower", Fastest),
    m("ns_per_dof", "ns", "lower", Fastest),
    m("cpu_s", "s", "lower", Fastest),
    m("peak_rss_mb", "MiB", "lower", Median),
];

/// Single layers, prefixed with the module they measure.
pub const PER_LAYER: [Metric; 65] = [
    // Setup ledger: an `Instant` pair around each public call, every run.
    m("bte.pbte.parse_s", "s", "lower", Fastest),
    m("mesh.import_s", "s", "lower", Fastest),
    m("mesh.validate_s", "s", "lower", Fastest),
    m("mesh.cells", "count", "lower", Exact),
    m("mesh.file_bytes", "bytes", "lower", Exact),
    m("bte.build_s", "s", "lower", Fastest),
    m("core.pipeline.analyze_s", "s", "lower", Fastest),
    m("core.pipeline.lower_s", "s", "lower", Fastest),
    m("core.analysis.plan_s", "s", "lower", Fastest),
    m("core.analysis.units_s", "s", "lower", Fastest),
    m("core.analysis.intervals_s", "s", "lower", Fastest),
    m("core.analysis.diagnostics", "count", "lower", Exact),
    m("core.nativegen.prepare_s", "s", "lower", Fastest),
    m("core.nativegen.compiles", "count", "lower", Exact),
    m("core.nativegen.disk_hits", "count", "higher", Exact),
    m("core.nativegen.so_bytes", "bytes", "lower", Median),
    m("core.nativegen.src_bytes", "bytes", "lower", Exact),
    m("core.nativegen.fallbacks", "count", "lower", Exact),
    m("core.nativegen.rustc_peak_rss_mb", "MiB", "lower", Median),
    m("bte.output.render_s", "s", "lower", Fastest),
    m("setup.unattributed_s", "s", "lower", Median),
    m("setup.unattributed_share", "ratio", "lower", Median),
    // Stepping ledger, from `SolveReport`, every run.
    m("core.exec.intensity_s", "s", "lower", Fastest),
    m("core.exec.temperature_s", "s", "lower", Fastest),
    m("core.exec.communication_s", "s", "lower", Fastest),
    m("core.exec.unattributed_s", "s", "lower", Median),
    m("core.exec.unattributed_share", "ratio", "lower", Median),
    m("work.dof_updates", "count", "lower", Exact),
    m("work.flux_evals", "count", "lower", Exact),
    m("work.ghost_evals", "count", "lower", Exact),
    m("work.rhs_evals", "count", "lower", Exact),
    m("work.jvp_evals", "count", "lower", Exact),
    m("work.krylov_iters", "count", "lower", Exact),
    m("work.newton_iters", "count", "lower", Exact),
    m("work.temperature_solves", "count", "lower", Exact),
    m("comm.messages", "count", "lower", Exact),
    m("comm.bytes", "bytes", "lower", Exact),
    m("bte.temperature.newton_per_solve", "ratio", "lower", Exact),
    m(
        "core.exec.implicit.krylov_per_step",
        "ratio",
        "lower",
        Exact,
    ),
    m("core.exec.steps", "count", "lower", Exact),
    m("core.exec.rows.tier_rank", "rank", "higher", Exact),
    m("core.exec.rows.bytes_per_dof", "bytes", "lower", Exact),
    m("mem.fields_bytes", "bytes", "lower", Exact),
    m("mem.device_bytes", "bytes", "lower", Exact),
    // Simulated device, never summed with host time.
    m("gpu.sim_kernel_s", "sim_s", "lower", Exact),
    m("gpu.sim_transfer_s", "sim_s", "lower", Exact),
    m("gpu.h2d_bytes", "bytes", "lower", Exact),
    m("gpu.d2h_bytes", "bytes", "lower", Exact),
    m("gpu.launches", "count", "lower", Exact),
    m("gpu.sm_utilization", "ratio", "higher", Exact),
    m("gpu.memory_fraction", "ratio", "higher", Exact),
    // The one traced run.
    m("core.exec.step_ms_p50", "ms", "lower", Traced),
    m("core.exec.step_ms_p90", "ms", "lower", Traced),
    m("core.exec.step_ms_max", "ms", "lower", Traced),
    m("core.exec.step_samples", "count", "higher", Traced),
    m("core.exec.rows.rhs_ns_per_dof", "ns", "lower", Traced),
    m("runtime.telemetry.spans", "count", "lower", Traced),
    m("runtime.telemetry.dropped_spans", "count", "lower", Traced),
    m("runtime.telemetry.drift_warnings", "count", "lower", Traced),
    // Computed by the parent.
    m("trace.overhead_share", "ratio", "lower", Derived),
    m("speedup_vs_seq", "ratio", "higher", Derived),
    m("failed_share", "ratio", "lower", Derived),
    m("runs", "count", "higher", Derived),
    m("host.triad_gbs", "GB/s", "higher", Derived),
    m("host.canary_s", "s", "lower", Derived),
];

#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
pub fn is_valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_valid_name(metric.name), "{}", metric.name);
            assert!(is_valid_unit(metric.unit), "{}", metric.unit);
            assert!(matches!(metric.better, "lower" | "higher"));
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(!is_valid_name("-x") && !is_valid_name("a b") && !is_valid_name(""));
    }
}
