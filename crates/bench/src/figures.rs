//! Series generation and rendering for each figure.

use crate::calibration::Calibration;
use crate::model::{FigureModel, PhasedTime};
use crate::workload::Workload;
use serde::{Serialize, Value};
use std::fmt::Write as _;

/// Process counts used on the paper's x axes.
pub const CPU_COUNTS: [usize; 9] = [1, 2, 5, 10, 20, 40, 80, 160, 320];
/// Band-limited counts (≤ 55 bands).
pub const BAND_COUNTS: [usize; 7] = [1, 2, 5, 10, 20, 40, 55];
/// Breakdown columns of Fig 5.
pub const FIG5_COUNTS: [usize; 6] = [1, 5, 10, 20, 40, 55];
/// Breakdown columns of Fig 8.
pub const FIG8_COUNTS: [usize; 3] = [1, 2, 4];

/// One labeled strong-scaling curve.
#[derive(Debug, Clone)]
pub struct ScalingSeries {
    pub label: String,
    /// `(processes, seconds)`.
    pub points: Vec<(usize, f64)>,
}

impl Serialize for ScalingSeries {
    fn to_value(&self) -> Value {
        let ScalingSeries { label, points } = self;
        Value::Obj(vec![
            ("label".into(), label.to_value()),
            ("points".into(), points.to_value()),
        ])
    }
}

/// A breakdown column: phase percentages at one process count.
#[derive(Debug, Clone)]
pub struct BreakdownColumn {
    pub processes: usize,
    pub intensity_pct: f64,
    pub temperature_pct: f64,
    pub communication_pct: f64,
    pub total_seconds: f64,
}

impl Serialize for BreakdownColumn {
    fn to_value(&self) -> Value {
        let BreakdownColumn {
            processes,
            intensity_pct,
            temperature_pct,
            communication_pct,
            total_seconds,
        } = self;
        Value::Obj(vec![
            ("processes".into(), processes.to_value()),
            ("intensity_pct".into(), intensity_pct.to_value()),
            ("temperature_pct".into(), temperature_pct.to_value()),
            ("communication_pct".into(), communication_pct.to_value()),
            ("total_seconds".into(), total_seconds.to_value()),
        ])
    }
}

fn column(p: usize, t: PhasedTime) -> BreakdownColumn {
    let (i, tt, c) = t.percentages();
    BreakdownColumn {
        processes: p,
        intensity_pct: i,
        temperature_pct: tt,
        communication_pct: c,
        total_seconds: t.total(),
    }
}

/// Fig 3 data: communication volume per step of the two partitionings.
#[derive(Debug, Clone)]
pub struct CommVolumeRow {
    pub processes: usize,
    pub halo_bytes_per_step: u64,
    pub reduction_bytes_per_step: u64,
}

impl Serialize for CommVolumeRow {
    fn to_value(&self) -> Value {
        let CommVolumeRow {
            processes,
            halo_bytes_per_step,
            reduction_bytes_per_step,
        } = self;
        Value::Obj(vec![
            ("processes".into(), processes.to_value()),
            ("halo_bytes_per_step".into(), halo_bytes_per_step.to_value()),
            (
                "reduction_bytes_per_step".into(),
                reduction_bytes_per_step.to_value(),
            ),
        ])
    }
}

/// Fig 3: cell-partition halo volume vs band-partition reduction volume.
pub fn fig3(model: &FigureModel) -> Vec<CommVolumeRow> {
    BAND_COUNTS
        .iter()
        .skip(1) // p = 1 communicates nothing
        .map(|&p| CommVolumeRow {
            processes: p,
            halo_bytes_per_step: model.work.halo(p).total_bytes,
            reduction_bytes_per_step: model.work.reduction_bytes_per_step(p),
        })
        .collect()
}

/// The counts of `counts` a band partition of `model` can run (≤ bands).
fn band_limited<'a>(model: &FigureModel, counts: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
    let n_bands = model.work.n_bands();
    counts.iter().copied().filter(move |&p| p <= n_bands)
}

/// The curve `label` of `time` over `counts`.
fn series(
    label: &str,
    counts: impl Iterator<Item = usize>,
    time: impl Fn(usize) -> f64,
) -> ScalingSeries {
    ScalingSeries {
        label: label.into(),
        points: counts.map(|p| (p, time(p))).collect(),
    }
}

/// Fig 4: band-parallel vs cell-parallel strong scaling (+ ideal).
pub fn fig4(model: &FigureModel) -> Vec<ScalingSeries> {
    let bands = || band_limited(model, &BAND_COUNTS);
    let cpus = || CPU_COUNTS.iter().copied();
    vec![
        series("parallel bands", bands(), |p| {
            model.band_parallel(p).total()
        }),
        series("parallel cells", cpus(), |p| model.cell_parallel(p).total()),
        series("ideal scaling", cpus(), |p| model.ideal(p)),
        // Appended last so existing positional consumers (the fig4/fig9
        // binaries, fig9's inserts) keep their indices.
        series("parallel bands (divided T)", bands(), |p| {
            model.band_parallel_divided(p).total()
        }),
    ]
}

/// Fig 5: execution-time breakdown of the band-parallel strategy.
pub fn fig5(model: &FigureModel) -> Vec<BreakdownColumn> {
    let counts = band_limited(model, &FIG5_COUNTS);
    counts.map(|p| column(p, model.band_parallel(p))).collect()
}

/// Fig 5 companion: the same breakdown under
/// `TemperatureStrategy::DividedNewton` — the temperature share stays flat
/// instead of growing with the process count.
pub fn fig5_divided(model: &FigureModel) -> Vec<BreakdownColumn> {
    let counts = band_limited(model, &FIG5_COUNTS);
    counts
        .map(|p| column(p, model.band_parallel_divided(p)))
        .collect()
}

/// Fig 7: CPU-only vs CPU+GPU (band partitioning, one device per
/// process) + ideal.
pub fn fig7(model: &FigureModel) -> Vec<ScalingSeries> {
    let bands = || band_limited(model, &BAND_COUNTS);
    vec![
        series("CPU only", bands(), |p| model.band_parallel(p).total()),
        series("CPU + GPU", bands(), |p| model.gpu_hybrid(p).total()),
        series("ideal", BAND_COUNTS.iter().copied(), |p| model.ideal(p)),
    ]
}

/// Fig 8: breakdown of the GPU-accelerated version.
pub fn fig8(model: &FigureModel) -> Vec<BreakdownColumn> {
    let counts = band_limited(model, &FIG8_COUNTS);
    counts.map(|g| column(g, model.gpu_hybrid(g))).collect()
}

/// Fig 9: every strategy plus the hand-written comparator.
pub fn fig9(model: &FigureModel) -> Vec<ScalingSeries> {
    let bands = || band_limited(model, &BAND_COUNTS);
    let mut all = fig4(model);
    all.insert(2, series("GPU", bands(), |p| model.gpu_hybrid(p).total()));
    let fortran = series("Fortran (hand-written)", bands(), |p| {
        model.fortran(p).total()
    });
    all.insert(3, fortran);
    all
}

/// Render scaling series as an aligned text table (rows = process counts).
pub fn render_scaling(series: &[ScalingSeries]) -> String {
    let mut counts: Vec<usize> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|(p, _)| *p))
        .collect();
    counts.sort_unstable();
    counts.dedup();
    let mut out = String::new();
    let _ = write!(out, "{:>6}", "procs");
    for s in series {
        let _ = write!(out, "  {:>22}", s.label);
    }
    out.push('\n');
    for p in counts {
        let _ = write!(out, "{p:>6}");
        for s in series {
            match s.points.iter().find(|(q, _)| *q == p) {
                Some((_, t)) => {
                    let _ = write!(out, "  {:>20.2} s", t);
                }
                None => {
                    let _ = write!(out, "  {:>22}", "—");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Render breakdown columns the way the paper's stacked bars read.
pub fn render_breakdown(cols: &[BreakdownColumn], labels: (&str, &str, &str)) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8}  {:>24}  {:>24}  {:>24}  {:>12}",
        "procs", labels.0, labels.1, labels.2, "total"
    );
    for c in cols {
        let _ = writeln!(
            out,
            "{:>8}  {:>23.1}%  {:>23.1}%  {:>23.1}%  {:>10.2} s",
            c.processes, c.intensity_pct, c.temperature_pct, c.communication_pct, c.total_seconds
        );
    }
    out
}

/// Build the model every figure binary uses: the compiled headline plan
/// with freshly measured calibration constants. Prints the constants and
/// what they were measured on, and writes them to
/// `results/calibration.json`, so every figure's provenance is visible.
pub fn headline_model() -> FigureModel {
    let calib = Calibration::measure();
    println!("{}", calib.render());
    save("calibration", &calib);
    FigureModel::new(Workload::headline(), calib)
}

/// Write `results/<name>.json` and say where it went.
pub fn save<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    let path = dir.join(format!("{name}.json"));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let json = serde_json::to_string_pretty(value)?;
        std::fs::write(&path, json)
    });
    match written {
        Ok(()) => println!("json: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbte_bte::scenario::BteConfig;

    fn model() -> FigureModel {
        let mut cfg = BteConfig::small(24, 20, 40, 100);
        cfg.dt = Some(1e-12);
        FigureModel::new(Workload::from_config(&cfg), Calibration::nominal())
    }

    #[test]
    fn fig4_series_shapes() {
        let m = model();
        // Reduced workload has 8 bands; clamp the band axis accordingly.
        let bands: Vec<(usize, f64)> = [1usize, 2, 4, 8]
            .iter()
            .map(|&p| (p, m.band_parallel(p).total()))
            .collect();
        assert!(
            bands.windows(2).all(|w| w[1].1 < w[0].1),
            "monotone decrease"
        );
        let cells = &fig4(&m)[1];
        assert_eq!(cells.label, "parallel cells");
        assert!(cells.points.last().unwrap().1 < cells.points[0].1 / 10.0);
    }

    #[test]
    fn fig4_divided_series_is_appended_and_never_slower() {
        let m = model();
        let series = fig4(&m);
        let divided = series.last().unwrap();
        assert_eq!(divided.label, "parallel bands (divided T)");
        let redundant = &series[0];
        assert_eq!(redundant.label, "parallel bands");
        for ((p, d), (q, r)) in divided.points.iter().zip(&redundant.points) {
            assert_eq!(p, q);
            // Saved redundant Newton time dwarfs the extra allreduce at
            // every count (equal at p = 1).
            assert!(*d <= r * (1.0 + 1e-12), "p={p}: divided {d} vs {r}");
        }
    }

    #[test]
    fn fig5_divided_temperature_share_stays_flat() {
        let m = model();
        let redundant = fig5(&m);
        let divided = fig5_divided(&m);
        let last = divided.len() - 1;
        // Under redundant Newton the temperature share grows with p; the
        // divided mode keeps it near the single-rank share.
        assert!(redundant[last].temperature_pct > 2.0 * divided[last].temperature_pct);
    }

    #[test]
    fn renderers_produce_aligned_tables() {
        let m = model();
        let text = render_scaling(&fig4(&m)[1..]); // cells + ideal only
        assert!(text.contains("procs"));
        assert!(text.contains("320"));
        let cols = vec![
            super::column(1, m.cell_parallel(1)),
            super::column(4, m.cell_parallel(4)),
        ];
        let rendered = render_breakdown(&cols, ("solve", "temp", "comm"));
        assert!(rendered.contains('%'));
        assert_eq!(rendered.lines().count(), 3);
    }

    #[test]
    fn fig3_rows_have_positive_volumes() {
        let m = model();
        for row in fig3(&m) {
            assert!(row.halo_bytes_per_step > 0);
            assert!(row.reduction_bytes_per_step > 0);
        }
    }
}
