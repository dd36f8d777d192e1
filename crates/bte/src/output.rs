//! Field extraction and rendering (the data behind Figs 2 and 10).

use pbte_dsl::Fields;

/// Extract the temperature field as a row-major `ny × nx` grid (row 0 at
/// the bottom of the domain, matching the structured cell ordering).
pub fn temperature_grid(fields: &Fields, t_var: usize, nx: usize, ny: usize) -> Vec<f64> {
    assert_eq!(fields.n_cells, nx * ny, "grid shape mismatch");
    (0..nx * ny).map(|c| fields.value(t_var, c, 0)).collect()
}

/// Serialize a grid field to CSV (one row per y line, bottom first).
pub fn grid_to_csv(grid: &[f64], nx: usize) -> String {
    use std::fmt::Write as _;
    // One buffer for the whole grid: "300.000000," is 11 bytes a value.
    let mut out = String::with_capacity(grid.len() * 11);
    for row in grid.chunks(nx) {
        for (i, v) in row.iter().enumerate() {
            let separator = if i == 0 { "" } else { "," };
            let _ = write!(out, "{separator}{v:.6}");
        }
        out.push('\n');
    }
    out
}

/// ASCII heat map (top row printed first, like the paper's figures).
/// Intensity ramp maps `[min, max]` onto ` .:-=+*#%@`.
pub fn render_ascii(grid: &[f64], nx: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let lo = grid.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = grid.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-300);
    let mut out = String::new();
    for row in grid.chunks(nx).rev() {
        for &v in row {
            let t = ((v - lo) / span * (RAMP.len() - 1) as f64).round() as usize;
            out.push(RAMP[t.min(RAMP.len() - 1)] as char);
        }
        out.push('\n');
    }
    out.push_str(&format!("min = {lo:.3} K, max = {hi:.3} K\n"));
    out
}

/// Mean, min, max of a field — quick summaries for logs and tests.
pub fn summary(grid: &[f64]) -> (f64, f64, f64) {
    let lo = grid.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = grid.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean = grid.iter().sum::<f64>() / grid.len() as f64;
    (mean, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_has_one_row_per_line() {
        let grid = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let csv = grid_to_csv(&grid, 3);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("1.000000,2.000000,3.000000"));
    }

    /// The single-buffer writer produces the bytes of the formatting it
    /// replaced — a `String` per value, joined per row — on the
    /// benchmark's 64 × 64 die (temperatures around 300 K, a NaN, an
    /// infinity and a negative zero among them) and on ragged and empty
    /// grids.
    #[test]
    fn csv_bytes_are_those_of_the_joined_strings() {
        let joined = |grid: &[f64], nx: usize| -> String {
            let mut out = String::new();
            for row in grid.chunks(nx) {
                let line: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
                out.push_str(&line.join(","));
                out.push('\n');
            }
            out
        };
        let mut die: Vec<f64> = (0..64 * 64)
            .map(|c| 300.0 + 40.0 * ((c % 64) as f64 * 0.37).sin() * (c / 64) as f64 / 63.0)
            .collect();
        die[17] = f64::NAN;
        die[18] = f64::INFINITY;
        die[19] = -0.0;
        die[20] = -1.234_567_89e-7;
        assert_eq!(grid_to_csv(&die, 64), joined(&die, 64));
        assert_eq!(grid_to_csv(&die[..10], 4), joined(&die[..10], 4));
        assert_eq!(grid_to_csv(&[], 4), "");
    }

    #[test]
    fn ascii_renders_extremes() {
        let grid = vec![0.0, 0.0, 0.0, 10.0];
        let art = render_ascii(&grid, 2);
        assert!(art.contains('@'));
        assert!(art.contains(' '));
        assert!(art.contains("max = 10.000"));
        // Top row (cells 2,3) printed first.
        let first_line = art.lines().next().unwrap();
        assert_eq!(first_line, " @");
    }

    #[test]
    fn summary_statistics() {
        let (mean, lo, hi) = summary(&[1.0, 2.0, 3.0]);
        assert_eq!(mean, 2.0);
        assert_eq!(lo, 1.0);
        assert_eq!(hi, 3.0);
    }
}
