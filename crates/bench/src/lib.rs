//! The experiment registry ([`exp`]) behind the `tn-exp` binary, plus
//! what its experiments share: table rendering and tiny ASCII charts, so
//! every figure regenerates as terminal output without plotting
//! dependencies, and the scenarios that tn-audit's divergence registry
//! replays too: fault and telemetry ([`faultsim`], [`obssim`]) and the
//! examples' own ([`feedsim`], [`mcastsim`], [`metrosim`]).

pub mod exp;
pub mod faultsim;
pub mod feedsim;
pub mod mcastsim;
pub mod metrosim;
pub mod obssim;

/// Render a vertical-bar ASCII chart of a series (max `width` columns,
/// `height` rows), downsampling by taking column maxima — peaks are the
/// point of these figures, so they must survive downsampling.
pub fn ascii_chart(series: &[f64], width: usize, height: usize) -> String {
    if series.is_empty() {
        return String::new();
    }
    let cols = width.min(series.len()).max(1);
    let chunk = series.len().div_ceil(cols);
    let col_vals: Vec<f64> = series
        .chunks(chunk)
        .map(|c| c.iter().cloned().fold(f64::MIN, f64::max))
        .collect();
    let max = col_vals.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    let mut rows = Vec::with_capacity(height + 1);
    for r in (1..=height).rev() {
        let threshold = max * r as f64 / height as f64;
        let half = max * (r as f64 - 0.5) / height as f64;
        let line: String = col_vals
            .iter()
            .map(|&v| {
                if v >= threshold {
                    '█'
                } else if v >= half {
                    '▄'
                } else {
                    ' '
                }
            })
            .collect();
        rows.push(line);
    }
    rows.push("─".repeat(col_vals.len()));
    rows.join("\n")
}

/// Format a count with engineering suffixes (12.3k, 4.5M, 1.2B).
pub fn eng(v: f64) -> String {
    let (div, suffix) = if v >= 1e12 {
        (1e12, "T")
    } else if v >= 1e9 {
        (1e9, "B")
    } else if v >= 1e6 {
        (1e6, "M")
    } else if v >= 1e3 {
        (1e3, "k")
    } else {
        (1.0, "")
    };
    if suffix.is_empty() {
        format!("{v:.0}")
    } else {
        format!("{:.2}{}", v / div, suffix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_suffixes() {
        assert_eq!(eng(950.0), "950");
        assert_eq!(eng(12_300.0), "12.30k");
        assert_eq!(eng(4.5e6), "4.50M");
        assert_eq!(eng(2.0e11), "200.00B");
        assert_eq!(eng(1.5e12), "1.50T");
    }

    #[test]
    fn chart_shape() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let chart = ascii_chart(&series, 50, 8);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 9);
        // Peak column is filled in every row; early columns only in low rows.
        assert!(lines[0].trim_end().ends_with('█'));
        assert!(lines[0].starts_with(' '));
        assert!(ascii_chart(&[], 10, 4).is_empty());
    }
}
