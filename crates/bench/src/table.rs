//! Plain-text table rendering for the experiment reports.

/// Render rows as a fixed-width table with a header and a rule.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format seconds with 2 decimals.
pub fn secs(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a ratio with 2 decimals and an `x` suffix.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let t = render(
            &["n", "time"],
            &[
                vec!["1000".into(), "1.25".into()],
                vec!["20".into(), "333.00".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('n') && lines[0].contains("time"));
        assert!(lines[2].ends_with("1.25"));
        assert!(lines[3].ends_with("333.00"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        render(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(ratio(7.891), "7.89x");
    }
}
