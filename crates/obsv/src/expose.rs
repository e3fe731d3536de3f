//! Snapshot handling for Prometheus text expositions: parse a snapshot
//! back into series, and diff two snapshots for regression gating.
//!
//! The writer side is [`crate::Registry::expose`]; because expositions
//! are byte-deterministic, CI can run a seeded scenario twice and
//! require an empty diff — and a *non*-empty diff against a committed
//! baseline is a reviewable description of what a change did to the
//! system's behavior.

use std::collections::BTreeMap;

/// A parsed exposition: series name (with canonical labels) → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Series in the order-independent canonical map form.
    pub series: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Parse Prometheus text format. `# HELP`/`# TYPE` and blank lines
    /// are skipped; a malformed line is skipped rather than fatal
    /// (snapshots may be hand-edited baselines).
    pub fn parse(text: &str) -> Snapshot {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value is the last whitespace-separated token; the
            // series name (labels may contain spaces inside quotes)
            // is everything before it.
            let Some(split) = line.rfind(|c: char| c.is_ascii_whitespace()) else {
                continue;
            };
            let (name, value) = line.split_at(split);
            let name = name.trim_end();
            let value = value.trim_start();
            let parsed = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                "NaN" => f64::NAN,
                v => match v.parse() {
                    Ok(p) => p,
                    Err(_) => continue,
                },
            };
            if !name.is_empty() {
                series.insert(name.to_string(), parsed);
            }
        }
        Snapshot { series }
    }
}

/// One differing series between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesDelta {
    /// Series name with labels.
    pub series: String,
    /// Value in the left snapshot (`None` if absent).
    pub left: Option<f64>,
    /// Value in the right snapshot (`None` if absent).
    pub right: Option<f64>,
}

impl SeriesDelta {
    /// `name left -> right` with `-` for an absent side.
    pub fn render(&self) -> String {
        let side = |v: Option<f64>| match v {
            Some(v) => format!("{v}"),
            None => "-".to_string(),
        };
        format!(
            "{} {} -> {}",
            self.series,
            side(self.left),
            side(self.right)
        )
    }
}

/// Compare two expositions series-by-series. Returns the differing
/// series in name order; empty means the snapshots agree. Comparison
/// uses total ordering, so `NaN == NaN` (a reproducible NaN is not a
/// regression).
pub fn snapshot_diff(left: &str, right: &str) -> Vec<SeriesDelta> {
    let l = Snapshot::parse(left);
    let r = Snapshot::parse(right);
    let mut out = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        l.series.keys().chain(r.series.keys()).collect();
    for name in names {
        let lv = l.series.get(name).copied();
        let rv = r.series.get(name).copied();
        let same = match (lv, rv) {
            (Some(a), Some(b)) => a.total_cmp(&b).is_eq(),
            (None, None) => true,
            _ => false,
        };
        if !same {
            out.push(SeriesDelta {
                series: name.clone(),
                left: lv,
                right: rv,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::Tally;
    use crate::registry::Registry;
    use metasim::simtrace::TraceKind;

    #[test]
    fn parse_roundtrips_exposition() {
        let mut tally = Tally::default();
        tally.kinds[TraceKind::Actuated as usize] = 2;
        tally.selection_candidates.observe(0.5);
        let r = Registry { tally };
        let snap = Snapshot::parse(&r.expose());
        let get = |series: &str| snap.series.get(series).copied();
        assert_eq!(get("apples_events_total{kind=\"actuated\"}"), Some(2.0));
        assert_eq!(
            get("apples_selection_candidates_bucket{le=\"1\"}"),
            Some(1.0)
        );
        assert_eq!(get("apples_selection_candidates_count"), Some(1.0));
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let text = "# TYPE x counter\nx 1\ny{l=\"a b\"} 2.5\n";
        assert!(snapshot_diff(text, text).is_empty());
    }

    #[test]
    fn differing_and_missing_series_are_reported() {
        let a = "x 1\ny 2\n";
        let b = "x 3\nz 4\n";
        let d = snapshot_diff(a, b);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].series, "x");
        assert_eq!(d[0].render(), "x 1 -> 3");
        assert_eq!(d[1].render(), "y 2 -> -");
        assert_eq!(d[2].render(), "z - -> 4");
    }

    #[test]
    fn nan_equals_nan() {
        let a = "x NaN\n";
        assert!(snapshot_diff(a, a).is_empty());
    }
}
