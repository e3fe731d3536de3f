//! The workspace must stay lint-clean: `simlint` run in-process over
//! the whole tree reports zero unallowed findings. Reverting any of
//! the burned-down fixes (a `partial_cmp(..).unwrap()` comparator, an
//! `unwrap()` in simulation library code, a wall-clock read) makes
//! this test fail, which is what keeps the deterministic-replay and
//! NaN-safety guarantees from silently rotting.

use std::path::Path;

#[test]
fn workspace_has_no_unallowed_simlint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = simlint::lint_workspace(root).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); did the walker break?",
        report.files_scanned
    );
    let unallowed: Vec<_> = report.unallowed().collect();
    assert!(
        unallowed.is_empty(),
        "unallowed simlint findings:\n{}",
        unallowed
            .iter()
            .map(|f| format!(
                "  {}:{}:{} {} — {}",
                f.file,
                f.line,
                f.col,
                f.lint.name(),
                f.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Two scans of the same tree must render byte-identical reports:
/// findings sort by (path, line, col, lint, message), so the JSON
/// artifact CI uploads diffs cleanly between runs.
#[test]
fn workspace_report_is_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let a = simlint::lint_workspace(root).expect("workspace scan");
    let b = simlint::lint_workspace(root).expect("workspace scan");
    assert_eq!(a.render_json(), b.render_json());
    let keys: Vec<_> = a
        .findings
        .iter()
        .map(|f| {
            (
                f.file.clone(),
                f.line,
                f.col,
                f.lint.name(),
                f.message.clone(),
            )
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must come out sorted");
}

/// The sim crates run the full policy, including the cross-file
/// passes; if someone trims the policy table this fails before the
/// lint coverage silently shrinks.
#[test]
fn sim_crates_enable_the_cross_file_passes() {
    for rel in [
        "crates/metasim/src/lib.rs",
        "crates/simcore/src/lib.rs",
        "crates/grid/src/lib.rs",
        // The regime layer is new in PR 9; it must inherit the full
        // grid-crate policy, not slip through as an unlisted module.
        "crates/grid/src/sched.rs",
        "crates/grid/src/service.rs",
        // The shared job lifecycle every regime runs through.
        "crates/grid/src/lifecycle.rs",
        // The span-tree and time-series layers are new in PR 10; both
        // fold the deterministic trace, so the full policy applies.
        "crates/obsv/src/span.rs",
        "crates/obsv/src/timeseries.rs",
    ] {
        let enabled = simlint::lints_for_path(Path::new(rel));
        for lint in [
            simlint::Lint::PanicReachability,
            simlint::Lint::RngDiscipline,
            simlint::Lint::SimTimeHygiene,
        ] {
            assert!(
                enabled.contains(&lint),
                "{rel} should enable {}",
                lint.name()
            );
        }
    }
}

#[test]
fn every_allow_directive_carries_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = simlint::lint_workspace(root).expect("workspace scan");
    for f in &report.findings {
        if f.allowed {
            let reason = f.allow_reason.as_deref().unwrap_or("");
            assert!(
                !reason.trim().is_empty(),
                "{}:{} allow for {} has no reason",
                f.file,
                f.line,
                f.lint.name()
            );
        }
    }
}
