//! The lint driver behind `apples-cli lint`: flag parsing, workspace
//! scan, rendering, exit code.

use std::path::Path;

use crate::{Lint, Report};

/// Output format for [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Text,
    Json,
    Github,
}

pub const USAGE: &str =
    "usage: apples-cli lint [--format text|json|github] [--deny <lint>] [PATH ...]";

/// Parse args and run the lint driver. Returns the process exit code:
/// 0 when clean (every finding allowed and no denied lints hit), 1 when
/// any unallowed finding remains or a `--deny`-ed lint fired (allowed
/// or not), 2 on usage or I/O errors. Output goes to stdout, errors to
/// stderr.
pub fn run<I: Iterator<Item = String>>(mut args: I) -> u8 {
    let mut format = Format::Text;
    let mut deny: Vec<Lint> = Vec::new();
    let mut roots: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    eprintln!(
                        "simlint: --format expects `text`, `json` or `github`, got {:?}",
                        other.unwrap_or("<missing>")
                    );
                    return 2;
                }
            },
            "--deny" => match args.next().as_deref().and_then(Lint::from_name) {
                Some(lint) => deny.push(lint),
                None => {
                    eprintln!("simlint: --deny expects a known lint name");
                    return 2;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                println!();
                println!("Lints (see DESIGN.md for the policy table):");
                for lint in crate::ALL_LINTS {
                    println!("  {:<20} {}", lint.name(), lint.hint());
                }
                println!(
                    "  {:<20} {}",
                    Lint::MalformedAllow.name(),
                    Lint::MalformedAllow.hint()
                );
                println!(
                    "  {:<20} {}",
                    Lint::StaleAllow.name(),
                    Lint::StaleAllow.hint()
                );
                println!();
                println!("--deny <lint>: exit 1 if <lint> fired at all, even allowed.");
                return 0;
            }
            flag if flag.starts_with('-') => {
                eprintln!("simlint: unknown flag {flag}");
                eprintln!("{USAGE}");
                return 2;
            }
            path => roots.push(path.to_owned()),
        }
    }
    if roots.is_empty() {
        roots.push(".".to_owned());
    }

    let mut report = Report::default();
    for root in &roots {
        match crate::lint_workspace(Path::new(root)) {
            Ok(r) => {
                report.findings.extend(r.findings);
                report.files_scanned += r.files_scanned;
            }
            Err(e) => {
                eprintln!("simlint: failed to scan {root}: {e}");
                return 2;
            }
        }
    }

    match format {
        Format::Text => print!("{}", report.render_text()),
        Format::Json => print!("{}", report.render_json()),
        Format::Github => print!("{}", report.render_github()),
    }

    let denied = report
        .findings
        .iter()
        .filter(|f| deny.contains(&f.lint))
        .count();
    if denied > 0 {
        eprintln!("simlint: {denied} finding(s) of denied lint(s)");
    }
    if report.unallowed_count() > 0 || denied > 0 {
        1
    } else {
        0
    }
}
