//! EXPERIMENTS.md is checked against the code. Every entry of the
//! `apples-cli reproduce` registry has exactly one fenced block in it,
//! between `<!-- reproduce ID -->` and `<!-- /reproduce -->`, and the
//! block holds the entry's output byte for byte. Regenerate a block
//! with `apples-cli reproduce ID`.

use apples_bench::reproduce::REGISTRY;

const DOC: &str = include_str!("../EXPERIMENTS.md");

/// Every marked block of `doc`, as `(id, text inside the fence)`.
fn marked_blocks(doc: &str) -> Result<Vec<(&str, String)>, String> {
    let mut blocks = Vec::new();
    let mut lines = doc.lines().enumerate();
    while let Some((at, line)) = lines.next() {
        let Some(id) = line
            .strip_prefix("<!-- reproduce ")
            .and_then(|rest| rest.strip_suffix(" -->"))
        else {
            continue;
        };
        let at = at + 1;
        if !lines.next().is_some_and(|(_, l)| l.starts_with("```")) {
            return Err(format!(
                "line {at}: {id}'s marker is not followed by a fence"
            ));
        }
        let mut text = String::new();
        loop {
            match lines.next() {
                Some((_, "```")) => break,
                Some((_, l)) => {
                    text.push_str(l);
                    text.push('\n');
                }
                None => return Err(format!("line {at}: {id}'s fence is never closed")),
            }
        }
        if lines.next().map(|(_, l)| l) != Some("<!-- /reproduce -->") {
            return Err(format!(
                "line {at}: {id}'s fence is not followed by <!-- /reproduce -->"
            ));
        }
        blocks.push((id, text));
    }
    Ok(blocks)
}

/// Where `doc` and `code` first differ, by line, or `None` when equal.
fn first_difference(doc: &str, code: &str) -> Option<String> {
    if doc == code {
        return None;
    }
    let (mut d, mut c) = (doc.lines(), code.lines());
    for n in 1.. {
        match (d.next(), c.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (None, None) => return Some("the lines agree but their endings differ".into()),
            (a, b) => {
                return Some(format!(
                    "line {n} of the block differs:\n  doc:  {a:?}\n  code: {b:?}"
                ))
            }
        }
    }
    unreachable!()
}

#[test]
fn every_registry_report_matches_its_block_in_experiments_md() {
    let blocks = marked_blocks(DOC).unwrap_or_else(|e| panic!("EXPERIMENTS.md: {e}"));
    let mut problems = Vec::new();
    for (id, _) in &blocks {
        if !REGISTRY.iter().any(|(known, _)| known == id) {
            problems.push(format!("{id}: marked block for an ID not in the registry"));
        }
    }
    for (id, run) in REGISTRY {
        let mine: Vec<&String> = blocks
            .iter()
            .filter(|(b, _)| *b == id)
            .map(|(_, text)| text)
            .collect();
        let [doc] = mine[..] else {
            problems.push(format!(
                "{id}: {} marked blocks, want exactly one",
                mine.len()
            ));
            continue;
        };
        let code = run().unwrap_or_else(|text| text);
        if let Some(diff) = first_difference(doc, &code) {
            problems.push(format!(
                "{id}: EXPERIMENTS.md differs from `apples-cli reproduce {id}`; {diff}"
            ));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn the_block_parser_reads_text_verbatim_and_rejects_broken_markers() {
    let doc = "prose\n<!-- reproduce X -->\n```text\na\n\n  b\n```\n<!-- /reproduce -->\n";
    assert_eq!(
        marked_blocks(doc),
        Ok(vec![("X", "a\n\n  b\n".to_string())])
    );
    for broken in [
        "<!-- reproduce X -->\nno fence\n",
        "<!-- reproduce X -->\n```text\nnever closed\n",
        "<!-- reproduce X -->\n```text\na\n```\nno end marker\n",
    ] {
        assert!(marked_blocks(broken).is_err(), "{broken:?}");
    }
    assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
    let diff = first_difference("a\nb\n", "a\nc\n").unwrap();
    assert!(diff.starts_with("line 2 "), "{diff}");
    assert!(first_difference("a\n", "a\nextra\n").is_some());
}
