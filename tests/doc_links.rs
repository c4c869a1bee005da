//! Keeps `ARCHITECTURE.md` and the rustdoc honest about each other.
//!
//! Rustdoc comments point readers at `ARCHITECTURE.md#<anchor>`; this test
//! parses the document's headings into their GitHub-style anchors, scans
//! every workspace source file for such references, and fails if a reference
//! points at an anchor that no longer exists (or if the document stops being
//! referenced at all — the link-rot failure mode in the other direction).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// GitHub's anchor slug for a markdown heading: lowercase, punctuation
/// stripped, spaces turned into hyphens (consecutive spaces collapse into
/// consecutive hyphens only when literal, which headings here never produce).
fn heading_anchor(heading: &str) -> String {
    let mut anchor = String::new();
    for c in heading.trim().chars() {
        if c.is_alphanumeric() {
            anchor.extend(c.to_lowercase());
        } else if c == ' ' || c == '-' {
            anchor.push('-');
        } // everything else (parentheses, commas, backticks, …) is dropped
    }
    anchor
}

/// All heading anchors of a markdown document, in document order.
fn document_anchors(markdown: &str) -> BTreeSet<String> {
    let mut in_code_fence = false;
    let mut anchors = BTreeSet::new();
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_code_fence = !in_code_fence;
            continue;
        }
        if in_code_fence {
            continue;
        }
        let trimmed = line.trim_start();
        let level = trimmed.chars().take_while(|&c| c == '#').count();
        if level >= 1 && trimmed.chars().nth(level) == Some(' ') {
            anchors.insert(heading_anchor(&trimmed[level + 1..]));
        }
    }
    anchors
}

/// Every `ARCHITECTURE.md#<anchor>` occurrence in `text`, with the file and
/// line it came from for the failure message.
fn references_in(text: &str, file: &Path, out: &mut Vec<(String, String)>) {
    const NEEDLE: &str = "ARCHITECTURE.md#";
    for (lineno, line) in text.lines().enumerate() {
        let mut rest = line;
        let mut col = 0;
        while let Some(pos) = rest.find(NEEDLE) {
            let after = &rest[pos + NEEDLE.len()..];
            let anchor: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            out.push((
                anchor,
                format!("{}:{}", file.display(), lineno + 1),
            ));
            col += pos + NEEDLE.len();
            rest = &line[col..];
        }
    }
}

/// Recursively collect the files under `dir` with one of the extensions
/// `exts` (skipping build output, `.git`, and `benchmark/`, whose binary
/// shares a name with the harness this repository retired).
fn sources(dir: &Path, exts: &[&str], out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let skip = ["target", ".git", ".bench_build", "benchmark"];
            if !path.file_name().is_some_and(|n| skip.iter().any(|s| n == *s)) {
                sources(&path, exts, out);
            }
        } else if path.extension().is_some_and(|e| exts.iter().any(|x| e == *x)) {
            out.push(path);
        }
    }
}

#[test]
fn architecture_anchors_referenced_from_rustdoc_exist() {
    let root = repo_root();
    let markdown = fs::read_to_string(root.join("ARCHITECTURE.md"))
        .expect("ARCHITECTURE.md exists at the repository root");
    let anchors = document_anchors(&markdown);
    assert!(
        !anchors.is_empty(),
        "ARCHITECTURE.md has no headings — parsing is broken"
    );

    let mut files = Vec::new();
    for top in ["src", "crates", "shims", "tests", "examples"] {
        sources(&root.join(top), &["rs"], &mut files);
    }
    assert!(!files.is_empty(), "no rust sources found under {root:?}");

    let mut references = Vec::new();
    for file in &files {
        // This file mentions the needle in its own strings; skip it.
        if file.file_name().is_some_and(|n| n == "doc_links.rs") {
            continue;
        }
        let text = fs::read_to_string(file).expect("source file is readable");
        let rel = file.strip_prefix(&root).unwrap_or(file);
        references_in(&text, rel, &mut references);
    }
    assert!(
        !references.is_empty(),
        "no rustdoc comment references ARCHITECTURE.md anymore — \
         re-link it or retire this check"
    );

    let broken: Vec<_> = references
        .iter()
        .filter(|(anchor, _)| !anchors.contains(anchor))
        .collect();
    assert!(
        broken.is_empty(),
        "rustdoc references point at missing ARCHITECTURE.md anchors:\n{}\navailable anchors:\n  {}",
        broken
            .iter()
            .map(|(anchor, at)| format!("  #{anchor} (referenced from {at})"))
            .collect::<Vec<_>>()
            .join("\n"),
        anchors.iter().cloned().collect::<Vec<_>>().join("\n  ")
    );
}

#[test]
fn architecture_mentions_every_bench_target() {
    // "Benchmarks and experiments" must name every workload of the one
    // harness and both table-printing examples, so none lands undocumented.
    let root = repo_root();
    let markdown = fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap();
    let section = markdown
        .split("\n## ")
        .find(|s| s.starts_with("Benchmarks and experiments"))
        .expect("ARCHITECTURE.md has a Benchmarks and experiments section");
    let spec = fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let workloads = spec
        .split("\"workloads\"")
        .nth(1)
        .and_then(|s| s.split("\"end_to_end\"").next())
        .expect("BENCHMARK.json lists workloads before end_to_end");
    let names: Vec<&str> = workloads
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    assert!(!names.is_empty(), "no workload names parsed from BENCHMARK.json");
    for name in names.into_iter().chain(["algorithm_comparison", "parallel_scaling"]) {
        assert!(
            section.contains(&format!("`{name}`")),
            "`{name}` is missing from ARCHITECTURE.md § Benchmarks and experiments"
        );
    }

    // Nothing outside the history files may still point at the retired
    // harness: its crate, its result files, its smoke knob (`SP` + `BENCH_…`).
    let mut files = Vec::new();
    sources(&root, &["rs", "md", "yml"], &mut files);
    for file in files {
        let rel = file.strip_prefix(&root).unwrap_or(&file);
        let history = ["CHANGES.md", "ROADMAP.md", "ISSUE.md", "tests/doc_links.rs"];
        if history.iter().any(|h| rel == Path::new(h)) {
            continue;
        }
        let text = fs::read_to_string(&file).expect("source file is readable");
        for stale in ["crates/spbench", "BENCH_"] {
            assert!(!text.contains(stale), "{} still names `{stale}…`", rel.display());
        }
    }
}
