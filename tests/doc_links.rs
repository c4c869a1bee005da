//! Keeps `ARCHITECTURE.md` and the rustdoc honest about each other.
//!
//! Rustdoc comments point readers at `ARCHITECTURE.md#<anchor>`; this test
//! parses the document's headings into their GitHub-style anchors, scans
//! every workspace source file for such references, and fails if a reference
//! points at an anchor that no longer exists (or if the document stops being
//! referenced at all — the link-rot failure mode in the other direction).
//! It also checks the names the document uses: every backticked path that
//! starts with a workspace crate must name `pub` items of that crate, and
//! every backticked `….rs` file must exist.

use std::collections::{BTreeMap, BTreeSet};
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
    // harness — its crate, its result files, its smoke knob (`SP` +
    // `BENCH_…`) —, at the retired environment knobs (the library crates
    // are configured by argument only) or at SP-hybrid's retired second tree
    // driver (`HybridBackend` is the one; these spellings miss
    // `LiveSpHybrid`), or at the serial walk's retired Hebrew-list
    // maintainer and the tag that carried its handles.
    let mut files = Vec::new();
    sources(&root, &["rs", "md", "yml"], &mut files);
    for file in files {
        let rel = file.strip_prefix(&root).unwrap_or(&file);
        let history = ["CHANGES.md", "ROADMAP.md", "ISSUE.md", "tests/doc_links.rs"];
        if history.iter().any(|h| rel == Path::new(h)) {
            continue;
        }
        let text = fs::read_to_string(&file).expect("source file is readable");
        let stale_names = [
            "crates/spbench",
            "BENCH_",
            "EnvKnob",
            "SP_OM_CHUNK",
            "SP_TRACE_BUF",
            "SP_SERVICE_WORKERS",
            "run_hybrid",
            "`SpHybrid",
            "::SpHybrid",
            "SerialSpOrder",
            "to_tag",
            "root_tag",
        ];
        for stale in stale_names {
            assert!(!text.contains(stale), "{} still names `{stale}…`", rel.display());
        }
    }
}

/// The names declared `pub` in the `.rs` files under `src`: items (`pub fn`,
/// `pub struct`, `pub mod`, …), fields (`pub name: …`) and whatever a
/// `pub use` re-exports (the last path segment, or its `as` alias).
fn pub_names(src: &Path) -> BTreeSet<String> {
    const KEYWORDS: [&str; 13] = [
        "fn", "struct", "enum", "trait", "type", "mod", "const", "static", "union", "unsafe",
        "async", "extern", "\"C\"",
    ];
    let ident = |word: &str| -> String {
        word.chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect()
    };
    let mut files = Vec::new();
    sources(src, &["rs"], &mut files);
    let mut names = BTreeSet::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("source file is readable");
        for (i, _) in text.match_indices("pub ") {
            let preceded = text[..i].chars().next_back();
            if preceded.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let rest = &text[i + 4..];
            if let Some(used) = rest.strip_prefix("use ") {
                let used = used.split(';').next().unwrap_or_default();
                for item in used.split([',', '{', '}']) {
                    let name = item.split(" as ").last().unwrap_or_default();
                    let name = ident(name.rsplit("::").next().unwrap_or_default().trim());
                    names.insert(name);
                }
            } else if let Some(word) = rest.split_whitespace().find(|w| !KEYWORDS.contains(w)) {
                names.insert(ident(word));
            }
        }
    }
    names.remove("");
    names
}

/// Every backticked crate path (`` `spmaint::api::SpBackend` ``) in
/// `markdown` whose segments are not all `pub` names of that crate, and every
/// backticked `….rs` file that does not exist under `root` or `root/crates`.
fn stale_names(
    markdown: &str,
    crates: &BTreeMap<String, BTreeSet<String>>,
    root: &Path,
) -> Vec<String> {
    let mut stale = Vec::new();
    let mut in_code_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_code_fence = !in_code_fence;
            continue;
        }
        if in_code_fence {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            if span.ends_with(".rs") && span.contains('/') {
                if !root.join(span).is_file() && !root.join("crates").join(span).is_file() {
                    stale.push(span.to_string());
                }
                continue;
            }
            let path: String = span
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
                .collect();
            let mut segments = path.split("::").filter(|s| !s.is_empty());
            let Some(names) = segments.next().and_then(|krate| crates.get(krate)) else {
                continue;
            };
            if path.contains("::") && !segments.all(|s| names.contains(s)) {
                stale.push(path);
            }
        }
    }
    stale
}

/// The `pub` names of every workspace crate, by crate name.
fn workspace_pub_names(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let crates = fs::read_dir(root.join("crates")).expect("crates/ is readable");
    crates
        .flatten()
        .map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, pub_names(&entry.path().join("src")))
        })
        .collect()
}

#[test]
fn architecture_names_resolve_to_pub_items_and_files() {
    let root = repo_root();
    let markdown = fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap();
    let crates = workspace_pub_names(&root);
    assert!(crates
        .get("spmaint")
        .is_some_and(|n| n.contains("SpBackend")));
    let stale = stale_names(&markdown, &crates, &root);
    assert!(
        stale.is_empty(),
        "ARCHITECTURE.md names what the workspace does not declare `pub`:\n  {}",
        stale.join("\n  ")
    );
}

#[test]
fn the_name_check_rejects_a_stale_name() {
    let root = repo_root();
    let crates = workspace_pub_names(&root);
    let doc = "Driven through `spmaint::api::SpBackend` and `spmaint::api::OnTheFlySp`, \
               checked by `tests/paper_example.rs` and `tests/no_such_test.rs`.";
    assert_eq!(
        stale_names(doc, &crates, &root),
        ["spmaint::api::OnTheFlySp", "tests/no_such_test.rs"]
    );
}
