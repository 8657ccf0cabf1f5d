//! Checks that every relative markdown link in the repository's
//! documentation (`README.md`, `docs/*.md`, `ROADMAP.md`) points at a
//! file that exists, and that every markdown file a Rust source under
//! `crates/`, `src/`, `tests/` or `examples/` names exists at the
//! repository root, so the docs layer can't rot silently as the tree
//! moves.

use std::path::{Path, PathBuf};

/// Extracts `](target)` link targets from markdown source, skipping
/// fenced code blocks.
fn link_targets(md: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(i) = rest.find("](") {
            rest = &rest[i + 2..];
            let Some(end) = rest.find(')') else { break };
            out.push(rest[..end].to_string());
            rest = &rest[end..];
        }
    }
    out
}

fn is_external(target: &str) -> bool {
    target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
}

#[test]
fn relative_doc_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = vec![root.join("README.md"), root.join("ROADMAP.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    assert!(files.len() >= 6, "expected README, ROADMAP and docs/*.md");

    let mut broken = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let md = std::fs::read_to_string(file).expect("read markdown");
        let dir = file.parent().expect("file dir");
        for target in link_targets(&md) {
            if is_external(&target) || target.is_empty() {
                continue;
            }
            let path_part = target.split('#').next().unwrap_or("");
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            if !dir.join(path_part).exists() {
                broken.push(format!("{}: {target}", file.display()));
            }
        }
    }
    assert!(checked > 0, "no relative links found — extractor broken?");
    assert!(
        broken.is_empty(),
        "broken doc links:\n{}",
        broken.join("\n")
    );
}

/// Every `.md` path named in `src`: a run of path characters ending in
/// `.md`, with a sentence's closing dot dropped.
fn md_mentions(src: &str) -> impl Iterator<Item = &str> {
    src.split(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/')))
        .map(|w| w.trim_end_matches('.'))
        .filter(|w| w.len() > 3 && w.ends_with(".md"))
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn md_files_named_in_sources_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    let mut missing = Vec::new();
    let mut checked = 0usize;
    for file in &sources {
        let src = std::fs::read_to_string(file).expect("read source");
        for name in md_mentions(&src) {
            checked += 1;
            if !root.join(name).exists() {
                missing.push(format!("{}: {name}", file.display()));
            }
        }
    }
    assert!(checked > 0, "no .md mentions found — extractor broken?");
    assert!(
        missing.is_empty(),
        "sources name markdown files that do not exist:\n{}",
        missing.join("\n")
    );
}
