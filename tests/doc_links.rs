//! Checks that every relative markdown link in the repository's
//! documentation (`README.md`, `docs/*.md`, `ROADMAP.md`) points at a
//! file that exists, so the docs layer can't rot silently as the tree
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
