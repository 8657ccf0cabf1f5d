//! Checks that every relative markdown link in the repository's
//! documentation (`README.md`, `docs/*.md`, `ROADMAP.md`) points at a
//! file that exists, and that every markdown file a Rust source under
//! `crates/`, `src/`, `tests/` or `examples/` names exists at the
//! repository root, and that every backticked repo path in `README.md` and
//! `docs/*.md` exists — with every `file.rs::name` cite naming a function
//! in that file — so the docs layer can't rot silently as the tree moves.

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

/// Top-level directories a documented repo path starts with.
const REPO_DIRS: [&str; 7] = [
    "crates/",
    "src/",
    "tests/",
    "examples/",
    "docs/",
    "benchmark/",
    "vendor/",
];

/// Inline code spans of markdown source, paired within each paragraph (a
/// span may wrap a line), skipping fenced code blocks.
fn code_spans(md: &str) -> Vec<String> {
    let mut paragraphs = vec![String::new()];
    let mut in_fence = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        if line.trim().is_empty() {
            paragraphs.push(String::new());
        } else {
            let p = paragraphs.last_mut().expect("one paragraph at least");
            p.push_str(line);
            p.push(' ');
        }
    }
    let mut out = Vec::new();
    for p in &paragraphs {
        let mut parts = p.split('`').skip(1);
        while let Some(code) = parts.next() {
            if parts.next().is_none() {
                break; // unterminated
            }
            out.push(code.to_string());
        }
    }
    out
}

/// Shell-style brace expansion: `a/{b,c}.rs` is `a/b.rs` and `a/c.rs`.
fn expand(s: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (s.find('{'), s.find('}')) else {
        return vec![s.to_string()];
    };
    s[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{}{}{}", &s[..open], alt.trim(), &s[close + 1..])))
        .collect()
}

/// Whether `src` defines a function called `name`.
fn defines_fn(src: &str, name: &str) -> bool {
    let needle = format!("fn {name}");
    src.match_indices(&needle).any(|(i, _)| {
        !src[i + needle.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
    })
}

#[test]
fn backticked_repo_paths_exist() {
    // ROADMAP and CHANGES narrate paths that later changes deleted, so only
    // the documents that describe the tree as it is are held to it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    let (mut paths, mut cites) = (0usize, 0usize);
    let mut broken = Vec::new();
    for file in &files {
        let md = std::fs::read_to_string(file).expect("read markdown");
        for span in code_spans(&md) {
            // Globs and elisions name no single file.
            if !REPO_DIRS.iter().any(|d| span.starts_with(d)) || span.contains(['*', '…']) {
                continue;
            }
            let (path, names) = span.split_once("::").unwrap_or((&span, ""));
            // `file.rs:120` and `file.rs:598–1100` cite lines of a file.
            let path = path.split(':').next().unwrap_or(path);
            for path in expand(path) {
                paths += 1;
                let Ok(src) = std::fs::read_to_string(root.join(&path)) else {
                    if !root.join(&path).is_dir() {
                        broken.push(format!("{}: `{span}`: no {path}", file.display()));
                    }
                    continue;
                };
                for name in expand(names).iter().filter(|n| !n.is_empty()) {
                    cites += 1;
                    let name = name.rsplit("::").next().unwrap_or(name);
                    if !defines_fn(&src, name) {
                        broken.push(format!(
                            "{}: `{span}`: no fn {name} in {path}",
                            file.display()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        paths > 100 && cites > 30,
        "{paths} paths and {cites} test cites found — extractor broken?"
    );
    assert!(
        broken.is_empty(),
        "docs cite paths that do not exist:\n{}",
        broken.join("\n")
    );
}
