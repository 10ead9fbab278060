//! The docs name only code that exists: every backticked `leo_*::…` path
//! in README.md, EXPERIMENTS.md and DESIGN.md ends in a name that its
//! crate's non-test source defines. `{a,b}` groups expand, so
//! `leo_x::{nearest,farthest}_visible` names `nearest_visible` and
//! `farthest_visible`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "EXPERIMENTS.md", "DESIGN.md"];

/// The text of every inline code span, fenced blocks skipped. A span may
/// wrap onto the next line.
fn code_spans(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// Every `leo_*` path in a code span, with `{a,b}` groups expanded and
/// anything after the path (call parentheses, arguments) dropped.
fn leo_paths(span: &str) -> Vec<String> {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_:{},".contains(c);
    let mut paths = Vec::new();
    let mut rest = span;
    while let Some(at) = rest.find("leo_") {
        let starts_word = rest[..at]
            .chars()
            .next_back()
            .map_or(true, |c| !c.is_ascii_alphanumeric() && c != '_');
        let tail = &rest[at..];
        let end = tail.find(|c| !is_path_char(c)).unwrap_or(tail.len());
        if starts_word {
            paths.extend(expand(&tail[..end]));
        }
        rest = &tail[end.max(1)..];
    }
    paths
}

/// `a{b,c}d` → `abd`, `acd`, one group at a time.
fn expand(path: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (path.find('{'), path.find('}')) else {
        return vec![path.to_string()];
    };
    let (head, tail) = (&path[..open], &path[close + 1..]);
    path[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{head}{}{tail}", alt.trim())))
        .collect()
}

/// The crate's non-test source: every `.rs` file under `src/`, each cut
/// at its first column-0 `#[cfg(test)]`.
fn non_test_source(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            non_test_source(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file");
            for line in text.lines().take_while(|l| *l != "#[cfg(test)]") {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
}

/// Whether `source` holds an item, module or macro called `name`.
fn defines(source: &str, name: &str) -> bool {
    let keywords = [
        "fn",
        "struct",
        "enum",
        "trait",
        "type",
        "const",
        "static",
        "mod",
        "macro_rules!",
    ];
    keywords.iter().any(|kw| {
        let decl = format!("{kw} {name}");
        source.match_indices(&decl).any(|(at, _)| {
            let before = source[..at].chars().next_back();
            let after = source[at + decl.len()..].chars().next();
            before.map_or(true, |c| !c.is_ascii_alphanumeric() && c != '_')
                && after.map_or(true, |c| !c.is_ascii_alphanumeric() && c != '_')
        })
    })
}

#[test]
fn expansion_handles_prefix_and_suffix_groups() {
    assert_eq!(
        leo_paths("leo_net::visibility::{nearest,farthest}_visible"),
        [
            "leo_net::visibility::nearest_visible",
            "leo_net::visibility::farthest_visible"
        ]
    );
    assert_eq!(
        leo_paths("see leo_core::access::SamplingConfig::paper() and xleo_y"),
        ["leo_core::access::SamplingConfig::paper"]
    );
}

#[test]
fn docs_name_only_code_that_exists() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc file");
        for path in code_spans(&text).iter().flat_map(|s| leo_paths(s)) {
            let mut segments = path.split("::").filter(|s| !s.is_empty());
            let krate = segments.next().expect("path starts with a crate");
            let src = root.join("crates").join(&krate["leo_".len()..]).join("src");
            if !src.is_dir() {
                missing.push(format!("{doc}: `{path}`: no crate {krate}"));
                continue;
            }
            let Some(last) = segments.last() else {
                continue;
            };
            let source = sources.entry(krate.to_string()).or_insert_with(|| {
                let mut source = String::new();
                non_test_source(&src, &mut source);
                source
            });
            if !defines(source, last) {
                missing.push(format!("{doc}: `{path}`: {krate} defines no `{last}`"));
            }
            checked += 1;
        }
    }
    assert!(checked > 20, "only {checked} doc paths found");
    assert!(
        missing.is_empty(),
        "docs name code that does not exist:\n{}",
        missing.join("\n")
    );
}
