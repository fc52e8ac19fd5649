//! The knob table against its parser, the code and the docs: every value
//! of every knob parses or fails by name, no source file outside the
//! table reads the environment, and the docs index exactly the knobs the
//! table holds.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};

use zr_types::knobs::{Grammar, Kind, Value, ALL, THREADS};
use zr_types::rng::{cases, SplitMix64};

fn parse(knob: &zr_types::knobs::Knob, text: &str) -> zr_types::Result<Option<Value>> {
    knob.parse(OsStr::new(text))
}

/// Replaces the pool-width resolution the sweep pool once did itself:
/// a positive integer wins, empty means unset (the machine's parallelism),
/// and what used to fall back silently is now an error.
#[test]
fn thread_count_resolution() {
    assert_eq!(parse(&THREADS, "4"), Ok(Some(Value::Int(4))));
    assert_eq!(parse(&THREADS, " 2 "), Ok(Some(Value::Int(2))));
    assert_eq!(parse(&THREADS, "1"), Ok(Some(Value::Int(1))));
    assert_eq!(parse(&THREADS, ""), Ok(None));
    for bad in ["0", "lots", "-3", "1.5"] {
        let err = parse(&THREADS, bad).expect_err(bad).to_string();
        assert_eq!(
            err,
            format!("invalid configuration: ZR_THREADS={bad:?} is not a positive integer")
        );
    }
}

/// A value of `grammar` it accepts.
fn valid(grammar: Grammar, rng: &mut SplitMix64) -> String {
    match grammar {
        Grammar::Whole => rng.next_u64().to_string(),
        Grammar::Positive if rng.chance(0.25) => format!(" {} ", 1 + rng.below(64)),
        Grammar::Positive => (1 + rng.below(1 << 20)).to_string(),
        Grammar::Seed if rng.chance(0.5) => format!("{:#x}", rng.next_u64()),
        Grammar::Seed => rng.next_u64().to_string(),
        Grammar::Fraction => format!("{}", rng.unit_f64() * 4.0),
        Grammar::Switch => rng.below(2).to_string(),
        Grammar::Path | Grammar::SwitchOrPath => format!("out/run-{}", rng.below(100)),
    }
}

/// Every knob, fed valid, empty, garbage, negative, zero, overflowing and
/// very large values: each parse ends in a value or in an error naming the
/// knob and the value, and only a path takes any text.
#[test]
fn every_value_of_every_knob_parses_or_fails_by_name() {
    cases("knob_values", 300, |rng| {
        for knob in ALL {
            let class = rng.below(7);
            let value = match class {
                0 => valid(knob.grammar, rng),
                1 => String::new(),
                2 => ["lots", "zero", "yes", "abc", "1O", "true"][rng.below(6) as usize].into(),
                3 => format!("-{}", 1 + rng.below(1000)),
                4 => "0".into(),
                5 => ["18446744073709551616", "99999999999999999999999", "1e400"]
                    [rng.below(3) as usize]
                    .into(),
                _ => u64::MAX.to_string(),
            };
            let takes_text = matches!(knob.grammar, Grammar::Path | Grammar::SwitchOrPath);
            match parse(knob, &value) {
                Ok(parsed) => {
                    assert_eq!(
                        parsed.is_none(),
                        value.is_empty(),
                        "{}={value:?}",
                        knob.name
                    );
                    assert!(class != 2 || takes_text, "{}={value:?} parsed", knob.name);
                }
                Err(e) => {
                    let message = e.to_string();
                    assert!(
                        message.contains(&format!("{}={value:?} is not ", knob.name)),
                        "{message}"
                    );
                    assert!(class > 1, "{}={value:?} rejected: {message}", knob.name);
                }
            }
        }
    });
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension() == Some(OsStr::new("rs")) {
            out.push(path);
        }
    }
}

/// Only the table reads the environment: every `env::var` in the
/// workspace's sources would be a knob read outside it.
#[test]
fn no_source_outside_the_table_reads_the_environment() {
    let root = repo_root();
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("crate").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let table = root.join("crates/types/src/knobs.rs");
    assert!(files.contains(&table), "the scan must see the table itself");
    let readers: Vec<_> = files
        .iter()
        .filter(|path| **path != table)
        .filter(|path| {
            let text = std::fs::read_to_string(path).expect("read source");
            text.contains("env::var(") || text.contains("env::var_os(")
        })
        .collect();
    assert!(
        readers.is_empty(),
        "env reads outside knobs.rs: {readers:?}"
    );
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Result => "result",
        Kind::Schedule => "schedule",
        Kind::Observability => "observability",
        Kind::Test => "test",
    }
}

/// docs/OBSERVABILITY.md holds the table's row for every knob, and the
/// user docs name no `ZR_*` variable the table does not hold.
#[test]
fn docs_index_every_knob_and_name_no_other() {
    let root = repo_root();
    let index = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).expect("index");
    for knob in ALL {
        let row = format!(
            "| `{}` | {} | {} | {} | {} |",
            knob.name,
            kind_name(knob.kind),
            knob.grammar.describe(),
            knob.default,
            knob.doc
        );
        assert!(
            index.contains(&row),
            "docs/OBSERVABILITY.md lacks the row\n{row}"
        );
    }
    let mut docs = vec![
        root.join("README.md"),
        root.join("EXPERIMENTS.md"),
        root.join(".claude/skills/verify/SKILL.md"),
    ];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs dir") {
        let path = entry.expect("doc").path();
        if path.extension() == Some(OsStr::new("md")) {
            docs.push(path);
        }
    }
    for doc in docs {
        let text = std::fs::read_to_string(&doc).expect("read doc");
        for (at, _) in text.match_indices("ZR_") {
            let tail = &text[at + 3..];
            let len = tail
                .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                .unwrap_or(tail.len());
            let name = &text[at..at + 3 + len];
            assert!(
                len == 0 || ALL.iter().any(|knob| knob.name == name),
                "{} names {name}, which is not in the knob table",
                doc.display()
            );
        }
    }
}
