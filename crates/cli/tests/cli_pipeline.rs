//! End-to-end test of the `upskill` binary: generate → stats → train →
//! difficulty → recommend, all through the JSON artifacts.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_upskill"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("upskill-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn full_pipeline_runs() {
    let data = tmp("data.json");
    let model = tmp("model.json");
    let assignments = tmp("assignments.json");
    let difficulty = tmp("difficulty.json");

    let out = bin()
        .args([
            "generate",
            "--domain",
            "synthetic",
            "--scale",
            "quick",
            "--seed",
            "3",
            "--out",
            data.to_str().unwrap(),
        ])
        .output()
        .expect("generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["stats", "--data", data.to_str().unwrap()])
        .output()
        .expect("stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("users:"), "{text}");
    assert!(text.contains("item id"), "{text}");

    let out = bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--levels",
            "5",
            "--min-init",
            "40",
            "--out",
            model.to_str().unwrap(),
            "--assignments",
            assignments.to_str().unwrap(),
        ])
        .output()
        .expect("train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists() && assignments.exists());

    let out = bin()
        .args([
            "difficulty",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--assignments",
            assignments.to_str().unwrap(),
            "--method",
            "empirical",
            "--out",
            difficulty.to_str().unwrap(),
        ])
        .output()
        .expect("difficulty");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args([
            "recommend",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--difficulty",
            difficulty.to_str().unwrap(),
            "--level",
            "2",
            "--k",
            "3",
        ])
        .output()
        .expect("recommend");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("difficulty"), "{text}");

    // A level outside the model's 1..=5 is a typed error, not an empty list.
    for level in ["0", "6"] {
        let out = bin()
            .args([
                "recommend",
                "--data",
                data.to_str().unwrap(),
                "--model",
                model.to_str().unwrap(),
                "--difficulty",
                difficulty.to_str().unwrap(),
                "--level",
                level,
            ])
            .output()
            .expect("recommend out of range");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "level {level}: {stderr}");
        assert!(
            stderr.contains(&format!("invalid skill count {level}")),
            "{stderr}"
        );
    }
}

#[test]
fn helpful_errors() {
    let out = bin().output().expect("no args");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = bin().args(["frobnicate"]).output().expect("bad command");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = bin()
        .args(["generate", "--domain", "nope", "--out", "/tmp/x.json"])
        .output()
        .expect("bad domain");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown domain"));

    let out = bin()
        .args([
            "train",
            "--data",
            "/nonexistent/file.json",
            "--out",
            "/tmp/m.json",
        ])
        .output()
        .expect("missing file");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let out = bin().args(["help"]).output().expect("help");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("commands:"));
}

#[test]
fn sweep_selects_a_skill_count() {
    let data = tmp("sweep_data.json");
    let out = bin()
        .args([
            "generate",
            "--domain",
            "synthetic",
            "--scale",
            "quick",
            "--seed",
            "9",
            "--out",
            data.to_str().unwrap(),
        ])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = bin()
        .args([
            "sweep",
            "--data",
            data.to_str().unwrap(),
            "--min",
            "2",
            "--max",
            "4",
            "--min-init",
            "30",
        ])
        .output()
        .expect("sweep");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("selected S ="), "{text}");
    // Invalid range errors cleanly.
    let out = bin()
        .args([
            "sweep",
            "--data",
            data.to_str().unwrap(),
            "--min",
            "5",
            "--max",
            "2",
        ])
        .output()
        .expect("sweep bad range");
    assert!(!out.status.success());
}

/// Runs `upskill` with whitespace-separated arguments, under `tmp()`.
fn upskill(args: &str) -> std::process::Output {
    let dir = tmp("").to_str().unwrap().to_string();
    let args = args.replace("@/", &dir);
    bin().args(args.split_whitespace()).output().expect("run")
}

/// `text` with the number after the first `key` replaced by `value`.
fn replace_first_number(text: &str, key: &str, value: &str) -> String {
    let start = text.find(key).expect("key present") + key.len();
    let len = text[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '-'))
        .expect("number ends");
    format!("{}{value}{}", &text[..start], &text[start + len..])
}

#[test]
fn invalid_datasets_are_typed_errors_not_panics() {
    let out = upskill("generate --domain synthetic --scale quick --seed 7 --out @/valid.json");
    assert!(out.status.success());
    let out = upskill(
        "train --data @/valid.json --levels 5 --min-init 20 --out @/valid_model.json \
         --assignments @/valid_assign.json",
    );
    assert!(out.status.success());
    // Serde loads both files; only `Dataset::validate` catches them.
    let text = std::fs::read_to_string(tmp("valid.json")).expect("read data");
    let dangling = replace_first_number(&text, "\"item\":", "4000000000");
    let unsorted = replace_first_number(&text, "\"time\":", "9000000000000");
    for (name, body) in [("dangling.json", dangling), ("unsorted.json", unsorted)] {
        std::fs::write(tmp(name), body).expect("write bad data");
        for run in [
            "train --levels 5 --min-init 20 --out @/bad_model.json",
            "evaluate --model @/valid_model.json --assignments @/valid_assign.json",
            "difficulty --model @/valid_model.json --assignments @/valid_assign.json \
             --out @/bad_difficulty.json",
            "stats",
        ] {
            let out = upskill(&format!("{run} --data @/{name}"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            let tag = format!("{name} {run}");
            assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
            assert!(stderr.starts_with("error: "), "{tag}: {stderr}");
            assert!(stderr.contains("invalid dataset"), "{tag}: {stderr}");
            assert!(!stderr.contains("panicked"), "{tag}: {stderr}");
        }
    }
    // A session bundle carries a dataset too: `ingest --session` must
    // reject one whose first action was moved past the rest.
    std::fs::write(
        tmp("new_actions.json"),
        r#"[{"time":0,"user":4000000,"item":0}]"#,
    )
    .expect("write actions");
    let ingest = "ingest --actions @/new_actions.json --out @/sess_model.json";
    let out = upskill(&format!(
        "{ingest} --data @/valid.json --model @/valid_model.json \
         --assignments @/valid_assign.json --session-out @/sess.json"
    ));
    assert!(out.status.success());
    assert!(upskill(&format!("{ingest} --session @/sess.json"))
        .status
        .success());
    let text = std::fs::read_to_string(tmp("sess.json")).expect("read bundle");
    let unsorted = replace_first_number(&text, "\"time\":", "9000000000000");
    std::fs::write(tmp("sess_unsorted.json"), unsorted).expect("write bad bundle");
    let out = upskill(&format!("{ingest} --session @/sess_unsorted.json"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Hostile level paths in user 3 (S = 5): a level above S, a level of
    // 0, a path one action short, and a drop. Each error names the user
    // and the action.
    assert_eq!(with_level_paths(&text, &level_paths(&text)), text);
    let n = level_paths(&text)[3].len();
    assert!(n >= 2, "user 3 needs two actions");
    type Edit = fn(&mut Vec<u8>);
    let hostile: [(&str, Edit, usize); 4] = [
        ("above", |p| p[1] = 6, 1),
        ("zero", |p| p[1] = 0, 1),
        (
            "short",
            |p| {
                p.pop();
            },
            n - 1,
        ),
        (
            "drop",
            |p| {
                p[0] = 5;
                p[1] = 4;
            },
            1,
        ),
    ];
    for (name, edit, action) in hostile {
        let mut paths = level_paths(&text);
        edit(&mut paths[3]);
        let file = format!("sess_{name}.json");
        std::fs::write(tmp(&file), with_level_paths(&text, &paths)).expect("write bad bundle");
        let out = upskill(&format!("{ingest} --session @/{file}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with("error: "), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(stderr.contains("user 3"), "{name}: {stderr}");
        let at = format!("action {action}");
        assert!(stderr.contains(&at), "{name}: {stderr}");
    }
}

/// The byte range of a session bundle's level paths: the rows of
/// `"per_user":[[…],…,[…]]`, without the outer brackets.
fn level_paths_span(bundle: &str) -> std::ops::Range<usize> {
    let key = "\"per_user\":[";
    let start = bundle.find(key).expect("assignments present") + key.len();
    let end = start + bundle[start..].find("]]").expect("paths end") + 1;
    start..end
}

/// A session bundle's per-user level paths.
fn level_paths(bundle: &str) -> Vec<Vec<u8>> {
    let rows = &bundle[level_paths_span(bundle)];
    let rows = &rows[1..rows.len() - 1];
    rows.split("],[")
        .map(|row| {
            row.split(',')
                .filter(|l| !l.is_empty())
                .map(|l| l.parse().expect("level"))
                .collect()
        })
        .collect()
}

/// The bundle with its level paths replaced by `paths`.
fn with_level_paths(bundle: &str, paths: &[Vec<u8>]) -> String {
    let rows: Vec<String> = paths
        .iter()
        .map(|p| {
            let levels: Vec<String> = p.iter().map(u8::to_string).collect();
            format!("[{}]", levels.join(","))
        })
        .collect();
    let span = level_paths_span(bundle);
    format!(
        "{}{}{}",
        &bundle[..span.start],
        rows.join(","),
        &bundle[span.end..]
    )
}

#[test]
fn thread_counts_above_the_bound_are_typed_errors() {
    // Every check runs before anything spawns, so no thread starts here.
    let over = "1025";
    let refused = |out: std::process::Output, tag: &str| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(stderr.starts_with("error: "), "{tag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{tag}: {stderr}");
        assert!(
            stderr.contains(&format!("{over} worker threads")),
            "{tag}: {stderr}"
        );
        assert!(stderr.contains("1..=1024"), "{tag}: {stderr}");
    };
    refused(
        upskill(&format!(
            "train --chunked --users 40 --items 30 --threads {over} --out @/bound_model.json"
        )),
        "train --chunked",
    );

    let out = upskill("generate --domain synthetic --scale quick --seed 5 --out @/bound_data.json");
    assert!(out.status.success());
    let out = upskill(
        "train --data @/bound_data.json --levels 3 --min-init 20 --out @/bound_model.json \
         --assignments @/bound_assign.json",
    );
    assert!(out.status.success());
    std::fs::write(
        tmp("bound_actions.json"),
        r#"[{"time":0,"user":4000000,"item":0}]"#,
    )
    .expect("write actions");
    let ingest = "ingest --actions @/bound_actions.json --out @/bound_sess_model.json";
    let out = upskill(&format!(
        "{ingest} --data @/bound_data.json --model @/bound_model.json \
         --assignments @/bound_assign.json --session-out @/bound_sess.json"
    ));
    assert!(out.status.success());
    let text = std::fs::read_to_string(tmp("bound_sess.json")).expect("read bundle");
    let tampered = text.replace(r#""threads":1"#, &format!(r#""threads":{over}"#));
    assert_ne!(tampered, text);
    std::fs::write(tmp("bound_sess_tampered.json"), tampered).expect("write bundle");
    refused(
        upskill(&format!("{ingest} --session @/bound_sess_tampered.json")),
        "ingest --session",
    );
}
