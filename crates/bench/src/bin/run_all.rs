//! Runs every experiment binary in sequence, regenerating all tables and
//! figures into `reports/`. Respects `UPSKILL_SCALE`. The experiments are
//! its sibling binaries: when one is missing it names each absent one and
//! exits 1 before running any.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "exp_table01",
    "exp_fig03",
    "exp_fig04_table02",
    "exp_fig05",
    "exp_fig06_table03",
    "exp_table04_05",
    "exp_table06",
    "exp_table07",
    "exp_table08_09",
    "exp_table10_11",
    "exp_table12",
    "exp_table13",
    "exp_fig07",
    "exp_ext_forgetting",
    "exp_ablation_smoothing",
    "exp_ablation_init",
    "exp_robustness",
    "make_summary",
];

fn main() {
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir").to_path_buf();
    let bin = |exp: &str| bin_dir.join(format!("{exp}{}", std::env::consts::EXE_SUFFIX));
    // Check every sibling before launching any, so a partial build fails
    // at once instead of after the experiments that did build.
    let missing: Vec<_> = EXPERIMENTS
        .iter()
        .map(|exp| bin(exp))
        .filter(|path| !path.is_file())
        .collect();
    if !missing.is_empty() {
        for path in &missing {
            eprintln!("missing binary: {}", path.display());
        }
        eprintln!("build them with `cargo build --release -p upskill-bench --bins`");
        std::process::exit(1);
    }
    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n################ {exp} ################");
        let status = Command::new(bin(exp)).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{exp} exited with {s}");
                failures.push(*exp);
            }
            Err(e) => {
                eprintln!("failed to launch {exp}: {e}");
                failures.push(*exp);
            }
        }
    }
    if failures.is_empty() {
        println!(
            "\nAll experiments completed; reports are in {}.",
            upskill_bench::report_dir().display()
        );
    } else {
        eprintln!("\nFailed experiments: {failures:?}");
        std::process::exit(1);
    }
}
