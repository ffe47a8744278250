//! Runs every experiment binary in sequence, regenerating all tables and
//! figures into `reports/`. Respects `UPSKILL_SCALE`.

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
    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n################ {exp} ################");
        let status = Command::new(bin_dir.join(exp)).status();
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
