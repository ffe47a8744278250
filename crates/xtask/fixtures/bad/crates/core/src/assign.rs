//! Lint fixture: one seeded violation per rule. This file is NOT part of
//! any crate — the engine tests point the scanner at `fixtures/bad` as if
//! it were a workspace root.

fn panics(x: Option<u64>) -> u64 {
    x.unwrap() // core-panic
}

fn hot(v: &mut [u64]) {
    for i in 0..v.len() {
        v[i] = i as u32 as u64; // hot-loop-index + hot-loop-cast
    }
}

fn float_equal(x: f64) -> bool {
    x == 0.0 // float-eq
}

fn config() -> ParallelConfig {
    ParallelConfig { threads: 4 } // config-literal
}

// lint:allow(no-such-rule): an unknown rule id is itself a violation.
fn marker_target() {}

fn own_pool(jobs: &[u64]) {
    std::thread::scope(|scope| {
        // raw-spawn: a worker pool beside the fan-out
        scope.spawn(|| jobs.len());
    });
}
