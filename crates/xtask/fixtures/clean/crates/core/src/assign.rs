//! Lint fixture: every *allowed* construct that sits near a rule's
//! boundary. The engine tests assert the scanner stays quiet here.

fn near_miss_tokens(r: Result<u64, ()>) -> u64 {
    // `.unwrap_or` / `.expect_err` share prefixes with banned tokens.
    let a = r.unwrap_or(0);
    let b = r.expect_err("fixture");
    let _ = b;
    a
}

fn hot_but_legal(v: &[u64], out: &mut Vec<u64>) {
    // Iterators, range slices, and widening casts are all fine in loops.
    for (i, &x) in v.iter().enumerate() {
        out.push(x + i as u64);
        let window = &v[1..v.len()];
        let _ = window.len() as usize;
    }
}

fn marked_exception(v: &mut [u64], idx: usize) {
    for bit in 0..64 {
        // lint:allow(hot-loop-index): fixture mirror of the bit-packed
        // backpointer write; the index is proven in range.
        v[idx / 64] |= 1u64 << bit;
    }
}

// lint:allow-block(float-eq): fixture mirror of an approved comparison
// region with an explicit begin/end span.
fn sentinel(x: f64) -> bool {
    x == f64::NEG_INFINITY
}
// lint:end-allow-block(float-eq)

fn integer_comparisons(n: usize) -> bool {
    n == 0 || n != 1
}

fn builder_usage() -> ParallelConfig {
    ParallelConfig::sequential().with_threads(4)
}

fn borrow(c: &ParallelConfig) -> &ParallelConfig {
    c
}

fn strings_and_comments() -> &'static str {
    // panic!("never fires"); x[0]; y == 0.0
    "call .unwrap() or ParallelConfig { threads: 1 } — inert in a string"
}

fn on_the_fan_out(jobs: &[u64]) -> Result<()> {
    // Work split into fan-out jobs; `available_parallelism` is no spawn.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut states = vec![(); threads.min(jobs.len()).max(1)];
    fan_out(jobs.len(), jobs.len(), &mut states, "fixture", |i, _| Ok(jobs[i]), |_| Ok(()))
}

fn audited_client_lanes() {
    // lint:allow(raw-spawn): fixture mirror of concurrent client lanes,
    // not a split of one step's work.
    std::thread::scope(|scope| {
        scope.spawn(|| ());
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn() {
        std::thread::spawn(|| ()).join().ok();
    }
}
