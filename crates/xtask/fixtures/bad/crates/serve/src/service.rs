//! Lint fixture: one seeded lock-discipline violation per concurrency
//! rule, and a panicking lookup (`core-panic` covers the serving layer).
//! This file is NOT part of any crate — the engine tests point the
//! scanner at `fixtures/bad` as if it were a workspace root. (The
//! `raw-lock` line's `.unwrap()` trips `core-panic` as well.)

fn shard_then_global(&self) {
    let shard = self.shards[0].lock();
    let g = self.global.lock(); // lock-order: shard guard still live
    drop(g);
    drop(shard);
}

fn global_then_shard(&self) {
    let g = self.global.lock();
    let s = self.shards[1].lock(); // lock-order: reverse of the protocol
    drop(s);
    drop(g);
}

fn publish_under_guard(&self) {
    let shard = self.shards[0].lock();
    self.epoch.publish(rebuild(&shard)); // lock-across-publish
}

fn raw_acquisition(&self) {
    let g = self.state.lock().unwrap(); // raw-lock: bypasses poison recovery
    drop(g);
}

fn leaked_guard(&self) -> MutexGuard<'_, u64> {
    self.state.lock() // guard-escape: returned from the acquiring function
}

struct GuardCache<'a> {
    held: MutexGuard<'a, u64>, // guard-escape: stored in a field
}

fn admitted_record(&self, user: u32) -> &UserState {
    self.users.get(&user).expect("admitted") // core-panic: a missing record panics
}
