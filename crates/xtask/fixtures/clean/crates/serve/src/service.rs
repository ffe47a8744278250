//! Lint fixture mirror: the same shapes as the bad fixture, written with
//! the documented lock protocol — drop-before-global, the audited
//! all-shards snapshot marker, blessed helper acquisitions, and guard
//! types in non-escaping positions, and a lookup that returns a typed
//! error instead of panicking. Must stay completely quiet.

fn shard_then_global(&self) {
    let shard = self.shards[0].lock();
    drop(shard);
    let g = self.global.lock();
    drop(g);
}

fn snapshot(&self) {
    let shards: Vec<_> = self.shards.iter().map(|m| m.lock()).collect();
    // lint:allow(lock-order): audited stop-the-world snapshot path — all
    // shards ascending, then global.
    let g = self.global.lock();
    drop(g);
    drop(shards);
}

fn publish_outside_guard(&self) {
    let shard = self.shards[0].lock();
    let next = rebuild(&shard);
    drop(shard);
    self.epoch.publish(next);
}

fn blessed_helper(&self) {
    let n = lock(&self.free).len();
    let _ = n;
}

fn policy_projection(&self) -> RefitPolicy {
    self.global.lock().policy
}

fn borrowed_guard_is_not_an_escape(g: &MutexGuard<'_, u64>) -> u64 {
    **g
}

fn local_annotation_is_not_an_escape(&self) {
    let held: Vec<MutexGuard<'_, u64>> = Vec::new();
    let _ = held;
}

fn admitted_record(&self, user: u32) -> Result<&UserState> {
    self.users.get(&user).ok_or(ServeError::MissingUserState {
        user,
        what: "shard record",
    })
}
