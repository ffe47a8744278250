//! Epoch-published read-mostly state: the swap half of the serving
//! layer's read/refit split.
//!
//! A live service reads the [`EmissionTable`](crate::emission::EmissionTable)
//! on every request but rewrites it only at refits. Guarding the table
//! itself with a lock would make every prediction wait out every refit;
//! an [`EpochCell`] instead publishes *immutable snapshots*, and a refit
//! builds its replacement completely off to the side — readers holding
//! the old epoch keep a fully consistent view until they drop it.
//!
//! # Read slots
//!
//! A read still writes memory: a read lock and a reference count. If
//! every reader shared one lock and one count, two cores reading at once
//! would bounce those cache lines between them on every request. So the
//! cell keeps one *read slot* per reader group (the service uses one per
//! shard), each on its own 128-byte-aligned line. A slot holds the
//! `(epoch, handle)` pair under its own read-write lock, where the
//! handle is a per-slot, 128-byte-aligned wrapper of the snapshot's
//! `Arc`. [`EpochCell::load_at`] takes only its slot's read lock and
//! clones only its slot's handle: readers on different slots write to
//! no common line, and the snapshot's own reference count is never
//! touched on the read path.
//!
//! [`EpochCell::publish`] takes every slot's write lock in slot order,
//! writes all of them, then releases them, so a reader never sees the
//! epoch go backwards, whichever slots it reads. Old handles (and with
//! the last one the old snapshot) are dropped after the locks are
//! released.
//!
//! The monotonically increasing epoch number lets callers tag answers
//! with the model state that produced them and detect staleness across
//! requests.

use std::sync::{Arc, PoisonError, RwLock};

use crate::sync::CacheAligned;

/// One slot's share of a published snapshot: a cache-line-aligned
/// handle on the snapshot's `Arc`, so cloning it writes only the
/// handle's own reference count. Dereferences (twice) to the snapshot.
type Handle<T> = Arc<CacheAligned<Arc<T>>>;

/// One read slot: the `(epoch, handle)` pair under its own lock, on
/// cache lines of its own.
type Slot<T> = CacheAligned<RwLock<(u64, Handle<T>)>>;

/// A versioned, atomically swappable snapshot holder with one read slot
/// per reader group.
///
/// Readers call [`EpochCell::load_at`] with their slot and work off the
/// returned handle for as long as they like; writers call
/// [`EpochCell::publish`] with a fully built replacement. Neither ever
/// blocks on the other for more than the pointer swaps themselves.
#[derive(Debug)]
pub struct EpochCell<T> {
    /// `(epoch, handle)` per slot — each pair swapped as a unit so a
    /// reader can never observe a new epoch number with an old snapshot
    /// or vice versa.
    slots: Box<[Slot<T>]>,
}

impl<T> EpochCell<T> {
    /// Wraps the initial snapshot as epoch 0, readable through `n_slots`
    /// read slots (at least one).
    pub fn new(value: T, n_slots: usize) -> Self {
        let value = Arc::new(value);
        Self {
            slots: (0..n_slots.max(1))
                .map(|_| CacheAligned(RwLock::new((0, handle(&value)))))
                .collect(),
        }
    }

    /// The current `(epoch, snapshot)` pair, read through slot `slot`
    /// (taken modulo the slot count). The returned handle stays valid
    /// (and immutable) however many publishes happen after.
    ///
    /// Lock poisoning is recovered from rather than propagated: a slot
    /// holds only a pair swapped in one assignment, so a panicking peer
    /// can never leave a half-updated slot behind.
    pub fn load_at(&self, slot: usize) -> (u64, Handle<T>) {
        let slot = &self.slots[slot % self.slots.len()];
        let guard = slot.read().unwrap_or_else(PoisonError::into_inner);
        let out = (guard.0, Arc::clone(&guard.1));
        drop(guard);
        #[cfg(feature = "deterministic-sync")]
        crate::sync::explore::on_epoch_load(out.0);
        out
    }

    /// The current `(epoch, snapshot)` pair with the snapshot's own
    /// `Arc`, read through slot 0 — for the rare reader that is no
    /// slot's (a refit, an introspection call). It writes the
    /// snapshot's reference count, which every such reader shares.
    pub fn load(&self) -> (u64, Arc<T>) {
        let (epoch, handle) = self.load_at(0);
        (epoch, Arc::clone(&handle))
    }

    /// The current epoch number without touching the snapshot.
    pub fn epoch(&self) -> u64 {
        self.slots[0]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    /// Atomically replaces the snapshot in every slot, bumping the
    /// epoch. Returns the new epoch number. Existing readers keep their
    /// old handles.
    pub fn publish(&self, value: T) -> u64 {
        // Under an active deterministic exploration this is a schedule
        // point, checked against the no-shard-guard-across-publish rule.
        #[cfg(feature = "deterministic-sync")]
        crate::sync::explore::on_publish_point();
        let value = Arc::new(value);
        let mut fresh: Vec<Handle<T>> = self.slots.iter().map(|_| handle(&value)).collect();
        // Every slot's write lock, in slot order, before the first
        // write: a reader that sees the new epoch in one slot finds it in
        // every slot it reads after.
        let mut guards: Vec<_> = self
            .slots
            .iter()
            .map(|s| s.write().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let epoch = guards[0].0 + 1;
        for (guard, new) in guards.iter_mut().zip(fresh.iter_mut()) {
            guard.0 = epoch;
            std::mem::swap(&mut guard.1, new);
        }
        drop(guards);
        // The old handles, dropped with no slot locked.
        drop(fresh);
        #[cfg(feature = "deterministic-sync")]
        crate::sync::explore::on_published(epoch);
        epoch
    }
}

/// A fresh slot handle on `value`.
fn handle<T>(value: &Arc<T>) -> Handle<T> {
    Arc::new(CacheAligned(Arc::clone(value)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_publish_round_trip() {
        let cell = EpochCell::new(vec![1, 2, 3], 2);
        let (e0, v0) = cell.load();
        assert_eq!(e0, 0);
        assert_eq!(*v0, vec![1, 2, 3]);

        assert_eq!(cell.publish(vec![4]), 1);
        assert_eq!(cell.epoch(), 1);
        // The old snapshot is unaffected by the publish.
        assert_eq!(*v0, vec![1, 2, 3]);
        let (e1, v1) = cell.load();
        assert_eq!(e1, 1);
        assert_eq!(*v1, vec![4]);
        // Every slot serves the new epoch; slot indices wrap.
        for slot in 0..5 {
            let (e, v) = cell.load_at(slot);
            assert_eq!((e, &***v), (1, &vec![4]));
        }
    }

    #[test]
    fn load_at_leaves_the_snapshot_count_alone() {
        let cell = EpochCell::new(7u32, 3);
        let (_, snapshot) = cell.load();
        let shared = Arc::strong_count(&snapshot);
        let reads: Vec<_> = (0..3).map(|slot| cell.load_at(slot)).collect();
        // A read writes only its own slot's handle count.
        assert_eq!(Arc::strong_count(&snapshot), shared);
        assert!(reads.iter().all(|(_, h)| Arc::strong_count(h) == 2));
        // The handles are cache-line aligned and one per slot.
        assert!(reads
            .iter()
            .all(|(_, h)| (Arc::as_ptr(h) as usize).is_multiple_of(128)));
        assert!(!Arc::ptr_eq(&reads[0].1, &reads[1].1));
        // A publish releases the old handles' hold on the snapshot once
        // the readers drop them.
        drop(reads);
        cell.publish(8);
        assert_eq!(Arc::strong_count(&snapshot), 1);
    }

    #[test]
    fn concurrent_readers_see_consistent_pairs() {
        let cell = Arc::new(EpochCell::new(0u64, 4));
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|slot| {
                    let cell = Arc::clone(&cell);
                    scope.spawn(move || {
                        let mut last = 0;
                        for i in 0..2_000 {
                            // Each reader sticks to its slot, then
                            // crosses to the next one now and then.
                            let (epoch, value) = cell.load_at(slot + i / 500);
                            // The pair is swapped as a unit: epoch and
                            // payload always agree.
                            assert_eq!(epoch, ***value);
                            // And no slot lags one already read.
                            assert!(epoch >= last, "epoch fell from {last} to {epoch}");
                            last = epoch;
                        }
                    })
                })
                .collect();
            for epoch in 1..=100u64 {
                cell.publish(epoch);
            }
            for r in readers {
                r.join().unwrap();
            }
        });
        assert_eq!(cell.epoch(), 100);
    }
}
