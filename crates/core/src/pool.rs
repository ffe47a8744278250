//! Reusable workspace pooling for concurrent request handlers.
//!
//! The DP scratch buffers ([`AssignWorkspace`](crate::assign::AssignWorkspace),
//! [`FbWorkspace`](crate::em::FbWorkspace)) exist so hot loops allocate
//! once and reuse; a serving layer handling many short requests from many
//! threads needs the same amortization *across* requests. A
//! [`WorkspacePool`] keeps returned workspaces in a free list: acquiring
//! pops one (or builds a fresh one when the list is empty — the pool
//! never blocks a request on workspace availability), and the RAII
//! [`PoolGuard`] pushes it back on drop, warm buffers and all.

use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

use crate::sync::lock;

/// A lock-guarded free list of reusable workspaces plus the factory that
/// builds new ones on demand.
///
/// The pool is unbounded in the sense that concurrent demand beyond the
/// free list is satisfied by fresh construction; the steady-state size
/// therefore converges to the peak concurrency actually seen.
pub struct WorkspacePool<T> {
    free: Mutex<Vec<T>>,
    make: Box<dyn Fn() -> T + Send + Sync>,
}

impl<T> std::fmt::Debug for WorkspacePool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkspacePool")
            .field("available", &self.available())
            .finish()
    }
}

impl<T> WorkspacePool<T> {
    /// Creates an empty pool; `make` builds a workspace when the free
    /// list cannot satisfy an [`WorkspacePool::acquire`].
    pub fn new(make: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            make: Box::new(make),
        }
    }

    /// Takes a pooled workspace, building a fresh one if none is free.
    /// The workspace returns to the pool when the guard drops.
    ///
    /// Lock poisoning is recovered from (via [`crate::sync::lock`]): the
    /// free list only ever holds complete workspaces (pushes and pops
    /// are single `Vec` operations), so a panicking peer cannot leave it
    /// inconsistent.
    pub fn acquire(&self) -> PoolGuard<'_, T> {
        let item = lock(&self.free).pop().unwrap_or_else(|| (self.make)());
        #[cfg(feature = "deterministic-sync")]
        crate::sync::explore::on_pool_event(true);
        PoolGuard {
            pool: self,
            item: Some(item),
        }
    }

    /// Number of workspaces currently sitting in the free list.
    pub fn available(&self) -> usize {
        lock(&self.free).len()
    }
}

/// RAII handle to a pooled workspace; dereferences to the workspace and
/// returns it to the pool on drop.
// lint:allow(unused-pub): returned by `WorkspacePool::acquire`.
#[derive(Debug)]
pub struct PoolGuard<'a, T> {
    pool: &'a WorkspacePool<T>,
    /// `Some` until drop; `Option` only so drop can move the value out.
    item: Option<T>,
}

impl<T> Deref for PoolGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self.item.as_ref() {
            Some(item) => item,
            // `item` is only taken in `drop`, so it is `Some` for the
            // guard's entire usable lifetime.
            None => unreachable!(),
        }
    }
}

impl<T> DerefMut for PoolGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self.item.as_mut() {
            Some(item) => item,
            None => unreachable!(),
        }
    }
}

impl<T> Drop for PoolGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            lock(&self.pool.free).push(item);
            #[cfg(feature = "deterministic-sync")]
            crate::sync::explore::on_pool_event(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_reuses_returned_workspaces() {
        let pool = WorkspacePool::new(Vec::<u32>::new);
        assert_eq!(pool.available(), 0);
        {
            let mut a = pool.acquire();
            a.push(7);
            let b = pool.acquire();
            assert!(b.is_empty());
            assert_eq!(pool.available(), 0);
        }
        // Both guards returned their workspaces, warm state intact:
        // guards drop in reverse declaration order, so the LIFO free
        // list hands back `a`'s buffer (still holding the 7) first.
        assert_eq!(pool.available(), 2);
        let c = pool.acquire();
        assert_eq!(pool.available(), 1);
        assert_eq!(*c, vec![7]);
    }

    #[test]
    fn concurrent_acquire_is_safe_and_bounded_by_peak_demand() {
        let pool = WorkspacePool::new(|| vec![0u8; 16]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let mut ws = pool.acquire();
                        ws[0] = ws[0].wrapping_add(1);
                    }
                });
            }
        });
        // Never more parked workspaces than the peak thread count.
        assert!(pool.available() >= 1);
        assert!(pool.available() <= 8);
    }
}
