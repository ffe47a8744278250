//! Lock-discipline primitives shared by the serving layer, plus the
//! deterministic schedule-exploration harness (behind the
//! `deterministic-sync` feature).
//!
//! ## The blessed acquisition path
//!
//! Every mutex acquisition in this workspace goes through one of two
//! poison-recovering entry points defined here — [`lock`] for plain
//! `std::sync::Mutex` fields and [`TracedMutex::lock`] for the serving
//! layer's ordered locks. The `raw-lock` lint rule (`xtask concurrency`)
//! rejects bare `.lock().unwrap()` everywhere else, so poison handling
//! and (under `deterministic-sync`) schedule instrumentation cannot be
//! bypassed by accident.
//!
//! Poison recovery is sound for every lock in this workspace because
//! each critical section either performs a single `Vec`/map operation or
//! writes a value that is only published after it is complete; a
//! panicking peer can therefore never leave torn state behind (the
//! individual call sites document their reasoning).
//!
//! ## The deterministic harness
//!
//! With `deterministic-sync` enabled, `explore::Explorer` runs a
//! closure once per *schedule*: spawned threads (`explore::Run::thread`)
//! are driven by a cooperative scheduler that allows exactly one thread
//! to run between *schedule points* (lock acquisitions and epoch
//! publishes). The scheduler enumerates schedules bounded-exhaustively
//! (DFS over the choice tree) or samples them from a seeded RNG, records
//! every acquisition/release/publish event, checks the serving lock
//! protocol at runtime (shard-before-global order, no lock guard across
//! an epoch publish, stale-epoch reads via vector-clock happens-before),
//! and attaches a replayable `explore::Schedule` to every violation.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Acquires a `std::sync::Mutex`, recovering from poisoning.
///
/// This is the single blessed acquisition path for plain mutexes (the
/// `raw-lock` lint rejects `.lock().unwrap()` elsewhere). Callers must
/// ensure their critical sections cannot leave torn state behind on
/// panic — true for every pool/queue in this workspace, where critical
/// sections are single container operations.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identity of an ordered lock in the serving layer's lock hierarchy.
///
/// The required acquisition order is: shards in ascending index order,
/// then the global fitting lock. `explore` assigns ranks accordingly;
/// [`LockId::Named`] locks sit outside the hierarchy and are exempt from
/// order checking (but still participate in deadlock detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockId {
    /// A per-user-shard lock, identified by its shard index.
    Shard(u32),
    /// The global fitting-state lock (always acquired last).
    Global,
    /// An auxiliary lock outside the shard/global hierarchy.
    Named(&'static str),
}

impl std::fmt::Display for LockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockId::Shard(i) => write!(f, "shard[{i}]"),
            LockId::Global => write!(f, "global"),
            LockId::Named(name) => write!(f, "{name}"),
        }
    }
}

/// A mutex that knows its place in the serving lock hierarchy.
///
/// In normal builds this is a zero-overhead wrapper around
/// `std::sync::Mutex` whose [`TracedMutex::lock`] recovers from
/// poisoning exactly like [`lock`]. Under the `deterministic-sync`
/// feature, acquisitions made from threads driven by an
/// `explore::Explorer` become schedule points: the cooperative
/// scheduler decides which thread proceeds, checks the lock-order
/// invariants, and records the event. Threads outside an exploration
/// (including all production use) take the plain path.
#[derive(Debug)]
pub struct TracedMutex<T> {
    id: LockId,
    inner: Mutex<T>,
}

impl<T> TracedMutex<T> {
    /// Wraps `value` in a mutex registered as `id` in the hierarchy.
    pub fn new(id: LockId, value: T) -> Self {
        Self {
            id,
            inner: Mutex::new(value),
        }
    }

    /// This lock's position in the hierarchy.
    pub fn id(&self) -> LockId {
        self.id
    }

    /// Acquires the lock (poison-recovering; see [`lock`]).
    ///
    /// Under an active deterministic exploration this is a schedule
    /// point: the calling thread parks until the scheduler grants it
    /// both the run token and the lock, and the acquisition is checked
    /// against the shard-before-global order.
    pub fn lock(&self) -> TracedGuard<'_, T> {
        #[cfg(feature = "deterministic-sync")]
        let trace = explore::on_acquire(self.id);
        TracedGuard {
            inner: lock(&self.inner),
            #[cfg(feature = "deterministic-sync")]
            id: self.id,
            #[cfg(feature = "deterministic-sync")]
            trace,
        }
    }
}

/// RAII guard for a [`TracedMutex`]; releases the lock (and, under an
/// active exploration, reports the release to the scheduler) on drop.
// lint:allow(unused-pub): returned by `TracedMutex::lock`.
pub struct TracedGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    #[cfg(feature = "deterministic-sync")]
    id: LockId,
    #[cfg(feature = "deterministic-sync")]
    trace: Option<explore::TraceCtx>,
}

impl<T> std::ops::Deref for TracedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TracedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(feature = "deterministic-sync")]
impl<T> Drop for TracedGuard<'_, T> {
    fn drop(&mut self) {
        // Scheduler bookkeeping first, then the field drop releases the
        // real mutex; no other explored thread can run in between, so
        // the two are atomic as far as the exploration is concerned.
        if let Some(ctx) = self.trace.take() {
            explore::on_release(&ctx, self.id);
        }
    }
}

/// The deterministic cooperative scheduler and schedule explorer.
///
/// Only compiled under the `deterministic-sync` feature; see the module
/// docs of [`crate::sync`] for the model. The entry point is
/// [`Explorer`](explore::Explorer).
#[cfg(feature = "deterministic-sync")]
pub mod explore {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::thread::JoinHandle;

    use super::LockId;
    use crate::rng::SplitMix64;

    /// One recorded synchronization event within a single schedule.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) enum Event {
        /// Thread `thread` acquired `lock`.
        Acquire {
            /// Index of the acquiring thread within the run.
            thread: usize,
            /// The acquired lock.
            lock: LockId,
        },
        /// Thread `thread` released `lock`.
        Release {
            /// Index of the releasing thread within the run.
            thread: usize,
            /// The released lock.
            lock: LockId,
        },
        /// Thread `thread` published epoch `epoch` through an `EpochCell`.
        Publish {
            /// Index of the publishing thread within the run.
            thread: usize,
            /// The epoch number after the publish.
            epoch: u64,
        },
        /// Thread `thread` loaded epoch `epoch` from an `EpochCell`.
        EpochLoad {
            /// Index of the loading thread within the run.
            thread: usize,
            /// The observed epoch number.
            epoch: u64,
        },
        /// Thread `thread` took a workspace from a `WorkspacePool`.
        PoolAcquire {
            /// Index of the acquiring thread within the run.
            thread: usize,
        },
        /// Thread `thread` returned a workspace to a `WorkspacePool`.
        PoolRelease {
            /// Index of the releasing thread within the run.
            thread: usize,
        },
    }

    /// A replayable schedule: the RNG seed the run was started with plus
    /// the full sequence of scheduler choices it made. Feeding it back
    /// through [`Explorer::replay`] reproduces the interleaving exactly.
    // lint:allow(unused-pub): taken by `Explorer::replay` (`deterministic-sync`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Schedule {
        /// Seed of the run (scrambles random choices past the recorded
        /// prefix; irrelevant when `choices` covers the whole run).
        pub seed: u64,
        /// Index into the runnable-thread set chosen at each schedule
        /// point, in order.
        pub choices: Vec<usize>,
    }

    impl std::fmt::Display for Schedule {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "seed={} choices={:?}", self.seed, self.choices)
        }
    }

    /// An invariant violation observed during one explored schedule.
    // lint:allow(unused-pub): the type of `Exploration::violations` (`deterministic-sync`).
    #[derive(Debug, Clone)]
    pub struct Violation {
        /// The violated rule (`lock-order`, `lock-across-publish`,
        /// `stale-epoch-read`, or `deadlock`) — same ids as the static
        /// `xtask concurrency` rules where both sides check a rule.
        pub rule: &'static str,
        /// Human-readable description of the violating operation.
        pub detail: String,
        /// Index of the offending thread within the run.
        pub thread: usize,
        /// The complete schedule that produced the violation.
        pub schedule: Schedule,
    }

    impl std::fmt::Display for Violation {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "[{}] thread {}: {} (replay: {})",
                self.rule, self.thread, self.detail, self.schedule
            )
        }
    }

    /// Aggregate result of [`Explorer::explore`].
    // lint:allow(unused-pub): returned by `Explorer::{explore, replay}` (`deterministic-sync`).
    #[derive(Debug)]
    pub struct Exploration {
        /// Number of schedules actually run.
        pub schedules: usize,
        /// Whether the choice tree was fully enumerated within budget
        /// (always `false` for random-style exploration).
        pub exhausted: bool,
        /// Every invariant violation observed, with its schedule.
        pub violations: Vec<Violation>,
        /// Total synchronization events recorded across all schedules.
        pub events: usize,
    }

    enum Style {
        Exhaustive,
        Random,
    }

    /// Deterministic schedule explorer; see [`crate::sync`] module docs.
    pub struct Explorer {
        style: Style,
        seed: u64,
        budget: usize,
    }

    impl Explorer {
        /// DFS enumeration of the whole schedule tree, stopping early
        /// (with `exhausted = false`) after `budget` schedules. Suited
        /// to 2–3 threads with a handful of critical sections each.
        pub fn exhaustive(budget: usize) -> Self {
            Self {
                style: Style::Exhaustive,
                seed: 0,
                budget,
            }
        }

        /// `budget` independent schedules with choices drawn from a
        /// SplitMix64 stream seeded per run — the regime for thread or
        /// critical-section counts whose trees are too big to enumerate.
        pub fn random(seed: u64, budget: usize) -> Self {
            Self {
                style: Style::Random,
                seed,
                budget,
            }
        }

        /// Reads a schedule budget from environment variable `var`
        /// (falling back to `default` when unset or unparsable), the
        /// same knob pattern as `CRITERION_SAMPLE_SIZE`.
        pub fn budget_from_env(var: &str, default: usize) -> usize {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }

        /// Runs `body` once per schedule. The body spawns threads with
        /// [`Run::thread`], waits for them with [`Run::join`], and may
        /// assert on shared state afterwards; a panic inside the body is
        /// re-thrown after printing the replayable schedule.
        ///
        /// # Panics
        ///
        /// Propagates body panics, and panics (with the replay line) if
        /// any schedule deadlocks.
        pub fn explore<F: FnMut(&mut Run)>(&self, mut body: F) -> Exploration {
            let mut out = Exploration {
                schedules: 0,
                exhausted: false,
                violations: Vec::new(),
                events: 0,
            };
            match self.style {
                Style::Exhaustive => {
                    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
                    while let Some(prefix) = stack.pop() {
                        if out.schedules >= self.budget {
                            stack.push(prefix);
                            break;
                        }
                        let done = run_once(self.seed, prefix.clone(), false, &mut body);
                        collect(&mut out, &done);
                        // Beyond the forced prefix every pick defaulted
                        // to option 0; each untried alternative at each
                        // such point roots an unexplored subtree.
                        for i in prefix.len()..done.trace.len() {
                            let (n_options, picked) = done.trace[i];
                            for alt in picked + 1..n_options {
                                let mut p: Vec<usize> =
                                    done.trace[..i].iter().map(|&(_, k)| k).collect();
                                p.push(alt);
                                stack.push(p);
                            }
                        }
                    }
                    out.exhausted = stack.is_empty();
                }
                Style::Random => {
                    for i in 0..self.budget {
                        let seed = SplitMix64::new(self.seed.wrapping_add(i as u64)).next_u64();
                        let done = run_once(seed, Vec::new(), true, &mut body);
                        collect(&mut out, &done);
                    }
                }
            }
            out
        }

        /// Re-runs `body` under exactly the interleaving recorded in
        /// `schedule` (typically lifted from a [`Violation`]).
        pub fn replay<F: FnMut(&mut Run)>(&self, schedule: &Schedule, mut body: F) -> Exploration {
            let mut out = Exploration {
                schedules: 0,
                exhausted: false,
                violations: Vec::new(),
                events: 0,
            };
            let done = run_once(schedule.seed, schedule.choices.clone(), false, &mut body);
            collect(&mut out, &done);
            out
        }
    }

    fn collect(out: &mut Exploration, done: &RunOutcome) {
        out.schedules += 1;
        out.events += done.events;
        let schedule = Schedule {
            seed: done.seed,
            choices: done.trace.iter().map(|&(_, k)| k).collect(),
        };
        for (rule, thread, detail) in &done.violations {
            out.violations.push(Violation {
                rule,
                detail: detail.clone(),
                thread: *thread,
                schedule: schedule.clone(),
            });
        }
    }

    // --- one run under one schedule -------------------------------------

    struct RunOutcome {
        seed: u64,
        trace: Vec<(usize, usize)>,
        violations: Vec<(&'static str, usize, String)>,
        events: usize,
    }

    fn run_once<F: FnMut(&mut Run)>(
        seed: u64,
        forced: Vec<usize>,
        random_tail: bool,
        body: &mut F,
    ) -> RunOutcome {
        let sched = Arc::new(Scheduler::new(seed, forced, random_tail));
        let mut run = Run {
            sched: Arc::clone(&sched),
            handles: Vec::new(),
        };
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut run)));
        if let Err(payload) = attempt {
            let st = super::lock(&sched.state);
            eprintln!(
                "deterministic-sync: body panicked; replay with {}",
                Schedule {
                    seed,
                    choices: st.choices.iter().map(|&(_, k)| k).collect(),
                }
            );
            drop(st);
            std::panic::resume_unwind(payload);
        }
        let st = super::lock(&sched.state);
        RunOutcome {
            seed,
            trace: st.choices.clone(),
            violations: st.violations.clone(),
            events: st.events.len(),
        }
    }

    /// Handle through which an explored body spawns and joins the
    /// threads of one schedule.
    pub struct Run {
        sched: Arc<Scheduler>,
        handles: Vec<JoinHandle<()>>,
    }

    impl Run {
        /// Spawns a scheduler-driven thread. The closure starts parked
        /// and only ever runs while the scheduler grants it the run
        /// token; every ordered-lock acquisition and epoch publish
        /// inside it is a schedule point. All threads of a run must be
        /// spawned before [`Run::join`] is called.
        pub fn thread(&mut self, f: impl FnOnce() + Send + 'static) {
            let tid = {
                let mut st = super::lock(&self.sched.state);
                st.threads.push(TState::Spawning);
                st.held.push(Vec::new());
                st.clocks.push(Vec::new());
                st.threads.len() - 1
            };
            let sched = Arc::clone(&self.sched);
            // lint:allow(raw-spawn): the explorer's scheduler-driven test
            // threads (feature-gated), not a split of one step's work.
            self.handles.push(std::thread::spawn(move || {
                CTX.with(|c| {
                    *c.borrow_mut() = Some(TraceCtx {
                        sched: Arc::clone(&sched),
                        tid,
                    })
                });
                let _finish = FinishOnDrop {
                    sched: Arc::clone(&sched),
                    tid,
                };
                // Initial gate: the thread becomes runnable here and
                // proceeds only when scheduled, so the interleaving is
                // independent of OS spawn timing.
                schedule_point(&sched, tid, None);
                f();
            }));
        }

        /// Releases the threads of this run, drives them to completion
        /// under the scheduler, and joins them.
        ///
        /// # Panics
        ///
        /// Panics with a replayable schedule if the run deadlocked;
        /// re-throws the first thread panic otherwise.
        pub fn join(&mut self) {
            {
                let mut st = super::lock(&self.sched.state);
                while st.threads.iter().any(|t| matches!(t, TState::Spawning)) {
                    st = self
                        .sched
                        .cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                st.started = true;
                pick_next(&mut st);
                self.sched.cv.notify_all();
                while !(st.deadlocked || st.threads.iter().all(|t| matches!(t, TState::Finished))) {
                    st = self
                        .sched
                        .cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
            let mut first_panic = None;
            for h in self.handles.drain(..) {
                if let Err(payload) = h.join() {
                    first_panic.get_or_insert(payload);
                }
            }
            let st = super::lock(&self.sched.state);
            if st.deadlocked {
                let replay = Schedule {
                    seed: st.seed,
                    choices: st.choices.iter().map(|&(_, k)| k).collect(),
                };
                drop(st);
                // lint:allow(core-panic): a deadlocked schedule cannot make progress; the panic carries the replay seed.
                panic!("deterministic-sync: deadlock detected; replay with {replay}");
            }
            drop(st);
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
        }
    }

    // --- the cooperative scheduler ---------------------------------------

    /// TLS handle installed in scheduler-driven threads; stored in
    /// [`super::TracedGuard`] so the release is reported to the same
    /// scheduler that granted the acquisition.
    #[derive(Clone)]
    pub(crate) struct TraceCtx {
        sched: Arc<Scheduler>,
        tid: usize,
    }

    thread_local! {
        static CTX: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
    }

    fn current_ctx() -> Option<TraceCtx> {
        CTX.with(|c| c.borrow().clone())
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TState {
        /// Spawned but not yet at its initial gate.
        Spawning,
        /// Parked at a schedule point, optionally wanting a lock.
        AtPoint(Option<LockId>),
        /// Holds the run token.
        Running,
        /// Completed (normally or by unwinding).
        Finished,
    }

    /// Shared scheduler for the threads of one run.
    pub(crate) struct Scheduler {
        state: Mutex<State>,
        cv: Condvar,
    }

    struct State {
        seed: u64,
        started: bool,
        forced: Vec<usize>,
        rng: Option<SplitMix64>,
        /// `(n_options, picked)` per schedule point, in order.
        choices: Vec<(usize, usize)>,
        threads: Vec<TState>,
        current: Option<usize>,
        owners: BTreeMap<LockId, usize>,
        held: Vec<Vec<LockId>>,
        /// Per-thread vector clocks (index = thread, value = count).
        clocks: Vec<Vec<u64>>,
        /// Clock snapshot stored at each lock's latest release.
        lock_clocks: BTreeMap<LockId, Vec<u64>>,
        /// `(epoch, clock)` of the latest `EpochCell` publish.
        last_publish: Option<(u64, Vec<u64>)>,
        events: Vec<Event>,
        violations: Vec<(&'static str, usize, String)>,
        deadlocked: bool,
    }

    impl Scheduler {
        fn new(seed: u64, forced: Vec<usize>, random_tail: bool) -> Self {
            Self {
                state: Mutex::new(State {
                    seed,
                    started: false,
                    forced,
                    rng: random_tail.then(|| SplitMix64::new(seed)),
                    choices: Vec::new(),
                    threads: Vec::new(),
                    current: None,
                    owners: BTreeMap::new(),
                    held: Vec::new(),
                    clocks: Vec::new(),
                    lock_clocks: BTreeMap::new(),
                    last_publish: None,
                    events: Vec::new(),
                    violations: Vec::new(),
                    deadlocked: false,
                }),
                cv: Condvar::new(),
            }
        }
    }

    /// Rank in the required acquisition order: shards ascending, global
    /// last. `Named` locks are outside the hierarchy.
    fn rank(id: LockId) -> Option<u64> {
        match id {
            LockId::Shard(i) => Some(u64::from(i)),
            LockId::Global => Some(u64::MAX),
            LockId::Named(_) => None,
        }
    }

    /// Chooses the next thread to grant the run token to. Runnable =
    /// parked at a point whose wanted lock (if any) is currently free;
    /// lock-blocked threads are excluded so every recorded choice is
    /// between threads that can actually make progress.
    fn pick_next(st: &mut State) {
        if !st.started {
            return;
        }
        if st.deadlocked {
            st.current = None;
            return;
        }
        let runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| match t {
                TState::AtPoint(want) => want.is_none_or(|id| !st.owners.contains_key(&id)),
                _ => false,
            })
            .map(|(tid, _)| tid)
            .collect();
        if runnable.is_empty() {
            if !st.threads.iter().all(|t| matches!(t, TState::Finished)) {
                let waiting: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter_map(|(tid, t)| match t {
                        TState::AtPoint(Some(id)) => Some(format!("thread {tid} waits on {id}")),
                        _ => None,
                    })
                    .collect();
                st.deadlocked = true;
                st.violations.push(("deadlock", 0, waiting.join("; ")));
            }
            st.current = None;
            return;
        }
        let n = runnable.len();
        let pos = st.choices.len();
        let k = if pos < st.forced.len() {
            st.forced[pos].min(n - 1)
        } else if let Some(rng) = st.rng.as_mut() {
            rng.next_below(n)
        } else {
            0
        };
        st.choices.push((n, k));
        st.current = Some(runnable[k]);
    }

    /// Parks the calling thread at a schedule point until the scheduler
    /// grants it the run token (and, when `want` is set, the lock).
    fn schedule_point(sched: &Arc<Scheduler>, tid: usize, want: Option<LockId>) {
        let mut st = super::lock(&sched.state);
        st.threads[tid] = TState::AtPoint(want);
        pick_next(&mut st);
        sched.cv.notify_all();
        while st.current != Some(tid) {
            if st.deadlocked {
                let replay = Schedule {
                    seed: st.seed,
                    choices: st.choices.iter().map(|&(_, k)| k).collect(),
                };
                drop(st);
                // lint:allow(core-panic): unwinding is the only way out of a deadlocked schedule; FinishOnDrop keeps the scheduler consistent.
                panic!("deterministic-sync: deadlock detected; replay with {replay}");
            }
            st = sched.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.threads[tid] = TState::Running;
        if let Some(id) = want {
            check_order(&mut st, tid, id);
            st.owners.insert(id, tid);
            st.held[tid].push(id);
            tick(&mut st, tid);
            if let Some(lc) = st.lock_clocks.get(&id).cloned() {
                join_clock(&mut st.clocks[tid], &lc);
            }
            st.events.push(Event::Acquire {
                thread: tid,
                lock: id,
            });
        }
    }

    fn check_order(st: &mut State, tid: usize, id: LockId) {
        let Some(new_rank) = rank(id) else { return };
        for &h in &st.held[tid] {
            if let Some(held_rank) = rank(h) {
                if new_rank <= held_rank {
                    st.violations.push((
                        "lock-order",
                        tid,
                        format!(
                            "acquired {id} while holding {h}; required order is \
                             shards ascending, then global"
                        ),
                    ));
                }
            }
        }
    }

    // --- vector clocks ----------------------------------------------------

    fn tick(st: &mut State, tid: usize) {
        let clock = &mut st.clocks[tid];
        if clock.len() <= tid {
            clock.resize(tid + 1, 0);
        }
        clock[tid] += 1;
    }

    fn join_clock(into: &mut Vec<u64>, other: &[u64]) {
        if into.len() < other.len() {
            into.resize(other.len(), 0);
        }
        for (a, &b) in into.iter_mut().zip(other) {
            *a = (*a).max(b);
        }
    }

    /// `a ≤ b` componentwise — every event in `a` happens-before (or is)
    /// the frontier `b`.
    fn clock_leq(a: &[u64], b: &[u64]) -> bool {
        a.iter()
            .enumerate()
            .all(|(i, &v)| v <= b.get(i).copied().unwrap_or(0))
    }

    // --- hooks called from the shim types ---------------------------------

    /// Called by [`super::TracedMutex::lock`]; returns the context the
    /// guard must report its release to, or `None` outside exploration.
    pub(crate) fn on_acquire(id: LockId) -> Option<TraceCtx> {
        let ctx = current_ctx()?;
        schedule_point(&ctx.sched, ctx.tid, Some(id));
        Some(ctx)
    }

    /// Called by [`super::TracedGuard`]'s drop.
    pub(crate) fn on_release(ctx: &TraceCtx, id: LockId) {
        let mut st = super::lock(&ctx.sched.state);
        st.owners.remove(&id);
        if let Some(pos) = st.held[ctx.tid].iter().rposition(|&h| h == id) {
            st.held[ctx.tid].remove(pos);
        }
        tick(&mut st, ctx.tid);
        let clock = st.clocks[ctx.tid].clone();
        st.lock_clocks.insert(id, clock);
        st.events.push(Event::Release {
            thread: ctx.tid,
            lock: id,
        });
    }

    /// Called by `EpochCell::publish` before the swap: a schedule point,
    /// plus the no-guard-across-publish check — the runtime twin of the
    /// static `lock-across-publish` rule. Refits publish after dropping
    /// the global guard they installed under.
    pub(crate) fn on_publish_point() {
        let Some(ctx) = current_ctx() else { return };
        schedule_point(&ctx.sched, ctx.tid, None);
        let mut st = super::lock(&ctx.sched.state);
        let held = st.held[ctx.tid].clone();
        for h in held {
            st.violations.push((
                "lock-across-publish",
                ctx.tid,
                format!("epoch publish while holding {h}"),
            ));
        }
    }

    /// Called by `EpochCell::publish` after the swap with the new epoch.
    pub(crate) fn on_published(epoch: u64) {
        let Some(ctx) = current_ctx() else { return };
        let mut st = super::lock(&ctx.sched.state);
        tick(&mut st, ctx.tid);
        let clock = st.clocks[ctx.tid].clone();
        st.last_publish = Some((epoch, clock));
        st.events.push(Event::Publish {
            thread: ctx.tid,
            epoch,
        });
    }

    /// Called by `EpochCell::load`: happens-before staleness check — a
    /// load whose thread already observed (transitively) a publish of a
    /// newer epoch than it just read is a torn read model.
    pub(crate) fn on_epoch_load(epoch: u64) {
        let Some(ctx) = current_ctx() else { return };
        let mut st = super::lock(&ctx.sched.state);
        tick(&mut st, ctx.tid);
        if let Some((published, pclock)) = st.last_publish.clone() {
            if clock_leq(&pclock, &st.clocks[ctx.tid]) && epoch < published {
                st.violations.push((
                    "stale-epoch-read",
                    ctx.tid,
                    format!(
                        "loaded epoch {epoch} although publish of epoch {published} \
                         happens-before this read"
                    ),
                ));
            }
            if epoch >= published {
                join_clock(&mut st.clocks[ctx.tid], &pclock);
            }
        }
        st.events.push(Event::EpochLoad {
            thread: ctx.tid,
            epoch,
        });
    }

    /// Called by `WorkspacePool` on workspace checkout/return (recorded
    /// for event traces; not a schedule point — the pool never blocks).
    pub(crate) fn on_pool_event(acquire: bool) {
        let Some(ctx) = current_ctx() else { return };
        let mut st = super::lock(&ctx.sched.state);
        tick(&mut st, ctx.tid);
        st.events.push(if acquire {
            Event::PoolAcquire { thread: ctx.tid }
        } else {
            Event::PoolRelease { thread: ctx.tid }
        });
    }

    /// Marks the thread finished even when it unwinds, so a panicking
    /// thread (assertion failure, deadlock abort) never wedges the rest
    /// of the run or the joining driver.
    struct FinishOnDrop {
        sched: Arc<Scheduler>,
        tid: usize,
    }

    impl Drop for FinishOnDrop {
        fn drop(&mut self) {
            let mut st = super::lock(&self.sched.state);
            st.threads[self.tid] = TState::Finished;
            if st.current == Some(self.tid) {
                st.current = None;
            }
            pick_next(&mut st);
            self.sched.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recovers_from_poison() {
        let m = Mutex::new(5u32);
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = lock(&m);
            panic!("poison the lock");
        }));
        assert!(poisoner.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 5);
    }

    #[test]
    fn traced_mutex_plain_path_and_ids() {
        let m = TracedMutex::new(LockId::Named("scratch"), vec![1u8]);
        assert_eq!(m.id(), LockId::Named("scratch"));
        m.lock().push(2);
        assert_eq!(*m.lock(), vec![1, 2]);
        assert_eq!(LockId::Shard(3).to_string(), "shard[3]");
        assert_eq!(LockId::Global.to_string(), "global");
        assert_eq!(LockId::Named("scratch").to_string(), "scratch");
    }
}

#[cfg(test)]
#[cfg(feature = "deterministic-sync")]
mod explore_tests {
    use std::sync::Arc;

    use super::explore::{Explorer, Run};
    use super::{LockId, TracedMutex};
    use crate::epoch::EpochCell;

    #[test]
    fn exhaustive_counter_explores_all_interleavings() {
        let report = Explorer::exhaustive(100).explore(|run| {
            let m = Arc::new(TracedMutex::new(LockId::Global, 0u32));
            let done = Arc::clone(&m);
            for _ in 0..2 {
                let m = Arc::clone(&m);
                run.thread(move || {
                    *m.lock() += 1;
                });
            }
            run.join();
            assert_eq!(*done.lock(), 2);
        });
        // Two threads × (start gate + one acquisition) = C(4, 2) = 6
        // interleavings of the schedule points.
        assert_eq!(report.schedules, 6);
        assert!(report.exhausted);
        assert!(report.violations.is_empty());
        assert!(report.events > 0);
    }

    #[test]
    fn budget_bounds_exploration() {
        let report = Explorer::exhaustive(1).explore(two_counter_threads);
        assert_eq!(report.schedules, 1);
        assert!(!report.exhausted);
    }

    #[test]
    fn random_style_is_bounded_and_clean() {
        let report = Explorer::random(0xDECAF, 5).explore(two_counter_threads);
        assert_eq!(report.schedules, 5);
        assert!(!report.exhausted);
        assert!(report.violations.is_empty());
    }

    fn two_counter_threads(run: &mut Run) {
        let m = Arc::new(TracedMutex::new(LockId::Global, 0u32));
        for _ in 0..2 {
            let m = Arc::clone(&m);
            run.thread(move || {
                *m.lock() += 1;
            });
        }
        run.join();
    }

    fn inverted_order(run: &mut Run) {
        let global = Arc::new(TracedMutex::new(LockId::Global, ()));
        let shard = Arc::new(TracedMutex::new(LockId::Shard(0), ()));
        run.thread(move || {
            let g = global.lock();
            let s = shard.lock();
            drop(s);
            drop(g);
        });
        run.join();
    }

    #[test]
    fn wrong_order_acquisition_is_caught_and_replayable() {
        let report = Explorer::exhaustive(10).explore(inverted_order);
        assert!(report.exhausted);
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.rule, "lock-order");
        let shown = v.to_string();
        assert!(shown.contains("seed="), "replay seed missing: {shown}");
        // The attached schedule reproduces the violation exactly.
        let again = Explorer::exhaustive(10).replay(&v.schedule, inverted_order);
        assert_eq!(again.schedules, 1);
        assert_eq!(again.violations.len(), 1);
        assert_eq!(again.violations[0].rule, "lock-order");
    }

    #[test]
    fn ascending_shards_then_global_is_legal() {
        let report = Explorer::exhaustive(10).explore(|run| {
            let s0 = Arc::new(TracedMutex::new(LockId::Shard(0), ()));
            let s1 = Arc::new(TracedMutex::new(LockId::Shard(1), ()));
            let g = Arc::new(TracedMutex::new(LockId::Global, ()));
            run.thread(move || {
                // The audited snapshot pattern: every shard ascending,
                // then the global lock.
                let a = s0.lock();
                let b = s1.lock();
                let c = g.lock();
                drop((a, b, c));
            });
            run.join();
        });
        assert!(report.exhausted);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn publish_under_shard_guard_is_caught() {
        let report = Explorer::exhaustive(10).explore(|run| {
            let shard = Arc::new(TracedMutex::new(LockId::Shard(0), ()));
            let cell = Arc::new(EpochCell::new(0u8));
            run.thread(move || {
                let s = shard.lock();
                cell.publish(1);
                drop(s);
            });
            run.join();
        });
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "lock-across-publish");
    }

    #[test]
    fn publish_under_global_guard_is_caught() {
        let report = Explorer::exhaustive(10).explore(|run| {
            let global = Arc::new(TracedMutex::new(LockId::Global, ()));
            let cell = Arc::new(EpochCell::new(0u8));
            run.thread(move || {
                let g = global.lock();
                cell.publish(1);
                drop(g);
            });
            run.join();
        });
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "lock-across-publish");
    }

    #[test]
    fn publish_and_load_across_threads_is_clean() {
        let report = Explorer::exhaustive(100).explore(|run| {
            let cell = Arc::new(EpochCell::new(0u8));
            let reader = Arc::clone(&cell);
            run.thread(move || {
                cell.publish(1);
            });
            run.thread(move || {
                let (_epoch, value) = reader.load();
                assert!(*value <= 1);
            });
            run.join();
        });
        assert!(report.exhausted);
        assert!(report.violations.is_empty());
        // Publish + load events recorded in every schedule.
        assert!(report.events >= 2 * report.schedules);
    }

    #[test]
    fn deadlock_panics_with_replayable_schedule() {
        let attempt = std::panic::catch_unwind(|| {
            Explorer::exhaustive(50).explore(|run| {
                let a = Arc::new(TracedMutex::new(LockId::Named("a"), ()));
                let b = Arc::new(TracedMutex::new(LockId::Named("b"), ()));
                for flip in [false, true] {
                    let a = Arc::clone(&a);
                    let b = Arc::clone(&b);
                    run.thread(move || {
                        let (first, second) = if flip { (&b, &a) } else { (&a, &b) };
                        let _f = first.lock();
                        let _s = second.lock();
                    });
                }
                run.join();
            })
        });
        let payload = attempt.expect_err("opposed lock orders must deadlock");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("seed="), "{msg}");
    }
}
