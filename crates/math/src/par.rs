//! Work on parked helper threads — the one fan-out the frame engine and the
//! fit share.
//!
//! [`detected_workers`] is the process-wide worker budget (`ASDR_WORKERS`,
//! else the detected hardware parallelism); [`fan_out`] runs one closure on
//! that many threads, the caller included; [`for_each_mut`] hands the items
//! of a slice out to them, one claim at a time.
//!
//! The helpers outlive the call. A call claims idle helpers from one
//! process-wide pool, spawns (named `asdr-par`) any it is short, and hands
//! each a borrowed job. A helper that has run its job parks itself back in
//! the pool on a `Condvar`; at most `detected_workers() − 1` stay parked,
//! and a helper returned beyond that exits. An adaptive frame fans out
//! twice, so this saves it two thread spawns and joins (DESIGN.md §2).

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The most workers a count given from outside the program may ask for:
/// `ASDR_WORKERS`, or a binary's `--workers`, `--shards` or
/// `--remote spawn:N` — threads or processes, each of which is started.
pub const MAX_WORKERS: usize = 256;

/// `s` as a count of workers given from outside the program: a whole number
/// from 1 to [`MAX_WORKERS`], else `None`.
pub fn parse_workers(s: &str) -> Option<usize> {
    s.parse::<usize>().ok().filter(|n| (1..=MAX_WORKERS).contains(n))
}

/// Default parallelism: `ASDR_WORKERS` (containers often misreport their
/// CPU budget; ignored unless [`parse_workers`] takes it) or the detected
/// hardware parallelism. Read once per process — the render hot path must
/// never call `getenv` (unsynchronized `setenv` elsewhere would race it).
pub fn detected_workers() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::env::var("ASDR_WORKERS")
            .ok()
            .and_then(|s| parse_workers(&s))
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// Runs `work` on the caller plus `workers − 1` pooled helper threads and
/// returns every worker's result, the caller's first. One worker (or none)
/// spawns nothing. A helper's panic is re-raised here once every helper has
/// finished; so is a panic in the caller's own `work`.
pub fn fan_out<R: Send>(workers: usize, work: impl Fn() -> R + Sync) -> Vec<R> {
    if workers <= 1 {
        return vec![work()];
    }
    let theirs = Mutex::new(Vec::with_capacity(workers - 1));
    let job = || {
        let result = work();
        lock(&theirs).push(result);
    };
    let join = Join { latch: Arc::default(), job: &job };
    for _ in 1..workers {
        start(join.hand());
    }
    let mine = work();
    if let Some(payload) = join.finish() {
        panic::resume_unwind(payload);
    }
    let mut results = vec![mine];
    results.append(&mut theirs.into_inner().unwrap_or_else(PoisonError::into_inner));
    results
}

/// Calls `work(i, &mut items[i])` for every item, on at most `workers`
/// threads ([`fan_out`]) that claim the items in order, one at a time.
/// Each item is visited exactly once; which thread visits it, and when,
/// is unspecified.
pub fn for_each_mut<T: Send>(workers: usize, items: &mut [T], work: impl Fn(usize, &mut T) + Sync) {
    let workers = workers.min(items.len());
    let claims = Mutex::new(items.iter_mut().enumerate());
    fan_out(workers, || loop {
        // the claim is released before the work: `work` runs unlocked
        let claimed = claims.lock().expect("a claim never panics holding the lock").next();
        let Some((i, item)) = claimed else { return };
        work(i, item);
    });
}

/// How many helper threads this process has spawned: a call that finds
/// enough helpers parked spawns none.
#[doc(hidden)]
pub fn helpers_spawned() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

type Payload = Box<dyn Any + Send>;

/// Idle helpers, the one parked last on top: a call claims the helper whose
/// stack and caches are warmest.
static IDLE: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Every update under the pool's locks is one step (a count, a slot, a
/// push or a pop), so the data is valid even after a panic, and `Join`'s
/// `drop` must not panic on a poisoned lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A job handed to one helper, and the latch it reports to when the job
/// has returned or panicked.
struct Task {
    job: &'static (dyn Fn() + Sync),
    latch: Arc<Latch>,
}

/// Counts the helpers that were handed a call's job and have not reported
/// done, and keeps the first panic among them.
#[derive(Default)]
struct Latch {
    state: Mutex<(usize, Option<Payload>)>,
    done: Condvar,
}

impl Latch {
    fn report(&self, panic: Option<Payload>) {
        let mut state = lock(&self.state);
        state.0 -= 1;
        if state.1.is_none() {
            state.1 = panic;
        }
        let last = state.0 == 0;
        drop(state);
        // unlocked first, so the woken caller does not block on the lock
        if last {
            self.done.notify_one();
        }
    }

    /// Blocks until every helper handed the job has reported; returns the
    /// first helper panic, once.
    fn wait(&self) -> Option<Payload> {
        let state = lock(&self.state);
        let mut state =
            self.done.wait_while(state, |s| s.0 > 0).unwrap_or_else(PoisonError::into_inner);
        state.1.take()
    }
}

/// One call's hold on its job, which lives on the caller's stack. Dropping
/// it — on return or while a panic unwinds the caller — blocks until every
/// helper it handed the job to has reported done.
struct Join<'job> {
    latch: Arc<Latch>,
    job: &'job (dyn Fn() + Sync + 'job),
}

impl<'job> Join<'job> {
    /// Counts one more helper in and returns the task to hand it.
    #[allow(unsafe_code)]
    fn hand(&self) -> Task {
        lock(&self.latch.state).0 += 1;
        // SAFETY: only the lifetime changes. The task's `job` is called by
        // exactly one helper, and never after that helper's `report` to
        // this latch, which the count above is waiting for. `Join` borrows
        // the job for 'job, is private to this module and is never leaked
        // or forgotten, so its `drop` runs before 'job ends — on
        // `fan_out`'s return and on an unwind out of the caller's own
        // `work` alike — and blocks until the count is back to zero. A
        // helper runs the job under `catch_unwind`, so a panicking job
        // reports too, and a task whose helper cannot be spawned is
        // reported by `start`.
        let job = unsafe {
            std::mem::transmute::<&'job (dyn Fn() + Sync + 'job), &'static (dyn Fn() + Sync)>(
                self.job,
            )
        };
        Task { job, latch: Arc::clone(&self.latch) }
    }

    /// Waits for every helper; returns the first helper panic.
    fn finish(self) -> Option<Payload> {
        self.latch.wait()
    }
}

impl Drop for Join<'_> {
    fn drop(&mut self) {
        self.latch.wait();
    }
}

/// A helper thread's slot: a call hands it a task here, and the helper
/// parks on `wake` until one arrives.
#[derive(Default)]
struct Helper {
    task: Mutex<Option<Task>>,
    wake: Condvar,
}

/// Hands `task` to the helper parked last, or spawns a helper for it.
fn start(task: Task) {
    let parked = lock(&IDLE).pop();
    if let Some(helper) = parked {
        *lock(&helper.task) = Some(task);
        helper.wake.notify_one();
        return;
    }
    SPAWNED.fetch_add(1, Ordering::Relaxed);
    let latch = Arc::clone(&task.latch);
    let spawned = std::thread::Builder::new()
        .name("asdr-par".into())
        .spawn(move || serve(Arc::default(), task));
    if let Err(e) = spawned {
        latch.report(None);
        panic!("cannot spawn an asdr-par helper: {e}");
    }
}

/// A helper's life: run the task, park, wait for the next one — or exit
/// when the pool already holds `detected_workers() − 1` helpers.
fn serve(me: Arc<Helper>, mut task: Task) {
    loop {
        let Task { job, latch } = task;
        let panic = panic::catch_unwind(AssertUnwindSafe(job)).err();
        // parked before the caller hears of it, so the caller's next call
        // finds this helper instead of spawning another
        let parked = {
            let mut idle = lock(&IDLE);
            let room = idle.len() < detected_workers() - 1;
            if room {
                idle.push(Arc::clone(&me));
            }
            room
        };
        latch.report(panic);
        if !parked {
            return;
        }
        let slot = me.wake.wait_while(lock(&me.task), |t| t.is_none());
        let mut slot = slot.unwrap_or_else(PoisonError::into_inner);
        task = slot.take().expect("woken with a task");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn a_worker_count_from_outside_is_a_whole_number_up_to_the_bound() {
        for (s, n) in [("1", Some(1)), ("2", Some(2)), ("256", Some(MAX_WORKERS))] {
            assert_eq!(parse_workers(s), n, "{s:?}");
        }
        for s in ["0", "257", "100000", "-1", "2.5", "", " 2", "lots", "99999999999999999999999"] {
            assert_eq!(parse_workers(s), None, "{s:?}");
        }
    }

    #[test]
    fn fan_out_returns_one_result_per_worker_and_propagates_a_helper_panic() {
        for n in [1, 2, 5] {
            let next = AtomicUsize::new(0);
            let mut tickets = fan_out(n, || next.fetch_add(1, Ordering::Relaxed));
            tickets.sort_unstable();
            assert_eq!(tickets, (0..n).collect::<Vec<_>>());
        }
        // one helper (never the caller) panics; the panic surfaces only
        // after the caller and the other two helpers have run to the end
        let caller = std::thread::current().id();
        let (panicked, finished) = (AtomicBool::new(false), AtomicUsize::new(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(4, || {
                let helper = std::thread::current().id() != caller;
                if helper && !panicked.swap(true, Ordering::Relaxed) {
                    panic!("helper down");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let message = result.unwrap_err().downcast::<&str>().expect("the helper's own payload");
        assert_eq!(*message, "helper down");
        assert_eq!(finished.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn for_each_mut_visits_every_item_once_on_any_worker_count() {
        for workers in [0, 1, 2, 3, 8] {
            for len in [0, 1, 5, 17] {
                let mut items: Vec<(usize, u32)> = vec![(usize::MAX, 0); len];
                for_each_mut(workers, &mut items, |i, item| *item = (i, item.1 + 1));
                let want: Vec<(usize, u32)> = (0..len).map(|i| (i, 1)).collect();
                assert_eq!(items, want, "{workers} workers over {len} items");
            }
        }
    }

    /// The pool is process-wide: the tests below count its threads, so
    /// they take turns.
    fn one_at_a_time() -> MutexGuard<'static, ()> {
        static TURN: Mutex<()> = Mutex::new(());
        lock(&TURN)
    }

    /// How many helpers the pool keeps parked.
    fn retained() -> usize {
        detected_workers() - 1
    }

    #[test]
    fn a_panic_in_the_callers_work_waits_for_every_helper() {
        let _turn = one_at_a_time();
        let caller = thread::current().id();
        let workers = 4;
        let (go, finished) = (AtomicBool::new(false), AtomicUsize::new(0));
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            fan_out(workers, || {
                if thread::current().id() == caller {
                    go.store(true, Ordering::Release);
                    panic!("caller down");
                }
                // still borrowing `go` and `finished` well after the
                // caller's panic: `fan_out` must not have returned yet
                while !go.load(Ordering::Acquire) {
                    thread::yield_now();
                }
                (0..1000).for_each(|_| thread::yield_now());
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let message = result.unwrap_err().downcast::<&str>().expect("the caller's own payload");
        assert_eq!(*message, "caller down");
        assert_eq!(finished.load(Ordering::Relaxed), workers - 1);
    }

    #[test]
    fn a_helper_whose_job_panicked_serves_the_next_call() {
        let _turn = one_at_a_time();
        let caller = thread::current().id();
        let downed = Mutex::new(None);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            fan_out(2, || {
                if thread::current().id() != caller {
                    *lock(&downed) = Some(thread::current().id());
                    panic!("helper down");
                }
            })
        }));
        assert!(result.is_err());
        let downed = downed.into_inner().unwrap().expect("the helper ran");
        if retained() == 0 {
            eprintln!("SKIPPED: a worker budget of 1 parks no helper to serve again");
            return;
        }
        // the pool hands out the helper parked last: this one, unless a
        // call elsewhere in the process claimed it in between
        let served = (0..100).any(|_| fan_out(2, || thread::current().id()) == [caller, downed]);
        assert!(served, "the helper that panicked never served another call");
    }

    #[test]
    fn concurrent_calls_each_get_their_own_results() {
        let _turn = one_at_a_time();
        thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in 0..500 {
                        assert_eq!(fan_out(3, || (t, i)), [(t, i); 3]);
                    }
                });
            }
        });
    }

    #[test]
    fn a_fan_out_nested_in_a_job_returns() {
        let _turn = one_at_a_time();
        let inner = fan_out(3, || fan_out(2, || 7).len());
        assert_eq!(inner, [2, 2, 2]);
    }

    #[test]
    fn a_wide_call_parks_no_more_helpers_than_the_budget_keeps() {
        let _turn = one_at_a_time();
        assert_eq!(fan_out(64, || 1).len(), 64);
        let parked = lock(&IDLE).len();
        assert!(parked <= retained(), "{parked} helpers parked, at most {} kept", retained());
    }

    #[test]
    fn consecutive_calls_reuse_parked_helpers() {
        let _turn = one_at_a_time();
        if retained() == 0 {
            eprintln!("SKIPPED: a worker budget of 1 parks no helper to reuse");
            return;
        }
        let before = helpers_spawned();
        for _ in 0..1000 {
            assert_eq!(fan_out(2, || 1).len(), 2);
        }
        // loose: the first two tests do not take turns and may claim the
        // parked helper meanwhile
        let spawned = helpers_spawned() - before;
        assert!(spawned < 100, "1000 calls spawned {spawned} helpers");
    }
}
