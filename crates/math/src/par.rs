//! Work on scoped threads — the one fan-out the frame engine and the fit
//! share.
//!
//! [`detected_workers`] is the process-wide worker budget (`ASDR_WORKERS`,
//! else the detected hardware parallelism); [`fan_out`] runs one closure on
//! that many threads, the caller included; [`for_each_mut`] hands the items
//! of a slice out to them, one claim at a time.

use std::sync::{Mutex, OnceLock};

/// Default parallelism: `ASDR_WORKERS` (containers often misreport their
/// CPU budget) or the detected hardware parallelism. Read once per process —
/// the render hot path must never call `getenv` (unsynchronized `setenv`
/// elsewhere would race it).
pub fn detected_workers() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::env::var("ASDR_WORKERS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// Runs `work` on the caller plus `workers − 1` scoped helper threads and
/// returns every worker's result, the caller's first. One worker (or none)
/// spawns nothing. A helper's panic is re-raised here once the scope has
/// joined the rest.
pub fn fan_out<R: Send>(workers: usize, work: impl Fn() -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(&work)).collect();
        let mut results = vec![work()];
        for h in helpers {
            results.push(h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        results
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
}
