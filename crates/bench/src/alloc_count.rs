//! Heap-allocation counting for the benchmark suite.
//!
//! Behind the `count-allocs` feature this module installs a global
//! allocator that wraps the system allocator and counts every
//! allocation, letting the zero-alloc gates and the trajectory report
//! **allocations per operation** — the honest way to verify the
//! zero-copy codec's "no per-message heap allocation in steady state"
//! claim (DESIGN.md §10). Without the feature the module compiles to a
//! no-op whose probes report `None`, so callers need no `cfg` of their
//! own and the default build keeps the workspace-wide `unsafe` ban.
//!
//! ```text
//! cargo test -p urb-bench --features count-allocs
//! ```

/// Number of heap allocations observed so far by the counting allocator,
/// or `None` when the `count-allocs` feature is off.
pub fn allocation_count() -> Option<u64> {
    imp::current()
}

/// Runs `f` and returns `(result, allocations performed by f)`; the
/// count is `None` when the `count-allocs` feature is off.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = allocation_count();
    let out = f();
    let after = allocation_count();
    (out, before.zip(after).map(|(b, a)| a - b))
}

/// [`count_allocations`] restricted to the calling thread: allocations
/// that other threads make meanwhile (tests running in parallel, say)
/// are not counted. For single-threaded probes such as the zero-alloc
/// gates in [`crate::compare`].
#[cfg(test)]
pub(crate) fn count_thread_allocations<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = imp::current_thread();
    let out = f();
    let after = imp::current_thread();
    (out, before.zip(after).map(|(b, a)| a - b))
}

#[cfg(feature = "count-allocs")]
#[allow(unsafe_code)]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        // Const-initialized and drop-free, so touching it from inside the
        // allocator never allocates or registers a destructor.
        static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn record() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // `try_with` fails only during thread teardown; that allocation
        // still counts process-wide.
        let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    /// System allocator with an allocation counter bolted on. Only
    /// `alloc`-family calls count (frees do not), since the claim under
    /// test is about *creating* heap blocks on the hot path.
    struct CountingAllocator;

    // SAFETY: defers verbatim to `System`, which upholds the GlobalAlloc
    // contract; the counter side effect does not touch the memory.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record();
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record();
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    pub(super) fn current() -> Option<u64> {
        Some(ALLOCATIONS.load(Ordering::Relaxed))
    }

    #[cfg(test)]
    pub(super) fn current_thread() -> Option<u64> {
        THREAD_ALLOCATIONS.try_with(Cell::get).ok()
    }
}

#[cfg(not(feature = "count-allocs"))]
mod imp {
    pub(super) fn current() -> Option<u64> {
        None
    }

    #[cfg(test)]
    pub(super) fn current_thread() -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_matches_feature_state() {
        let (value, counted) = count_allocations(|| std::hint::black_box(vec![1u8; 64]));
        assert_eq!(value.len(), 64);
        if cfg!(feature = "count-allocs") {
            assert!(counted.expect("feature on") >= 1, "the Vec allocation");
        } else {
            assert!(counted.is_none());
        }
    }

    #[test]
    fn thread_probe_ignores_other_threads() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        let stop = Arc::new(AtomicBool::new(false));
        let made = Arc::new(AtomicU64::new(0));
        let worker = {
            let (stop, made) = (Arc::clone(&stop), Arc::clone(&made));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(vec![1u8; 64]);
                    made.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        // Wait, without allocating, until the worker has allocated 100
        // times inside the probed window.
        let start = made.load(Ordering::Relaxed);
        let ((), here) = count_thread_allocations(|| {
            while made.load(Ordering::Relaxed) < start + 100 {
                std::hint::spin_loop();
            }
        });
        let ((), everywhere) = count_allocations(|| {
            let start = made.load(Ordering::Relaxed);
            while made.load(Ordering::Relaxed) < start + 100 {
                std::hint::spin_loop();
            }
        });
        stop.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        if cfg!(feature = "count-allocs") {
            assert_eq!(here, Some(0), "the worker's allocations are not ours");
            assert!(everywhere.expect("feature on") >= 100);
        } else {
            assert_eq!((here, everywhere), (None, None));
        }
    }
}
