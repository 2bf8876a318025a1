//! Shared data-parallel execution config and fan-out helper.
//!
//! The learned-sketch side of the pipeline (training, batch inference,
//! active-learning pool scoring) is embarrassingly parallel per item, so
//! it fans out over std scoped threads. A global pool would couple
//! determinism to ambient state; a [`Parallelism`] value carried in the
//! config keeps the thread count explicit and test-controllable.
//!
//! **Determinism contract:** every helper here preserves item order —
//! results are identical (bitwise, for pure per-item work) for any thread
//! count, including 1. Reductions over the mapped results are the
//! caller's job and must likewise run in item order.

/// Thread-count configuration for the data-parallel helpers.
///
/// `threads == 0` means "auto": resolve at use time to the `ALSS_THREADS`
/// environment variable, else the number of available cores, so an auto
/// config is portable across machines while a pinned one (`fixed(n)`)
/// stays exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Parallelism {
    /// Requested worker threads; `0` = auto-detect.
    pub threads: usize,
}

impl Parallelism {
    /// Auto-detected parallelism (`ALSS_THREADS` > cores).
    pub fn auto() -> Self {
        Parallelism { threads: 0 }
    }

    /// Exactly `n` worker threads (`fixed(1)` = the serial path).
    pub fn fixed(n: usize) -> Self {
        Parallelism { threads: n.max(1) }
    }

    /// Single-threaded.
    pub fn serial() -> Self {
        Self::fixed(1)
    }

    /// The resolved thread count (≥ 1).
    pub fn effective(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(n) = std::env::var("ALSS_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Worker count for a job of `n` items: never more workers than
    /// items, never fewer than 1.
    pub fn workers_for(&self, n: usize) -> usize {
        self.effective().min(n).max(1)
    }
}

/// Order-preserving parallel map: `out[i] == f(i, &items[i])` for every
/// `i`, regardless of thread count. Items are split into contiguous
/// chunks, one per worker; the first chunk runs on the calling thread (so
/// `fixed(1)` spawns nothing), the rest on scoped threads joined in chunk
/// order. A panicking worker propagates its panic to the caller.
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = par.workers_for(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .skip(1)
            .map(|(ci, chunk_items)| {
                let base = ci * chunk;
                s.spawn(move || {
                    chunk_items
                        .iter()
                        .enumerate()
                        .map(|(j, t)| f(base + j, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        out.extend(items[..chunk].iter().enumerate().map(|(i, t)| f(i, t)));
        for h in handles {
            match h.join() {
                Ok(v) => out.extend(v),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_is_positive() {
        assert!(Parallelism::auto().effective() >= 1);
        assert_eq!(Parallelism::fixed(3).effective(), 3);
        assert_eq!(Parallelism::fixed(0).effective(), 1);
        assert_eq!(Parallelism::serial().effective(), 1);
    }

    #[test]
    fn workers_capped_by_items() {
        assert_eq!(Parallelism::fixed(8).workers_for(3), 3);
        assert_eq!(Parallelism::fixed(2).workers_for(100), 2);
        assert_eq!(Parallelism::fixed(4).workers_for(0), 1);
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let serial = par_map(Parallelism::serial(), &items, |i, &x| x * 3 + i as u64);
        for threads in [2, 3, 4, 7, 16] {
            let parallel = par_map(Parallelism::fixed(threads), &items, |i, &x| {
                x * 3 + i as u64
            });
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(Parallelism::fixed(4), &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(Parallelism::fixed(4), &[9u32], |_, &x| x + 1), [10]);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(Parallelism::fixed(4), &items, |_, &x| {
            assert!(x < 40, "worker boom");
            x
        });
    }
}
