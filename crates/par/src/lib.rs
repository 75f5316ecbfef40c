//! Minimal data parallelism on `std::thread::scope`.
//!
//! The workspace runs fully offline, so instead of rayon this crate provides
//! the primitives memconv actually needs:
//!
//! * [`map_indexed`] — dynamically scheduled, order-preserving parallel map
//!   over `0..n` (used by the simulator's parallel launch engine, where item
//!   cost varies block to block);
//! * [`map_sharded_with`] — order-preserving parallel map over per-shard
//!   work queues with affinity + work stealing (used by the serving
//!   fleet's per-device launch queues);
//! * [`for_each_chunk_mut`] — statically scheduled parallel iteration over
//!   mutable equal-cost chunks of a slice (used by the CPU reference
//!   convolutions, one output plane per chunk).
//!
//! Thread count resolution is shared: `MEMCONV_THREADS` if set and nonzero,
//! else [`std::thread::available_parallelism`]. With one thread both
//! primitives degrade to plain sequential loops on the caller's thread —
//! no pool, no atomics.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Number of worker threads: `MEMCONV_THREADS` if set to a nonzero integer,
/// otherwise the host's available parallelism (at least 1).
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("MEMCONV_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// [`map_indexed`] with an explicit thread count.
///
/// Workers pull indices from a shared counter (dynamic scheduling), so
/// uneven per-item cost still balances. The result vector is in index
/// order regardless of completion order. A panic in `f` propagates to the
/// caller once all workers have stopped: the panic of the lowest index
/// that panicked, whatever the thread count and timing.
pub fn map_indexed_with<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_scoped(n, threads, || (), |i, _| f(i)).0
}

/// [`map_indexed_with`] with per-worker scratch state.
///
/// Each worker thread owns one `S` built by `init` and threads it through
/// every item it processes; the states are handed back to the caller when
/// all workers finish (in no particular order, `threads` of them at most).
/// This is how the simulator's launch engine recycles per-worker scratch
/// (trace arenas, store-buffer page tables) across blocks without sharing
/// or locking on the hot path. Scheduling and ordering are those of
/// [`map_indexed_with`].
///
/// Panics resume in index order, not join order: each worker catches its
/// item's panic and stops, the others stop claiming, and the lowest
/// panicking index's payload is resumed. Indices are claimed in ascending
/// order, so every index below it was claimed and completed — it is the
/// item a sequential loop would have stopped at (the simulator's parallel
/// engine relies on this to report the lowest faulting block).
pub fn map_indexed_scoped<R, S, I, F>(n: usize, threads: usize, init: I, f: F) -> (Vec<R>, Vec<S>)
where
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> R + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        let mut state = init();
        let out = (0..n).map(|i| f(i, &mut state)).collect();
        return (out, vec![state]);
    }

    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(n);
    let mut states: Vec<S> = Vec::with_capacity(threads);
    let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut panicked = None;
                    while !failed.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(i, &mut state))) {
                            Ok(r) => local.push((i, r)),
                            Err(payload) => {
                                failed.store(true, Ordering::Relaxed);
                                panicked = Some((i, payload));
                                break;
                            }
                        }
                    }
                    (local, state, panicked)
                })
            })
            .collect();
        for h in handles {
            // Only `init` can still panic here; items' panics are caught.
            let (local, state, panicked) = h.join().unwrap_or_else(|p| resume_unwind(p));
            collected.extend(local);
            states.push(state);
            if let Some((i, payload)) = panicked {
                if first_panic.as_ref().map_or(true, |(lowest, _)| i < *lowest) {
                    first_panic = Some((i, payload));
                }
            }
        }
    });
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }

    collected.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(collected.len(), n);
    (collected.into_iter().map(|(_, r)| r).collect(), states)
}

/// Order-preserving parallel map over per-shard work queues with work
/// stealing.
///
/// `queue_lens[s]` is the length of shard `s`'s queue; `f(s, i)` processes
/// item `i` of shard `s`. Worker `w` is affined to queue `w % shards` and
/// drains it first (preserving cache/device affinity — in the serving
/// fleet, queue `s` holds the launch groups routed to device `s`), then
/// steals from whichever other queue has the most items remaining. The
/// result preserves queue order: `out[s][i] == f(s, i)` regardless of
/// which worker ran it or in what order. A panic in `f` propagates to the
/// caller once all workers have stopped.
pub fn map_sharded_with<R, F>(queue_lens: &[usize], threads: usize, f: F) -> Vec<Vec<R>>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let total: usize = queue_lens.iter().sum();
    let threads = threads.clamp(1, total.max(1));
    if threads <= 1 || total <= 1 {
        return queue_lens
            .iter()
            .enumerate()
            .map(|(s, &len)| (0..len).map(|i| f(s, i)).collect())
            .collect();
    }

    let cursors: Vec<AtomicUsize> = queue_lens.iter().map(|_| AtomicUsize::new(0)).collect();
    let mut collected: Vec<(usize, usize, R)> = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        let cursors = &cursors;
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let home = w % queue_lens.len().max(1);
                scope.spawn(move || {
                    let mut local: Vec<(usize, usize, R)> = Vec::new();
                    loop {
                        // Home queue first; else steal from the queue with
                        // the most remaining work (snapshot — benign races
                        // only cost an extra fetch_add probe).
                        let target = {
                            let remaining = |s: usize| {
                                queue_lens[s].saturating_sub(cursors[s].load(Ordering::Relaxed))
                            };
                            if remaining(home) > 0 {
                                Some(home)
                            } else {
                                (0..queue_lens.len())
                                    .filter(|&s| remaining(s) > 0)
                                    .max_by_key(|&s| remaining(s))
                            }
                        };
                        let Some(s) = target else { break };
                        let i = cursors[s].fetch_add(1, Ordering::Relaxed);
                        if i < queue_lens[s] {
                            local.push((s, i, f(s, i)));
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => collected.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    collected.sort_unstable_by_key(|&(s, i, _)| (s, i));
    debug_assert_eq!(collected.len(), total);
    let mut out: Vec<Vec<R>> = queue_lens.iter().map(|&l| Vec::with_capacity(l)).collect();
    for (s, _, r) in collected {
        out[s].push(r);
    }
    out
}

/// Order-preserving parallel map of `f` over `0..n` using [`num_threads`].
pub fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_with(n, num_threads(), f)
}

/// Run `f(chunk_index, chunk)` over consecutive `chunk_len`-sized pieces of
/// `data` in parallel (the final chunk may be shorter). Static round-robin
/// assignment — chunks are assumed similar in cost.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be nonzero");
    let threads = num_threads();
    if threads <= 1 || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }

    let mut lanes: Vec<Vec<(usize, &mut [T])>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        lanes[i % threads].push((i, chunk));
    }

    std::thread::scope(|scope| {
        for lane in lanes {
            let f = &f;
            scope.spawn(move || {
                for (i, chunk) in lane {
                    f(i, chunk);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_order() {
        for threads in [1, 2, 3, 7] {
            let out = map_indexed_with(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_indexed_handles_edge_sizes() {
        assert_eq!(map_indexed_with(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed_with(1, 4, |i| i + 10), vec![10]);
        assert_eq!(map_indexed_with(3, 16, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn for_each_chunk_mut_touches_every_element() {
        let mut data = vec![0u32; 1003];
        for_each_chunk_mut(&mut data, 10, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 10 + j) as u32;
            }
        });
        assert!(data.iter().enumerate().all(|(k, &v)| v == k as u32));
    }

    #[test]
    fn map_indexed_scoped_preserves_order_and_returns_states() {
        for threads in [1, 2, 3, 7] {
            let (out, states) = map_indexed_scoped(
                100,
                threads,
                || 0usize,
                |i, count| {
                    *count += 1;
                    i * i
                },
            );
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            assert!(!states.is_empty() && states.len() <= threads.max(1));
            assert_eq!(states.iter().sum::<usize>(), 100, "every item counted once");
        }
    }

    #[test]
    fn map_indexed_scoped_handles_empty_input() {
        let (out, states) = map_indexed_scoped(0, 4, || 7u32, |i, _| i);
        assert_eq!(out, Vec::<usize>::new());
        assert_eq!(states, vec![7]);
    }

    #[test]
    #[should_panic(expected = "scoped boom")]
    fn map_indexed_scoped_propagates_worker_panic() {
        map_indexed_scoped(
            8,
            2,
            || (),
            |i, _| {
                if i == 5 {
                    panic!("scoped boom");
                }
                i
            },
        );
    }

    /// The lowest panicking index wins, not the first worker joined or the
    /// first to panic: item 1 panics late, item 2 at once, and item 1's
    /// payload is resumed every time.
    #[test]
    fn map_indexed_scoped_resumes_the_lowest_panicking_index() {
        for _ in 0..20 {
            let caught = std::panic::catch_unwind(|| {
                map_indexed_scoped(
                    4,
                    2,
                    || (),
                    |i, _| {
                        if i == 1 {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            panic!("item 1");
                        }
                        if i == 2 {
                            panic!("item 2");
                        }
                        i
                    },
                )
            });
            let payload = caught.expect_err("items 1 and 2 panic");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 1"));
        }
    }

    #[test]
    fn map_sharded_preserves_queue_order() {
        let lens = [5usize, 0, 17, 3, 9];
        for threads in [1, 2, 3, 8, 32] {
            let out = map_sharded_with(&lens, threads, |s, i| s * 100 + i);
            assert_eq!(out.len(), lens.len());
            for (s, (queue, &len)) in out.iter().zip(lens.iter()).enumerate() {
                assert_eq!(queue, &(0..len).map(|i| s * 100 + i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn map_sharded_handles_edge_shapes() {
        assert_eq!(
            map_sharded_with(&[], 4, |s, i| (s, i)),
            Vec::<Vec<(usize, usize)>>::new()
        );
        assert_eq!(map_sharded_with(&[0, 0], 4, |_, i| i), vec![vec![], vec![]]);
        assert_eq!(map_sharded_with(&[1], 8, |s, i| s + i), vec![vec![0]]);
    }

    #[test]
    fn map_sharded_steals_across_queues() {
        use std::sync::atomic::AtomicUsize;
        // One heavy queue, three empty ones, more threads than queues:
        // every item must still be processed exactly once.
        let done = AtomicUsize::new(0);
        let out = map_sharded_with(&[64, 0, 0, 0], 8, |_, i| {
            done.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(done.load(Ordering::Relaxed), 64);
        assert_eq!(out[0], (0..64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "sharded boom")]
    fn map_sharded_propagates_worker_panic() {
        map_sharded_with(&[4, 4], 2, |s, i| {
            if s == 1 && i == 2 {
                panic!("sharded boom");
            }
            i
        });
    }

    #[test]
    fn threads_env_override_is_respected() {
        // num_threads() reads the env each call; just sanity-check the floor.
        assert!(num_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        map_indexed_with(8, 2, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
