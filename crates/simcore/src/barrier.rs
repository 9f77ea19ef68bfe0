//! A persistent worker pool for lockstep barrier rounds.
//!
//! The conservative parallel engine advances all domains through many
//! short windows — often tens of thousands per run — so spawning a thread
//! per window would dominate the cost. [`WorkerPool`] keeps one OS thread
//! per domain alive for the whole run and ping-pongs ownership of each
//! domain's state across an `mpsc` channel pair: the coordinator sends
//! `(state, window end)`, the worker runs the round function and sends the
//! state back. Receiving in index order is the barrier.
//!
//! Determinism note: the pool moves *ownership*; no state is shared
//! between domains during a round. Whatever order threads finish in, the
//! coordinator observes results in domain-index order.

use crate::SimTime;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// One worker: a thread plus its to/from channels.
struct Worker<T> {
    tx: mpsc::Sender<(T, SimTime)>,
    rx: mpsc::Receiver<T>,
    handle: Option<JoinHandle<()>>,
}

/// A pool of persistent threads, one per domain, executing lockstep
/// rounds of `f(&mut state, window_end)`.
pub struct WorkerPool<T: Send + 'static> {
    workers: Vec<Worker<T>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `n` workers, each looping over the given round function.
    pub fn new<F>(n: usize, f: F) -> Self
    where
        F: Fn(&mut T, SimTime) + Send + Sync + Clone + 'static,
    {
        let workers = (0..n)
            .map(|i| {
                let (to_worker, job_rx) = mpsc::channel::<(T, SimTime)>();
                let (done_tx, from_worker) = mpsc::channel::<T>();
                let round = f.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("vertigo-domain-{i}"))
                    .spawn(move || {
                        while let Ok((mut state, limit)) = job_rx.recv() {
                            round(&mut state, limit);
                            if done_tx.send(state).is_err() {
                                break; // coordinator gone
                            }
                        }
                    })
                    .expect("spawn domain worker thread");
                Worker {
                    tx: to_worker,
                    rx: from_worker,
                    handle: Some(handle),
                }
            })
            .collect();
        WorkerPool { workers }
    }

    /// Runs one barrier round: every state advances to `limit` on its own
    /// thread; returns the states in index order once all have finished.
    ///
    /// # Panics
    /// As [`WorkerPool::round_in_place`].
    pub fn round(&mut self, mut states: Vec<T>, limit: SimTime) -> Vec<T> {
        self.round_in_place(&mut states, limit);
        states
    }

    /// [`WorkerPool::round`] for a caller that keeps its `Vec`: the states
    /// leave and come back in index order, and the buffer is reused.
    ///
    /// # Panics
    /// Panics if any worker thread panicked (its channel closes), after
    /// joining it so the original panic message reaches stderr first.
    pub fn round_in_place(&mut self, states: &mut Vec<T>, limit: SimTime) {
        assert_eq!(
            states.len(),
            self.workers.len(),
            "one state per worker, in domain-index order"
        );
        for (w, s) in self.workers.iter().zip(states.drain(..)) {
            if w.tx.send((s, limit)).is_err() {
                panic!("domain worker died before the round started");
            }
        }
        states.extend(self.workers.iter_mut().map(|w| match w.rx.recv() {
            Ok(s) => s,
            Err(_) => {
                if let Some(h) = w.handle.take() {
                    let _ = h.join(); // surfaces the worker's panic payload
                }
                panic!("domain worker panicked during a barrier round");
            }
        }));
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        for w in &mut self.workers {
            // Dropping the sender ends the worker's recv loop.
            let (dead, _) = mpsc::channel();
            w.tx = dead;
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_return_states_in_index_order() {
        let mut pool: WorkerPool<(usize, u64)> =
            WorkerPool::new(4, |s: &mut (usize, u64), limit| {
                // Uneven work so finish order differs from index order.
                for _ in 0..(4 - s.0) * 10_000 {
                    s.1 = s.1.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                s.1 = s.1.wrapping_add(limit.as_nanos());
            });
        let states: Vec<_> = (0..4).map(|i| (i, i as u64)).collect();
        let out = pool.round(states, SimTime::from_nanos(500));
        let idx: Vec<_> = out.iter().map(|s| s.0).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_survives_many_rounds() {
        let mut pool: WorkerPool<u64> = WorkerPool::new(2, |s, _| *s += 1);
        let mut states = vec![0u64, 100];
        for _ in 0..1000 {
            states = pool.round(states, SimTime::ZERO);
        }
        assert_eq!(states, vec![1000, 1100]);
    }

    #[test]
    #[should_panic(expected = "domain worker panicked")]
    fn worker_panic_propagates() {
        let mut pool: WorkerPool<u32> = WorkerPool::new(1, |s, _| {
            if *s == 7 {
                panic!("boom");
            }
        });
        let _ = pool.round(vec![7], SimTime::ZERO);
    }
}
