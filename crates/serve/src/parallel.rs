//! A minimal scoped worker pool for the parallel fleet drive.
//!
//! The build environment is offline (no rayon), so this module provides
//! the one primitive `crate::dispatch` needs: a [`PhaseQueue`] that a
//! fixed set of `std::thread::scope` workers block on, executing
//! *phases* — batches of independent jobs published one at a time by the
//! coordinating thread. The workers persist across phases (a fleet run
//! has one phase per dispatch point, and spawning threads per phase would
//! dominate microsecond-scale device steps), claim jobs dynamically for
//! load balance, and park between phases.
//!
//! Jobs move by value: the coordinator hands a phase's jobs to the queue
//! and gets every one of them back when the phase ends, so a job is never
//! reachable from two threads at once and needs no lock of its own.
//! Determinism needs nothing from this module: the jobs of one phase are
//! independent by construction (see the dispatch-horizon argument in
//! `crate::dispatch`), so any claim order produces identical job state.

use std::sync::{Condvar, Mutex};

/// Coordination state shared between the phase coordinator and workers.
struct PhaseState<T> {
    /// Unclaimed jobs of the current phase.
    todo: Vec<T>,
    /// Finished jobs of the current phase, handed back by the workers.
    done: Vec<T>,
    /// Jobs of the current phase not yet finished.
    outstanding: usize,
    /// Set once by [`PhaseQueue::shutdown`]; workers drain and exit.
    shutdown: bool,
}

/// A one-producer, many-worker phase barrier: the coordinator publishes a
/// batch of independent jobs and blocks until every job has run and come
/// back; workers loop on [`PhaseQueue::claim`] / [`PhaseQueue::complete`]
/// until shutdown.
pub(crate) struct PhaseQueue<T> {
    state: Mutex<PhaseState<T>>,
    /// Signaled when jobs become available or shutdown is requested.
    work: Condvar,
    /// Signaled when the last job of a phase completes.
    finished: Condvar,
}

impl<T> PhaseQueue<T> {
    pub(crate) fn new() -> Self {
        PhaseQueue {
            state: Mutex::new(PhaseState {
                todo: Vec::new(),
                done: Vec::new(),
                outstanding: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            finished: Condvar::new(),
        }
    }

    /// Publishes one phase and blocks until every job in it has
    /// completed, returning the jobs in completion order. Must only be
    /// called again after the previous call returned (single
    /// coordinator), so workers never observe two phases at once.
    pub(crate) fn run_phase(&self, jobs: Vec<T>) -> Vec<T> {
        if jobs.is_empty() {
            return jobs;
        }
        let mut state = self.state.lock().expect("phase queue poisoned");
        debug_assert_eq!(state.outstanding, 0, "phase published over a live one");
        state.outstanding = jobs.len();
        state.todo = jobs;
        self.work.notify_all();
        while state.outstanding > 0 {
            state = self.finished.wait(state).expect("phase queue poisoned");
        }
        std::mem::take(&mut state.done)
    }

    /// Worker side: blocks for the next job, or returns `None` once
    /// shutdown is requested and no jobs remain.
    pub(crate) fn claim(&self) -> Option<T> {
        let mut state = self.state.lock().expect("phase queue poisoned");
        loop {
            if let Some(job) = state.todo.pop() {
                return Some(job);
            }
            if state.shutdown {
                return None;
            }
            state = self.work.wait(state).expect("phase queue poisoned");
        }
    }

    /// Worker side: hands one claimed job back, finished.
    pub(crate) fn complete(&self, job: T) {
        let mut state = self.state.lock().expect("phase queue poisoned");
        state.done.push(job);
        state.outstanding -= 1;
        if state.outstanding == 0 {
            self.finished.notify_all();
        }
    }

    /// Wakes every worker to exit once the remaining jobs (if any) drain.
    pub(crate) fn shutdown(&self) {
        let mut state = self.state.lock().expect("phase queue poisoned");
        state.shutdown = true;
        self.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Jobs are `(slot, runs)` pairs; a worker bumps `runs` once per claim.
    fn sorted(mut jobs: Vec<(usize, u32)>) -> Vec<(usize, u32)> {
        jobs.sort_unstable();
        jobs
    }

    #[test]
    fn phases_run_every_job_exactly_once_and_hand_it_back() {
        let queue = PhaseQueue::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some((slot, runs)) = queue.claim() {
                        queue.complete((slot, runs + 1));
                    }
                });
            }
            // Three phases over overlapping job sets; run_phase returning
            // every job, each run once more, proves the barrier.
            let first = sorted(queue.run_phase((0..64).map(|slot| (slot, 0)).collect()));
            assert_eq!(first, (0..64).map(|slot| (slot, 1)).collect::<Vec<_>>());
            let second = sorted(queue.run_phase(first[..32].to_vec()));
            assert_eq!(second, (0..32).map(|slot| (slot, 2)).collect::<Vec<_>>());
            assert_eq!(queue.run_phase(vec![(7, 2)]), vec![(7, 3)]);
            queue.shutdown();
        });
    }

    #[test]
    fn empty_phase_is_a_no_op_and_shutdown_unblocks_workers() {
        let queue = PhaseQueue::new();
        // Must not wedge the coordinator.
        assert!(queue.run_phase(Vec::<(usize, u32)>::new()).is_empty());
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let mut seen = 0;
                while let Some(job) = queue.claim() {
                    seen += 1;
                    queue.complete(job);
                }
                seen
            });
            assert_eq!(queue.run_phase(vec![(0, 0), (1, 0), (2, 0)]).len(), 3);
            queue.shutdown();
            assert_eq!(worker.join().expect("worker"), 3);
        });
    }
}
