//! The multi-threaded campaign executor.
//!
//! A plain `std::thread` worker pool drains a shared atomic work index
//! over the work list (a one-worker pool runs on the calling thread
//! instead of spawning); each worker runs items hermetically (every
//! trial re-derives all of its randomness from the scenario seed) and
//! deposits the result at the item's slot. Results therefore come
//! back in input order and are **bit-identical** for any worker count —
//! the property the determinism tests pin down. [`Executor::run`]
//! executes [`Scenario`] lists; the generic [`Executor::map`] executes
//! any hermetic per-item function (e.g. the trace experiments of
//! [`crate::trace`]) on the same pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::report::TrialRecord;
use crate::scenario::Scenario;

/// A worker pool executing scenario lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// A pool with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "executor needs at least one thread");
        Executor { threads }
    }

    /// The single-threaded reference executor.
    pub fn serial() -> Self {
        Executor { threads: 1 }
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`,
    /// capped at 8 — trials are CPU-bound simulations).
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8);
        Executor::new(threads.max(1))
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every scenario and returns records in input order.
    pub fn run(&self, scenarios: &[Scenario]) -> Vec<TrialRecord> {
        self.map(scenarios, Scenario::run)
    }

    /// Applies a hermetic function to every item on the worker pool,
    /// returning results in input order. The function must derive any
    /// randomness from the item itself so that results are identical
    /// for every worker count.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_streamed(items, f, |_, _| {})
    }

    /// [`Executor::map`], additionally delivering every result to
    /// `sink` **in input order, as it becomes available** — results
    /// are reordered through a completion buffer, so the sink observes
    /// the same sequence for any worker count. This is the streaming
    /// path campaign runs use to keep their JSONL a valid prefix of
    /// the full output while still executing (what makes interrupted
    /// campaigns resumable).
    pub fn map_streamed<T, R, F, S>(&self, items: &[T], f: F, mut sink: S) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        S: FnMut(usize, &R),
    {
        if items.is_empty() {
            return Vec::new();
        }
        // Pool telemetry (out-of-band: never read back by the run).
        let telemetry = ichannels_obs::enabled();
        // lint:allow(D002): telemetry-gated pool timing; off by default
        // and never part of campaign bytes.
        let pool_started = telemetry.then(std::time::Instant::now);
        let workers = self.threads.min(items.len());
        if telemetry {
            ichannels_obs::gauge_max("exec.threads", workers as u64);
        }
        let results = if workers == 1 {
            // One worker runs on the calling thread: no spawn, no
            // channel, and the sink sees each result as it is made.
            let mut clock = BusyClock::new(telemetry);
            let results = items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let result = clock.time(|| f(item));
                    sink(i, &result);
                    result
                })
                .collect();
            clock.flush();
            results
        } else {
            Self::pool(items, &f, &mut sink, workers, telemetry)
        };
        if let Some(started) = pool_started {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ichannels_obs::observe("exec.pool_wall_ns", ns);
        }
        results
    }

    /// The multi-worker path of [`Executor::map_streamed`]: `workers`
    /// scoped threads drain the shared work index while the calling
    /// thread reorders completions for the sink. The workers are joined
    /// after the drain, and a worker's panic is re-raised on the
    /// calling thread with its own payload.
    fn pool<T, R, F, S>(items: &[T], f: &F, sink: &mut S, workers: usize, telemetry: bool) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        S: FnMut(usize, &R),
    {
        let next = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = Arc::clone(&next);
                    let tx = tx.clone();
                    scope.spawn(move || {
                        let mut clock = BusyClock::new(telemetry);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            let result = clock.time(|| f(&items[i]));
                            if tx.send((i, result)).is_err() {
                                break;
                            }
                        }
                        clock.flush();
                    })
                })
                .collect();
            drop(tx);
            // The calling thread drains completions, emitting the
            // in-order prefix as it fills in.
            let mut emitted = 0;
            for (i, result) in rx {
                slots[i] = Some(result);
                while let Some(Some(ready)) = slots.get(emitted) {
                    sink(emitted, ready);
                    emitted += 1;
                }
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            // lint:allow(R001): the drain loop above runs until every
            // worker sent its result, so each slot is Some.
            .map(|slot| slot.expect("every slot filled"))
            .collect()
    }
}

/// One worker's busy-time telemetry: the time spent inside the mapped
/// function and the number of items it finished. Inert unless
/// telemetry was on when the run started.
struct BusyClock {
    enabled: bool,
    busy_ns: u64,
    done: u64,
}

impl BusyClock {
    fn new(enabled: bool) -> Self {
        BusyClock {
            enabled,
            busy_ns: 0,
            done: 0,
        }
    }

    fn time<R>(&mut self, work: impl FnOnce() -> R) -> R {
        // lint:allow(D002): telemetry-gated worker busy-time sample;
        // never in campaign bytes.
        let started = self.enabled.then(std::time::Instant::now);
        let result = work();
        if let Some(started) = started {
            self.busy_ns = self
                .busy_ns
                .saturating_add(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            self.done += 1;
        }
        result
    }

    /// Records one sample per worker: the distribution shows pool
    /// balance, the sum total busy time.
    fn flush(self) {
        if self.enabled {
            ichannels_obs::observe("exec.worker_busy_ns", self.busy_ns);
            ichannels_obs::counter_add("exec.items", self.done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::report::{rows_to_jsonl, TrialRecord, TrialRow};
    use ichannels::channel::ChannelKind;

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(Executor::new(4).run(&[]).is_empty());
    }

    #[test]
    fn streamed_sink_observes_results_in_input_order() {
        let items: Vec<u64> = (0..40).collect();
        // Skew per-item latency so completion order differs wildly
        // from input order on a parallel pool.
        let slow_square = |v: &u64| {
            std::thread::sleep(std::time::Duration::from_micros((40 - v) * 50));
            v * v
        };
        let mut seen = Vec::new();
        let out = Executor::new(4).map_streamed(&items, slow_square, |i, r| seen.push((i, *r)));
        assert_eq!(out, items.iter().map(|v| v * v).collect::<Vec<_>>());
        let expected: Vec<(usize, u64)> = items.iter().map(|&v| (v as usize, v * v)).collect();
        assert_eq!(seen, expected, "sink saw out-of-order or missing results");
    }

    #[test]
    fn worker_panic_is_reraised_with_its_payload() {
        let items: Vec<u64> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            Executor::new(2).map(&items, |&v| {
                assert!(v != 3, "boom at {v}");
                v
            })
        })
        .expect_err("the worker panic must reach the caller");
        let message = caught
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| caught.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("boom at 3"));
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let grid = Grid::new()
            .kinds(&[ChannelKind::Thread, ChannelKind::Smt])
            .trials(2)
            .payload_symbols(6);
        let scenarios = grid.scenarios();
        let serial = Executor::serial().run(&scenarios);
        let parallel = Executor::new(4).run(&scenarios);
        let jsonl = |records: &[TrialRecord]| {
            rows_to_jsonl(
                &records
                    .iter()
                    .map(TrialRow::from_record)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(jsonl(&serial), jsonl(&parallel));
    }
}
