//! Property tests for the delegation machinery: under arbitrary
//! interleavings of publish and combine, no operation is lost, each
//! executes exactly once, and per-thread program order is preserved.
//!
//! The end-to-end properties run real concurrent publishers against both
//! delegation backends; the queue property exercises the shared
//! submission queue (`BoundedQueue::drain`) directly.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use stmbench7_backend::{
    Backend, BoundedQueue, CombiningStats, DedicatedServerBackend, FlatCombiningBackend,
    TxOperation,
};
use stmbench7_data::{AccessSpec, AtomicPartId, Mode, Sb7Tx, StructureParams, TxR, Workspace};

/// Collects every atomic part id, so each publisher thread can own one.
struct CollectIds;
impl TxOperation<Vec<AtomicPartId>> for CollectIds {
    fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<Vec<AtomicPartId>> {
        let mut ids = Vec::new();
        tx.for_each_atomic(|p| ids.push(p.id))?;
        Ok(ids)
    }
}

/// Writes `step` into the thread's own atomic part and returns the
/// previous value — the program-order probe: if the thread's prior
/// operation was lost, reordered or doubly applied, the returned value
/// cannot be `step - 1`. The shared counter catches re-execution even
/// when the workspace state happens to look right.
struct StepOp<'a> {
    id: AtomicPartId,
    step: i32,
    executions: &'a AtomicU64,
}

impl TxOperation<i32> for StepOp<'_> {
    fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<i32> {
        self.executions.fetch_add(1, Ordering::Relaxed);
        let step = self.step;
        tx.atomic_mut(self.id, |p| {
            let prev = p.x;
            p.x = step;
            prev
        })
    }
}

fn write_spec() -> AccessSpec {
    AccessSpec::new().regular().atomics(Mode::Write)
}

/// Drives `threads` concurrent publishers, each issuing `ops_per_thread`
/// sequenced writes to its own atomic part, and checks the exactly-once
/// and program-order properties plus the backend's combiner ledger.
fn check_delegation<B: Backend + HasCombiningStats>(
    backend: &B,
    threads: usize,
    ops_per_thread: i32,
) -> CombiningStats {
    let ids = backend.execute(&write_spec(), &mut CollectIds);
    assert!(ids.len() >= threads, "tiny structure has a part per thread");
    // One execution counter per (thread, step), shared with the ops.
    let counters: Vec<AtomicU64> = (0..threads * ops_per_thread as usize)
        .map(|_| AtomicU64::new(0))
        .collect();
    std::thread::scope(|scope| {
        for (t, &id) in ids.iter().enumerate().take(threads) {
            let counters = &counters;
            let backend = &backend;
            scope.spawn(move || {
                for step in 1..=ops_per_thread {
                    let slot = t * ops_per_thread as usize + (step as usize - 1);
                    let prev = backend.execute(
                        &write_spec(),
                        &mut StepOp {
                            id,
                            step,
                            executions: &counters[slot],
                        },
                    );
                    // Program order: this thread's previous write (and
                    // nothing else) is what the combiner applied last to
                    // this part.
                    if step > 1 {
                        assert_eq!(prev, step - 1, "thread {t}: step {step} observed {prev}");
                    }
                }
            });
        }
    });
    for (slot, counter) in counters.iter().enumerate() {
        assert_eq!(
            counter.load(Ordering::Relaxed),
            1,
            "operation {slot} must execute exactly once"
        );
    }
    backend.stats()
}

/// Small helper trait so the checker can read either backend's ledger.
trait HasCombiningStats {
    fn stats(&self) -> CombiningStats;
}
impl HasCombiningStats for FlatCombiningBackend {
    fn stats(&self) -> CombiningStats {
        self.combining_stats()
    }
}
impl HasCombiningStats for DedicatedServerBackend {
    fn stats(&self) -> CombiningStats {
        self.combining_stats()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // Each case runs real threads against both backends.
        ..ProptestConfig::default()
    })]

    /// Arbitrary publisher interleavings through both delegation
    /// backends: nothing lost, nothing doubled, program order intact,
    /// and the combiner ledger accounts for every operation (the +1 is
    /// the id-collection op).
    #[test]
    fn delegation_is_exactly_once_and_in_program_order(
        threads in 1usize..=4,
        ops_per_thread in 1i32..=32,
        build_seed in 0u64..1_000,
        shards in prop_oneof![Just(1usize), Just(8usize)],
    ) {
        let params = StructureParams::tiny().with_shards(shards);
        let total = 1 + (threads as u64) * (ops_per_thread as u64);

        let fc = FlatCombiningBackend::new(Workspace::build(params.clone(), build_seed));
        let stats = check_delegation(&fc, threads, ops_per_thread);
        prop_assert_eq!(stats.combined, total, "flatcomb ledger");
        prop_assert!(stats.combines >= 1);
        prop_assert!(stats.handoffs >= 1);

        let rcl = DedicatedServerBackend::new(Workspace::build(params, build_seed));
        let stats = check_delegation(&rcl, threads, ops_per_thread);
        prop_assert_eq!(stats.combined, total, "rcl ledger");
        prop_assert_eq!(stats.handoffs, 1, "the server never yields the role");
    }

    /// The shared submission queue (the drain loop both the RCL server
    /// and the service worker pool run): concurrent producers pushing
    /// disjoint sequences through one draining consumer lose nothing,
    /// deliver nothing twice, and keep each producer's order.
    #[test]
    fn submission_queue_drain_is_exactly_once_and_fifo_per_producer(
        producers in 1usize..=4,
        items_per_producer in 1u32..=64,
        cap in 1usize..=16,
        batch_max in 1usize..=8,
    ) {
        let queue: BoundedQueue<(usize, u32)> = BoundedQueue::new(cap);
        let delivered = std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut seen = Vec::new();
                queue.drain(batch_max, |_, _| true, |batch| seen.extend(batch));
                seen
            });
            std::thread::scope(|inner| {
                for p in 0..producers {
                    let queue = &queue;
                    inner.spawn(move || {
                        for i in 0..items_per_producer {
                            queue.push_blocking((p, i));
                        }
                    });
                }
            });
            queue.close();
            consumer.join().expect("consumer must finish")
        });
        prop_assert_eq!(
            delivered.len(),
            producers * items_per_producer as usize,
            "no item lost or doubled"
        );
        // Per-producer FIFO: each producer's items arrive in push order.
        let mut next = vec![0u32; producers];
        for (p, i) in delivered {
            prop_assert_eq!(i, next[p], "producer {} out of order", p);
            next[p] += 1;
        }
    }
}
