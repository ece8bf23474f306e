//! Cross-campaign evaluation dedup: a shared single-flight result store.
//!
//! Concurrent sizing campaigns on the same benchmark frequently request
//! the same evaluation — duplicate submissions, mirrored seeds, or agents
//! converging on the same optimum. An evaluation's identity is exactly
//! its [`EvalKey`] `(point-bits, corner, attempt-cap)`, the key the
//! journal replays under: a result is a pure function of that key for a
//! fixed problem. The [`EvalStore`] is the serving-side payoff of those
//! bitwise keys — a process-wide map from key to [`Evaluation`] with
//! **single-flight** semantics:
//!
//! * the first caller to ask for a key becomes its *owner* and runs the
//!   evaluation,
//! * concurrent callers for the same key *wait* on the in-flight owner
//!   and receive a clone of the published result (a *hit*),
//! * an owner that abandons the evaluation — campaign cancellation,
//!   worker crash, evaluator panic unwinding through the batch pipeline —
//!   vacates the slot and wakes every waiter; one of them claims
//!   ownership and re-dispatches. Waiters never hang on a dead owner.
//!
//! # Determinism contract
//!
//! The store must be invisible in campaign outcomes: attaching it (or
//! racing any number of campaigns against it) never changes any
//! campaign's results versus running alone. That holds because only
//! *pure* results are published:
//!
//! * [`FailureKind::Cancelled`](crate::stats::FailureKind::Cancelled)
//!   placeholders are per-campaign drain artifacts, never published
//!   (mirroring the journal, which never records them),
//! * [`FailureKind::WorkerPanic`](crate::stats::FailureKind::WorkerPanic)
//!   results are never published: a quarantine short-circuit depends on
//!   the owning campaign's quarantine history, and excluding the whole
//!   kind keeps the publish rule state-free,
//! * everything else — successes, typed simulator failures, the retry
//!   ladder's terminal outcomes — is a pure function of the key and is
//!   shared bit for bit.
//!
//! Waiters fold a hit into their own stats/journal/quarantine exactly as
//! if they had computed it, so per-campaign telemetry and resume
//! behavior are unchanged; only wall-clock and simulator invocations
//! shrink. Callers sharing one store must agree on the problem identity
//! (benchmark, corner set, solver backend) — the serving scheduler keys
//! stores by that triple.
//!
//! The store is the only evaluation memo: the evaluators below it keep
//! none, and a problem without a store (every CLI campaign) solves a
//! repeated request again.

use crate::problem::{EvalKey, Evaluation};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Default entry capacity. A new key arriving at a full store drops every
/// published entry (in-flight ones stay), so memory stays bounded and the
/// store keeps memoizing; only a store whose every entry is in flight
/// turns a new key away ([`Join::Bypass`]).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

enum Slot {
    /// An owner is computing this key; waiters sleep on the condvar.
    InFlight,
    /// Published result, cloned out to every subsequent caller.
    Done(Evaluation),
}

/// Counters describing store effectiveness; see [`EvalStore::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStoreStats {
    /// Results served from the store (either already published or after
    /// waiting on an in-flight owner) — each hit is one avoided
    /// evaluation.
    pub hits: u64,
    /// Ownership claims: evaluations actually computed through the store.
    pub misses: u64,
    /// Owners that abandoned a key without publishing (cancellation,
    /// panic, unpublishable result); each abort woke the key's waiters.
    pub aborts: u64,
    /// Requests that skipped the store because every entry was in flight
    /// at capacity.
    pub bypasses: u64,
    /// Live entries (in-flight + published).
    pub entries: u64,
}

/// A shared single-flight evaluation result store. Cheap to clone via
/// `Arc`; see the module docs for the contract.
pub struct EvalStore {
    slots: Mutex<HashMap<EvalKey, Slot>>,
    wake: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    aborts: AtomicU64,
    bypasses: AtomicU64,
}

impl std::fmt::Debug for EvalStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("EvalStore")
            .field("capacity", &self.capacity)
            .field("stats", &s)
            .finish()
    }
}

impl Default for EvalStore {
    fn default() -> Self {
        EvalStore::with_capacity(DEFAULT_CAPACITY)
    }
}

/// Outcome of [`EvalStore::join`].
pub enum Join<'a> {
    /// The caller owns this key: evaluate, then
    /// [`OwnerGuard::publish`] (or drop the guard to vacate the slot and
    /// wake waiters).
    Owner(OwnerGuard<'a>),
    /// Another caller already published this key's result.
    Done(Evaluation),
    /// Every entry is in flight at capacity: evaluate locally, nothing is
    /// shared.
    Bypass,
    /// The caller's own cancellation predicate fired while waiting.
    Cancelled,
}

impl EvalStore {
    /// A store holding at most `capacity` live entries.
    pub fn with_capacity(capacity: usize) -> Self {
        EvalStore {
            slots: Mutex::new(HashMap::new()),
            wake: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// A fresh store behind an `Arc`, ready to hand to several problems.
    pub fn shared() -> Arc<Self> {
        Arc::new(EvalStore::default())
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<EvalKey, Slot>> {
        // A poisoned map only means some owner panicked between claim and
        // publish; its guard's Drop already vacated the slot, so the map
        // itself is consistent and safe to keep using.
        self.slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Joins the single flight for `key`: returns ownership, a published
    /// result, a capacity bypass, or — when `cancelled()` reports true
    /// while waiting on an in-flight owner — [`Join::Cancelled`]. A new
    /// key at capacity first drops every published entry; waiters only
    /// ever sleep on in-flight entries, which stay. A waiter that wakes to
    /// find its freshly published key already dropped claims it and
    /// computes the same result again.
    ///
    /// Waiting is robust to owner death: a vacated slot wakes every
    /// waiter and the first to re-check claims ownership (re-dispatch),
    /// so no caller ever blocks on an owner that will never publish.
    pub fn join(&self, key: &EvalKey, cancelled: impl Fn() -> bool) -> Join<'_> {
        let mut slots = self.lock();
        loop {
            match slots.get(key) {
                Some(Slot::Done(e)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Join::Done(e.clone());
                }
                Some(Slot::InFlight) => {
                    if cancelled() {
                        return Join::Cancelled;
                    }
                    // Bounded wait: publish/abort notify immediately; the
                    // timeout only bounds how stale a missed cancellation
                    // check can get.
                    let (guard, _) = self
                        .wake
                        .wait_timeout(slots, Duration::from_millis(25))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    slots = guard;
                }
                None => {
                    if slots.len() >= self.capacity {
                        slots.retain(|_, slot| matches!(slot, Slot::InFlight));
                        if slots.len() >= self.capacity {
                            self.bypasses.fetch_add(1, Ordering::Relaxed);
                            return Join::Bypass;
                        }
                    }
                    slots.insert(key.clone(), Slot::InFlight);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Join::Owner(OwnerGuard { store: self, key: key.clone(), done: false });
                }
            }
        }
    }

    /// Current effectiveness counters (monotonic except `entries`).
    pub fn stats(&self) -> EvalStoreStats {
        let entries = self.lock().len() as u64;
        EvalStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            entries,
        }
    }

    fn publish(&self, key: &EvalKey, eval: Evaluation) {
        let mut slots = self.lock();
        slots.insert(key.clone(), Slot::Done(eval));
        drop(slots);
        self.wake.notify_all();
    }

    fn vacate(&self, key: &EvalKey) {
        let mut slots = self.lock();
        slots.remove(key);
        drop(slots);
        self.aborts.fetch_add(1, Ordering::Relaxed);
        self.wake.notify_all();
    }
}

/// Ownership of one in-flight key. Publish the computed result with
/// [`OwnerGuard::publish`]; dropping the guard without publishing (early
/// return, cancellation, panic unwind) vacates the slot and wakes every
/// waiter so one of them re-dispatches — the crash-safety half of the
/// single-flight contract.
pub struct OwnerGuard<'a> {
    store: &'a EvalStore,
    key: EvalKey,
    done: bool,
}

impl OwnerGuard<'_> {
    /// Publishes `eval` for this key and wakes every waiter.
    pub fn publish(mut self, eval: Evaluation) {
        self.done = true;
        self.store.publish(&self.key, eval);
    }
}

impl Drop for OwnerGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.store.vacate(&self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::eval_key;
    use crate::stats::FailureKind;

    fn eval(v: f64) -> Evaluation {
        Evaluation {
            x_norm: vec![v],
            measurements: Some(vec![v]),
            value: v,
            feasible: true,
            failure: None,
            sim_cost: 1,
        }
    }

    fn key(v: f64) -> EvalKey {
        eval_key(&[v], 0, 3)
    }

    #[test]
    fn first_caller_owns_then_others_hit() {
        let store = EvalStore::default();
        let k = key(0.5);
        match store.join(&k, || false) {
            Join::Owner(g) => g.publish(eval(0.5)),
            _ => panic!("first join must own"),
        }
        match store.join(&k, || false) {
            Join::Done(e) => assert_eq!(e, eval(0.5)),
            _ => panic!("second join must hit"),
        }
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn waiters_block_until_publish_and_get_the_result() {
        let store = Arc::new(EvalStore::default());
        let k = key(0.25);
        let Join::Owner(guard) = store.join(&k, || false) else { panic!("own") };
        let waiter = {
            let store = store.clone();
            let k = k.clone();
            std::thread::spawn(move || match store.join(&k, || false) {
                Join::Done(e) => e,
                _ => panic!("waiter must receive the published result"),
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        guard.publish(eval(0.25));
        assert_eq!(waiter.join().unwrap(), eval(0.25));
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn dropped_owner_wakes_waiters_who_redispatch() {
        let store = Arc::new(EvalStore::default());
        let k = key(0.75);
        let guard = match store.join(&k, || false) {
            Join::Owner(g) => g,
            _ => panic!("own"),
        };
        let waiter = {
            let store = store.clone();
            let k = k.clone();
            std::thread::spawn(move || match store.join(&k, || false) {
                // The vacated slot promotes the waiter to owner: the
                // re-dispatch path.
                Join::Owner(g) => g.publish(eval(0.75)),
                Join::Done(_) => panic!("nothing was published"),
                _ => panic!("waiter must re-dispatch"),
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(guard); // owner dies without publishing
        waiter.join().unwrap();
        let s = store.stats();
        assert_eq!(s.aborts, 1);
        assert_eq!(s.misses, 2, "both the dead owner and the waiter claimed");
        match store.join(&k, || false) {
            Join::Done(e) => assert_eq!(e, eval(0.75)),
            _ => panic!("the waiter's publish must be visible"),
        };
    }

    #[test]
    fn cancelled_waiter_returns_instead_of_hanging() {
        let store = Arc::new(EvalStore::default());
        let k = key(0.1);
        let _guard = match store.join(&k, || false) {
            Join::Owner(g) => g,
            _ => panic!("own"),
        };
        // The owner never publishes; a cancelled waiter must still return.
        let start = std::time::Instant::now();
        match store.join(&k, || true) {
            Join::Cancelled => {}
            _ => panic!("cancelled waiter must get the typed escape"),
        }
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn full_store_drops_published_entries_and_keeps_memoizing() {
        let store = EvalStore::with_capacity(2);
        for v in [0.1, 0.2] {
            match store.join(&key(v), || false) {
                Join::Owner(g) => g.publish(eval(v)),
                _ => panic!("own"),
            }
        }
        // Full of published results: the new key evicts them and owns.
        let Join::Owner(guard) = store.join(&key(0.3), || false) else {
            panic!("a full store of published entries must admit a new key")
        };
        let s = store.stats();
        assert_eq!((s.bypasses, s.entries), (0, 1));
        // Full of in-flight entries: nothing can be dropped, so bypass.
        let Join::Owner(_other) = store.join(&key(0.4), || false) else { panic!("own") };
        match store.join(&key(0.5), || false) {
            Join::Bypass => {}
            _ => panic!("a store whose every entry is in flight must bypass"),
        }
        let s = store.stats();
        assert_eq!((s.bypasses, s.entries), (1, 2));
        guard.publish(eval(0.3));
        match store.join(&key(0.3), || false) {
            Join::Done(e) => assert_eq!(e, eval(0.3)),
            _ => panic!("the new key's result is memoized"),
        };
    }

    #[test]
    fn keys_distinguish_point_corner_and_cap() {
        let a = eval_key(&[0.5], 0, 3);
        let b = eval_key(&[0.5], 1, 3);
        let c = eval_key(&[0.5], 0, 2);
        let d = eval_key(&[0.5 + 1e-17], 0, 3); // rounds back to exactly 0.5
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, d, "bitwise-equal floats share a key");
        // -0.0 and 0.0 compare equal but are different evaluations bitwise.
        assert_ne!(eval_key(&[0.0], 0, 3), eval_key(&[-0.0], 0, 3));
    }

    #[test]
    fn publish_failure_results_round_trip() {
        let store = EvalStore::default();
        let k = key(0.9);
        let failed = Evaluation {
            x_norm: vec![0.9],
            measurements: None,
            value: -10.0,
            feasible: false,
            failure: Some(FailureKind::NoConvergence),
            sim_cost: 3,
        };
        match store.join(&k, || false) {
            Join::Owner(g) => g.publish(failed.clone()),
            _ => panic!("own"),
        }
        match store.join(&k, || false) {
            Join::Done(e) => assert_eq!(e, failed),
            _ => panic!("hit"),
        };
    }
}
