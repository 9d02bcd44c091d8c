//! The join rendezvous: how a new worker enters a running computation.
//!
//! [`NetJoin`] is the one join service. It keeps the out-of-band
//! rendezvous state (the PRRTE/PMIx channel a real MPI runtime offers) in
//! a [`gloo::Store`]: an in-memory [`gloo::KvStore`] private to one
//! [`crate::Universe`] in process, or the launcher's store server that
//! every process of a multi-process job reaches. Joiners *announce* by
//! publishing a key, members *snapshot* the announced set by scanning a
//! prefix, and a committed admission is materialised as a per-joiner
//! *ticket* key that the joiner polls for. The two-phase commit itself
//! (leader proposal broadcast + uniform agreement) runs over the
//! collective fabric in [`crate::Communicator::accept_joiners_directed`];
//! the store only carries the rendezvous state, like Horovod's driver
//! store.
//!
//! Key schema under the configured run `prefix`:
//!
//! | key | value |
//! |---|---|
//! | `{prefix}join/announce/{rank:08}` | joiner's dialable address (may be empty) |
//! | `{prefix}join/spare/{rank:08}` | warm spare's dialable address (may be empty) |
//! | `{prefix}join/ticket/{rank:08}` | committed ticket, LE u64 words `[epoch, comm_id, n, ranks…]`, or the `DISMISS` sentinel |
//! | `{prefix}join/abort` | present ⇒ the computation aborted; waiters exit |
//! | `{prefix}addr/{rank:08}` | contact address of an established member |
//!
//! Spare announces live under their own prefix so the epoch-boundary join
//! path never drains the warm pool; a dismissed spare's ticket key holds
//! the `DISMISS` sentinel (which also removes it from future spare
//! snapshots, making dismissal idempotent across processes).
//!
//! Announce keys are never deleted — `announced_total` stays monotone (the
//! leader's give-up heuristic depends on that) and the *pending* set is
//! derived as announced-minus-ticketed, so leader failover re-reads the
//! same pending joiners a dead leader saw. Consumed tickets stay too: no
//! rank waits for a ticket twice.
//!
//! Every store operation is fallible ([`gloo::StoreUnavailable`]) and is
//! wrapped in bounded retry with exponential backoff plus deterministic
//! jitter (hash of operation name and attempt — no wall-clock entropy).
//! Retries are counted under `ulfm.netjoin.store_retries`. A store that
//! stays down for a whole retry budget is a lost rendezvous: members read
//! it as empty and keep training, a joiner or spare exits with
//! [`UlfmError::JoinTimeout`].

use crate::comm::{decode_commit_record, encode_commit_record};
use crate::universe::JoinTicket;
use crate::UlfmError;
use gloo::{Store, StoreUnavailable};
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::RankId;

/// Bounded attempts for one logical store operation before giving up
/// (≈ 3 s of backoff in all).
const STORE_ATTEMPTS: u32 = 64;
/// First backoff sleep; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_millis(50);
/// Poll interval while a joiner waits for its ticket.
const TICKET_POLL: Duration = Duration::from_millis(2);

/// Sentinel ticket value marking a *dismissed* spare. Deliberately not a
/// multiple of 8 bytes so it can never be confused with an encoded ticket.
const DISMISS_SENTINEL: &[u8] = b"DISMISS";

/// Key namespaces under the run prefix, each followed by `/{rank:08}`.
const ANNOUNCE: &str = "join/announce";
const SPARE: &str = "join/spare";
const TICKET: &str = "join/ticket";
const ADDR: &str = "addr";

/// Deterministic jitter in microseconds for retry `attempt` of operation
/// `what`: FNV-1a over the name, splitmix64-finalised with the attempt
/// index. No `SystemTime`/`rand` — schedules are reproducible.
fn jitter_us(what: &str, attempt: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in what.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = h
        .wrapping_add(attempt as u64)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 500
}

/// A ticket has the commit record's layout, with the comm id as its word.
fn encode_ticket(t: &JoinTicket) -> Vec<u8> {
    encode_commit_record(t.epoch, t.comm_id, &t.group)
}

/// Bytes under a ticket key that are neither a ticket nor the dismissal
/// sentinel were not written by this protocol: the joiner leaves
/// ([`UlfmError::Aborted`]) instead of panicking or polling past them.
fn decode_ticket(bytes: &[u8]) -> Result<JoinTicket, UlfmError> {
    let (epoch, comm_id, group) = decode_commit_record(bytes).ok_or(UlfmError::Aborted)?;
    Ok(JoinTicket {
        group,
        epoch,
        comm_id,
    })
}

/// Rank parsed from the zero-padded tail of a schema key.
fn key_rank(key: &str) -> Option<RankId> {
    key.rsplit('/').next()?.parse::<usize>().ok().map(RankId)
}

/// The join service over a rendezvous [`Store`]. Every rank of a job —
/// members and joiners alike — holds a handle onto the same store under
/// the same prefix; all methods are callable from multiple threads.
pub struct NetJoin {
    store: Arc<dyn Store>,
    prefix: String,
    /// This process's dialable listener address; published with announce
    /// (joiners) or via [`NetJoin::publish_contact`] (members) so peers can
    /// establish late links at ticket time.
    contact: Option<String>,
}

impl NetJoin {
    /// A join service over `store` rooted at `prefix` (typically
    /// `"{run_id}/"`; keys for distinct runs must not collide). Takes any
    /// store by value: a `NetStore` client, or an `Arc<KvStore>` shared
    /// with other handles.
    pub fn new(store: impl Store + 'static, prefix: impl Into<String>) -> Self {
        Self {
            store: Arc::new(store),
            prefix: prefix.into(),
            contact: None,
        }
    }

    /// Attach this process's dialable address, published alongside its
    /// announce/contact keys.
    pub fn with_contact(mut self, addr: impl Into<String>) -> Self {
        self.contact = Some(addr.into());
        self
    }

    /// Publish this process's contact address under the member-address key
    /// for `rank`. Established members call this once after binding so
    /// late joiners can dial them (see [`NetJoin::contact`]).
    pub fn publish_contact(&self, rank: RankId) {
        let _ = self.publish(ADDR, rank);
    }

    /// A new worker announces itself as ready to join.
    /// `Err(JoinTimeout)` if the store stayed down for a whole retry
    /// budget: nobody can see the announcement, so the worker must leave.
    pub fn announce(&self, rank: RankId) -> Result<(), UlfmError> {
        self.publish(ANNOUNCE, rank)
    }

    /// Total announcements ever made (monotone).
    pub fn announced_total(&self) -> u64 {
        self.count(ANNOUNCE)
    }

    /// Sorted snapshot of joiners awaiting admission, filtered by `alive`
    /// so dead joiners are not re-proposed forever. Non-destructive: a
    /// pending entry is only cleared by a committed
    /// [`NetJoin::confirm_tickets`] (or a [`NetJoin::forget`]).
    pub fn snapshot_pending(&self, alive: &dyn Fn(RankId) -> bool) -> Vec<RankId> {
        self.snapshot(ANNOUNCE, alive)
    }

    /// How many workers are waiting to join.
    pub fn pending_count(&self) -> usize {
        self.snapshot_pending(&|_| true).len()
    }

    /// A *committed* admission: issue the merged-group ticket to each
    /// joiner, which retires it from the pending set (and a promoted spare
    /// from the pool). Idempotent — every surviving member writes the
    /// identical ticket after the commit agreement, so no single leader
    /// death can strand a decided joiner.
    pub fn confirm_tickets(&self, joiners: &[RankId], ticket: &JoinTicket) {
        let bytes = encode_ticket(ticket);
        for &j in joiners {
            let _ = self.retry("confirm_ticket", || {
                self.store.try_set(&self.key(TICKET, j), bytes.clone())
            });
        }
    }

    /// Abort the join service: every waiting joiner and spare wakes with
    /// [`UlfmError::Aborted`].
    pub fn abort(&self) {
        let _ = self.retry("abort", || self.store.try_set(&self.abort_key(), vec![1]));
    }

    /// A joiner blocks until its ticket arrives, it dies (`SelfDied`), the
    /// computation aborts or dismisses it (`Aborted`), or `deadline`
    /// passes (`JoinTimeout` — an orphaned joiner must exit rather than
    /// hang when the accepting group has completed or given up without
    /// aborting explicitly). A store that stays down for a whole retry
    /// budget also ends the wait with `JoinTimeout`, deadline or not: the
    /// rendezvous that would carry the ticket is gone.
    pub fn wait_ticket(
        &self,
        rank: RankId,
        is_alive: &dyn Fn() -> bool,
        deadline: Option<Instant>,
    ) -> Result<JoinTicket, UlfmError> {
        let key = self.key(TICKET, rank);
        loop {
            match self.get(&key)? {
                // Dismissed spare: the run completed without needing this
                // standby; exit instead of idling.
                Some(v) if v == DISMISS_SENTINEL => return Err(UlfmError::Aborted),
                Some(v) => return decode_ticket(&v),
                None => {}
            }
            let aborted = self.retry("abort_check", || {
                self.store.try_count_prefix(&self.abort_key())
            })?;
            if aborted > 0 {
                return Err(UlfmError::Aborted);
            }
            if !is_alive() {
                return Err(UlfmError::SelfDied);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(UlfmError::JoinTimeout);
            }
            std::thread::sleep(TICKET_POLL);
        }
    }

    /// The published contact address of `rank` — its member-address key,
    /// else its joiner or spare announce — so late links can be
    /// established at ticket time. `None` for an unknown rank, an empty
    /// address (in process there is nothing to dial) or a lost store.
    pub fn contact(&self, rank: RankId) -> Option<String> {
        let bytes = [ADDR, ANNOUNCE, SPARE]
            .iter()
            .find_map(|ns| self.get(&self.key(ns, rank)).ok().flatten())?;
        String::from_utf8(bytes).ok().filter(|a| !a.is_empty())
    }

    /// A standby worker announces itself into the *warm spare pool* — a
    /// namespace separate from the joiner pending set, so epoch-boundary
    /// admission never drains workers being held back to absorb failures.
    /// A spare waits for its promotion ticket via [`NetJoin::wait_ticket`],
    /// exactly like a joiner, and fails like [`NetJoin::announce`].
    pub fn announce_spare(&self, rank: RankId) -> Result<(), UlfmError> {
        self.publish(SPARE, rank)
    }

    /// Total spare announcements ever made (monotone, like
    /// [`NetJoin::announced_total`]) — lets members wait deterministically
    /// for an expected spare-pool size before training.
    pub fn spare_total(&self) -> u64 {
        self.count(SPARE)
    }

    /// Sorted snapshot of spares awaiting promotion, filtered by `alive`.
    /// Non-destructive: a spare leaves the pool only through a committed
    /// [`NetJoin::confirm_tickets`] or [`NetJoin::dismiss_spare`].
    pub fn snapshot_spares(&self, alive: &dyn Fn(RankId) -> bool) -> Vec<RankId> {
        self.snapshot(SPARE, alive)
    }

    /// Dismiss one waiting spare: it wakes from [`NetJoin::wait_ticket`]
    /// with [`UlfmError::Aborted`] and exits. Called by completing workers
    /// so unused spares do not idle until their deadline. The sentinel
    /// doubles as the "ticketed" marker that keeps the rank out of every
    /// future snapshot — idempotent by overwrite.
    pub fn dismiss_spare(&self, rank: RankId) {
        let _ = self.retry("dismiss_spare", || {
            self.store
                .try_set(&self.key(TICKET, rank), DISMISS_SENTINEL.to_vec())
        });
    }

    /// Retire a rank the view change agreed is **dead** from the pending
    /// set and the spare pool, so a burst that kills a parked spare does
    /// not leave a ghost entry to be re-proposed forever. Writes the same
    /// sentinel as [`NetJoin::dismiss_spare`]: the rank is dead, so
    /// nothing polls it back, and every survivor installing the same view
    /// delta overwrites the same key. Called by view-delta installation.
    pub fn forget(&self, rank: RankId) {
        self.dismiss_spare(rank);
    }

    fn key(&self, namespace: &str, rank: RankId) -> String {
        format!("{}{namespace}/{:08}", self.prefix, rank.0)
    }

    fn abort_key(&self) -> String {
        format!("{}join/abort", self.prefix)
    }

    /// Write this process's contact address (empty without one) under
    /// `namespace`; an announce with a contact mirrors it under the
    /// member-address key, because after admission the joiner or spare
    /// *is* a member and later joiners dial it there. The mirror is best
    /// effort: [`NetJoin::contact`] falls back to the announce key.
    fn publish(&self, namespace: &str, rank: RankId) -> Result<(), UlfmError> {
        let addr = self.contact.clone().unwrap_or_default();
        self.retry(namespace, || {
            self.store
                .try_set(&self.key(namespace, rank), addr.clone().into_bytes())
        })?;
        if namespace != ADDR && self.contact.is_some() {
            self.publish_contact(rank);
        }
        Ok(())
    }

    /// Keys ever written under `namespace`; a lost store counts as none.
    fn count(&self, namespace: &str) -> u64 {
        let prefix = format!("{}{namespace}/", self.prefix);
        self.retry(namespace, || self.store.try_count_prefix(&prefix))
            .unwrap_or(0) as u64
    }

    /// Announced-minus-ticketed under `namespace`, filtered by `alive`.
    /// Zero-padded keys scan in rank order, so the result is sorted. A
    /// lost store reads as empty: nothing is proposed from a half-read.
    fn snapshot(&self, namespace: &str, alive: &dyn Fn(RankId) -> bool) -> Vec<RankId> {
        let Ok(announced) = self.ranks(namespace) else {
            return Vec::new();
        };
        let Ok(ticketed) = self.ranks(TICKET) else {
            return Vec::new();
        };
        announced
            .into_iter()
            .filter(|r| !ticketed.contains(r) && alive(*r))
            .collect()
    }

    /// The ranks with a key under `namespace`, in rank order.
    fn ranks(&self, namespace: &str) -> Result<Vec<RankId>, UlfmError> {
        let prefix = format!("{}{namespace}/", self.prefix);
        let pairs = self.retry(namespace, || self.store.try_scan_prefix(&prefix))?;
        Ok(pairs.iter().filter_map(|(k, _)| key_rank(k)).collect())
    }

    /// Exact-key read via prefix scan (the store surface has no point get).
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, UlfmError> {
        let pairs = self.retry("get", || self.store.try_scan_prefix(key))?;
        Ok(pairs.into_iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Run `op` with bounded retry, exponential backoff and deterministic
    /// jitter. After [`STORE_ATTEMPTS`] consecutive failures the
    /// rendezvous counts as lost: `Err(JoinTimeout)`.
    fn retry<T>(
        &self,
        what: &str,
        mut op: impl FnMut() -> Result<T, StoreUnavailable>,
    ) -> Result<T, UlfmError> {
        let mut backoff = BACKOFF_BASE;
        for attempt in 0..STORE_ATTEMPTS {
            match op() {
                Ok(v) => return Ok(v),
                Err(StoreUnavailable) => {
                    telemetry::counter("ulfm.netjoin.store_retries").incr();
                    std::thread::sleep(backoff + Duration::from_micros(jitter_us(what, attempt)));
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
            }
        }
        telemetry::counter("ulfm.netjoin.store_gave_up").incr();
        Err(UlfmError::JoinTimeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloo::{KvStore, StoreFaults};
    use std::sync::atomic::{AtomicBool, Ordering};
    use transport::Wire;

    fn ticket() -> JoinTicket {
        JoinTicket {
            group: vec![RankId(0), RankId(1), RankId(3)],
            epoch: 5,
            comm_id: 9,
        }
    }

    /// A join service over a fresh private store, as a `Universe` holds.
    fn private() -> NetJoin {
        NetJoin::new(KvStore::new(), "")
    }

    #[test]
    fn ticket_roundtrips_through_wire_words() {
        let t = ticket();
        let bytes = encode_ticket(&t);
        assert_eq!(decode_ticket(&bytes), Ok(t));
        let lone = JoinTicket {
            group: vec![RankId(2)],
            epoch: 0,
            comm_id: u64::MAX,
        };
        assert_eq!(decode_ticket(&encode_ticket(&lone)), Ok(lone));
        // Anything else under a ticket key is refused, typed: empty, one
        // word short or long (count/length mismatch), ragged either way
        // (not a multiple of 8, and not the sentinel), and a count that
        // would wrap `3 + n`.
        let wrapping = u64::encode_slice(&[5, 9, u64::MAX, 0, 1, 3]);
        for bad in crate::malformed_variants(&bytes).into_iter().chain([
            wrapping,
            u64::encode_slice(&[5, 9, 2, 0, 1, 3]),
            b"DISMISSED".to_vec(),
            vec![1, 2, 3],
        ]) {
            assert_eq!(decode_ticket(&bad), Err(UlfmError::Aborted), "{bad:?}");
        }
    }

    #[test]
    fn a_malformed_ticket_ends_the_wait_typed() {
        let store = KvStore::shared();
        let j = NetJoin::new(Arc::clone(&store), "run/");
        let wrapping = u64::encode_slice(&[5, 9, u64::MAX, 0]);
        for (rank, bad) in [wrapping, vec![0; 16], b"DISMISSAL".to_vec()]
            .into_iter()
            .enumerate()
        {
            store.set(&j.key(TICKET, RankId(rank)), bad);
            assert_eq!(
                j.wait_ticket(RankId(rank), &|| true, None),
                Err(UlfmError::Aborted)
            );
        }
    }

    #[test]
    fn announce_snapshot_confirm_wait() {
        for j in [NetJoin::new(KvStore::shared(), "run/"), private()] {
            j.announce(RankId(4)).unwrap();
            j.announce(RankId(3)).unwrap();
            assert_eq!(j.announced_total(), 2);
            // Snapshots are non-destructive: repeated snapshots see the
            // same pending joiners until an admission commits.
            for _ in 0..2 {
                assert_eq!(j.snapshot_pending(&|_| true), vec![RankId(3), RankId(4)]);
            }
            // A dead joiner is filtered out of the proposal set.
            assert_eq!(j.snapshot_pending(&|r| r != RankId(4)), vec![RankId(3)]);
            assert_eq!(j.pending_count(), 2);

            let t = ticket();
            j.confirm_tickets(&[RankId(3)], &t);
            // Ticketed joiners leave the pending set; announce stays
            // monotone. A second confirmation (another surviving member
            // re-issuing the same committed ticket) is harmless.
            assert_eq!(j.snapshot_pending(&|_| true), vec![RankId(4)]);
            j.confirm_tickets(&[RankId(3)], &t);
            assert_eq!(j.pending_count(), 1);
            assert_eq!(j.announced_total(), 2);
            assert_eq!(j.wait_ticket(RankId(3), &|| true, None), Ok(t));
            // A forgotten (dead) joiner leaves the pending set too.
            j.forget(RankId(4));
            assert_eq!(j.pending_count(), 0);
        }
    }

    #[test]
    fn wait_ticket_deadline_alive_and_abort() {
        let j = private();
        let deadline = Some(Instant::now() + Duration::from_millis(15));
        assert_eq!(
            j.wait_ticket(RankId(7), &|| true, deadline),
            Err(UlfmError::JoinTimeout)
        );
        assert_eq!(
            j.wait_ticket(RankId(7), &|| false, None),
            Err(UlfmError::SelfDied)
        );
        // A ticket issued before the deadline is consumed normally.
        let t = ticket();
        j.announce(RankId(5)).unwrap();
        j.confirm_tickets(&[RankId(5)], &t);
        let deadline = Some(Instant::now() + Duration::from_secs(5));
        assert_eq!(j.wait_ticket(RankId(5), &|| true, deadline), Ok(t));
        j.abort();
        assert_eq!(
            j.wait_ticket(RankId(7), &|| true, None),
            Err(UlfmError::Aborted)
        );
    }

    #[test]
    fn a_blocked_waiter_wakes_on_death_abort_and_ticket() {
        let j = Arc::new(private());
        let waiter = |rank: usize, alive: Arc<AtomicBool>| {
            let j = Arc::clone(&j);
            std::thread::spawn(move || {
                j.wait_ticket(RankId(rank), &|| alive.load(Ordering::SeqCst), None)
            })
        };
        let alive = Arc::new(AtomicBool::new(true));
        let dying = waiter(3, Arc::clone(&alive));
        let ticketed = waiter(6, Arc::new(AtomicBool::new(true)));
        alive.store(false, Ordering::SeqCst);
        assert_eq!(dying.join().unwrap(), Err(UlfmError::SelfDied));
        j.confirm_tickets(&[RankId(6)], &ticket());
        assert_eq!(ticketed.join().unwrap(), Ok(ticket()));
        let aborted = waiter(4, Arc::new(AtomicBool::new(true)));
        j.abort();
        assert_eq!(aborted.join().unwrap(), Err(UlfmError::Aborted));
    }

    #[test]
    fn a_lost_store_ends_announce_and_wait_typed() {
        let store = KvStore::shared_flaky(StoreFaults {
            fail_rate: 1.0,
            seed: 3,
            max_consecutive: u32::MAX,
        });
        let j = Arc::new(NetJoin::new(Arc::clone(&store), "run/"));
        // Written past the faults: this joiner announced before the store
        // went down, and now waits with no deadline.
        store.set(&j.key(ANNOUNCE, RankId(2)), Vec::new());
        let waiter = {
            let j = Arc::clone(&j);
            std::thread::spawn(move || j.wait_ticket(RankId(2), &|| true, None))
        };
        assert_eq!(j.announce(RankId(3)), Err(UlfmError::JoinTimeout));
        assert_eq!(waiter.join().unwrap(), Err(UlfmError::JoinTimeout));
    }

    #[test]
    fn contact_prefers_member_addr_then_announce() {
        let store = KvStore::shared();
        let member = NetJoin::new(Arc::clone(&store), "run/").with_contact("127.0.0.1:9000");
        member.publish_contact(RankId(0));
        let joiner = NetJoin::new(Arc::clone(&store), "run/").with_contact("127.0.0.1:9001");
        joiner.announce(RankId(3)).unwrap();
        let bare = NetJoin::new(Arc::clone(&store), "run/");
        bare.announce(RankId(5)).unwrap();

        let probe = NetJoin::new(Arc::clone(&store), "run/");
        assert_eq!(probe.contact(RankId(0)), Some("127.0.0.1:9000".into()));
        assert_eq!(probe.contact(RankId(3)), Some("127.0.0.1:9001".into()));
        assert_eq!(probe.contact(RankId(5)), None, "empty announce ⇒ no addr");
        assert_eq!(probe.contact(RankId(9)), None, "unknown rank ⇒ no addr");
    }

    #[test]
    fn spare_pool_announce_snapshot_promote_dismiss() {
        let store = KvStore::shared();
        let j = NetJoin::new(Arc::clone(&store), "run/").with_contact("127.0.0.1:9100");
        j.announce_spare(RankId(8)).unwrap();
        let bare = NetJoin::new(Arc::clone(&store), "run/");
        bare.announce_spare(RankId(6)).unwrap();
        assert_eq!(j.spare_total(), 2);
        // Spares live apart from the joiner pending set.
        assert_eq!(j.pending_count(), 0);
        assert_eq!(j.snapshot_spares(&|_| true), vec![RankId(6), RankId(8)]);
        assert_eq!(j.snapshot_spares(&|r| r != RankId(6)), vec![RankId(8)]);
        // A spare with a contact is dialable like a member.
        assert_eq!(j.contact(RankId(8)), Some("127.0.0.1:9100".into()));

        // Promotion: a committed ticket removes the spare from the pool and
        // wakes it exactly like a joiner.
        let t = ticket();
        j.confirm_tickets(&[RankId(8)], &t);
        assert_eq!(j.snapshot_spares(&|_| true), vec![RankId(6)]);
        assert_eq!(j.wait_ticket(RankId(8), &|| true, None), Ok(t));

        // Dismissal: the sentinel wakes the waiter with Aborted and keeps
        // the spare out of future snapshots (idempotent).
        j.dismiss_spare(RankId(6));
        j.dismiss_spare(RankId(6));
        assert!(j.snapshot_spares(&|_| true).is_empty());
        assert_eq!(
            j.wait_ticket(RankId(6), &|| true, None),
            Err(UlfmError::Aborted)
        );
        // Announce totals stay monotone through promote/dismiss.
        assert_eq!(j.spare_total(), 2);
    }

    #[test]
    fn transient_store_failures_are_retried_and_counted() {
        let before = telemetry::counter("ulfm.netjoin.store_retries").get();
        let store = KvStore::shared_flaky(StoreFaults::rate(0.8, 11));
        let j = NetJoin::new(Arc::clone(&store), "flaky/");
        j.announce(RankId(2)).unwrap();
        let t = ticket();
        j.confirm_tickets(&[RankId(2)], &t);
        // max_consecutive bounds failure runs, so bounded retry always
        // lands the writes; the poll loop then finds the ticket.
        assert_eq!(j.wait_ticket(RankId(2), &|| true, None), Ok(t));
        assert!(
            telemetry::counter("ulfm.netjoin.store_retries").get() > before,
            "injected store faults must surface as counted retries"
        );
    }
}
