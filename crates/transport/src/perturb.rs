//! Message-level perturbation: a seeded, deterministic adversary for the
//! fabric's links.
//!
//! [`crate::FaultPlan`] models clean fail-stop — a rank dies and every peer
//! learns of it instantly. Real fabrics also lose, delay, duplicate, reorder,
//! and corrupt individual messages; those are the failure modes the
//! transport's reliability layer (per-link sequence numbers, dedup,
//! reorder, ack and retransmit) exists to heal. Installing a plan that
//! perturbs some link switches that layer on, in process and over sockets
//! alike; one that perturbs nothing ([`PerturbPlan::is_inert`]) leaves
//! clean links clean. A [`PerturbPlan`] scripts that
//! adversity per link (ordered rank pair) with per-message rates and an RNG
//! seed, so every run — including every chaos failure — replays
//! bit-identically.
//!
//! The plan can also be gated on a named fault point
//! ([`PerturbPlan::active_from_point`]): links stay clean until the protocol
//! passes that point, which lets tests perturb only the phase under study.

use crate::ids::RankId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// SplitMix64 — the same tiny deterministic generator the chaos suite uses.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }
}

/// Per-link perturbation rates. All probabilities are per transmitted frame
/// and drawn independently.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkPerturb {
    /// Probability the frame is silently dropped.
    pub drop: f64,
    /// Probability the frame is delivered twice.
    pub duplicate: f64,
    /// Probability one random bit of the encoded frame is flipped.
    pub corrupt: f64,
    /// Probability the frame is held back and delivered after the *next*
    /// transmission on the same link (one-frame reorder window).
    pub reorder: f64,
    /// Probability the frame is delayed before delivery.
    pub delay: f64,
    /// Delay bounds (uniform draw in `[delay_min, delay_max]`).
    pub delay_min: Duration,
    /// See [`LinkPerturb::delay_min`].
    pub delay_max: Duration,
}

impl LinkPerturb {
    /// No perturbation.
    pub fn clean() -> Self {
        Self::default()
    }

    /// Set the drop rate.
    pub fn drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Set the duplication rate.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Set the bit-corruption rate.
    pub fn corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Set the reorder rate.
    pub fn reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Delay a fraction `p` of frames by a uniform draw in `[min, max]`.
    pub fn delay(mut self, p: f64, min: Duration, max: Duration) -> Self {
        self.delay = p;
        self.delay_min = min;
        self.delay_max = max.max(min);
        self
    }

    fn is_clean(&self) -> bool {
        self.drop <= 0.0
            && self.duplicate <= 0.0
            && self.corrupt <= 0.0
            && self.reorder <= 0.0
            && self.delay <= 0.0
    }
}

/// Bounded-retry policy for the fabric's stop-and-wait retransmission path.
///
/// Backoff for attempt `n` is `base · 2ⁿ` capped at `cap`, scaled by a
/// deterministic jitter factor in `[0.5, 1.5)` so retransmissions from
/// different ranks decorrelate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmissions allowed after the first attempt before the peer is
    /// suspected dead.
    pub max_retries: u32,
    /// First backoff.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 16,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retransmission number `attempt` (0-based), with
    /// deterministic jitter derived from `salt`.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(12));
        let capped = exp.min(self.cap);
        let jitter = 0.5 + (salt % 1024) as f64 / 1024.0;
        capped.mul_f64(jitter)
    }

    /// How long a sender waits on a silent peer before suspecting it: every
    /// backoff of the budget, unjittered.
    pub(crate) fn patience(&self) -> Duration {
        (0..=self.max_retries).map(|n| self.backoff(n, 512)).sum()
    }
}

/// A seeded, reproducible schedule of link-level message perturbation.
#[derive(Clone, Debug, PartialEq)]
pub struct PerturbPlan {
    seed: u64,
    default_link: Option<LinkPerturb>,
    links: Vec<(RankId, RankId, LinkPerturb)>,
    retry: RetryPolicy,
    gate_point: Option<String>,
}

impl Default for PerturbPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl PerturbPlan {
    /// No perturbation at all (links are perfect, as in the seed transport).
    pub fn none() -> Self {
        Self {
            seed: 0,
            default_link: None,
            links: Vec::new(),
            retry: RetryPolicy::default(),
            gate_point: None,
        }
    }

    /// An empty plan with an RNG seed; add links with the builder methods.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::none()
        }
    }

    /// Perturb every link with `p` (specific [`PerturbPlan::link`] entries
    /// still take precedence).
    pub fn all_links(mut self, p: LinkPerturb) -> Self {
        self.default_link = Some(p);
        self
    }

    /// Perturb the ordered link `from → to` with `p`.
    pub fn link(mut self, from: RankId, to: RankId, p: LinkPerturb) -> Self {
        self.links.push((from, to, p));
        self
    }

    /// Perturb every inbound link of `to` with `p` (requires the rank count).
    pub fn links_into(mut self, to: RankId, total_ranks: usize, p: LinkPerturb) -> Self {
        for from in 0..total_ranks {
            if from != to.0 {
                self.links.push((RankId(from), to, p));
            }
        }
        self
    }

    /// Override the retransmission policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Keep links clean until the named fault point (see
    /// [`crate::Endpoint::fault_point`]) is first crossed by any rank.
    pub fn active_from_point(mut self, point: &str) -> Self {
        self.gate_point = Some(point.to_string());
        self
    }

    /// The RNG seed baked into the plan.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The retransmission policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Does the plan perturb nothing?
    pub fn is_inert(&self) -> bool {
        self.default_link.is_none_or(|d| d.is_clean())
            && self.links.iter().all(|(_, _, p)| p.is_clean())
    }

    fn spec_for(&self, from: RankId, to: RankId) -> Option<LinkPerturb> {
        self.links
            .iter()
            .find(|(f, t, _)| *f == from && *t == to)
            .map(|(_, _, p)| *p)
            .or(self.default_link)
            .filter(|p| !p.is_clean())
    }
}

/// One scheduled delivery of (possibly mangled) frame bytes.
pub struct Delivery {
    /// Encoded frame bytes as they arrive on the wire: `None` for the
    /// caller's own frame as it is, `Some` where the adversary had to mangle
    /// or hold a copy.
    pub bytes: Option<Vec<u8>>,
    /// Sender-side propagation delay to apply before delivery.
    pub delay: Option<Duration>,
    /// Is this a copy of the frame being transmitted now (as opposed to a
    /// stashed earlier frame being flushed out of order)?
    pub current: bool,
}

/// What the adversary decided for one transmission.
#[derive(Default)]
pub struct Verdict {
    /// Deliveries to perform, in arrival order: at most the frame, its
    /// duplicate, and an earlier frame flushed from the reorder stash.
    pub deliveries: [Option<Delivery>; 3],
    /// The current frame was dropped.
    pub dropped: bool,
    /// The current frame had a bit flipped.
    pub corrupted: bool,
    /// The current frame was delivered twice.
    pub duplicated: bool,
    /// The current frame was stashed for out-of-order delivery.
    pub reordered: bool,
}

impl Verdict {
    /// A clean link's verdict: the caller's own frame, once, now.
    pub fn clean() -> Self {
        Verdict {
            deliveries: [
                Some(Delivery {
                    bytes: None,
                    delay: None,
                    current: true,
                }),
                None,
                None,
            ],
            ..Verdict::default()
        }
    }
}

#[derive(Default)]
struct LinkState {
    rng: Option<SplitMix64>,
    /// One-frame reorder window: a held-back frame delivered after the next
    /// transmission on this link.
    stash: Option<Vec<u8>>,
}

/// Runtime executor of a [`PerturbPlan`]: owns the per-link RNG streams and
/// reorder stashes. Lives inside the fabric.
pub struct Perturber {
    plan: PerturbPlan,
    active: AtomicBool,
    links: parking_lot::Mutex<HashMap<(RankId, RankId), LinkState>>,
}

impl Perturber {
    /// Executor for `plan`.
    pub fn new(plan: PerturbPlan) -> Self {
        let active = plan.gate_point.is_none();
        Self {
            plan,
            active: AtomicBool::new(active),
            links: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// An executor that never perturbs anything.
    pub fn inert() -> Self {
        Self::new(PerturbPlan::none())
    }

    /// The underlying plan.
    pub fn plan(&self) -> &PerturbPlan {
        &self.plan
    }

    /// Notify that a named fault point was crossed; activates a gated plan.
    pub fn notify_point(&self, name: &str) {
        if self.plan.gate_point.as_deref() == Some(name) {
            self.active.store(true, Ordering::SeqCst);
        }
    }

    /// Deterministic jitter salt for the sender-side backoff of
    /// retransmission `attempt` of `(src → dst, tag, seq)`.
    pub fn backoff_salt(&self, src: RankId, dst: RankId, tag: u64, seq: u64, attempt: u32) -> u64 {
        let mut h = self.plan.seed ^ 0x5851_f42d_4c95_7f2d;
        for v in [src.0 as u64, dst.0 as u64, tag, seq, attempt as u64] {
            h ^= v;
            h = h.wrapping_mul(0x2545_f491_4f6c_dd1d);
            h ^= h >> 29;
        }
        h
    }

    /// Decide the fate of one frame transmission on `src → dst`.
    ///
    /// Returns the deliveries to perform in order. The current frame is
    /// acknowledged only if a copy of it actually reaches the receiver (the
    /// caller learns that from the receiver's accept result, not from us).
    pub fn transmit(&self, src: RankId, dst: RankId, frame: &[u8]) -> Verdict {
        let Some(spec) = self
            .active
            .load(Ordering::SeqCst)
            .then(|| self.plan.spec_for(src, dst))
            .flatten()
        else {
            // Clean link: deliver the caller's bytes verbatim. Nothing can be
            // stashed here — a link only ever stashes under its own spec,
            // and a gated plan never goes back to inactive — so no per-link
            // state is consulted.
            return Verdict::clean();
        };

        let mut links = self.links.lock();
        let st = links.entry((src, dst)).or_default();
        let seed = self.plan.seed;
        let rng = st.rng.get_or_insert_with(|| {
            // Distinct deterministic stream per ordered link.
            SplitMix64::new(
                seed ^ (src.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ (dst.0 as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
            )
        });

        let mut v = Verdict::default();
        let flush = st.stash.is_some();

        if rng.chance(spec.drop) {
            v.dropped = true;
        } else {
            let mut bytes = None;
            if rng.chance(spec.corrupt) {
                let bit = rng.next_u64() as usize % (frame.len() * 8);
                bytes.insert(frame.to_vec())[bit / 8] ^= 1 << (bit % 8);
                v.corrupted = true;
            }
            let delay = rng.chance(spec.delay).then(|| {
                let span = spec.delay_max.saturating_sub(spec.delay_min);
                spec.delay_min + span.mul_f64(rng.next_f64())
            });
            if !flush && !v.corrupted && rng.chance(spec.reorder) {
                // Hold the frame back; it arrives after the next transmission
                // on this link (the sender's retransmission heals the gap).
                st.stash = Some(frame.to_vec());
                v.reordered = true;
            } else {
                v.duplicated = rng.chance(spec.duplicate);
                v.deliveries[1] = v.duplicated.then(|| Delivery {
                    bytes: bytes.clone(),
                    delay: None,
                    current: true,
                });
                v.deliveries[0] = Some(Delivery {
                    bytes,
                    delay,
                    current: true,
                });
            }
        }

        if flush {
            v.deliveries[2] = st.stash.take().map(|stashed| Delivery {
                bytes: Some(stashed),
                delay: None,
                current: false,
            });
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Vec<u8> {
        crate::wire::encode_frame(RankId(0), 1, 0, b"payload")
    }

    /// The deliveries a verdict schedules, in order.
    fn sent(v: &Verdict) -> Vec<&Delivery> {
        v.deliveries.iter().flatten().collect()
    }

    #[test]
    fn inert_plan_delivers_verbatim() {
        let p = Perturber::inert();
        let f = frame();
        let v = p.transmit(RankId(0), RankId(1), &f);
        assert_eq!(sent(&v).len(), 1);
        assert!(sent(&v)[0].current);
        // The caller's own frame, not a copy of it.
        assert!(sent(&v)[0].bytes.is_none());
        assert!(!v.dropped && !v.corrupted && !v.duplicated && !v.reordered);
    }

    #[test]
    fn drop_rate_one_never_delivers() {
        let p = Perturber::new(PerturbPlan::seeded(7).all_links(LinkPerturb::clean().drop(1.0)));
        let f = frame();
        for _ in 0..10 {
            let v = p.transmit(RankId(0), RankId(1), &f);
            assert!(v.dropped);
            assert!(sent(&v).is_empty());
        }
    }

    #[test]
    fn duplicate_rate_one_delivers_twice() {
        let p =
            Perturber::new(PerturbPlan::seeded(7).all_links(LinkPerturb::clean().duplicate(1.0)));
        let f = frame();
        let v = p.transmit(RankId(0), RankId(1), &f);
        assert!(v.duplicated);
        assert_eq!(sent(&v).len(), 2);
        assert_eq!(sent(&v)[0].bytes, sent(&v)[1].bytes);
    }

    #[test]
    fn corrupt_changes_exactly_one_bit() {
        let p = Perturber::new(PerturbPlan::seeded(7).all_links(LinkPerturb::clean().corrupt(1.0)));
        let f = frame();
        let v = p.transmit(RankId(0), RankId(1), &f);
        assert!(v.corrupted);
        let got = sent(&v)[0].bytes.as_ref().expect("a mangled copy");
        let flipped: u32 = f
            .iter()
            .zip(got.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert!(crate::wire::decode_frame(got).is_err());
    }

    #[test]
    fn reorder_stashes_then_flushes_on_next_transmit() {
        let p = Perturber::new(PerturbPlan::seeded(7).all_links(LinkPerturb::clean().reorder(1.0)));
        let f0 = frame();
        let v0 = p.transmit(RankId(0), RankId(1), &f0);
        assert!(v0.reordered);
        assert!(sent(&v0).is_empty());
        // Next transmit on the same link flushes the stash after itself.
        let f1 = crate::wire::encode_frame(RankId(0), 1, 1, b"next");
        let v1 = p.transmit(RankId(0), RankId(1), &f1);
        assert_eq!(sent(&v1).len(), 2);
        assert!(sent(&v1)[0].current);
        assert_eq!(sent(&v1)[0].bytes, None);
        assert!(!sent(&v1)[1].current);
        assert_eq!(sent(&v1)[1].bytes, Some(f0));
    }

    #[test]
    fn same_seed_same_schedule() {
        let mk = || {
            Perturber::new(
                PerturbPlan::seeded(1234)
                    .all_links(LinkPerturb::clean().drop(0.3).duplicate(0.3).corrupt(0.2)),
            )
        };
        let (a, b) = (mk(), mk());
        for i in 0..200u64 {
            let f = crate::wire::encode_frame(RankId(0), 1, i, &i.to_le_bytes());
            let va = a.transmit(RankId(0), RankId(1), &f);
            let vb = b.transmit(RankId(0), RankId(1), &f);
            assert_eq!(va.dropped, vb.dropped);
            assert_eq!(va.corrupted, vb.corrupted);
            assert_eq!(va.duplicated, vb.duplicated);
            assert_eq!(
                sent(&va).iter().map(|d| &d.bytes).collect::<Vec<_>>(),
                sent(&vb).iter().map(|d| &d.bytes).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn link_spec_overrides_default() {
        let plan = PerturbPlan::seeded(7)
            .all_links(LinkPerturb::clean().drop(1.0))
            .link(RankId(0), RankId(1), LinkPerturb::clean());
        // The explicit clean link wins over the lossy default.
        let p = Perturber::new(plan);
        let f = frame();
        let v = p.transmit(RankId(0), RankId(1), &f);
        assert_eq!(sent(&v).len(), 1);
        // An explicitly clean link inside a lossy plan copies nothing either.
        assert!(sent(&v)[0].bytes.is_none());
        let v = p.transmit(RankId(1), RankId(0), &f);
        assert!(v.dropped);
    }

    #[test]
    fn gated_plan_waits_for_fault_point() {
        let p = Perturber::new(
            PerturbPlan::seeded(7)
                .all_links(LinkPerturb::clean().drop(1.0))
                .active_from_point("warmup.done"),
        );
        assert_eq!(sent(&p.transmit(RankId(0), RankId(1), &frame())).len(), 1);
        p.notify_point("other.point");
        assert_eq!(sent(&p.transmit(RankId(0), RankId(1), &frame())).len(), 1);
        p.notify_point("warmup.done");
        assert!(p.transmit(RankId(0), RankId(1), &frame()).dropped);
    }

    #[test]
    fn links_into_targets_inbound_only() {
        let plan = PerturbPlan::seeded(7).links_into(RankId(2), 4, LinkPerturb::clean().drop(1.0));
        let p = Perturber::new(plan);
        assert!(p.transmit(RankId(0), RankId(2), &frame()).dropped);
        assert!(p.transmit(RankId(3), RankId(2), &frame()).dropped);
        assert_eq!(sent(&p.transmit(RankId(2), RankId(0), &frame())).len(), 1);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let pol = RetryPolicy {
            max_retries: 10,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(2),
        };
        let b0 = pol.backoff(0, 512);
        let b4 = pol.backoff(4, 512);
        assert!(b4 > b0);
        // Jitter is at most 1.5×cap.
        assert!(pol.backoff(30, 1023) <= Duration::from_millis(3));
    }

    #[test]
    fn is_inert_detects_clean_plans() {
        assert!(PerturbPlan::none().is_inert());
        assert!(PerturbPlan::seeded(3)
            .all_links(LinkPerturb::clean())
            .is_inert());
        assert!(!PerturbPlan::seeded(3)
            .all_links(LinkPerturb::clean().drop(0.1))
            .is_inert());
    }
}
