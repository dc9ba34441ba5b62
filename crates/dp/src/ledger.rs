//! The budget ledger: lifetime and sliding-window privacy accounting in
//! one type.
//!
//! The paper's model is *lifetime* depletion: every publication burns a
//! worker's ε forever and an exhausted worker retires (Theorems V.2 /
//! VI.4). That is correct over the paper's finite horizon but wrong for
//! a service that runs for months: under the continual-observation /
//! sliding-window model of *Differential Privacy on Dynamic Data* (Qiu
//! & Yi, arXiv:2209.01387) the adversary is only promised
//! indistinguishability over any span of length `W`, so spend older
//! than the protection window stops counting against the worker and
//! their budget *renews*.
//!
//! The two policies differ only in `W`, so [`BudgetLedger`] is one
//! struct with a `window` field, and `W = ∞` *is* lifetime accounting:
//! no charge is ever stamped and no reclamation ever runs, so the spend
//! accumulator is the only state (pinned against a separate lifetime
//! model by a proptest here, and at the stream level).
//!
//! # The reclamation rule
//!
//! Charges are stamped with the ledger's current time (the enclosing
//! window's start, in the stream pipeline). [`advance_time`] to `now`
//! drops every entry stamped `t ≤ now − W` and recomputes the spend
//! accumulator as a fresh left-to-right sum over the survivors. Two
//! consequences, both load-bearing:
//!
//! * **Spend inside any `W`-span never exceeds capacity.** The budget
//!   guard reads `remaining = capacity − spent − reserved` where
//!   `spent` is exactly the in-window spend, so a guard-respecting
//!   caller can never push any window of length `W` past `capacity`.
//! * **Reclamation is exactly monotone.** IEEE round-to-nearest
//!   addition is monotone in the accumulator, so summing a suffix of
//!   the entry list can never exceed summing the whole list: shrinking
//!   `W` never *decreases* remaining budget, with no tolerance needed.
//!
//! [`advance_time`]: BudgetLedger::advance_time

use crate::intern::FastMap;
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;

/// A dense handle to one tracked entity, obtained from
/// [`BudgetLedger::resolve`].
///
/// Hot per-proposal paths (budget guards, release charging) resolve a
/// worker's logical id once per window and then use the `*_at` methods,
/// which are plain vector lookups — no id hashing per proposal. A
/// handle stays valid until its entity is removed
/// ([`forget`](BudgetLedger::forget) /
/// [`drain_exhausted`](BudgetLedger::drain_exhausted)); after that,
/// read accessors return zero (like unknown ids) and mutating accessors
/// panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccountId(u32);

/// One tracked entity: capacity, committed spend (the in-window spend
/// when `W` is finite), and budget reserved by an in-flight window
/// awaiting commit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Account {
    capacity: f64,
    spent: f64,
    reserved: f64,
}

/// One account's time-stamped charges `(t, ε)`, stamps ascending.
type Charges = VecDeque<(f64, f64)>;

impl Account {
    fn remaining(&self) -> f64 {
        (self.capacity - self.spent - self.reserved).max(0.0)
    }

    fn exhausted(&self) -> bool {
        // Tolerance mirrors the ledger-vs-board float comparisons.
        self.spent >= self.capacity - 1e-12
    }
}

/// Per-entity privacy-budget accounting across a stream of windows:
/// lifetime depletion when the protection window `W` is infinite,
/// sliding-window reclamation when it is finite.
///
/// A [`PrivacyLedger`](crate::PrivacyLedger) audits one worker inside
/// one protocol run; a `BudgetLedger` tracks the budget of many entities
/// across successive runs — the streaming setting, where the same
/// worker participates in window after window. Entities are keyed by
/// caller-chosen `u64` ids (the stream's logical worker ids), not
/// per-instance indices, so accounting survives the re-indexing every
/// new window performs.
///
/// # Two-phase charging
///
/// [`charge`](Self::charge) records spend immediately. Coordinated
/// runs — the streaming pipeline's cross-shard halo mode, where several
/// shards publish on behalf of one worker inside one window — instead
/// use the reserve/commit pair: every shard [`reserve`](Self::reserve)s
/// the budget its publications would cost, reservations count against
/// [`remaining`](Self::remaining) so later proposals see a depleted
/// budget, and after cross-shard reconciliation the coordinator
/// [`commit`](Self::commit)s (or [`rollback`](Self::rollback)s) each
/// entity's pending total exactly once. Retirement
/// ([`is_exhausted`](Self::is_exhausted) /
/// [`drain_exhausted`](Self::drain_exhausted)) looks at *committed*
/// spend only — a reservation can never retire anyone.
///
/// # Examples
///
/// ```
/// use dpta_dp::BudgetLedger;
///
/// let mut acc = BudgetLedger::new(f64::INFINITY); // lifetime accounting
/// acc.register(7, 2.0); // worker 7 may spend ε = 2.0 in total
/// acc.charge(7, 1.5);
/// assert!(!acc.is_exhausted(7));
/// assert!((acc.remaining(7) - 0.5).abs() < 1e-12);
///
/// // Two-phase: a reservation depletes `remaining` but not `spent`
/// // until committed.
/// acc.reserve(7, 0.5);
/// assert_eq!(acc.remaining(7), 0.0);
/// assert!((acc.spent(7) - 1.5).abs() < 1e-12);
/// assert!((acc.commit(7) - 0.5).abs() < 1e-12);
/// assert!(acc.is_exhausted(7));
/// assert_eq!(acc.drain_exhausted(), vec![7]);
/// assert!(acc.tracked().next().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    /// Logical id → slot in `slots`: the ledger's interning table.
    /// One deterministic [`FastMap`] probe per lookup — no tree descent
    /// and no SipHash on the hot per-window resolve/charge paths.
    index: FastMap<u64, u32>,
    /// Dense account storage; slots are never reused, a forgotten or
    /// drained entity leaves a `None` tombstone so outstanding
    /// [`AccountId`]s can never alias a different entity.
    slots: Vec<Option<Account>>,
    /// Each slot's charge list, parallel to `slots` — kept only when
    /// `W` is finite. With `W = ∞` nothing is ever stamped and this
    /// stays empty, so a lifetime account is its three floats.
    entries: Vec<Charges>,
    /// Live ids, ascending. Every public iteration (`tracked`,
    /// `drain_exhausted`, `total_spent`, serialization) walks this
    /// list, so observable ordering — including float summation order —
    /// is by id. Kept sorted eagerly: streaming registration is
    /// near-monotone in id, so the common case is an O(1) push.
    live: Vec<u64>,
    /// Protection window length `W`; `f64::INFINITY` disables
    /// reclamation entirely (lifetime semantics).
    window: f64,
    /// The ledger clock: charges are stamped with it, reclamation
    /// measures age against it.
    now: f64,
}

impl BudgetLedger {
    /// Creates a ledger tracking no entities, with protection window
    /// `window` (seconds of stream time; `f64::INFINITY` for lifetime
    /// accounting). Panics on a non-positive or NaN window.
    pub fn new(window: f64) -> Self {
        assert!(
            window > 0.0 && !window.is_nan(),
            "protection window must be positive, got {window}"
        );
        BudgetLedger {
            index: FastMap::default(),
            slots: Vec::new(),
            entries: Vec::new(),
            live: Vec::new(),
            window,
            now: f64::NEG_INFINITY,
        }
    }

    /// The protection window length `W`.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// The ledger clock (the last `advance_time` value;
    /// `-∞` before the first advance).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Whether reclaimed budget can return to exhausted entities — if
    /// `true`, retiring an exhausted entity forever is wrong and the
    /// caller should let it idle instead. Only a finite window renews.
    pub fn renewable(&self) -> bool {
        self.window.is_finite()
    }

    fn get(&self, id: u64) -> Option<&Account> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_ref()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Account> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_mut()
    }

    /// The slot of `id`; panics if it was never registered.
    fn registered(&self, id: u64) -> usize {
        match self.index.get(&id) {
            Some(&slot) => slot as usize,
            None => panic!("entity {id} was never registered"),
        }
    }

    /// The account in `slot`; panics on a tombstone (a stale handle).
    fn slot_mut(&mut self, slot: usize) -> &mut Account {
        self.slots[slot].as_mut().expect("stale account handle")
    }

    /// Commits `amount` of spend to `slot`, stamping it with the ledger
    /// clock when the window is finite. Zero amounts are not stamped
    /// (they cannot change any future recomputed sum).
    fn spend(&mut self, slot: usize, amount: f64) {
        self.slot_mut(slot).spent += amount;
        if self.window.is_finite() && amount > 0.0 {
            self.entries[slot].push_back((self.now, amount));
        }
    }

    /// Tombstones `slot`, dropping its charge list.
    fn bury(slots: &mut [Option<Account>], entries: &mut [Charges], slot: usize) {
        slots[slot] = None;
        if let Some(charges) = entries.get_mut(slot) {
            *charges = Charges::new();
        }
    }

    /// Starts tracking `id` with the given budget capacity.
    /// Re-registering an id keeps its spend and raises/lowers only the
    /// capacity, so late capacity adjustments cannot reset history.
    /// `capacity` may be `f64::INFINITY` for never-retiring entities.
    pub fn register(&mut self, id: u64, capacity: f64) {
        assert!(
            capacity > 0.0 && !capacity.is_nan(),
            "capacity must be positive, got {capacity}"
        );
        match self.get_mut(id) {
            Some(a) => a.capacity = capacity,
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Some(Account {
                    capacity,
                    spent: 0.0,
                    reserved: 0.0,
                }));
                if self.window.is_finite() {
                    self.entries.push(Charges::new());
                }
                self.index.insert(id, slot);
                match self.live.last() {
                    Some(&last) if last >= id => {
                        let at = self.live.partition_point(|&x| x < id);
                        self.live.insert(at, id);
                    }
                    _ => self.live.push(id),
                }
            }
        }
    }

    /// The dense handle for `id`, if it is currently tracked. Resolve
    /// once per window, then use [`charge_at`](Self::charge_at) /
    /// [`remaining_at`](Self::remaining_at) and friends in per-proposal
    /// loops.
    pub fn resolve(&self, id: u64) -> Option<AccountId> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_ref().map(|_| AccountId(slot))
    }

    /// Charges `epsilon` (≥ 0) against `id`'s budget. Panics if the id
    /// was never registered — silent accounting gaps are exactly what
    /// this type exists to prevent.
    pub fn charge(&mut self, id: u64, epsilon: f64) {
        check_amount("charge", epsilon);
        self.spend(self.registered(id), epsilon);
    }

    /// Handle counterpart of [`charge`](Self::charge); panics on a
    /// stale handle.
    pub fn charge_at(&mut self, at: AccountId, epsilon: f64) {
        check_amount("charge", epsilon);
        self.spend(at.0 as usize, epsilon);
    }

    /// Reserves `epsilon` (≥ 0) against `id`'s budget without
    /// committing it: [`remaining`](Self::remaining) shrinks at once,
    /// [`spent`](Self::spent) moves only on [`commit`](Self::commit).
    /// Panics if the id was never registered.
    pub fn reserve(&mut self, id: u64, epsilon: f64) {
        check_amount("reservation", epsilon);
        let slot = self.registered(id);
        self.slot_mut(slot).reserved += epsilon;
    }

    /// Handle counterpart of [`reserve`](Self::reserve); panics on a
    /// stale handle.
    pub fn reserve_at(&mut self, at: AccountId, epsilon: f64) {
        check_amount("reservation", epsilon);
        self.slot_mut(at.0 as usize).reserved += epsilon;
    }

    /// Budget currently reserved against `id` and awaiting commit (zero
    /// for unknown ids).
    pub fn reserved(&self, id: u64) -> f64 {
        self.get(id).map_or(0.0, |a| a.reserved)
    }

    /// Converts `id`'s whole pending reservation into committed spend
    /// and returns the amount. A no-op returning zero when nothing is
    /// reserved; panics if the id was never registered.
    pub fn commit(&mut self, id: u64) -> f64 {
        let slot = self.registered(id);
        let amount = std::mem::take(&mut self.slot_mut(slot).reserved);
        self.spend(slot, amount);
        amount
    }

    /// Discards `id`'s pending reservation (the publications never
    /// happened) and returns the released amount. Zero for unknown ids.
    pub fn rollback(&mut self, id: u64) -> f64 {
        self.get_mut(id)
            .map_or(0.0, |a| std::mem::take(&mut a.reserved))
    }

    /// Committed spend of `id` (zero for unknown ids). With a finite
    /// window this is the spend *inside the current protection window*.
    pub fn spent(&self, id: u64) -> f64 {
        self.get(id).map_or(0.0, |a| a.spent)
    }

    /// Handle counterpart of [`spent`](Self::spent); zero for stale
    /// handles.
    pub fn spent_at(&self, at: AccountId) -> f64 {
        self.slots[at.0 as usize].as_ref().map_or(0.0, |a| a.spent)
    }

    /// Remaining budget of `id` (zero for unknown ids), net of both
    /// committed spend and pending reservations, clamped at zero.
    pub fn remaining(&self, id: u64) -> f64 {
        self.get(id).map_or(0.0, Account::remaining)
    }

    /// Handle counterpart of [`remaining`](Self::remaining); zero for
    /// stale handles.
    pub fn remaining_at(&self, at: AccountId) -> f64 {
        self.slots[at.0 as usize]
            .as_ref()
            .map_or(0.0, Account::remaining)
    }

    /// Whether `id`'s committed spend has reached its capacity (unknown
    /// ids count as exhausted — they have nothing left to spend).
    pub fn is_exhausted(&self, id: u64) -> bool {
        self.get(id).is_none_or(Account::exhausted)
    }

    /// Removes and returns every exhausted entity, ascending by id —
    /// the retirement step the stream pipeline runs after each window
    /// under lifetime accounting.
    pub fn drain_exhausted(&mut self) -> Vec<u64> {
        let mut gone = Vec::new();
        let (index, slots, entries) = (&mut self.index, &mut self.slots, &mut self.entries);
        self.live.retain(|&id| {
            let slot = *index.get(&id).expect("live id is indexed") as usize;
            let exhausted = slots[slot].as_ref().is_some_and(Account::exhausted);
            if exhausted {
                index.remove(&id);
                Self::bury(slots, entries, slot);
                gone.push(id);
            }
            !exhausted
        });
        gone
    }

    /// Stops tracking `id` regardless of its state (e.g. a worker who
    /// departed by being matched). Returns whether it was tracked.
    pub fn forget(&mut self, id: u64) -> bool {
        match self.index.remove(&id) {
            Some(slot) => {
                Self::bury(&mut self.slots, &mut self.entries, slot as usize);
                let at = self.live.partition_point(|&x| x < id);
                debug_assert_eq!(self.live.get(at), Some(&id));
                self.live.remove(at);
                true
            }
            None => false,
        }
    }

    /// Ids still tracked, ascending.
    pub fn tracked(&self) -> impl Iterator<Item = u64> + '_ {
        self.live.iter().copied()
    }

    /// Total spend across all tracked entities, summed ascending by id
    /// (the float order every historical gate pinned).
    pub fn total_spent(&self) -> f64 {
        self.live
            .iter()
            .filter_map(|&id| self.get(id))
            .map(|a| a.spent)
            .sum()
    }

    /// Advances the ledger clock to `now`, reclaiming any spend that
    /// has aged out of the protection window. With `W = ∞` this only
    /// sets the clock.
    ///
    /// ```
    /// use dpta_dp::BudgetLedger;
    ///
    /// let mut acc = BudgetLedger::new(600.0); // W = 600 s
    /// acc.register(7, 1.0);
    /// acc.advance_time(0.0);
    /// acc.charge(7, 1.0);
    /// assert!(acc.is_exhausted(7));
    /// // 600 s later the charge ages out and the budget renews.
    /// acc.advance_time(600.0);
    /// assert!(!acc.is_exhausted(7));
    /// assert_eq!(acc.remaining(7), 1.0);
    /// ```
    pub fn advance_time(&mut self, now: f64) {
        assert!(!now.is_nan(), "ledger clock must not be NaN");
        self.now = now;
        if !self.window.is_finite() {
            return;
        }
        let cutoff = now - self.window;
        for (slot, charges) in self.slots.iter_mut().zip(&mut self.entries) {
            let Some(a) = slot.as_mut() else { continue };
            let mut reclaimed = false;
            while charges.front().is_some_and(|&(t, _)| t <= cutoff) {
                charges.pop_front();
                reclaimed = true;
            }
            if reclaimed {
                // A fresh left-to-right sum over the survivors: exactly
                // the accumulator a run that never saw the reclaimed
                // prefix would hold, and — because IEEE
                // round-to-nearest addition is monotone in the
                // accumulator — never more than the pre-reclamation
                // spend.
                a.spent = charges.iter().map(|&(_, e)| e).sum();
            }
        }
    }

    /// Rejects a restored account that no sequence of ledger calls
    /// could have produced: a non-positive capacity, negative or
    /// non-finite spend or reservation (either would let `remaining`
    /// exceed the cap), or a charge list that is not a valid stamp
    /// history for this window and clock (out-of-order stamps would
    /// break reclamation's pop-from-front rule, and a spend below its
    /// entries' sum would lift the rolling cap).
    fn check_account(&self, id: u64, a: &Account, charges: &Charges) -> Result<(), serde::Error> {
        let bad = |why: &str| Err(serde::Error(format!("ledger account {id}: {why}")));
        if a.capacity.is_nan() || a.capacity <= 0.0 {
            return bad("capacity is not positive");
        }
        if !(a.spent.is_finite() && a.spent >= 0.0) {
            return bad("spent is negative or not finite");
        }
        if !(a.reserved.is_finite() && a.reserved >= 0.0) {
            return bad("reserved is negative or not finite");
        }
        if !self.window.is_finite() && !charges.is_empty() {
            return bad("an infinite-window ledger records no charge entries");
        }
        let mut prev = f64::NEG_INFINITY;
        for &(t, eps) in charges {
            if !(eps.is_finite() && eps > 0.0) {
                return bad("charge entry eps is not finite and positive");
            }
            if !(prev <= t && t <= self.now) {
                return bad("charge stamps decrease or pass the ledger clock");
            }
            prev = t;
        }
        // With a finite window the accumulator is exactly the
        // left-to-right sum of the entries: a charge adds and stamps the
        // same amount, and reclamation re-sums the survivors.
        let entry_sum: f64 = charges.iter().map(|&(_, e)| e).sum();
        if self.window.is_finite() && a.spent != entry_sum {
            return bad("spent is not the sum of its charge entries");
        }
        Ok(())
    }
}

fn check_amount(what: &str, epsilon: f64) {
    assert!(
        epsilon.is_finite() && epsilon >= 0.0,
        "{what} must be finite and >= 0, got {epsilon}"
    );
}

/// Canonical form, in the snapshot v2 wire format: `W = ∞` writes
/// `{"Lifetime": {"accountant": [rows]}}`, a finite window writes
/// `{"Windowed": {"accountant": {window, now, accounts}}}` with each row
/// carrying its charge entries. Rows are one per live entity, ascending
/// by id, with the dense slot layout discarded: restoring assigns fresh
/// contiguous slots — safe because every observable behaviour
/// (iteration order, retirement order, float summation order) goes
/// through the id index, never the slot vector, and it makes snapshot
/// → restore → snapshot idempotent regardless of how many tombstones
/// the original accumulated. The reader takes both tags, including a
/// `Windowed` one with an infinite window.
impl Serialize for BudgetLedger {
    fn serialize_value(&self) -> Value {
        let windowed = self.window.is_finite();
        let rows = self
            .live
            .iter()
            .map(|&id| {
                let slot = self.index[&id] as usize;
                let a = self.slots[slot].as_ref().expect("live id has an account");
                let mut row = vec![
                    ("id".to_string(), id.serialize_value()),
                    ("capacity".to_string(), a.capacity.serialize_value()),
                    ("spent".to_string(), a.spent.serialize_value()),
                    ("reserved".to_string(), a.reserved.serialize_value()),
                ];
                if windowed {
                    let entries = self.entries[slot].iter().map(|&(t, e)| {
                        Value::Object(vec![
                            ("t".to_string(), t.serialize_value()),
                            ("eps".to_string(), e.serialize_value()),
                        ])
                    });
                    row.push(("entries".to_string(), Value::Array(entries.collect())));
                }
                Value::Object(row)
            })
            .collect();
        let (tag, accountant) = if windowed {
            let body = Value::Object(vec![
                ("window".to_string(), self.window.serialize_value()),
                ("now".to_string(), self.now.serialize_value()),
                ("accounts".to_string(), Value::Array(rows)),
            ]);
            ("Windowed", body)
        } else {
            ("Lifetime", Value::Array(rows))
        };
        Value::Object(vec![(
            tag.to_string(),
            Value::Object(vec![("accountant".to_string(), accountant)]),
        )])
    }
}

impl Deserialize for BudgetLedger {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, serde::Error> {
            v.get(name)
                .ok_or_else(|| serde::Error(format!("missing ledger field `{name}`")))
        }
        let (tag, body) = match v {
            Value::Object(fields) if fields.len() == 1 => (fields[0].0.as_str(), &fields[0].1),
            other => return Err(serde::Error::expected("Lifetime or Windowed ledger", other)),
        };
        let accountant = field(body, "accountant")?;
        let (mut ledger, rows) = match tag {
            "Lifetime" => (BudgetLedger::new(f64::INFINITY), accountant),
            "Windowed" => {
                let window = f64::deserialize_value(field(accountant, "window")?)?;
                if window.is_nan() || window <= 0.0 {
                    return Err(serde::Error(format!(
                        "ledger has non-positive window {window}"
                    )));
                }
                let now = f64::deserialize_value(field(accountant, "now")?)?;
                if now.is_nan() {
                    return Err(serde::Error("ledger clock is NaN".to_string()));
                }
                let mut ledger = BudgetLedger::new(window);
                ledger.now = now;
                (ledger, field(accountant, "accounts")?)
            }
            other => return Err(serde::Error(format!("unknown ledger tag `{other}`"))),
        };
        let Value::Array(rows) = rows else {
            return Err(serde::Error::expected("ledger row array", rows));
        };
        for row in rows {
            let id = u64::deserialize_value(field(row, "id")?)?;
            let entries = if tag == "Windowed" {
                match field(row, "entries")? {
                    Value::Array(entries) => entries
                        .iter()
                        .map(|e| {
                            Ok((
                                f64::deserialize_value(field(e, "t")?)?,
                                f64::deserialize_value(field(e, "eps")?)?,
                            ))
                        })
                        .collect::<Result<Charges, serde::Error>>()?,
                    other => return Err(serde::Error::expected("charge-entry array", other)),
                }
            } else {
                Charges::new()
            };
            let account = Account {
                capacity: f64::deserialize_value(field(row, "capacity")?)?,
                spent: f64::deserialize_value(field(row, "spent")?)?,
                reserved: f64::deserialize_value(field(row, "reserved")?)?,
            };
            ledger.check_account(id, &account, &entries)?;
            let slot = ledger.slots.len() as u32;
            ledger.slots.push(Some(account));
            if ledger.window.is_finite() {
                ledger.entries.push(entries);
            }
            if ledger.index.insert(id, slot).is_some() {
                return Err(serde::Error(format!("duplicate ledger account {id}")));
            }
            ledger.live.push(id);
        }
        // Canonical snapshots are already ascending; tolerate (and
        // normalise) any other ordering.
        ledger.live.sort_unstable();
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn from_json(text: &str) -> Result<BudgetLedger, serde::Error> {
        let value = serde_json::from_str(text).expect("test JSON parses");
        BudgetLedger::deserialize_value(&value)
    }

    fn to_json(ledger: &BudgetLedger) -> String {
        serde_json::to_string(ledger).unwrap()
    }

    #[test]
    fn windowed_reclaims_aged_spend() {
        let mut acc = BudgetLedger::new(100.0);
        acc.register(1, 2.0);
        acc.advance_time(0.0);
        acc.charge(1, 1.5);
        assert!((acc.remaining(1) - 0.5).abs() < 1e-12);
        acc.advance_time(50.0);
        acc.charge(1, 0.5);
        assert!(acc.is_exhausted(1));
        // t=0 charge ages out at t=100; the t=50 one survives.
        acc.advance_time(100.0);
        assert!(!acc.is_exhausted(1));
        assert_eq!(acc.spent(1), 0.5);
        assert_eq!(acc.remaining(1), 1.5);
        // Everything reclaimed at t=150.
        acc.advance_time(150.0);
        assert_eq!(acc.spent(1), 0.0);
        assert_eq!(acc.remaining(1), 2.0);
    }

    #[test]
    fn windowed_two_phase_round_trip() {
        let mut acc = BudgetLedger::new(100.0);
        acc.register(4, 3.0);
        acc.advance_time(0.0);
        acc.charge(4, 1.0);
        acc.reserve(4, 0.5);
        acc.reserve(4, 0.25);
        assert!((acc.reserved(4) - 0.75).abs() < 1e-12);
        assert!((acc.remaining(4) - 1.25).abs() < 1e-12);
        assert!((acc.spent(4) - 1.0).abs() < 1e-12);
        assert!((acc.rollback(4) - 0.75).abs() < 1e-12);
        assert_eq!(acc.reserved(4), 0.0);
        acc.reserve(4, 2.0);
        assert!((acc.commit(4) - 2.0).abs() < 1e-12);
        assert_eq!(acc.commit(4), 0.0);
        assert!(acc.is_exhausted(4));
        // The committed reservation is stamped and reclaims like a
        // direct charge.
        acc.advance_time(200.0);
        assert!(!acc.is_exhausted(4));
        assert_eq!(acc.spent(4), 0.0);
    }

    #[test]
    fn windowed_retirement_and_handles_match_lifetime_semantics() {
        let mut acc = BudgetLedger::new(f64::INFINITY);
        acc.register(8, 1.0);
        acc.register(9, 1.0);
        let h8 = acc.resolve(8).unwrap();
        acc.charge_at(h8, 1.0);
        assert_eq!(acc.drain_exhausted(), vec![8]);
        assert!(acc.resolve(8).is_none());
        assert_eq!(acc.remaining_at(h8), 0.0);
        assert_eq!(acc.tracked().collect::<Vec<_>>(), vec![9]);
        assert!(acc.forget(9));
        assert!(!acc.forget(9));
    }

    #[test]
    #[should_panic(expected = "protection window must be positive")]
    fn zero_window_panics() {
        let _ = BudgetLedger::new(0.0);
    }

    #[test]
    fn windowed_round_trips_canonically() {
        let mut acc = BudgetLedger::new(300.0);
        acc.register(7, f64::INFINITY);
        acc.register(2, 1.5);
        acc.register(9, 4.0);
        acc.advance_time(10.0);
        acc.charge(2, 0.5);
        acc.advance_time(20.0);
        acc.charge(2, 0.25);
        acc.reserve(9, 1.25);
        acc.forget(7);
        let back = BudgetLedger::deserialize_value(&acc.serialize_value()).expect("round trip");
        assert_eq!(back.tracked().collect::<Vec<_>>(), vec![2, 9]);
        assert_eq!(back.window(), 300.0);
        assert_eq!(back.now(), 20.0);
        assert_eq!(back.spent(2), acc.spent(2));
        assert_eq!(back.reserved(9), acc.reserved(9));
        assert_eq!(back.serialize_value(), acc.serialize_value());
        // And restored ledgers keep reclaiming correctly.
        let mut back = back;
        back.advance_time(311.0);
        assert_eq!(back.spent(2), 0.25, "only the t=10 entry ages out");
    }

    #[test]
    fn windowed_rejects_malformed_rows() {
        let doc = |window: &str, now: &str, row: &str| {
            format!(
                r#"{{"Windowed":{{"accountant":{{"window":{window},"now":{now},"accounts":[{row}]}}}}}}"#
            )
        };
        let row = |spent: &str, reserved: &str, entries: &str| {
            format!(
                r#"{{"id":1,"capacity":1,"spent":{spent},"reserved":{reserved},"entries":[{entries}]}}"#
            )
        };
        let good = row("0.5", "0", r#"{"t":10,"eps":0.5}"#);
        assert!(from_json(&doc("100", "20", &good)).is_ok());
        let cases = [
            ("duplicate ids", doc("100", "20", &format!("{good},{good}"))),
            ("zero window", doc("0", "20", "")),
            ("NaN clock", doc("100", r#""NaN""#, "")),
            ("negative spent", doc("100", "20", &row("-0.5", "0", ""))),
            (
                "infinite spent",
                doc("100", "20", &row(r#""inf""#, "0", "")),
            ),
            ("negative reserved", doc("100", "20", &row("0", "-1", ""))),
            ("NaN reserved", doc("100", "20", &row("0", r#""NaN""#, ""))),
            (
                "zero eps",
                doc("100", "20", &row("0", "0", r#"{"t":10,"eps":0}"#)),
            ),
            (
                "negative eps",
                doc("100", "20", &row("0", "0", r#"{"t":10,"eps":-0.5}"#)),
            ),
            (
                "infinite eps",
                doc("100", "20", &row("0", "0", r#"{"t":10,"eps":"inf"}"#)),
            ),
            (
                "decreasing stamps",
                doc(
                    "100",
                    "20",
                    &row("1", "0", r#"{"t":10,"eps":0.5},{"t":5,"eps":0.5}"#),
                ),
            ),
            (
                "stamp after the clock",
                doc("100", "20", &row("0.5", "0", r#"{"t":30,"eps":0.5}"#)),
            ),
            (
                "NaN stamp",
                doc("100", "20", &row("0.5", "0", r#"{"t":"NaN","eps":0.5}"#)),
            ),
            ("entry under W = inf", doc(r#""inf""#, "20", &good)),
            (
                "spent below its entries",
                doc("100", "20", &row("0.25", "0", r#"{"t":10,"eps":0.5}"#)),
            ),
        ];
        for (what, text) in cases {
            assert!(from_json(&text).is_err(), "{what} was accepted: {text}");
        }
    }

    /// Wire compatibility with snapshot v2: both tags read, `W = ∞`
    /// writes `Lifetime`, a finite window writes `Windowed`, and both
    /// forms round-trip byte for byte.
    #[test]
    fn both_v2_ledger_tags_read_and_round_trip() {
        // A `Windowed` tag with an infinite window, as a
        // `Windowed { window_secs: ∞ }` session used to write it.
        let legacy = r#"{"Windowed":{"accountant":{"window":"inf","now":600,"accounts":[{"id":3,"capacity":2,"spent":0.5,"reserved":0.25,"entries":[]}]}}}"#;
        let read = from_json(legacy).expect("Windowed tag with W = inf reads");
        assert_eq!(read.window(), f64::INFINITY);
        assert!(!read.renewable());
        assert_eq!((read.spent(3), read.reserved(3)), (0.5, 0.25));
        let lifetime =
            r#"{"Lifetime":{"accountant":[{"id":3,"capacity":2,"spent":0.5,"reserved":0.25}]}}"#;
        assert_eq!(to_json(&read), lifetime, "W = inf writes Lifetime");
        assert_eq!(to_json(&from_json(lifetime).unwrap()), lifetime);

        let mut windowed = BudgetLedger::new(600.0);
        windowed.register(3, 2.0);
        windowed.advance_time(0.0);
        windowed.charge(3, 0.5);
        assert!(windowed.renewable());
        let text = to_json(&windowed);
        assert_eq!(
            text,
            r#"{"Windowed":{"accountant":{"window":600,"now":0,"accounts":[{"id":3,"capacity":2,"spent":0.5,"reserved":0,"entries":[{"t":0,"eps":0.5}]}]}}}"#
        );
        assert_eq!(to_json(&from_json(&text).unwrap()), text);
        assert!(from_json(r#"{"Hourly":{"accountant":[]}}"#).is_err());
    }

    /// A test-local lifetime accountant: capacity/spent/reserved per id
    /// with the paper's arithmetic, sharing no code with the ledger.
    #[derive(Default)]
    struct LifetimeModel(BTreeMap<u64, (f64, f64, f64)>);

    impl LifetimeModel {
        fn remaining(&self, id: u64) -> f64 {
            self.0
                .get(&id)
                .map_or(0.0, |&(c, s, r)| (c - s - r).max(0.0))
        }
        fn is_exhausted(&self, id: u64) -> bool {
            self.0.get(&id).is_none_or(|&(c, s, _)| s >= c - 1e-12)
        }
        fn total_spent(&self) -> f64 {
            self.0.values().map(|&(_, s, _)| s).sum()
        }
    }

    /// One randomized ledger op.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Charge(u64, f64),
        Reserve(u64, f64),
        Commit(u64),
        Rollback(u64),
        Advance(f64),
        Drain,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..6, 0u64..5, 0.0f64..0.6, 0.0f64..1e4).prop_map(|(kind, id, e, dt)| match kind {
            0 => Op::Charge(id, e),
            1 => Op::Reserve(id, e),
            2 => Op::Commit(id),
            3 => Op::Rollback(id),
            4 => Op::Advance(dt),
            _ => Op::Drain,
        })
    }

    proptest! {
        // `W = ∞` is bit-identical to lifetime accounting under any
        // op interleaving: same spends, same remaining budgets, same
        // retirement order — exact equality, no tolerances.
        #[test]
        fn infinite_window_is_bit_identical_to_lifetime(
            ops in proptest::collection::vec(op_strategy(), 0..60)
        ) {
            let mut life = LifetimeModel::default();
            let mut ledger = BudgetLedger::new(f64::INFINITY);
            for id in 0..5u64 {
                life.0.insert(id, (1.0 + id as f64 * 0.37, 0.0, 0.0));
                ledger.register(id, 1.0 + id as f64 * 0.37);
            }
            let mut clock: f64 = 0.0;
            for &op in &ops {
                match op {
                    Op::Charge(id, e) => {
                        if let Some(a) = life.0.get_mut(&id) {
                            a.1 += e;
                            ledger.charge(id, e);
                        }
                    }
                    Op::Reserve(id, e) => {
                        if let Some(a) = life.0.get_mut(&id) {
                            a.2 += e;
                            ledger.reserve(id, e);
                        }
                    }
                    Op::Commit(id) => {
                        if let Some(a) = life.0.get_mut(&id) {
                            let amount = a.2;
                            a.1 += amount;
                            a.2 = 0.0;
                            prop_assert_eq!(amount.to_bits(), ledger.commit(id).to_bits());
                        }
                    }
                    Op::Rollback(id) => {
                        let amount = life.0.get_mut(&id).map_or(0.0, |a| std::mem::take(&mut a.2));
                        prop_assert_eq!(amount.to_bits(), ledger.rollback(id).to_bits());
                    }
                    Op::Advance(dt) => {
                        clock += dt;
                        ledger.advance_time(clock);
                    }
                    Op::Drain => {
                        let gone: Vec<u64> = life
                            .0
                            .iter()
                            .filter(|&(_, &(c, s, _))| s >= c - 1e-12)
                            .map(|(&id, _)| id)
                            .collect();
                        gone.iter().for_each(|id| { life.0.remove(id); });
                        prop_assert_eq!(gone, ledger.drain_exhausted());
                    }
                }
                for id in 0..5u64 {
                    let spent = life.0.get(&id).map_or(0.0, |a| a.1);
                    prop_assert_eq!(spent.to_bits(), ledger.spent(id).to_bits());
                    prop_assert_eq!(life.remaining(id).to_bits(), ledger.remaining(id).to_bits());
                    prop_assert_eq!(life.is_exhausted(id), ledger.is_exhausted(id));
                }
                prop_assert_eq!(life.total_spent().to_bits(), ledger.total_spent().to_bits());
            }
        }

        // Spend visible inside the ledger never exceeds capacity when
        // every charge respects the remaining-budget guard — the
        // rolling-cap invariant the engine-level hook relies on.
        #[test]
        fn guarded_spend_never_exceeds_capacity(
            window in 50.0f64..500.0,
            charges in proptest::collection::vec((0.0f64..30.0, 0.0f64..0.9), 1..80)
        ) {
            let mut acc = BudgetLedger::new(window);
            acc.register(1, 1.0);
            let mut t = 0.0;
            for &(dt, want) in &charges {
                t += dt;
                acc.advance_time(t);
                let granted = want.min(acc.remaining(1));
                acc.charge(1, granted);
                prop_assert!(acc.spent(1) <= 1.0 + 1e-9);
            }
        }

        // Reclamation is exactly monotone: replaying one charge
        // history under a shorter protection window never decreases
        // any remaining budget, at any time step — `>=` with no
        // tolerance (IEEE round-to-nearest summation is monotone).
        #[test]
        fn shrinking_the_window_never_decreases_remaining(
            w_long in 100.0f64..1000.0,
            shrink in 0.05f64..1.0,
            charges in proptest::collection::vec((0.0f64..40.0, 0.0f64..0.4), 1..60)
        ) {
            let w_short = w_long * shrink;
            let mut long = BudgetLedger::new(w_long);
            let mut short = BudgetLedger::new(w_short);
            long.register(1, 5.0);
            short.register(1, 5.0);
            let mut t = 0.0;
            for &(dt, e) in &charges {
                t += dt;
                long.advance_time(t);
                short.advance_time(t);
                long.charge(1, e);
                short.charge(1, e);
                prop_assert!(
                    short.remaining(1) >= long.remaining(1),
                    "shorter window must never hold less budget: \
                     short {} < long {} at t {}",
                    short.remaining(1),
                    long.remaining(1),
                    t
                );
            }
        }

        // Serialization is canonical under arbitrary op histories:
        // restore reproduces every observable and a second round trip
        // is value-identical.
        #[test]
        fn windowed_serde_round_trip_is_canonical(
            window in 50.0f64..500.0,
            ops in proptest::collection::vec(op_strategy(), 0..40)
        ) {
            let mut acc = BudgetLedger::new(window);
            for id in 0..5u64 {
                acc.register(id, 2.0);
            }
            let mut clock = 0.0;
            for &op in &ops {
                match op {
                    Op::Charge(id, e) if acc.resolve(id).is_some() => acc.charge(id, e),
                    Op::Reserve(id, e) if acc.resolve(id).is_some() => acc.reserve(id, e),
                    Op::Commit(id) if acc.resolve(id).is_some() => {
                        acc.commit(id);
                    }
                    Op::Rollback(id) => {
                        acc.rollback(id);
                    }
                    Op::Advance(dt) => {
                        clock += dt;
                        acc.advance_time(clock);
                    }
                    Op::Drain => {
                        acc.drain_exhausted();
                    }
                    _ => {}
                }
            }
            let value = acc.serialize_value();
            let back = BudgetLedger::deserialize_value(&value).unwrap();
            prop_assert_eq!(back.serialize_value(), value);
            prop_assert!(back.tracked().eq(acc.tracked()));
            for id in 0..5u64 {
                prop_assert_eq!(back.spent(id).to_bits(), acc.spent(id).to_bits());
                prop_assert_eq!(back.reserved(id).to_bits(), acc.reserved(id).to_bits());
            }
        }
    }
}
