//! Interned-key memoization of served partition plans, bounded by
//! deterministic CLOCK (second-chance) eviction.
//!
//! A plan answer is a pure function of `(model, resolved-and-quantized
//! context, objective)` — the service canonicalizes every query on admission
//! (link defaults resolved, continuous overrides quantized, see
//! [`codec::quantize_f64`](super::codec::quantize_f64)), so the cache key
//! can be an exact, `Copy`, hash-friendly tuple of the canonical bits and a
//! hit is *guaranteed* to be byte-identical to recomputation.  The cache
//! never approximates: two keys differ iff the optimiser could be asked two
//! different questions, and an evicted-then-refetched key re-optimises to
//! the same bytes.
//!
//! # CLOCK eviction
//!
//! The zoo has five models, but the north-star workload is millions of
//! wearers with per-wearer context overrides: the key space is unbounded,
//! so every cache caps its resident set ([`PlanCache::DEFAULT_CAPACITY`]
//! unless built [`bounded`](PlanCache::bounded)).
//! The replacement policy is CLOCK (second-chance): entries live in a fixed
//! ring of slots, each with a `referenced` bit that lookups (and inserts)
//! set; on insert-at-capacity a hand sweeps the ring clearing set bits
//! until it finds a clear one, evicts that slot and takes it.  CLOCK is
//! chosen over LRU for exactly one reason this repo cares about:
//! **determinism** — the victim is a pure function of the hit/insert
//! sequence (no timestamps), so a replayed trace produces replay-exact
//! `hits`/`misses`/`evictions` counters, which the eviction tests assert
//! analytically.
//!
//! Hit/miss counters follow serial replay semantics regardless of how many
//! connections hammer the service: the service holds the cache lock across
//! a batch's scan-evaluate-insert cycle, so `misses` is exactly the number
//! of distinct keys asked while absent and `hits + misses` the number of
//! plan queries served (see the cache-equivalence tests).  The batch path's
//! counter-only [`record_hit`](PlanCache::record_hit) stays CLOCK-exact
//! because [`insert`](PlanCache::insert) already sets the referenced bit —
//! precisely the state a serial replay's `lookup` hit would leave.

use super::codec::Response;
use std::collections::HashMap;

/// Canonical identity of a plan query: the zoo index, the objective wire
/// byte, the resolved link operating point as IEEE-754 bit patterns
/// (quantized on admission), and the activation-quantization flag.
///
/// Two queries with equal keys are the *same question* by construction —
/// the interned form is what makes memoization exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Wire id of the model (zoo index).
    pub model: u8,
    /// Wire byte of the objective.
    pub objective: u8,
    /// Resolved, quantized delivered energy per bit, as `f64::to_bits`.
    pub energy_per_bit_bits: u64,
    /// Resolved, quantized goodput, as `f64::to_bits`.
    pub goodput_bits: u64,
    /// Whether activations are int8-quantized before transmission.
    pub quantize_activations: bool,
}

/// One ring slot: a memoized answer plus its CLOCK reference bit.
#[derive(Debug)]
struct CacheSlot {
    key: PlanKey,
    response: Response,
    referenced: bool,
}

/// Memoized plan answers plus replay-exact hit/miss/eviction counters,
/// holding at most its capacity and evicting by CLOCK beyond that.
#[derive(Debug)]
pub struct PlanCache {
    /// Most entries resident at once (at least 1).
    capacity: usize,
    /// Key → slot position in the ring.
    index: HashMap<PlanKey, usize>,
    /// The CLOCK ring (grows to `capacity`, then recycles).
    slots: Vec<CacheSlot>,
    /// The CLOCK hand: where the next eviction sweep starts.
    hand: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// The capacity of a cache not built [`bounded`](Self::bounded), and of
    /// every [`PlanService`](super::PlanService) not given one.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An empty cache holding at most [`DEFAULT_CAPACITY`](Self::DEFAULT_CAPACITY)
    /// entries.
    #[must_use]
    pub fn new() -> Self {
        Self::bounded(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` entries (clamped to ≥ 1),
    /// evicting by CLOCK beyond that.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            index: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The most entries this cache holds at once.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The memoized answer for `key`, counting a hit when present and a
    /// miss when absent.  A hit sets the slot's reference bit (its second
    /// chance against the sweeping hand).
    pub fn lookup(&mut self, key: PlanKey) -> Option<Response> {
        match self.index.get(&key) {
            Some(&slot) => {
                self.hits += 1;
                self.slots[slot].referenced = true;
                Some(self.slots[slot].response.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The memoized answer for `key` **without** touching counters or
    /// reference bits — used by tests asserting byte-identity without
    /// perturbing replay state.
    #[must_use]
    pub fn peek(&self, key: PlanKey) -> Option<&Response> {
        self.index.get(&key).map(|&slot| &self.slots[slot].response)
    }

    /// Records a hit the batch path resolved without [`lookup`](Self::lookup)
    /// (a duplicate of a key evaluated earlier in the same batch).  Counter
    /// only: the insert that satisfied the duplicate already set the
    /// reference bit, so CLOCK state matches a serial replay exactly.
    pub fn record_hit(&mut self) {
        self.hits += 1;
    }

    /// Memoizes the freshly computed answer for `key`, evicting the CLOCK
    /// victim first when at capacity.  The new entry starts referenced
    /// (a serial replay's lookup hit would set the bit immediately).
    pub fn insert(&mut self, key: PlanKey, response: Response) {
        if let Some(&slot) = self.index.get(&key) {
            // Re-insert of a resident key: refresh in place.
            self.slots[slot].response = response;
            self.slots[slot].referenced = true;
            return;
        }
        if self.slots.len() >= self.capacity {
            // Sweep: clear reference bits until an unreferenced victim
            // turns up.  Terminates within two revolutions (after one full
            // sweep every bit is clear).
            while self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand = (self.hand + 1) % self.slots.len();
            }
            let victim = self.hand;
            self.hand = (victim + 1) % self.slots.len();
            self.index.remove(&self.slots[victim].key);
            self.evictions += 1;
            self.index.insert(key, victim);
            self.slots[victim] = CacheSlot {
                key,
                response,
                referenced: true,
            };
        } else {
            self.index.insert(key, self.slots.len());
            self.slots.push(CacheSlot {
                key,
                response,
                referenced: true,
            });
        }
    }

    /// Distinct keys currently memoized.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Lookups that found a memoized answer.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh optimisation.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries displaced by CLOCK to admit a new key.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(model: u8) -> PlanKey {
        PlanKey {
            model,
            objective: 0,
            energy_per_bit_bits: 42.0f64.to_bits(),
            goodput_bits: 1.0e6f64.to_bits(),
            quantize_activations: true,
        }
    }

    fn answer(model: u8) -> Response {
        Response::Error(format!("stub-{model}"))
    }

    #[test]
    fn counters_follow_serial_replay_semantics() {
        let mut cache = PlanCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), PlanCache::DEFAULT_CAPACITY);
        assert_eq!(cache.lookup(key(0)), None);
        cache.insert(key(0), answer(0));
        assert_eq!(cache.lookup(key(0)), Some(answer(0)));
        assert_eq!(cache.lookup(key(1)), None);
        cache.insert(key(1), answer(1));
        assert_eq!(cache.lookup(key(0)), Some(answer(0)));
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (2, 2, 0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clock_evicts_the_first_unreferenced_slot_deterministically() {
        let mut cache = PlanCache::bounded(2);
        assert_eq!(cache.capacity(), 2);
        cache.insert(key(0), answer(0));
        cache.insert(key(1), answer(1));
        // Both slots referenced; the hand strips both bits and takes
        // slot 0 (the full sweep ends where it began).
        cache.insert(key(2), answer(2));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.peek(key(0)).is_none());
        assert_eq!(cache.peek(key(1)), Some(&answer(1)));
        // Hand now rests one past the victim (slot 1).  Re-arm key(1) with
        // a hit; the next insert sweeps from slot 1: clears key(1)'s bit,
        // clears key(2)'s, revolves back to the now-clear slot 1 — with
        // every bit set, the hand's starting slot is the victim.
        assert_eq!(cache.lookup(key(1)), Some(answer(1)));
        cache.insert(key(3), answer(3));
        assert_eq!(cache.evictions(), 2);
        assert!(cache.peek(key(1)).is_none());
        assert_eq!(cache.peek(key(2)), Some(&answer(2)));
        assert_eq!(cache.peek(key(3)), Some(&answer(3)));
        assert_eq!(cache.len(), 2);

        // Second-chance proper: key(2)'s bit is clear, key(3)'s set — the
        // hand (at key(2)'s slot) takes the unreferenced key(2)
        // immediately, sparing the referenced key(3).
        cache.insert(key(4), answer(4));
        assert_eq!(cache.evictions(), 3);
        assert!(cache.peek(key(2)).is_none());
        assert_eq!(cache.peek(key(3)), Some(&answer(3)));
    }

    #[test]
    fn reinserting_a_resident_key_refreshes_without_eviction() {
        let mut cache = PlanCache::bounded(1);
        cache.insert(key(0), answer(0));
        cache.insert(key(0), answer(7));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.peek(key(0)), Some(&answer(7)));
        assert_eq!(cache.len(), 1);
    }
}
