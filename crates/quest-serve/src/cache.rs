//! A bounded LRU cache with hit/miss accounting.
//!
//! The serving layer keeps one of these in front of the engine, holding
//! assembled answers. The implementation is a slab of doubly-linked
//! entries plus a `HashMap` from key to slab slot, so `get` and `insert`
//! are O(1) apart from hashing; no allocation happens on a hit. Freed
//! slots give up their payloads at once (the slab stores `Option<Slot>`):
//! eviction drops them, and an epoch purge via [`LruCache::retain`] hands
//! them back to the caller instead of parking them until the slot is
//! reused.

use std::collections::HashMap;
use std::hash::Hash;

/// Slab sentinel: "no slot".
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A bounded least-recently-used cache.
///
/// `get` refreshes recency and counts a hit or a miss; `insert` evicts the
/// least recently used entry once `capacity` is reached. A capacity of 0
/// disables the cache entirely: every lookup misses and nothing is stored.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    /// Slot slab; `None` marks a freed slot (its index is on `free`).
    slots: Vec<Option<Slot<K, V>>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    free: Vec<usize>,
    hits: u64,
    misses: u64,
    retain_scans: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            hits: 0,
            misses: 0,
            retain_scans: 0,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Full-map scans performed by [`LruCache::retain`] (an empty cache is
    /// never scanned). The serving layer's epoch-purge regression tests pin
    /// this: a purge scan must happen once per epoch change, not once per
    /// lookup.
    pub fn retain_scans(&self) -> u64 {
        self.retain_scans
    }

    /// Look up `key`, refreshing its recency. Returns a clone of the cached
    /// value so the lock guarding the cache can be released immediately.
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.hits += 1;
                self.detach(i);
                self.push_front(i);
                Some(self.slot(i).value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert `key → value`, evicting the least recently used entry if the
    /// cache is full. Replaces (and refreshes) an existing entry in place.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slot_mut(i).value = value;
            self.detach(i);
            self.push_front(i);
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            self.detach(lru);
            let old = self.slots[lru].take().expect("lru slot is live");
            self.map.remove(&old.key);
            self.free.push(lru);
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    /// Remove every entry whose key fails `pred`, freeing their slots for
    /// reuse, and return the removed entries. Recency of survivors is
    /// unchanged; counters are preserved. The serving layer uses this to
    /// purge entries keyed by dead epochs instead of letting them squat
    /// until capacity-evicted, and drops what it gets back only after
    /// releasing the lock that guards the cache.
    pub fn retain(&mut self, mut pred: impl FnMut(&K) -> bool) -> Vec<(K, V)> {
        // Nothing to scan, nothing to drop — and no scan counted, so a
        // caller that over-purges an empty cache stays visible as zero.
        if self.map.is_empty() {
            return Vec::new();
        }
        self.retain_scans += 1;
        let dead: Vec<usize> = self
            .map
            .iter()
            .filter(|(k, _)| !pred(k))
            .map(|(_, &i)| i)
            .collect();
        let mut removed = Vec::with_capacity(dead.len());
        for i in dead {
            self.detach(i);
            // Take the slot out so nothing of it stays parked until the
            // freed slot happens to be reused.
            let slot = self.slots[i].take().expect("dead slot is live");
            self.map.remove(&slot.key);
            self.free.push(i);
            removed.push((slot.key, slot.value));
        }
        removed
    }

    /// Drop every entry; hit/miss counters are preserved.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Live slot at `i`; panics on a freed slot (internal invariant).
    fn slot(&self, i: usize) -> &Slot<K, V> {
        self.slots[i].as_ref().expect("slot is live")
    }

    fn slot_mut(&mut self, i: usize) -> &mut Slot<K, V> {
        self.slots[i].as_mut().expect("slot is live")
    }

    /// Unlink slot `i` from the recency list.
    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slot(i).prev, self.slot(i).next);
        if prev != NIL {
            self.slot_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slot_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
        self.slot_mut(i).prev = NIL;
        self.slot_mut(i).next = NIL;
    }

    /// Link slot `i` as the most recently used.
    fn push_front(&mut self, i: usize) {
        self.slot_mut(i).next = self.head;
        self.slot_mut(i).prev = NIL;
        if self.head != NIL {
            self.slot_mut(self.head).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_value_and_counts() {
        let mut c: LruCache<&str, i32> = LruCache::new(2);
        assert_eq!(c.get(&"a"), None);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<&str, i32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(c.get(&"a"), Some(1));
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"b"), None, "b was evicted");
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
    }

    #[test]
    fn reinsert_replaces_and_refreshes() {
        let mut c: LruCache<&str, i32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        c.insert("c", 3);
        // "b" was the LRU entry after "a" was refreshed by reinsertion.
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(10));
        assert_eq!(c.get(&"c"), Some(3));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c: LruCache<&str, i32> = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn capacity_one_churns_correctly() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        for i in 0..10 {
            c.insert(i, i * i);
            assert_eq!(c.get(&i), Some(i * i));
            if i > 0 {
                assert_eq!(c.get(&(i - 1)), None);
            }
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn retain_frees_slots_for_reuse() {
        let mut c: LruCache<(u64, u32), u32> = LruCache::new(4);
        for i in 0..4u32 {
            c.insert((0, i), i);
        }
        assert_eq!(c.len(), 4);
        // Purge epoch 0, keep nothing.
        c.retain(|k| k.0 == 1);
        assert!(c.is_empty());
        // Freed slots are reused without growing the slab.
        for i in 0..4u32 {
            c.insert((1, i), i * 10);
        }
        assert_eq!(c.len(), 4);
        for i in 0..4u32 {
            assert_eq!(c.get(&(1, i)), Some(i * 10));
        }
        // Partial purge keeps survivors and their values.
        c.insert((2, 0), 99);
        c.retain(|k| k.0 == 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&(2, 0)), Some(99));
        // Eviction still works after a purge (exercise the linked list).
        for i in 0..10u32 {
            c.insert((3, i), i);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn retain_drops_payloads_eagerly() {
        use std::sync::Arc;
        let mut c: LruCache<u32, Arc<String>> = LruCache::new(8);
        let payloads: Vec<Arc<String>> = (0..4).map(|i| Arc::new(format!("p{i}"))).collect();
        for (i, p) in payloads.iter().enumerate() {
            c.insert(i as u32, Arc::clone(p));
        }
        for p in &payloads {
            assert_eq!(Arc::strong_count(p), 2, "cache holds a reference");
        }
        // Purging hands the entries back instead of parking them until
        // slot reuse; dropping them releases the references.
        let removed = c.retain(|_| false);
        assert_eq!(removed.len(), 4);
        drop(removed);
        for p in &payloads {
            assert_eq!(Arc::strong_count(p), 1, "purged payload was dropped");
        }
        // Capacity eviction also drops eagerly.
        let mut c: LruCache<u32, Arc<String>> = LruCache::new(1);
        let a = Arc::new("a".to_string());
        c.insert(0, Arc::clone(&a));
        c.insert(1, Arc::new("b".to_string()));
        assert_eq!(Arc::strong_count(&a), 1, "evicted payload was dropped");
    }

    #[test]
    fn retain_counts_scans_and_skips_empty_maps() {
        let mut c: LruCache<(u64, u32), u32> = LruCache::new(4);
        // Empty cache: retain is free and uncounted, however often called.
        for _ in 0..5 {
            c.retain(|_| false);
        }
        assert_eq!(c.retain_scans(), 0);
        c.insert((0, 0), 1);
        c.retain(|k| k.0 == 1); // scans, purges everything
        assert_eq!(c.retain_scans(), 1);
        c.retain(|k| k.0 == 1); // empty again: skipped
        assert_eq!(c.retain_scans(), 1);
        c.insert((1, 0), 2);
        c.retain(|k| k.0 == 1); // scans even when everything survives
        assert_eq!(c.retain_scans(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c: LruCache<&str, i32> = LruCache::new(4);
        c.insert("a", 1);
        let _ = c.get(&"a");
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.get(&"a"), None);
        // Reusable after clear.
        c.insert("b", 2);
        assert_eq!(c.get(&"b"), Some(2));
    }

    #[test]
    fn eviction_order_is_exact_under_interleaving() {
        // Model check against a simple reference: repeated get/insert over a
        // small key space must match a naive recency-vector implementation.
        let mut c: LruCache<u8, u32> = LruCache::new(3);
        let mut reference: Vec<(u8, u32)> = Vec::new(); // front = MRU
        let mut x: u32 = 0x2545_F491;
        for step in 0..2000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let key = (x % 7) as u8;
            if x % 3 == 0 {
                c.insert(key, step);
                if let Some(p) = reference.iter().position(|(k, _)| *k == key) {
                    reference.remove(p);
                }
                reference.insert(0, (key, step));
                reference.truncate(3);
            } else {
                let got = c.get(&key);
                let expect = reference.iter().position(|(k, _)| *k == key);
                match (got, expect) {
                    (Some(v), Some(p)) => {
                        assert_eq!(v, reference[p].1);
                        let e = reference.remove(p);
                        reference.insert(0, e);
                    }
                    (None, None) => {}
                    (g, e) => panic!("divergence at step {step}: got {g:?}, expected {e:?}"),
                }
            }
            assert_eq!(c.len(), reference.len());
        }
    }
}
