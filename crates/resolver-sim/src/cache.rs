//! A TTL-respecting resolver cache.

use crate::zone::ResolveResult;
use dns_wire::Question;
use netsim::{FxHashMap, SimDuration, SimTime};

/// Cache key: (name, type, class) — lower-cased by `Name`'s own hashing.
type Key = (dns_wire::Name, u16, u16);

/// Negative and no-TTL entries are held this long.
const NEGATIVE_TTL_SECS: u64 = 30;

/// A bounded TTL cache for resolution results.
#[derive(Debug)]
pub struct DnsCache {
    map: FxHashMap<Key, (SimTime, ResolveResult)>,
    capacity: usize,
    /// Cache hits served.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

impl DnsCache {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> DnsCache {
        DnsCache { map: FxHashMap::default(), capacity: capacity.max(1), hits: 0, misses: 0 }
    }

    fn key(q: &Question) -> Key {
        (q.qname.clone(), q.qtype.to_u16(), q.qclass.to_u16())
    }

    /// Looks up a fresh entry, borrowed: a server writes its records
    /// straight into the reply.
    pub fn get(&mut self, q: &Question, now: SimTime) -> Option<&ResolveResult> {
        match self.map.get(&Self::key(q)) {
            Some((expiry, result)) if *expiry > now => {
                self.hits += 1;
                Some(result)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a result, using the smallest answer TTL (or the negative TTL
    /// for empty/negative results). At capacity, the soonest-expiring entry
    /// is evicted.
    pub fn put(&mut self, q: &Question, result: ResolveResult, now: SimTime) {
        let ttl_secs = result
            .answers
            .iter()
            .map(|r| r.ttl as u64)
            .min()
            .unwrap_or(NEGATIVE_TTL_SECS);
        let expiry = now + SimDuration::from_secs(ttl_secs);
        if self.map.len() >= self.capacity && !self.map.contains_key(&Self::key(q)) {
            if let Some(evict) = self
                .map
                .iter()
                .min_by_key(|(_, (exp, _))| *exp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&evict);
            }
        }
        self.map.insert(Self::key(q), (expiry, result));
    }

    /// Number of stored entries (fresh or stale).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{RData, RType, Rcode, Record};

    fn q(name: &str) -> Question {
        Question::new(name.parse().unwrap(), RType::A)
    }

    fn result(ttl: u32) -> ResolveResult {
        ResolveResult {
            rcode: Rcode::NoError,
            answers: vec![Record::new(
                "example.com".parse().unwrap(),
                ttl,
                RData::A("1.2.3.4".parse().unwrap()),
            )],
            authenticated: false,
        }
    }

    #[test]
    fn hit_within_ttl_miss_after() {
        let mut cache = DnsCache::new(16);
        let t0 = SimTime::ZERO;
        cache.put(&q("example.com"), result(60), t0);
        assert!(cache.get(&q("example.com"), t0 + SimDuration::from_secs(59)).is_some());
        assert!(cache.get(&q("example.com"), t0 + SimDuration::from_secs(61)).is_none());
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
    }

    #[test]
    fn case_insensitive_keys() {
        let mut cache = DnsCache::new(16);
        cache.put(&q("Example.COM"), result(60), SimTime::ZERO);
        assert!(cache.get(&q("example.com"), SimTime::ZERO).is_some());
    }

    #[test]
    fn negative_results_use_negative_ttl() {
        let mut cache = DnsCache::new(16);
        let neg = ResolveResult { rcode: Rcode::NxDomain, answers: vec![], authenticated: false };
        cache.put(&q("missing.example"), neg, SimTime::ZERO);
        assert!(cache
            .get(&q("missing.example"), SimTime::ZERO + SimDuration::from_secs(29))
            .is_some());
        assert!(cache
            .get(&q("missing.example"), SimTime::ZERO + SimDuration::from_secs(31))
            .is_none());
    }

    #[test]
    fn eviction_prefers_soonest_expiry() {
        let mut cache = DnsCache::new(2);
        cache.put(&q("short.example"), result(10), SimTime::ZERO);
        cache.put(&q("long.example"), result(1000), SimTime::ZERO);
        cache.put(&q("new.example"), result(500), SimTime::ZERO);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&q("short.example"), SimTime::ZERO).is_none());
        assert!(cache.get(&q("long.example"), SimTime::ZERO).is_some());
        assert!(cache.get(&q("new.example"), SimTime::ZERO).is_some());
    }

    #[test]
    fn types_are_distinct_keys() {
        let mut cache = DnsCache::new(16);
        cache.put(&q("example.com"), result(60), SimTime::ZERO);
        let aaaa = Question::new("example.com".parse().unwrap(), RType::Aaaa);
        assert!(cache.get(&aaaa, SimTime::ZERO).is_none());
    }
}
