//! The consistent-hash ring the fleet routes by.
//!
//! Requests are routed by **scene name** over 64 virtual nodes per shard,
//! so one scene's traffic lands on one home shard — its fit stays resident
//! in that shard's store, so its requests hit memory instead of loading or
//! fitting — and removing a shard remaps only that shard's scenes.

/// Virtual nodes per shard on the ring: enough that shard loads stay
/// within a few tens of percent of even for realistic scene counts.
pub const VNODES: usize = 64;

/// The ring hash: FNV-1a 64-bit through a murmur-style finalizer. Stable
/// across processes and releases (routing must not depend on `std`'s
/// randomized hasher); the finalizer matters — raw FNV keeps
/// common-prefix strings ("shard-…", scene names) in a narrow band of the
/// ring, which empties whole shards.
pub fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A consistent-hash ring over shard ids (see the module docs).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// (ring position, shard id), sorted by position.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// A ring over shards `0..shards` (at least 1).
    pub fn new(shards: usize) -> Self {
        Self::from_ids(0..shards.max(1))
    }

    /// A ring over an explicit shard-id set.
    pub fn from_ids(ids: impl IntoIterator<Item = usize>) -> Self {
        let mut points = Vec::new();
        for id in ids {
            for v in 0..VNODES {
                points.push((ring_hash(format!("shard-{id}/vnode-{v}").as_bytes()), id));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The home shard for a scene name: the first virtual node clockwise
    /// from the name's ring position.
    pub fn home(&self, scene: &str) -> usize {
        let h = ring_hash(scene.as_bytes());
        let i = self.points.partition_point(|&(p, _)| p < h);
        self.points[if i == self.points.len() { 0 } else { i }].1
    }

    /// The ring with one shard removed — only that shard's scenes remap
    /// (the consistent-hashing property `router_props.rs` pins).
    pub fn without(&self, shard: usize) -> HashRing {
        HashRing { points: self.points.iter().copied().filter(|&(_, id)| id != shard).collect() }
    }

    /// Shard ids present on the ring.
    pub fn len(&self) -> usize {
        let mut ids: Vec<usize> = self.points.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Whether the ring holds no shards.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_hash_is_stable_and_avalanches() {
        assert_eq!(ring_hash(b"Mic"), ring_hash(b"Mic"));
        assert_ne!(ring_hash(b"Mic"), ring_hash(b"Lego"));
        // the finalizer must spread common-prefix strings across the whole
        // u64 range (raw FNV fails this and empties shards)
        let top_byte =
            |s: &str| (ring_hash(s.as_bytes()) >> 56) as u8 >> 6 /* top 2 bits: 4 buckets */;
        let mut buckets = [0usize; 4];
        for i in 0..256 {
            buckets[top_byte(&format!("scene-{i}")) as usize] += 1;
        }
        assert!(buckets.iter().all(|&c| c > 16), "prefix clustering: {buckets:?}");
    }

    #[test]
    fn ring_routes_every_name_to_a_live_shard() {
        let ring = HashRing::new(3);
        assert_eq!(ring.len(), 3);
        for name in ["Mic", "Lego", "Pulse", "Chair", "Palace", "weird scene/name"] {
            assert!(ring.home(name) < 3);
            // deterministic
            assert_eq!(ring.home(name), ring.home(name));
        }
    }

    #[test]
    fn ring_spreads_shards_reasonably() {
        let ring = HashRing::new(4);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[ring.home(&format!("scene-{i}"))] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(c > 100, "shard {shard} got {c}/1000 — ring badly unbalanced: {counts:?}");
        }
    }

    #[test]
    fn removing_a_shard_only_remaps_its_scenes() {
        let ring = HashRing::new(3);
        let reduced = ring.without(1);
        assert_eq!(reduced.len(), 2);
        for i in 0..500 {
            let name = format!("scene-{i}");
            let before = ring.home(&name);
            let after = reduced.home(&name);
            if before != 1 {
                assert_eq!(before, after, "{name} moved although its shard survived");
            } else {
                assert_ne!(after, 1, "{name} must leave the removed shard");
            }
        }
    }
}
