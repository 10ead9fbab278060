//! Latitude-band sharding of a user population.
//!
//! Users in the same latitude band see largely the same slice of the
//! constellation (the visibility index is banded the same way), so a
//! shard is the natural batching unit: one worker answers a whole shard
//! against one snapshot view, and the batched multi-source frontier of
//! the routing engine validates a shard in one settled pass. Sharding is
//! a pure function of the user list, so every thread count walks the
//! same shards in the same order.

use leo_net::routing::GroundEndpoint;
use std::ops::Range;

/// A user population grouped into contiguous latitude-band shards.
#[derive(Debug, Clone)]
pub struct ShardedUsers {
    /// All users, reordered so each shard is a contiguous slice. Endpoint
    /// indices are rewritten to the new order (`users[i].index == i`), so
    /// a shard slice is directly attachable as a ground group.
    users: Vec<GroundEndpoint>,
    /// Half-open ranges into `users`, one per shard, in south-to-north
    /// band order (sub-split where a band exceeds the shard cap).
    shards: Vec<Range<usize>>,
}

impl ShardedUsers {
    /// Groups `users` into latitude bands `band_deg` degrees tall,
    /// splitting any band with more than `max_shard` users into equal
    /// contiguous sub-shards. The grouping sort is stable, so users keep
    /// their generation order within a band.
    ///
    /// # Panics
    /// Panics when `band_deg` is not positive or `max_shard` is zero.
    pub fn build(mut users: Vec<GroundEndpoint>, band_deg: f64, max_shard: usize) -> Self {
        assert!(band_deg > 0.0, "band_deg must be positive");
        assert!(max_shard > 0, "max_shard must be positive");
        let band_of = |u: &GroundEndpoint| ((u.geodetic.lat.degrees() + 90.0) / band_deg) as i32;
        users.sort_by_key(|u| (band_of(u), u.index));
        for (i, u) in users.iter_mut().enumerate() {
            u.index = i as u32;
        }
        let mut shards = Vec::new();
        let mut start = 0;
        while start < users.len() {
            let band = band_of(&users[start]);
            let mut end = start;
            while end < users.len() && band_of(&users[end]) == band {
                end += 1;
            }
            // Split oversized bands into equal contiguous pieces.
            let band_len = end - start;
            let pieces = band_len.div_ceil(max_shard);
            let piece_len = band_len.div_ceil(pieces);
            let mut s = start;
            while s < end {
                let e = (s + piece_len).min(end);
                shards.push(s..e);
                s = e;
            }
            start = end;
        }
        leo_obs::counter!("serve.shards_built").add(shards.len() as u64);
        ShardedUsers { users, shards }
    }

    /// Total user count across all shards.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The users of shard `i`, a contiguous slice in shard order.
    pub fn shard(&self, i: usize) -> &[GroundEndpoint] {
        &self.users[self.shards[i].clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::users::{synthesize_users, USER_SEED};

    fn sharded(n: usize, band: f64, cap: usize) -> ShardedUsers {
        ShardedUsers::build(synthesize_users(n, 2.0, USER_SEED), band, cap)
    }

    #[test]
    fn shards_partition_the_population() {
        let s = sharded(3000, 4.0, 256);
        assert_eq!(s.num_users(), 3000);
        let covered: usize = (0..s.num_shards()).map(|i| s.shard(i).len()).sum();
        assert_eq!(covered, 3000);
        // Contiguous, in order, no overlap.
        let mut next = 0;
        for i in 0..s.num_shards() {
            let r = s.shards[i].clone();
            assert_eq!(r.start, next);
            assert!(r.end > r.start);
            next = r.end;
        }
        assert_eq!(next, 3000);
    }

    #[test]
    fn indices_are_rewritten_to_shard_order() {
        let s = sharded(1000, 4.0, 100);
        for (i, u) in s.users.iter().enumerate() {
            assert_eq!(u.index, i as u32);
        }
    }

    #[test]
    fn bands_are_monotone_south_to_north() {
        let s = sharded(2000, 6.0, 10_000);
        let band = |u: &GroundEndpoint| ((u.geodetic.lat.degrees() + 90.0) / 6.0) as i32;
        for w in s.users.windows(2) {
            assert!(band(&w[0]) <= band(&w[1]));
        }
    }

    #[test]
    fn no_shard_exceeds_the_cap() {
        let s = sharded(5000, 8.0, 128);
        for i in 0..s.num_shards() {
            assert!(s.shard(i).len() <= 128, "shard {i} over cap");
        }
    }

    #[test]
    fn sharding_is_deterministic() {
        let a = sharded(1500, 4.0, 200);
        let b = sharded(1500, 4.0, 200);
        assert_eq!(a.users, b.users);
        assert_eq!(a.num_shards(), b.num_shards());
        for i in 0..a.num_shards() {
            assert_eq!(a.shards[i], b.shards[i]);
        }
    }
}
