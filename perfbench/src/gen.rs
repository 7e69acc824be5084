//! Seeded inputs and the answer checks that run during a measurement.
//!
//! Every input comes from the `--seed` argument through [`DetRng`]; the
//! program under test only ever sees the generated intervals, objects and
//! queries. Bulk ids are `0..n` and every insert takes a fresh id from `n`
//! upward, so inserted ids never collide with bulk-loaded ones. Deletes
//! draw only from live, non-anchor items, so every delete is valid and
//! no submission deletes what it inserts.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use ccix_class::{ClassId, ClassOp, Hierarchy, Object};
use ccix_interval::{Interval, IntervalOp};
use ccix_testkit::DetRng;

/// Intervals are `[lo, lo + len]` with `len < MAX_LEN`.
pub const MAX_LEN: i64 = 2_000;
/// Every `ANCHOR_EVERY`-th bulk id is an anchor: never deleted, so every
/// answer that should contain it can be checked while writes run.
pub const ANCHOR_EVERY: u64 = 8;

/// Left endpoints are uniform over `[0, range)`, with `range = 4n`.
pub fn interval_range(n: usize) -> i64 {
    4 * n as i64
}

/// The bulk-loaded interval set: `n` uniform intervals, ids `0..n`.
pub fn bulk_intervals(n: usize, seed: u64) -> Vec<Interval> {
    ccix_testkit::workloads::uniform_intervals(n, seed, interval_range(n), MAX_LEN)
}

fn is_anchor(id: u64) -> bool {
    id.is_multiple_of(ANCHOR_EVERY)
}

/// The never-deleted bulk intervals, sorted by left endpoint.
pub struct Anchors(Vec<Interval>);

impl Anchors {
    pub fn new(bulk: &[Interval]) -> Self {
        let mut v: Vec<Interval> = bulk.iter().copied().filter(|iv| is_anchor(iv.id)).collect();
        v.sort_unstable_by_key(|iv| (iv.lo, iv.id));
        Self(v)
    }

    fn with_lo_in(&self, x1: i64, x2: i64) -> &[Interval] {
        let a = self.0.partition_point(|iv| iv.lo < x1);
        let b = self.0.partition_point(|iv| iv.lo <= x2);
        &self.0[a..b.max(a)]
    }

    pub fn all(&self) -> &[Interval] {
        &self.0
    }
}

/// Checks answers against what must hold whatever the concurrent writes
/// did: each anchor that qualifies is present, no id repeats, and no id
/// lies beyond the highest id the generator has issued so far.
pub struct Checker<'a> {
    pub anchors: &'a Anchors,
    /// Raised by the writer before it sends a submission.
    pub issued: &'a AtomicU64,
}

impl Checker<'_> {
    /// A stabbing answer at `q`. Sorts `ids` in place.
    pub fn stab(&self, q: i64, ids: &mut [u64]) -> bool {
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1])
            || ids.last().is_some_and(|&m| m >= self.issued.load(SeqCst))
        {
            return false;
        }
        self.anchors
            .with_lo_in(q - MAX_LEN + 1, q)
            .iter()
            .filter(|iv| iv.hi >= q)
            .all(|iv| ids.binary_search(&iv.id).is_ok())
    }

    /// A left-endpoint range answer over `[x1, x2]`.
    pub fn x_range(&self, x1: i64, x2: i64, ivs: &[Interval]) -> bool {
        let issued = self.issued.load(SeqCst);
        if ivs
            .iter()
            .any(|iv| iv.lo < x1 || iv.lo > x2 || iv.id >= issued)
        {
            return false;
        }
        let mut ids: Vec<u64> = ivs.iter().map(|iv| iv.id).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
        self.anchors
            .with_lo_in(x1, x2)
            .iter()
            .all(|iv| ids.binary_search(&iv.id).is_ok())
    }
}

/// Mixed write batches over the live interval set.
pub struct IntervalWrites {
    rng: DetRng,
    range: i64,
    insert_pct: u64,
    /// Live non-anchor intervals: the only delete candidates.
    deletable: Vec<Interval>,
    next_id: u64,
}

impl IntervalWrites {
    pub fn new(bulk: &[Interval], seed: u64, insert_pct: u64) -> Self {
        Self {
            rng: DetRng::new(seed),
            range: interval_range(bulk.len()),
            insert_pct,
            deletable: bulk
                .iter()
                .copied()
                .filter(|iv| !is_anchor(iv.id))
                .collect(),
            next_id: bulk.len() as u64,
        }
    }

    /// One submission of `k` independent ops: inserts with fresh ids,
    /// deletes of distinct live intervals that predate the submission.
    pub fn batch(&mut self, k: usize) -> Vec<IntervalOp> {
        let mut ops = Vec::with_capacity(k);
        let mut inserted = Vec::new();
        for _ in 0..k {
            if self.deletable.is_empty() || self.rng.gen_range(0..100) < self.insert_pct {
                let lo = self.rng.gen_range(0..self.range);
                let iv = Interval::new(lo, lo + self.rng.gen_range(0..MAX_LEN), self.next_id);
                self.next_id += 1;
                inserted.push(iv);
                ops.push(IntervalOp::Insert(iv));
            } else {
                let i = self.rng.gen_range(0..self.deletable.len());
                ops.push(IntervalOp::Delete(self.deletable.swap_remove(i)));
            }
        }
        self.deletable.extend(inserted);
        ops
    }

    /// One past the highest id handed out so far.
    pub fn issued(&self) -> u64 {
        self.next_id
    }

    /// The live set once every batch so far has been applied.
    pub fn live(&self, anchors: &Anchors) -> Vec<Interval> {
        let mut v = self.deletable.clone();
        v.extend_from_slice(anchors.all());
        v
    }
}

/// Attribute values are uniform over `[0, ATTR_RANGE)`.
pub const ATTR_RANGE: i64 = 1 << 20;

/// The class workload's bulk objects: `n` uniform objects, ids `0..n`.
pub fn bulk_objects(h: &Hierarchy, n: usize, seed: u64) -> Vec<Object> {
    ccix_testkit::workloads::uniform_objects(h, n, seed, ATTR_RANGE)
}

/// The never-deleted bulk objects, sorted by attribute.
pub struct ObjectAnchors(Vec<Object>);

impl ObjectAnchors {
    pub fn new(bulk: &[Object]) -> Self {
        let mut v: Vec<Object> = bulk.iter().copied().filter(|o| is_anchor(o.id)).collect();
        v.sort_unstable_by_key(|o| (o.attr, o.id));
        Self(v)
    }

    pub fn all(&self) -> &[Object] {
        &self.0
    }

    /// A full-extent range answer: anchors of `class`'s full extent with
    /// attribute in `[a1, a2]` are present, no id repeats or exceeds
    /// `issued`. Sorts `ids` in place.
    pub fn check(
        &self,
        h: &Hierarchy,
        class: ClassId,
        a1: i64,
        a2: i64,
        ids: &mut [u64],
        issued: u64,
    ) -> bool {
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) || ids.last().is_some_and(|&m| m >= issued) {
            return false;
        }
        let a = self.0.partition_point(|o| o.attr < a1);
        let b = self.0.partition_point(|o| o.attr <= a2);
        self.0[a..b.max(a)]
            .iter()
            .filter(|o| h.is_ancestor_or_self(class, o.class))
            .all(|o| ids.binary_search(&o.id).is_ok())
    }
}

/// Mixed write batches over the live object set.
pub struct ObjectWrites {
    rng: DetRng,
    classes: usize,
    insert_pct: u64,
    deletable: Vec<Object>,
    next_id: u64,
}

impl ObjectWrites {
    pub fn new(h: &Hierarchy, bulk: &[Object], seed: u64, insert_pct: u64) -> Self {
        Self {
            rng: DetRng::new(seed),
            classes: h.len(),
            insert_pct,
            deletable: bulk.iter().copied().filter(|o| !is_anchor(o.id)).collect(),
            next_id: bulk.len() as u64,
        }
    }

    /// As [`IntervalWrites::batch`], for objects.
    pub fn batch(&mut self, k: usize) -> Vec<ClassOp> {
        let mut ops = Vec::with_capacity(k);
        let mut inserted = Vec::new();
        for _ in 0..k {
            if self.deletable.is_empty() || self.rng.gen_range(0..100) < self.insert_pct {
                let o = Object::new(
                    self.rng.gen_range(0..self.classes),
                    self.rng.gen_range(0..ATTR_RANGE),
                    self.next_id,
                );
                self.next_id += 1;
                inserted.push(o);
                ops.push(ClassOp::Insert(o));
            } else {
                let i = self.rng.gen_range(0..self.deletable.len());
                ops.push(ClassOp::Delete(self.deletable.swap_remove(i)));
            }
        }
        self.deletable.extend(inserted);
        ops
    }

    pub fn issued(&self) -> u64 {
        self.next_id
    }

    pub fn live(&self, anchors: &ObjectAnchors) -> Vec<Object> {
        let mut v = self.deletable.clone();
        v.extend_from_slice(anchors.all());
        v
    }
}
