//! Canonical query identity.
//!
//! A CI query `X ⊥ Y | Z` is invariant under (a) reordering variables
//! within each side, (b) repeating a variable within a side, and (c)
//! swapping `X` and `Y` (symmetry of conditional independence). The
//! [`QueryKey`] quotient makes all equivalent spellings hash to the same
//! cache slot, so `seqsel`'s `(x, S, A')` and a later `(S, x, A')` from PC
//! hit the same memo entry.
//!
//! Conditioning sets are *interned* ([`CondSet`]): sorted, deduplicated
//! and hashed once, then shared by `Arc`. A selection phase builds its
//! one `Z` once — GrpSel's and SeqSel's phase-2 `A ∪ C₁`, thousands of
//! variables on wide instances, and each admissible subset of phase 1 —
//! and every query, key and memo entry of the phase holds a pointer to
//! it. A key hashes its canonical test sides with the set's hash folded
//! in ([`fairsel_ci::canonical_query_hash`] seeded with it), so building,
//! probing and storing a key never copies, sorts or re-reads `Z`.
//!
//! A key is one allocation: both canonical test sides sit in one boxed
//! slice with the split point beside it, and a side that is already
//! strictly ascending (every side GrpSel and SeqSel build) is copied
//! without sorting.
//!
//! Every map keyed by a [`QueryKey`] or a [`CondSet`] — the memo, the
//! parked patched outcomes, a batch's in-batch dedup, the Z-grouped
//! scheduler's partition and the extension's patch map — passes that
//! stored hash through (`PreHashed`) instead of SipHashing it again. An
//! unkeyed hash is safe here: the keys are generated by the selection
//! algorithms, not taken from clients, so no one can choose colliding
//! keys, and the fold ends in a bijective finalizer that spreads every
//! input over all 64 bits, the bucket index and the tag alike.
//!
//! Equality and order compare contents only — sides, then `Z` element by
//! element — never the hash or the allocation; two sets that are the same
//! allocation compare equal without reading their elements.
//!
//! A query's test sides are [`VarSlice`]s: runs of one shared list. GrpSel
//! halves groups into contiguous runs of its root list and shares one
//! target side across a wave, so building a wave copies no group; only
//! the key, which the memo keeps, owns a copy of the sides.

use fairsel_ci::VarId;
use std::cmp::Ordering;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// The hasher of every map keyed by a [`QueryKey`] or a [`CondSet`] (or a
/// reference to one): both write exactly their stored, finalized hash
/// with one `write_u64`, which this passes through as the map's hash.
///
/// Unkeyed, and safe because no client picks the keys: the selection
/// algorithms generate them, and the fold behind the stored hash ends in
/// a bijective finalizer that mixes every input bit into the whole word,
/// the low bits a map indexes buckets by and the high bits it tags with.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PreHashed;

impl BuildHasher for PreHashed {
    type Hasher = PassThrough;

    fn build_hasher(&self) -> PassThrough {
        PassThrough(0)
    }
}

/// The [`Hasher`] behind `PreHashed`: the last `u64` written is the hash.
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PreHashed maps hold only keys that write one stored u64 hash");
    }
}

/// An interned conditioning set: canonical (sorted, deduplicated), its
/// hash computed once, shared by `Arc` (cloning copies a pointer).
///
/// Dereferences to the sorted variables. `Eq` and `Ord` compare the
/// variables; [`Hash`] writes only the stored hash, a function of them.
#[derive(Clone)]
pub struct CondSet(Arc<Interned>);

struct Interned {
    vars: Vec<VarId>,
    hash: u64,
}

impl CondSet {
    /// Canonicalize and hash `z` (any order, repeats allowed).
    pub fn new(z: &[VarId]) -> Self {
        let vars = fairsel_ci::canonical_set(z);
        let hash = fairsel_ci::canonical_query_hash(0, &[], &[], &vars);
        Self(Arc::new(Interned { vars, hash }))
    }
}

impl std::ops::Deref for CondSet {
    type Target = [VarId];

    fn deref(&self) -> &[VarId] {
        &self.0.vars
    }
}

impl std::fmt::Debug for CondSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.vars.fmt(f)
    }
}

impl PartialEq for CondSet {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.hash == other.0.hash && self.0.vars == other.0.vars)
    }
}

impl Eq for CondSet {}

impl Ord for CondSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.0.vars.cmp(&other.0.vars)
    }
}

impl PartialOrd for CondSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for CondSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

/// A run of variables inside one shared list: cloning copies a pointer
/// and two indices, never the variables.
///
/// Dereferences to the run. `Eq` compares the variables, never the list
/// they sit in.
#[derive(Clone)]
pub struct VarSlice {
    list: Arc<[VarId]>,
    start: usize,
    end: usize,
}

impl VarSlice {
    /// Copy `vars` into a new shared list and take all of it.
    pub fn new(vars: &[VarId]) -> Self {
        Self {
            list: Arc::from(vars),
            start: 0,
            end: vars.len(),
        }
    }

    /// The runs before and after position `mid`, sharing this list.
    ///
    /// # Panics
    /// Panics when `mid` exceeds the run's length.
    pub(crate) fn split_at(&self, mid: usize) -> (Self, Self) {
        assert!(mid <= self.len(), "VarSlice::split_at: {mid} out of range");
        let at = self.start + mid;
        (self.run(self.start, at), self.run(at, self.end))
    }

    /// Consecutive runs of `width` variables (the last may be shorter),
    /// sharing this list; `width` 0 is read as 1.
    pub(crate) fn chunks(&self, width: usize) -> impl Iterator<Item = Self> + '_ {
        let width = width.max(1);
        (self.start..self.end)
            .step_by(width)
            .map(move |s| self.run(s, (s + width).min(self.end)))
    }

    fn run(&self, start: usize, end: usize) -> Self {
        Self {
            list: Arc::clone(&self.list),
            start,
            end,
        }
    }
}

impl std::ops::Deref for VarSlice {
    type Target = [VarId];

    fn deref(&self) -> &[VarId] {
        &self.list[self.start..self.end]
    }
}

impl std::fmt::Debug for VarSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self[..].fmt(f)
    }
}

impl PartialEq for VarSlice {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for VarSlice {}

/// An unevaluated CI query: test sides in caller order, each a run of a
/// shared list, and `Z` interned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CiQuery {
    pub x: VarSlice,
    pub y: VarSlice,
    pub z: CondSet,
}

impl CiQuery {
    /// Build a query from borrowed sides, interning `z`.
    pub fn new(x: &[VarId], y: &[VarId], z: &[VarId]) -> Self {
        Self::given(x, y, &CondSet::new(z))
    }

    /// Build a query on an already interned conditioning set (shares it;
    /// copies each side into a list of its own).
    pub fn given(x: &[VarId], y: &[VarId], z: &CondSet) -> Self {
        Self {
            x: VarSlice::new(x),
            y: VarSlice::new(y),
            z: z.clone(),
        }
    }

    /// The canonical identity of this query.
    pub fn key(&self) -> QueryKey {
        QueryKey::given(&self.x, &self.y, &self.z)
    }
}

/// Canonicalized query key: each side sorted and deduplicated, the two
/// test sides ordered so the lexicographically smaller one comes first,
/// and `Z` interned.
///
/// Equality and order compare `(x, y, z)`; `hash` is a function of those
/// three, so it never decides either. [`Hash`] writes only `hash`.
#[derive(Clone)]
pub struct QueryKey {
    /// Both canonical test sides in one allocation: `x` is
    /// `sides[..split]`, `y` the rest.
    sides: Box<[VarId]>,
    split: usize,
    z: CondSet,
    hash: u64,
}

impl PartialEq for QueryKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.split == other.split
            && self.sides == other.sides
            && self.z == other.z
    }
}

impl Eq for QueryKey {}

impl Ord for QueryKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.x(), self.y(), &self.z).cmp(&(other.x(), other.y(), &other.z))
    }
}

impl PartialOrd for QueryKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for QueryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl std::fmt::Debug for QueryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryKey")
            .field("x", &self.x())
            .field("y", &self.y())
            .field("z", &self.z)
            .finish()
    }
}

impl QueryKey {
    /// Canonicalize the test sides of a query on an interned `z`.
    pub fn given(x: &[VarId], y: &[VarId], z: &CondSet) -> Self {
        let mut sides = Vec::with_capacity(x.len() + y.len());
        sides.extend_from_slice(x);
        canonicalize_tail(&mut sides, 0);
        let mut split = sides.len();
        sides.extend_from_slice(y);
        canonicalize_tail(&mut sides, split);
        if sides[split..] < sides[..split] {
            sides.rotate_left(split);
            split = sides.len() - split;
        }
        let hash =
            fairsel_ci::canonical_query_hash(z.0.hash, &sides[..split], &sides[split..], &[]);
        Self {
            sides: sides.into_boxed_slice(),
            split,
            z: z.clone(),
            hash,
        }
    }

    /// First (canonically smaller) test side.
    pub fn x(&self) -> &[VarId] {
        &self.sides[..self.split]
    }

    /// Second test side.
    pub fn y(&self) -> &[VarId] {
        &self.sides[self.split..]
    }

    /// Conditioning set, sorted.
    pub fn z(&self) -> &CondSet {
        &self.z
    }
}

/// Sort and deduplicate `v[from..]` in place, leaving `v[..from]` alone;
/// a tail that is already strictly ascending is left as it is.
fn canonicalize_tail(v: &mut Vec<VarId>, from: usize) {
    if v[from..].windows(2).all(|w| w[0] < w[1]) {
        return;
    }
    v[from..].sort_unstable();
    // The tail holds at least two variables, since it was not ascending.
    let mut end = from + 1;
    for i in from + 1..v.len() {
        if v[i] != v[end - 1] {
            v[end] = v[i];
            end += 1;
        }
    }
    v.truncate(end);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::DefaultHasher;

    fn key(x: &[VarId], y: &[VarId], z: &[VarId]) -> QueryKey {
        QueryKey::given(x, y, &CondSet::new(z))
    }

    fn hash_of(k: &QueryKey) -> u64 {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_spellings_hash_equal() {
        let z: Vec<VarId> = (0..300).rev().chain(100..200).collect();
        let canonical = key(&[400, 401], &[500], &(0..300).collect::<Vec<_>>());
        let spellings = [
            key(&[401, 400], &[500], &z),
            key(&[500], &[400, 401, 400], &z),
            key(&[500, 500], &[401, 400], &(0..300).collect::<Vec<_>>()),
        ];
        for k in &spellings {
            assert_eq!(k, &canonical);
            assert_eq!(k.cmp(&canonical), std::cmp::Ordering::Equal);
            assert_eq!(hash_of(k), hash_of(&canonical));
        }
    }

    #[test]
    fn keys_differing_only_in_z_unequal() {
        let base: Vec<VarId> = (10..40).collect();
        let mut swapped = base.clone();
        swapped[7] = 99;
        let shorter = &base[..base.len() - 1];
        let k = key(&[1], &[2], &base);
        for other in [
            key(&[1], &[2], &swapped),
            key(&[1], &[2], shorter),
            key(&[1], &[2], &[]),
        ] {
            assert_ne!(k, other);
            assert_ne!(hash_of(&k), hash_of(&other));
        }
    }

    /// Memo walks (`memo_snapshot`, `outcomes_fingerprint`) sort keys;
    /// the hash field must not change that order.
    #[test]
    fn order_is_lexicographic_in_sides() {
        let mut keys = vec![
            key(&[2], &[3], &[1]),
            key(&[1], &[3], &[5, 6]),
            key(&[1], &[3], &[5]),
            key(&[1, 2], &[0], &[]),
            key(&[1], &[2], &[9]),
        ];
        let mut by_sides = keys.clone();
        by_sides.sort_by(|a, b| (a.x(), a.y(), a.z()).cmp(&(b.x(), b.y(), b.z())));
        keys.sort();
        assert_eq!(keys, by_sides);
    }

    #[test]
    fn symmetric_in_x_and_y() {
        assert_eq!(key(&[3], &[1, 2], &[0]), key(&[1, 2], &[3], &[0]));
    }

    #[test]
    fn order_within_sides_irrelevant() {
        assert_eq!(key(&[2, 1], &[5], &[9, 7]), key(&[1, 2], &[5], &[7, 9]));
    }

    #[test]
    fn duplicates_collapse() {
        assert_eq!(key(&[1, 1], &[2], &[3, 3]), key(&[1], &[2], &[3]));
    }

    #[test]
    fn different_conditioning_distinguished() {
        assert_ne!(key(&[1], &[2], &[]), key(&[1], &[2], &[3]));
    }

    #[test]
    fn different_sides_distinguished() {
        assert_ne!(key(&[1], &[2], &[]), key(&[1], &[3], &[]));
        assert_ne!(key(&[1, 2], &[3], &[]), key(&[1], &[2, 3], &[]));
    }

    #[test]
    fn query_key_roundtrip() {
        let q = CiQuery::new(&[4, 2], &[1], &[8, 6]);
        let k = q.key();
        assert_eq!(k.x(), &[1]);
        assert_eq!(k.y(), &[2, 4]);
        assert_eq!(&k.z()[..], &[6, 8]);
    }
}
