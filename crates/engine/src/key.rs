//! Canonical query identity.
//!
//! A CI query `X ⊥ Y | Z` is invariant under (a) reordering variables
//! within each side, (b) repeating a variable within a side, and (c)
//! swapping `X` and `Y` (symmetry of conditional independence). The
//! [`QueryKey`] quotient makes all equivalent spellings hash to the same
//! cache slot, so `seqsel`'s `(x, S, A')` and a later `(S, x, A')` from PC
//! hit the same memo entry.
//!
//! A key hashes its canonical sides once, when it is built
//! ([`fairsel_ci::canonical_query_hash`]); every later memo probe writes
//! that one word. On wide instances phase-2 keys carry conditioning sets
//! of thousands of variables, which would otherwise be re-hashed on every
//! lookup and insert. The fold is unkeyed, which is safe here: keys are
//! generated by the selection algorithms, not taken from clients.

use fairsel_ci::VarId;
use std::hash::{Hash, Hasher};

/// An unevaluated CI query, sides in caller order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CiQuery {
    pub x: Vec<VarId>,
    pub y: Vec<VarId>,
    pub z: Vec<VarId>,
}

impl CiQuery {
    /// Build a query from borrowed sides.
    pub fn new(x: &[VarId], y: &[VarId], z: &[VarId]) -> Self {
        Self {
            x: x.to_vec(),
            y: y.to_vec(),
            z: z.to_vec(),
        }
    }

    /// The canonical identity of this query.
    pub fn key(&self) -> QueryKey {
        QueryKey::new(&self.x, &self.y, &self.z)
    }
}

/// Canonicalized query key: each side sorted and deduplicated, and the two
/// test sides ordered so the lexicographically smaller one comes first.
///
/// Equality and order compare `(x, y, z)`; `hash` is a function of those
/// three, so it never decides either. [`Hash`] writes only `hash`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueryKey {
    x: Vec<VarId>,
    y: Vec<VarId>,
    z: Vec<VarId>,
    hash: u64,
}

impl Hash for QueryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl QueryKey {
    /// Canonicalize `(x, y, z)`.
    pub fn new(x: &[VarId], y: &[VarId], z: &[VarId]) -> Self {
        let (x, y) = fairsel_ci::canonical_sides(x, y);
        let z = fairsel_ci::canonical_set(z);
        let hash = fairsel_ci::canonical_query_hash(0, &x, &y, &z);
        Self { x, y, z, hash }
    }

    /// First (canonically smaller) test side.
    pub fn x(&self) -> &[VarId] {
        &self.x
    }

    /// Second test side.
    pub fn y(&self) -> &[VarId] {
        &self.y
    }

    /// Conditioning set, sorted.
    pub fn z(&self) -> &[VarId] {
        &self.z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::DefaultHasher;

    fn hash_of(k: &QueryKey) -> u64 {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_spellings_hash_equal() {
        let z: Vec<VarId> = (0..300).rev().chain(100..200).collect();
        let canonical = QueryKey::new(&[400, 401], &[500], &(0..300).collect::<Vec<_>>());
        let spellings = [
            QueryKey::new(&[401, 400], &[500], &z),
            QueryKey::new(&[500], &[400, 401, 400], &z),
            QueryKey::new(&[500, 500], &[401, 400], &(0..300).collect::<Vec<_>>()),
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
        let k = QueryKey::new(&[1], &[2], &base);
        for other in [
            QueryKey::new(&[1], &[2], &swapped),
            QueryKey::new(&[1], &[2], shorter),
            QueryKey::new(&[1], &[2], &[]),
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
            QueryKey::new(&[2], &[3], &[1]),
            QueryKey::new(&[1], &[3], &[5, 6]),
            QueryKey::new(&[1], &[3], &[5]),
            QueryKey::new(&[1, 2], &[0], &[]),
            QueryKey::new(&[1], &[2], &[9]),
        ];
        let mut by_sides = keys.clone();
        by_sides.sort_by(|a, b| (a.x(), a.y(), a.z()).cmp(&(b.x(), b.y(), b.z())));
        keys.sort();
        assert_eq!(keys, by_sides);
    }

    #[test]
    fn symmetric_in_x_and_y() {
        assert_eq!(
            QueryKey::new(&[3], &[1, 2], &[0]),
            QueryKey::new(&[1, 2], &[3], &[0])
        );
    }

    #[test]
    fn order_within_sides_irrelevant() {
        assert_eq!(
            QueryKey::new(&[2, 1], &[5], &[9, 7]),
            QueryKey::new(&[1, 2], &[5], &[7, 9])
        );
    }

    #[test]
    fn duplicates_collapse() {
        assert_eq!(
            QueryKey::new(&[1, 1], &[2], &[3, 3]),
            QueryKey::new(&[1], &[2], &[3])
        );
    }

    #[test]
    fn different_conditioning_distinguished() {
        assert_ne!(
            QueryKey::new(&[1], &[2], &[]),
            QueryKey::new(&[1], &[2], &[3])
        );
    }

    #[test]
    fn different_sides_distinguished() {
        assert_ne!(
            QueryKey::new(&[1], &[2], &[]),
            QueryKey::new(&[1], &[3], &[])
        );
        assert_ne!(
            QueryKey::new(&[1, 2], &[3], &[]),
            QueryKey::new(&[1], &[2, 3], &[])
        );
    }

    #[test]
    fn query_key_roundtrip() {
        let q = CiQuery::new(&[4, 2], &[1], &[8, 6]);
        let k = q.key();
        assert_eq!(k.x(), &[1]);
        assert_eq!(k.y(), &[2, 4]);
        assert_eq!(k.z(), &[6, 8]);
    }
}
