//! [`EncodedTable`] — the columnar encoding layer between a [`Table`] and
//! the data-driven CI testers.
//!
//! Every discrete tester reduces a query `X ⊥ Y | Z` to joint categorical
//! codes for each side, and GrpSel's level-synchronous frontiers re-use the
//! same variable sets over and over (the conditioning set is shared by a
//! whole level; halved groups share prefixes with their parents). Deriving
//! those codes from the raw table per query makes a batch of `b` queries
//! cost `O(b · encode)`; memoizing them here makes it
//! `O(encode + b · count)`.
//!
//! The cache is keyed by the *sorted, deduplicated* variable set — the same
//! quotient the engine's `QueryKey` uses — and is populated incrementally:
//! the encoding for `{a, b, c}` is built by composing the cached encoding
//! for `{a, b}` with column `c`, so a frontier's nested groups share work
//! structurally, not just textually. All lookups go through a shared
//! reference (`RwLock` + atomics), which is what lets the engine's worker
//! pool and the batch testers hit one cache concurrently.
//!
//! The table is held by `Arc`, and the set cache is *bounded*
//! ([`CappedCache`], default [`DEFAULT_CACHE_CAP`] entries, LRU eviction;
//! the numeric columns sit in a second one, sized to the column count):
//! an `EncodedTable` can outlive any single request, which is exactly how
//! the `fairsel-server` session registry shares one encode pass across
//! many clients without growing without bound.

use crate::lru::CappedCache;
use crate::table::{ColId, Table};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default bound on memoized set encodings (and, downstream, on Fisher-z's
/// per-conditioning-set caches). Generous: a GrpSel run over hundreds of
/// features touches a few thousand distinct sets; a long-lived service
/// stays bounded at roughly `cap × rows × width` bytes per dataset.
pub const DEFAULT_CACHE_CAP: usize = 8192;

/// A code element: `u8`, `u16` or `u32`. The counting kernels in the
/// testers are generic over this, so a binary column is counted straight
/// out of 1-byte storage without widening.
pub trait CodeValue: Copy + Send + Sync + 'static {
    /// Widen to `u32` (lossless by construction: codes are `< arity` and
    /// the storage width is chosen from the arity).
    fn widen(self) -> u32;
    /// Widen to an index.
    #[inline]
    fn index(self) -> usize {
        self.widen() as usize
    }
    /// Narrow a full-width code known (by arity bound) to fit this width.
    fn truncate(v: u32) -> Self;
}

impl CodeValue for u8 {
    #[inline]
    fn widen(self) -> u32 {
        self as u32
    }
    #[inline]
    fn truncate(v: u32) -> u8 {
        debug_assert!(v <= u8::MAX as u32);
        v as u8
    }
}
impl CodeValue for u16 {
    #[inline]
    fn widen(self) -> u32 {
        self as u32
    }
    #[inline]
    fn truncate(v: u32) -> u16 {
        debug_assert!(v <= u16::MAX as u32);
        v as u16
    }
}
impl CodeValue for u32 {
    #[inline]
    fn widen(self) -> u32 {
        self
    }
    #[inline]
    fn truncate(v: u32) -> u32 {
        v
    }
}

/// Width-adaptive code storage: per-row joint codes held at the narrowest
/// unsigned width the code space fits (the same arity-derived rule the
/// wire codec uses), so a binary column costs 1 byte/row instead of 4.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Codes {
    /// Code space fits a byte (`arity <= 256`).
    U8(Vec<u8>),
    /// Code space fits two bytes (`arity <= 65536`).
    U16(Vec<u16>),
    /// Full-width codes.
    U32(Vec<u32>),
}

/// Dispatch a generic expression over the concrete code slice held by a
/// [`Codes`] value. `$s` binds the inner `Vec<u8>`/`Vec<u16>`/`Vec<u32>`
/// (by reference when `$codes` is a reference), and `$body` is
/// monomorphized per width — the counting kernels use this to run the
/// narrow paths without per-element enum dispatch.
#[macro_export]
macro_rules! with_codes {
    ($codes:expr, |$s:ident| $body:expr) => {
        match $codes {
            $crate::Codes::U8($s) => $body,
            $crate::Codes::U16($s) => $body,
            $crate::Codes::U32($s) => $body,
        }
    };
}

impl Codes {
    /// Storage width in bytes for a code space of size `arity`, in memory
    /// and on the wire (`codec`): codes are `< arity`, so they fit one
    /// byte when `arity <= 2^8`, two when `arity <= 2^16`, four otherwise.
    pub fn width_for(arity: u32) -> usize {
        if arity as u64 <= 1 << 8 {
            1
        } else if arity as u64 <= 1 << 16 {
            2
        } else {
            4
        }
    }

    /// Narrow a full-width code slice to the width chosen from `arity`.
    pub fn from_slice(codes: &[u32], arity: u32) -> Codes {
        match Self::width_for(arity) {
            1 => Codes::U8(codes.iter().map(|&c| c as u8).collect()),
            2 => Codes::U16(codes.iter().map(|&c| c as u16).collect()),
            _ => Codes::U32(codes.to_vec()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        with_codes!(self, |c| c.len())
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage width in bytes per row.
    pub fn width(&self) -> usize {
        match self {
            Codes::U8(_) => 1,
            Codes::U16(_) => 2,
            Codes::U32(_) => 4,
        }
    }

    /// Total bytes of code storage.
    pub fn byte_len(&self) -> usize {
        self.len() * self.width()
    }

    /// The code at `row`, widened.
    pub fn get(&self, row: usize) -> u32 {
        with_codes!(self, |c| c[row].widen())
    }

    /// Widen to a full `u32` vector (reference paths and tests).
    pub fn to_u32_vec(&self) -> Vec<u32> {
        with_codes!(self, |c| c.iter().map(|&v| v.widen()).collect())
    }
}

/// Joint categorical encoding of a variable set: one code per row plus the
/// code-space size and the number of *observed* distinct codes.
///
/// Codes are produced by left-to-right composition over the sorted column
/// set: mixed-radix while the product of arities fits `u32`, densely
/// re-numbered (first-occurrence order) on overflow. Count-based statistics
/// (G-test, plug-in CMI) depend only on the partition the codes induce, so
/// any injective re-encoding is exact — including the width narrowing.
#[derive(Debug)]
pub struct Encoding {
    /// Per-row joint code at arity-derived width.
    pub codes: Codes,
    /// Size of the code space (`codes` values are `< arity`).
    pub arity: u32,
    /// Observed distinct codes: set at construction when the builder
    /// already knows it, otherwise counted on the first read.
    distinct: OnceLock<usize>,
}

impl Encoding {
    /// An encoding whose distinct count is computed on the first call to
    /// [`Encoding::distinct`].
    pub fn new(codes: Codes, arity: u32) -> Encoding {
        Encoding {
            codes,
            arity,
            distinct: OnceLock::new(),
        }
    }

    /// An encoding whose distinct count the builder already knows.
    fn counted(codes: Codes, arity: u32, distinct: usize) -> Encoding {
        Encoding {
            codes,
            arity,
            distinct: OnceLock::from(distinct),
        }
    }

    /// Number of distinct codes actually observed. The count runs over
    /// every row on the first read and is kept, unless the encoding was
    /// built knowing it: the empty set and dense re-numbering (the
    /// numbering counts). In practice only conditioning sets whose code
    /// space reaches the row count are ever counted, through
    /// [`Encoding::all_singletons`]. Either way the value is exact.
    pub fn distinct(&self) -> usize {
        *self
            .distinct
            .get_or_init(|| with_codes!(&self.codes, |c| count_distinct(c, self.arity)))
    }

    /// True when every row is its own stratum — the degenerate case where
    /// conditioning on this set makes any CI test vacuous (each stratum
    /// holds one observation, so no stratum is informative and p = 1).
    /// A code space smaller than the row count rules it out without
    /// counting.
    pub fn all_singletons(&self) -> bool {
        let n = self.codes.len();
        n > 0 && self.arity as usize >= n && self.distinct() == n
    }
}

/// Cache telemetry: how many requests were answered from the cache, how
/// many values were computed, and how many cached values were evicted to
/// stay under the size cap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// Requests answered from the memo cache.
    pub hits: u64,
    /// Encodings actually computed (including intermediate prefixes).
    pub misses: u64,
    /// Cached values discarded by the LRU bound.
    pub evictions: u64,
    /// Bytes of width-narrowed code storage built (cumulative over every
    /// encoding computed; with u32 storage this would be 4 bytes/row).
    pub narrow_code_bytes: u64,
    /// Cells zeroed+filled by the dense counting arenas in the testers
    /// (cumulative `strata × xa × ya` over every dense fill).
    pub dense_count_cells: u64,
    /// Rows appended through [`EncodedTable::extend`] (cumulative over the
    /// dataset's whole lineage).
    pub append_rows: u64,
    /// Cached joint encodings carried into a child dataset by incremental
    /// extension instead of recomputation (cumulative over the lineage).
    pub extended_encodings: u64,
}

impl EncodeStats {
    /// Component-wise sum (used to aggregate a tester's private caches
    /// with the encoding layer's).
    pub fn merged(self, other: EncodeStats) -> EncodeStats {
        EncodeStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            narrow_code_bytes: self.narrow_code_bytes + other.narrow_code_bytes,
            dense_count_cells: self.dense_count_cells + other.dense_count_cells,
            append_rows: self.append_rows + other.append_rows,
            extended_encodings: self.extended_encodings + other.extended_encodings,
        }
    }
}

/// A [`Table`] plus memoized joint encodings and materialized numeric
/// columns, shared across queries, worker threads — and, through the
/// session service, across requests.
///
/// Construction is cheap — nothing is encoded eagerly; every per-set
/// encoding is computed on first use and retained (up to the cache cap).
pub struct EncodedTable {
    table: Arc<Table>,
    sets: CappedCache<Vec<ColId>, Arc<Encoding>>,
    /// Materialized numeric columns, capped at the table's column count.
    numeric: CappedCache<ColId, Arc<Vec<f64>>>,
    code_bytes: AtomicU64,
    append_rows: AtomicU64,
    extended: AtomicU64,
    /// Parent row count at the last [`EncodedTable::extend`] (0 for a cold
    /// build): the boundary between retained prefix rows and appended rows
    /// that sufficient-statistic patching counts.
    base_rows: usize,
    /// Set keys whose codes provably agree with the parent's codes on the
    /// first `base_rows` rows — the keys extended in place at the last
    /// [`EncodedTable::extend`]. Data-independent stability (singleton and
    /// fully mixed-radix chains) is decided structurally instead; see
    /// [`EncodedTable::prefix_stable`].
    // analyze: bounded-by subset of the resident cache keys at the last extend
    stable_sets: std::collections::HashSet<Vec<ColId>>,
    // Reusable scratch for the dense-renumber compose fallback: pre-sized
    // once and cleared (capacity kept) between groups, so a 500k-row
    // overflow composition doesn't pay a rehash storm per prefix step.
    // analyze: bounded-by cleared between groups; peak size is one group's distinct prefixes
    dense_scratch: Mutex<std::collections::HashMap<u64, u32>>,
}

impl std::fmt::Debug for EncodedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodedTable")
            .field("rows", &self.table.n_rows())
            .field("cached_sets", &self.sets.len())
            .field("cap", &self.sets.cap())
            .finish()
    }
}

impl EncodedTable {
    /// Wrap a table with an empty encoding cache (default cap). The table
    /// is cloned into shared ownership; use [`EncodedTable::from_arc`]
    /// when an `Arc<Table>` is already at hand.
    pub fn new(table: &Table) -> Self {
        Self::from_arc(Arc::new(table.clone()))
    }

    /// Wrap a shared table with the default cache cap.
    pub fn from_arc(table: Arc<Table>) -> Self {
        Self::build(table, DEFAULT_CACHE_CAP)
    }

    /// Wrap a shared table, bounding the set-encoding cache at `cap`
    /// entries (clamped to at least 1). Testers built over this layer
    /// (Fisher-z) read [`EncodedTable::cache_cap`] to bound their own
    /// per-conditioning-set caches consistently.
    pub fn from_arc_with_cap(table: Arc<Table>, cap: usize) -> Self {
        Self::build(table, cap)
    }

    fn build(table: Arc<Table>, cap: usize) -> Self {
        Self {
            numeric: CappedCache::new(table.n_cols()),
            table,
            sets: CappedCache::new(cap),
            code_bytes: AtomicU64::new(0),
            append_rows: AtomicU64::new(0),
            extended: AtomicU64::new(0),
            base_rows: 0,
            stable_sets: Default::default(),
            dense_scratch: Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Shared handle to the underlying table.
    pub fn table_arc(&self) -> &Arc<Table> {
        &self.table
    }

    /// The bound on memoized set encodings.
    pub fn cache_cap(&self) -> usize {
        self.sets.cap()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.table.n_rows()
    }

    /// Rows inherited from the parent dataset at the last
    /// [`EncodedTable::extend`] — 0 for a cold build. Sufficient-statistic
    /// patching counts only the rows from here to [`EncodedTable::n_rows`].
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Whether this (extended) table's joint codes for `cols` provably
    /// equal the parent's codes on the first [`EncodedTable::base_rows`]
    /// rows — the precondition for patching a contingency table that was
    /// counted against the parent's codes. Singletons and fully
    /// mixed-radix chains are stable by construction (the code of a row is
    /// a pure function of its values and the declared arities); dense
    /// re-numbered chains are stable exactly when the last extension
    /// carried them over in place.
    pub fn prefix_stable(&self, cols: &[ColId]) -> bool {
        let mut key = cols.to_vec();
        key.sort_unstable();
        key.dedup();
        key.len() <= 1 || self.mixed_key_arity(&key).is_some() || self.stable_sets.contains(&key)
    }

    /// Cache telemetry so far (set encodings + materialized numeric
    /// columns).
    pub fn stats(&self) -> EncodeStats {
        self.sets
            .stats()
            .merged(self.numeric.stats())
            .merged(EncodeStats {
                narrow_code_bytes: self.code_bytes.load(Ordering::Relaxed),
                append_rows: self.append_rows.load(Ordering::Relaxed),
                extended_encodings: self.extended.load(Ordering::Relaxed),
                ..EncodeStats::default()
            })
    }

    /// Number of distinct variable sets currently memoized.
    pub fn cached_sets(&self) -> usize {
        self.sets.len()
    }

    /// Joint encoding of a variable set. Order and multiplicity of `cols`
    /// are irrelevant: the set is sorted and deduplicated first (CI
    /// statistics only see the induced partition). Cached encodings are
    /// shared via `Arc`, so repeated queries cost one hash lookup.
    ///
    /// # Panics
    /// Panics when a referenced column is numeric.
    pub fn encode(&self, cols: &[ColId]) -> Arc<Encoding> {
        let mut key = cols.to_vec();
        key.sort_unstable();
        key.dedup();
        self.encode_sorted(&key)
    }

    /// The cached encoding of a sorted, deduplicated set, built once even
    /// when several workers miss it together ([`CappedCache::get_or_build`]),
    /// so its miss and its code bytes are booked once.
    fn encode_sorted(&self, key: &[ColId]) -> Arc<Encoding> {
        self.sets.get_or_build(key, || {
            let enc = self.build_encoding(key);
            self.code_bytes
                .fetch_add(enc.codes.byte_len() as u64, Ordering::Relaxed);
            Arc::new(enc)
        })
    }

    /// Build the encoding for a sorted, deduplicated set by composing the
    /// cached encoding of its longest proper prefix with the last column.
    fn build_encoding(&self, key: &[ColId]) -> Encoding {
        let n = self.table.n_rows();
        match key.len() {
            0 => Encoding::counted(Codes::U8(vec![0; n]), 1, usize::from(n > 0)),
            1 => self.base_column(key[0]),
            _ => {
                let (prefix, last) = key.split_at(key.len() - 1);
                let prefix = self.encode_sorted(prefix);
                // The appended column goes through its cached single-set
                // encoding, so compose streams two narrow inputs instead
                // of the table's full-width storage.
                let last = self.encode_sorted(last);
                compose(&prefix, &last, &self.dense_scratch)
            }
        }
    }

    fn column_codes(&self, col: ColId) -> (&[u32], u32) {
        let c = self.table.col(col);
        let codes = c
            .codes()
            .unwrap_or_else(|| panic!("encode: column {} is numeric", c.name));
        (codes, c.arity().expect("categorical column has arity"))
    }

    fn base_column(&self, col: ColId) -> Encoding {
        let (codes, arity) = self.column_codes(col);
        Encoding::new(Codes::from_slice(codes, arity), arity)
    }

    /// Extend this dataset with an appended row batch, producing a child
    /// `EncodedTable` over the concatenated table (schema-validated by
    /// [`Table::concat`]) whose cache is pre-warmed by **extending** the
    /// parent's resident joint encodings: each cached `Codes` vector keeps
    /// the parent's rows verbatim and only the batch rows are encoded,
    /// re-widening u8→u16→u32 storage only when the child's code space
    /// outgrows the parent's width. Extended entries are inserted without
    /// counting misses ([`CappedCache::insert_transferred`]) and tallied in
    /// [`EncodeStats::extended_encodings`]; entries that cannot be provably
    /// extended are simply left to rebuild cold on first use. Either way
    /// every child encoding is bit-identical to a cold build over the
    /// concatenated table.
    ///
    /// The parent's rows are only copied, never re-read: no distinct count
    /// is recounted here. A dense re-numbered key knows its count from the
    /// numbering, and every other key counts on the first read of
    /// [`Encoding::distinct`], like a cold build. No parent count is passed
    /// on: its one reader, [`Encoding::all_singletons`], reads it only when
    /// the code space reaches the row count, and after a non-empty append
    /// a parent's distinct codes are fewer than the child's rows.
    pub fn extend(&self, batch: &Table) -> Result<EncodedTable, crate::table::TableError> {
        let n_parent = self.table.n_rows();
        let child_table = Arc::new(self.table.concat(batch)?);
        let mut child = EncodedTable::build(child_table, self.sets.cap());
        child.base_rows = n_parent;
        child.append_rows.store(
            self.append_rows.load(Ordering::Relaxed) + batch.n_rows() as u64,
            Ordering::Relaxed,
        );
        child
            .extended
            .store(self.extended.load(Ordering::Relaxed), Ordering::Relaxed);
        // Shortest keys first so extended prefixes are resident in the
        // child cache before longer keys (the dense path reads them back).
        let mut resident = self.sets.snapshot();
        resident.sort_by(|(a, _), (b, _)| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        let parent_arities: std::collections::HashMap<Vec<ColId>, u32> =
            resident.iter().map(|(k, e)| (k.clone(), e.arity)).collect();
        // Keys whose child codes provably agree with the parent's codes on
        // the first `n_parent` rows (extension preserves this invariant).
        let mut stable: std::collections::HashSet<Vec<ColId>> = Default::default();
        for (key, parent_enc) in resident {
            if let Some(enc) =
                child.extend_encoding(&key, &parent_enc, n_parent, &parent_arities, &stable)
            {
                child
                    .code_bytes
                    .fetch_add(enc.codes.byte_len() as u64, Ordering::Relaxed);
                child.sets.insert_transferred(key.clone(), Arc::new(enc));
                child.extended.fetch_add(1, Ordering::Relaxed);
                stable.insert(key);
            }
        }
        child.stable_sets = stable;
        Ok(child)
    }

    /// Joint arity of a key when its whole compose chain stays in the
    /// mixed-radix branch (the product of column arities fits `u32` — a
    /// data-independent property, so parent and child agree on it).
    fn mixed_key_arity(&self, key: &[ColId]) -> Option<u32> {
        let mut arity: u64 = 1;
        for &c in key {
            let a = self.table.col(c).arity()? as u64;
            arity = arity.checked_mul(a).filter(|&v| v <= u32::MAX as u64)?;
        }
        Some(arity as u32)
    }

    /// Try to extend one parent encoding onto this (child) table. Returns
    /// the child encoding — bit-identical to a cold build — or `None` when
    /// the parent value cannot be provably extended (a branch flip in the
    /// compose chain, or an unverifiable prefix), in which case the key is
    /// rebuilt cold on first use instead.
    fn extend_encoding(
        &self,
        key: &[ColId],
        parent: &Encoding,
        n_parent: usize,
        parent_arities: &std::collections::HashMap<Vec<ColId>, u32>,
        stable: &std::collections::HashSet<Vec<ColId>>,
    ) -> Option<Encoding> {
        let n = self.table.n_rows();
        if key.is_empty() {
            return Some(self.build_encoding(key));
        }
        if key.len() == 1 {
            let (codes, arity) = self.column_codes(key[0]);
            let codes = extend_codes(&parent.codes, &codes[n_parent..], arity);
            return Some(Encoding::new(codes, arity));
        }
        if let Some(joint) = self.mixed_key_arity(key) {
            // Fully mixed chain: suffix codes fold straight off the raw
            // columns (identical to the chained combine), the code space —
            // and hence the storage width — matches the parent's exactly.
            debug_assert_eq!(parent.arity, joint);
            let mut suffix = vec![0u32; n - n_parent];
            for &c in key {
                let (codes, a) = self.column_codes(c);
                for (o, &v) in suffix.iter_mut().zip(&codes[n_parent..]) {
                    *o = *o * a + v;
                }
            }
            let codes = extend_codes(&parent.codes, &suffix, joint);
            return Some(Encoding::new(codes, joint));
        }
        // The chain overflows u32 somewhere. The final compose step can
        // still be extended when the prefix is provably append-stable and
        // parent and child take the same branch at this step.
        let (prefix_key, last) = key.split_at(key.len() - 1);
        if !stable.contains(prefix_key) && self.mixed_key_arity(prefix_key).is_none() {
            return None;
        }
        let parent_prefix_arity = parent_arities
            .get(prefix_key)
            .copied()
            .or_else(|| self.mixed_key_arity(prefix_key))?;
        let child_p = self.encode_sorted(prefix_key);
        let child_c = self.encode_sorted(last);
        let arity_c = child_c.arity;
        let parent_joint = parent_prefix_arity as u64 * arity_c as u64;
        let child_joint = child_p.arity as u64 * arity_c as u64;
        let fits = |j: u64| j <= u32::MAX as u64;
        if fits(parent_joint) != fits(child_joint) {
            // Branch flip: the prefix's dense code space grew past the
            // radix bound, so the parent's codes live in a different code
            // space than a cold child build would produce.
            return None;
        }
        if fits(child_joint) {
            let joint = child_joint as u32;
            let mut suffix = vec![0u32; n - n_parent];
            with_codes!(&child_p.codes, |p| with_codes!(&child_c.codes, |q| {
                for ((o, &pc), &cc) in suffix.iter_mut().zip(&p[n_parent..]).zip(&q[n_parent..]) {
                    *o = pc.widen() * arity_c + cc.widen();
                }
            }));
            let codes = extend_codes(&parent.codes, &suffix, joint);
            Some(Encoding::new(codes, joint))
        } else {
            // Both dense: replay the parent's first-occurrence numbering
            // from its own codes, then number new pairs starting at the
            // parent's distinct count — exactly what a cold build's
            // first-occurrence sweep over the concatenated rows produces.
            let mut map: std::collections::HashMap<u64, u32> =
                std::collections::HashMap::with_capacity(parent.distinct() + (n - n_parent));
            let mut suffix = Vec::with_capacity(n - n_parent);
            let mut next = parent.distinct() as u32;
            with_codes!(&child_p.codes, |p| with_codes!(&child_c.codes, |q| {
                for i in 0..n_parent {
                    let pair = p[i].widen() as u64 * arity_c as u64 + q[i].widen() as u64;
                    map.entry(pair).or_insert_with(|| parent.codes.get(i));
                }
                for i in n_parent..n {
                    let pair = p[i].widen() as u64 * arity_c as u64 + q[i].widen() as u64;
                    let code = *map.entry(pair).or_insert_with(|| {
                        let v = next;
                        next += 1;
                        v
                    });
                    suffix.push(code);
                }
            }));
            let distinct = next as usize;
            let arity = (distinct as u32).max(1);
            let codes = extend_codes(&parent.codes, &suffix, arity);
            Some(Encoding::counted(codes, arity, distinct))
        }
    }

    /// Materialize a column as `f64` (categorical codes cast), cached.
    /// Numeric testers (Fisher-z, RCIT) use this to avoid per-query
    /// clones. The cache holds every column, so nothing is evicted, and a
    /// column is converted once however many workers miss it together.
    pub fn numeric_col(&self, col: ColId) -> Arc<Vec<f64>> {
        self.numeric
            .get_or_build(&col, || Arc::new(self.table.col(col).to_f64()))
    }
}

/// Compose a prefix encoding with one more column: mixed radix while the
/// product of code spaces fits `u32`, dense first-occurrence re-numbering
/// otherwise. Either way the result is injective on distinct observed
/// combinations, so the induced partition equals the full joint partition.
/// `scratch` is the table's reusable dense-renumber map, locked only on
/// the dense path; it is cleared (capacity kept) and pre-sized before use.
fn compose(
    prefix: &Encoding,
    last: &Encoding,
    scratch: &Mutex<std::collections::HashMap<u64, u32>>,
) -> Encoding {
    let n = last.codes.len();
    debug_assert_eq!(prefix.codes.len(), n);
    let arity = last.arity;
    let joint = prefix.arity as u64 * arity as u64;
    if joint <= u32::MAX as u64 {
        let joint = joint as u32;
        let out = with_codes!(&prefix.codes, |p| with_codes!(&last.codes, |q| {
            compose_codes(p, q, arity, joint)
        }));
        Encoding::new(out, joint)
    } else {
        // Dense re-encode pairs (prefix code, column code) in
        // first-occurrence order; the pair fits u64 by construction.
        let mut scratch = scratch.lock().expect("dense scratch lock");
        scratch.clear();
        scratch.reserve(n);
        let mut out = Vec::with_capacity(n);
        with_codes!(&prefix.codes, |p| with_codes!(&last.codes, |q| {
            for (&pc, &c) in p.iter().zip(q) {
                let pair = pc.widen() as u64 * arity as u64 + c.widen() as u64;
                let next = scratch.len() as u32;
                out.push(*scratch.entry(pair).or_insert(next));
            }
        }));
        let distinct = scratch.len();
        let out_arity = (distinct as u32).max(1);
        Encoding::counted(Codes::from_slice(&out, out_arity), out_arity, distinct)
    }
}

/// Mixed-radix combine `prefix * arity + col`, written directly at the
/// width the joint code space needs — no full-width intermediate vector,
/// no separate narrowing pass, and no distinct count (the encoding counts
/// on its first read, which most compositions never see).
fn compose_codes<P: CodeValue, C: CodeValue>(p: &[P], col: &[C], arity: u32, joint: u32) -> Codes {
    match Codes::width_for(joint) {
        1 => Codes::U8(combine(p, col, arity)),
        2 => Codes::U16(combine(p, col, arity)),
        _ => Codes::U32(combine(p, col, arity)),
    }
}

/// Append `suffix` (full-width codes already known to fit the child code
/// space) onto a parent's narrow code vector, re-widening the storage only
/// when `width_for(arity)` outgrows the parent's width.
fn extend_codes(parent: &Codes, suffix: &[u32], arity: u32) -> Codes {
    let width = Codes::width_for(arity);
    debug_assert!(width >= parent.width(), "a child code space never shrinks");
    if width == parent.width() {
        match parent {
            Codes::U8(v) => {
                let mut v = v.clone();
                v.extend(suffix.iter().map(|&c| c as u8));
                Codes::U8(v)
            }
            Codes::U16(v) => {
                let mut v = v.clone();
                v.extend(suffix.iter().map(|&c| c as u16));
                Codes::U16(v)
            }
            Codes::U32(v) => {
                let mut v = v.clone();
                v.extend_from_slice(suffix);
                Codes::U32(v)
            }
        }
    } else if width == 2 {
        let mut v: Vec<u16> =
            with_codes!(parent, |p| p.iter().map(|&c| c.widen() as u16).collect());
        v.extend(suffix.iter().map(|&c| c as u16));
        Codes::U16(v)
    } else {
        let mut v = parent.to_u32_vec();
        v.extend_from_slice(suffix);
        Codes::U32(v)
    }
}

fn combine<P: CodeValue, C: CodeValue, O: CodeValue>(p: &[P], col: &[C], arity: u32) -> Vec<O> {
    p.iter()
        .zip(col)
        .map(|(&pc, &c)| O::truncate(pc.widen() * arity + c.widen()))
        .collect()
}

/// Count distinct code values; a bitmap when the code space is small
/// relative to the row count, a hash set otherwise.
fn count_distinct<C: CodeValue>(codes: &[C], arity: u32) -> usize {
    if codes.is_empty() {
        return 0;
    }
    if (arity as usize) <= codes.len().saturating_mul(4).max(1024) {
        let mut seen = vec![false; arity as usize];
        let mut distinct = 0;
        for &c in codes {
            if !seen[c.index()] {
                seen[c.index()] = true;
                distinct += 1;
            }
        }
        distinct
    } else {
        codes
            .iter()
            .map(|c| c.widen())
            .collect::<std::collections::HashSet<_>>()
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, Role};
    use std::collections::HashMap;

    fn table() -> Table {
        Table::new(vec![
            Column::cat("a", Role::Feature, vec![0, 1, 1, 0], 2),
            Column::cat("b", Role::Feature, vec![2, 0, 1, 2], 3),
            Column::cat("c", Role::Feature, vec![0, 0, 1, 1], 2),
            Column::num("x", Role::Feature, vec![1.0, 2.0, 3.0, 4.0]),
        ])
        .unwrap()
    }

    /// Two encodings induce the same partition when equal codes coincide.
    fn same_partition(a: &[u32], b: &[u32]) -> bool {
        let mut map = HashMap::new();
        for (&x, &y) in a.iter().zip(b) {
            if *map.entry(x).or_insert(y) != y {
                return false;
            }
        }
        let mut rev = HashMap::new();
        for (&x, &y) in a.iter().zip(b) {
            if *rev.entry(y).or_insert(x) != x {
                return false;
            }
        }
        true
    }

    #[test]
    fn matches_joint_codes_partition() {
        let t = table();
        let enc = EncodedTable::new(&t);
        let e = enc.encode(&[0, 1]);
        let (codes, arity) = t.joint_codes(&[0, 1]);
        assert!(same_partition(&e.codes.to_u32_vec(), &codes));
        assert_eq!(e.arity, arity);
        assert_eq!(e.distinct(), 3); // (0,2) (1,0) (1,1) (0,2)
    }

    #[test]
    fn order_and_duplicates_share_one_entry() {
        let t = table();
        let enc = EncodedTable::new(&t);
        let a = enc.encode(&[1, 0]);
        let b = enc.encode(&[0, 1, 0]);
        assert!(Arc::ptr_eq(&a, &b), "sorted set key must dedup spellings");
        // One composed set costs three misses: prefix {0}, appended
        // single {1}, and the composition itself.
        assert_eq!(enc.stats().misses, 3);
        assert_eq!(enc.stats().hits, 1);
    }

    /// Workers released together on one fresh set build it once: one miss
    /// per set the composition needs, each set's code bytes booked once,
    /// and every other worker a hit.
    #[test]
    fn concurrent_misses_encode_once() {
        const WORKERS: usize = 6;
        let rows = 100_000;
        let t = Table::new(vec![
            Column::cat("a", Role::Feature, (0..rows).map(|i| i % 7).collect(), 7),
            Column::cat(
                "b",
                Role::Feature,
                (0..rows).map(|i| i % 300).collect(),
                300,
            ),
        ])
        .unwrap();
        for round in 0..5 {
            let enc = EncodedTable::new(&t);
            let start = std::sync::Barrier::new(WORKERS);
            std::thread::scope(|s| {
                for _ in 0..WORKERS {
                    s.spawn(|| {
                        start.wait();
                        enc.encode(&[1, 0]);
                    });
                }
            });
            let st = enc.stats();
            assert_eq!(st.misses, 3, "round {round}: {{0}}, {{1}} and {{0, 1}}");
            assert_eq!(st.hits, WORKERS as u64 - 1, "round {round}");
            let bytes: u64 = [&[0][..], &[1], &[0, 1]]
                .iter()
                .map(|k| enc.sets.peek(*k).unwrap().codes.byte_len() as u64)
                .sum();
            assert_eq!(st.narrow_code_bytes, bytes, "round {round}");
            assert_eq!(
                enc.sets.inserted(),
                enc.sets.len() as u64 + enc.sets.evictions()
            );
        }
    }

    #[test]
    fn prefix_composition_reuses_subsets() {
        let t = table();
        let enc = EncodedTable::new(&t);
        enc.encode(&[0, 1]);
        let before = enc.stats().misses;
        enc.encode(&[0, 1, 2]); // prefix {0,1} already cached; single {2} is new
        assert_eq!(enc.stats().misses, before + 2);
        // {0}, {1}, {0,1}, {2}, {0,1,2}
        assert_eq!(enc.cached_sets(), 5);
    }

    #[test]
    fn empty_set_is_one_stratum() {
        let t = table();
        let enc = EncodedTable::new(&t);
        let e = enc.encode(&[]);
        assert_eq!(e.arity, 1);
        assert_eq!(e.distinct(), 1);
        assert!(e.codes.to_u32_vec().iter().all(|&c| c == 0));
        assert!(!e.all_singletons());
    }

    #[test]
    fn all_singletons_detected() {
        let rows = 16;
        let cols: Vec<Column> = (0..5)
            .map(|bit| {
                Column::cat(
                    format!("b{bit}"),
                    Role::Feature,
                    (0..rows).map(|r| (r >> bit) as u32 & 1).collect(),
                    2,
                )
            })
            .collect();
        let t = Table::new(cols).unwrap();
        let enc = EncodedTable::new(&t);
        // 4 bits (16 combos over 16 rows, each unique) => all singleton.
        let e = enc.encode(&[0, 1, 2, 3]);
        assert!(e.all_singletons());
        // A single binary column over 16 rows is not.
        assert!(!enc.encode(&[0]).all_singletons());
    }

    #[test]
    fn overflow_composes_densely() {
        // 40 binary columns: joint arity 2^40 overflows u32.
        let cols: Vec<Column> = (0..40)
            .map(|i| {
                Column::cat(
                    format!("c{i}"),
                    Role::Feature,
                    vec![0, 1, (i % 2) as u32, 1 - (i % 2) as u32],
                    2,
                )
            })
            .collect();
        let t = Table::new(cols).unwrap();
        let enc = EncodedTable::new(&t);
        let all: Vec<ColId> = (0..40).collect();
        let e = enc.encode(&all);
        let (reference, _) = t.joint_codes_dense(&all);
        assert!(same_partition(&e.codes.to_u32_vec(), &reference));
        assert_eq!(e.distinct(), 4);
        assert!(e.all_singletons());
    }

    #[test]
    fn storage_width_follows_arity() {
        let t = Table::new(vec![
            Column::cat("bin", Role::Feature, vec![0, 1, 1, 0], 2),
            Column::cat("mid", Role::Feature, vec![0, 299, 7, 12], 300),
            Column::cat("big", Role::Feature, vec![0, 69999, 5, 1], 70000),
        ])
        .unwrap();
        let enc = EncodedTable::new(&t);
        assert_eq!(enc.encode(&[0]).codes.width(), 1);
        assert_eq!(enc.encode(&[1]).codes.width(), 2);
        assert_eq!(enc.encode(&[2]).codes.width(), 4);
        // Composition widens to the joint code space: 2 × 300 = 600 → u16.
        let joint = enc.encode(&[0, 1]);
        assert_eq!(joint.codes.width(), 2);
        assert_eq!(joint.arity, 600);
        // Narrowed bytes are accounted: 4 + 8 + 16 + (prefix reuse) + 8.
        assert!(enc.stats().narrow_code_bytes >= 4 + 8 + 16 + 8);
    }

    #[test]
    fn dense_overflow_at_scale_matches_partition() {
        // Satellite: the >u32-joint-arity path at scale. 40 binary columns
        // over 50k rows overflow u32 on the last compose steps and take
        // the pre-sized dense-renumber scratch.
        let rows = 50_000usize;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bits: Vec<Vec<u32>> = (0..40)
            .map(|_| (0..rows).map(|_| (next() & 1) as u32).collect())
            .collect();
        let cols: Vec<Column> = bits
            .iter()
            .enumerate()
            .map(|(i, b)| Column::cat(format!("c{i}"), Role::Feature, b.clone(), 2))
            .collect();
        let t = Table::new(cols).unwrap();
        let enc = EncodedTable::new(&t);
        let all: Vec<ColId> = (0..40).collect();
        let e = enc.encode(&all);
        // The reference partition via 64-bit packing of the 40 bits.
        let packed: Vec<u64> = (0..rows)
            .map(|r| bits.iter().fold(0u64, |acc, b| acc << 1 | b[r] as u64))
            .collect();
        let distinct = packed.iter().collect::<std::collections::HashSet<_>>();
        assert_eq!(e.distinct(), distinct.len());
        assert!(e.arity as usize >= e.distinct());
        // Same partition: equal joint codes iff equal packed bit patterns.
        let mut map: HashMap<u32, u64> = HashMap::new();
        let widened = e.codes.to_u32_vec();
        for (code, pack) in widened.iter().zip(&packed) {
            assert_eq!(*map.entry(*code).or_insert(*pack), *pack);
        }
        // Codes stay within the declared code space.
        assert!(widened.iter().all(|&c| c < e.arity));
    }

    #[test]
    fn capped_cache_evicts_and_stays_exact() {
        let t = table();
        let capped = EncodedTable::from_arc_with_cap(Arc::new(t.clone()), 2);
        let unbounded = EncodedTable::new(&t);
        // More distinct sets than the cap can hold.
        let sets: Vec<Vec<ColId>> = vec![vec![0], vec![1], vec![2], vec![0, 1], vec![1, 2]];
        for set in &sets {
            capped.encode(set);
        }
        assert!(capped.cached_sets() <= 2, "cap must bound residency");
        assert!(capped.stats().evictions > 0, "evictions must be counted");
        // Every encoding — evicted and recomputed or not — is exact.
        for set in &sets {
            let a = capped.encode(set);
            let b = unbounded.encode(set);
            assert_eq!(a.codes, b.codes);
            assert_eq!(a.arity, b.arity);
            assert_eq!(a.distinct(), b.distinct());
        }
        assert_eq!(capped.cache_cap(), 2);
        assert_eq!(unbounded.cache_cap(), DEFAULT_CACHE_CAP);
    }

    #[test]
    fn extend_matches_cold_build_bit_for_bit() {
        let parent_t = table();
        let parent = EncodedTable::new(&parent_t);
        // Warm a spread of sets, including composed ones.
        let sets: Vec<Vec<ColId>> = vec![vec![], vec![0], vec![2], vec![0, 1], vec![0, 1, 2]];
        for s in &sets {
            parent.encode(s);
        }
        let batch = Table::new(vec![
            Column::cat("a", Role::Feature, vec![1, 0, 1], 2),
            Column::cat("b", Role::Feature, vec![0, 2, 1], 3),
            Column::cat("c", Role::Feature, vec![1, 1, 0], 2),
            Column::num("x", Role::Feature, vec![5.0, 6.0, 7.0]),
        ])
        .unwrap();
        let child = parent.extend(&batch).unwrap();
        let cold = EncodedTable::new(&parent_t.concat(&batch).unwrap());
        assert_eq!(child.n_rows(), 7);
        // Every warm set was transferred, none of them cost a miss.
        assert_eq!(child.stats().misses, 0);
        assert!(child.cached_sets() >= sets.len());
        for s in &sets {
            let w = child.encode(s);
            let c = cold.encode(s);
            assert_eq!(w.codes, c.codes, "set {s:?}");
            assert_eq!(w.arity, c.arity, "set {s:?}");
            assert_eq!(w.distinct(), c.distinct(), "set {s:?}");
        }
        let stats = child.stats();
        assert_eq!(stats.append_rows, 3);
        // Resident in the parent: {}, {0}, {1}, {2}, {0,1}, {0,1,2} — the
        // intermediate single {1} rides along with the requested sets.
        assert_eq!(stats.extended_encodings, 6);
        assert_eq!(stats.misses, 0, "transferred sets never recompute");
    }

    #[test]
    fn extend_chains_accumulate_counters() {
        let parent_t = table();
        let parent = EncodedTable::new(&parent_t);
        parent.encode(&[0, 1]);
        let batch = Table::new(vec![
            Column::cat("a", Role::Feature, vec![0], 2),
            Column::cat("b", Role::Feature, vec![1], 3),
            Column::cat("c", Role::Feature, vec![0], 2),
            Column::num("x", Role::Feature, vec![9.0]),
        ])
        .unwrap();
        let child = parent.extend(&batch).unwrap();
        let grandchild = child.extend(&batch).unwrap();
        let s = grandchild.stats();
        assert_eq!(s.append_rows, 2, "lineage-cumulative rows");
        // {a}, {b}, {a,b} transferred at each generation.
        assert_eq!(s.extended_encodings, 6);
        // The child encoding still matches a cold double-concat build.
        let cold_t = parent_t.concat(&batch).unwrap().concat(&batch).unwrap();
        let cold = EncodedTable::new(&cold_t);
        assert_eq!(grandchild.encode(&[0, 1]).codes, cold.encode(&[0, 1]).codes);
    }

    #[test]
    fn extend_rejects_schema_mismatch() {
        let parent = EncodedTable::new(&table());
        let bad = Table::new(vec![Column::cat("a", Role::Feature, vec![0], 2)]).unwrap();
        assert!(parent.extend(&bad).is_err());
    }

    #[test]
    fn extend_dense_path_rewidens_and_matches_cold() {
        // Two wide columns overflow u32 at the final compose step, so the
        // cached joint encoding is dense-renumbered. The parent observes
        // few distinct pairs (u8 storage); the appended batch pushes the
        // distinct count past 256, forcing the extension to re-widen the
        // carried codes to u16 — and the result must still match a cold
        // build on the concatenated table bit for bit.
        let arity = 70_000u32;
        let parent_rows = 300usize;
        let batch_rows = 200usize;
        let pcodes: Vec<u32> = (0..parent_rows).map(|i| (i % 200) as u32).collect();
        let parent_t = Table::new(vec![
            Column::cat("u", Role::Feature, pcodes.clone(), arity),
            Column::cat(
                "v",
                Role::Feature,
                pcodes.iter().map(|&c| c * 2).collect(),
                arity,
            ),
        ])
        .unwrap();
        let parent = EncodedTable::new(&parent_t);
        let e = parent.encode(&[0, 1]);
        assert!(e.arity as usize <= parent_rows, "dense renumbering");
        assert_eq!(e.codes.width(), 1, "parent fits u8");
        // Batch rows introduce fresh pairs: distinct goes 200 -> 400.
        let bcodes: Vec<u32> = (0..batch_rows).map(|i| 1000 + i as u32).collect();
        let batch = Table::new(vec![
            Column::cat("u", Role::Feature, bcodes.clone(), arity),
            Column::cat(
                "v",
                Role::Feature,
                bcodes.iter().map(|&c| c * 2).collect(),
                arity,
            ),
        ])
        .unwrap();
        let child = parent.extend(&batch).unwrap();
        let cold = EncodedTable::new(&parent_t.concat(&batch).unwrap());
        let w = child.encode(&[0, 1]);
        let c = cold.encode(&[0, 1]);
        assert_eq!(w.codes, c.codes);
        assert_eq!(w.arity, c.arity);
        assert_eq!(w.distinct(), c.distinct());
        assert_eq!(w.codes.width(), 2, "extension re-widened u8 -> u16");
        assert!(child.stats().extended_encodings > 0);
        // The dense-renumbered joint set was carried over in place, so the
        // child records it as prefix-stable; on a child whose parent never
        // encoded it there is no proof, and the structural fallbacks don't
        // apply (the chain overflows u32).
        assert!(child.prefix_stable(&[0, 1]));
        assert!(child.prefix_stable(&[1, 0]), "spelling-insensitive");
        let unwarmed = EncodedTable::new(&parent_t).extend(&batch).unwrap();
        assert!(!unwarmed.prefix_stable(&[0, 1]));
        assert!(unwarmed.prefix_stable(&[0]), "singletons always stable");
    }

    /// An extended key's distinct count equals the cold count in each way
    /// an extension can come by it: counted on first read whether or not
    /// the parent had read its count or seen its whole code space, known
    /// from dense re-numbering, and counted on first read for a key whose
    /// storage widens from u8 to u16.
    #[test]
    fn extended_distinct_counts_match_cold() {
        let wide = 70_000u32;
        let table = |n: usize, offset: u32, b_code: Option<u32>| {
            Table::new(vec![
                Column::cat(
                    "a",
                    Role::Feature,
                    (0..n).map(|i| (i % 3) as u32).collect(),
                    3,
                ),
                Column::cat(
                    "b",
                    Role::Feature,
                    (0..n).map(|i| b_code.unwrap_or((i % 2) as u32)).collect(),
                    5,
                ),
                Column::cat(
                    "u",
                    Role::Feature,
                    (0..n).map(|i| offset + (i % 100) as u32).collect(),
                    wide,
                ),
                Column::cat(
                    "v",
                    Role::Feature,
                    (0..n).map(|i| 2 * (offset + (i % 100) as u32)).collect(),
                    wide,
                ),
                Column::cat(
                    "w",
                    Role::Feature,
                    (0..n).map(|i| (i % 2) as u32).collect(),
                    2,
                ),
            ])
            .unwrap()
        };
        let parent_t = table(300, 0, None);
        let batch = table(200, 1000, Some(3));
        let parent = EncodedTable::new(&parent_t);
        let (saturated, unread, unsaturated, dense, widened) =
            (vec![0], vec![4], vec![1], vec![2, 3], vec![2, 3, 4]);
        for key in [&saturated, &unsaturated, &dense, &widened] {
            parent.encode(key);
        }
        // The saturated parent's count is read before extending; `w` also
        // saw both of its codes, but only as a step of `widened`, so its
        // count was never read. Neither count is passed on to the child.
        assert_eq!(parent.encode(&saturated).distinct(), 3);
        assert_eq!(parent.encode(&unsaturated).distinct(), 2);
        assert!(parent.encode(&unread).distinct.get().is_none());
        assert_eq!(parent.encode(&widened).codes.width(), 1);
        let child = parent.extend(&batch).unwrap();
        let cold = EncodedTable::new(&parent_t.concat(&batch).unwrap());
        let cases = [
            (&saturated, false, "saturated parent, count read"),
            (&unread, false, "saturated parent, count unread"),
            (&unsaturated, false, "unsaturated parent"),
            (&dense, true, "dense re-numbered key"),
            (&widened, false, "u8 -> u16 key"),
        ];
        for (key, known_at_birth, label) in cases {
            let e = child.encode(key);
            assert_eq!(e.distinct.get().is_some(), known_at_birth, "{label}");
            assert_eq!(e.distinct(), cold.encode(key).distinct(), "{label}");
            assert_eq!(e.codes, cold.encode(key).codes, "{label}");
        }
        assert_eq!(child.encode(&unread).distinct(), 2);
        assert_eq!(
            child.encode(&unsaturated).distinct(),
            3,
            "the batch's code counts"
        );
        assert_eq!(child.encode(&widened).codes.width(), 2);
        assert_eq!(child.stats().misses, 0, "every case was extended");
    }

    /// A cold base column and a cold mixed-radix composition leave their
    /// distinct count unset until it is read; `distinct` and
    /// `all_singletons` then agree with a hash-set count of the codes.
    #[test]
    fn cold_builds_count_on_first_read() {
        let rows = 64usize;
        let cat = |name: &str, f: fn(usize) -> u32, arity: u32| {
            Column::cat(name, Role::Feature, (0..rows).map(f).collect(), arity)
        };
        let t = Table::new(vec![
            cat("a", |i| (i % 8) as u32, 8),
            cat("b", |i| (i / 8) as u32, 8),
            cat("c", |i| (i % 3) as u32, 5),
            cat("d", |i| (i % 10) as u32, 100),
        ])
        .unwrap();
        let enc = EncodedTable::new(&t);
        // Base columns, a composition whose code space is below the row
        // count, and compositions reaching it with and without repeats.
        for key in [vec![0], vec![3], vec![0, 2], vec![0, 1], vec![2, 3]] {
            let e = enc.encode(&key);
            assert!(e.distinct.get().is_none(), "{key:?} counted at build");
            let expected = e
                .codes
                .to_u32_vec()
                .into_iter()
                .collect::<std::collections::HashSet<_>>()
                .len();
            assert_eq!(e.all_singletons(), expected == rows, "{key:?}");
            assert_eq!(e.distinct(), expected, "{key:?}");
        }
        assert!(enc.encode(&[0, 1]).all_singletons());
        assert!(!enc.encode(&[2, 3]).all_singletons());
    }

    #[test]
    fn extension_records_base_rows() {
        let parent_t = table();
        let parent = EncodedTable::new(&parent_t);
        assert_eq!(parent.base_rows(), 0, "cold build has no parent rows");
        let batch = Table::new(vec![
            Column::cat("a", Role::Feature, vec![1], 2),
            Column::cat("b", Role::Feature, vec![0], 3),
            Column::cat("c", Role::Feature, vec![1], 2),
            Column::num("x", Role::Feature, vec![5.0]),
        ])
        .unwrap();
        let child = parent.extend(&batch).unwrap();
        assert_eq!(child.base_rows(), 4);
        assert_eq!(child.n_rows(), 5);
        // Mixed-radix chains are structurally prefix-stable even when the
        // parent never encoded them.
        assert!(child.prefix_stable(&[0, 1, 2]));
        assert!(child.prefix_stable(&[]));
        let grandchild = child.extend(&batch).unwrap();
        assert_eq!(grandchild.base_rows(), 5, "boundary of the last append");
    }

    #[test]
    fn numeric_columns_cached_by_arc() {
        let t = table();
        let enc = EncodedTable::new(&t);
        let a = enc.numeric_col(3);
        let b = enc.numeric_col(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, vec![1.0, 2.0, 3.0, 4.0]);
        // Categorical columns materialize their codes.
        assert_eq!(*enc.numeric_col(0), vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "is numeric")]
    fn encoding_numeric_column_panics() {
        let t = table();
        EncodedTable::new(&t).encode(&[3]);
    }

    #[test]
    fn shared_across_threads() {
        let t = table();
        let enc = Arc::new(EncodedTable::new(&t));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let enc = Arc::clone(&enc);
                    scope.spawn(move || enc.encode(&[0, 1, 2]).codes.clone())
                })
                .collect();
            let first = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>();
            assert!(first.windows(2).all(|w| w[0] == w[1]));
        });
    }
}
