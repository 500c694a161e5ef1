//! Deterministic stratified contingency counting shared by the discrete
//! testers (G-test, plug-in CMI) and the fairness report's CMI.
//!
//! Strata and cells are accumulated in *first-occurrence order* (hash maps
//! are used only as indexes into insertion-ordered vectors), so the
//! floating-point accumulation order of any statistic built on top is a
//! pure function of the input codes. That determinism is what lets the
//! engine promise byte-identical outcomes across the per-query, batched,
//! and worker-pool execution paths.
//!
//! Counting runs in two layouts, reused across the queries (and
//! permutation replicates) of a Z-group through [`Arenas`]; both read the
//! CSR row layout ([`StratumRows`]) stratum by stratum. [`DenseArena`]
//! counts into a flat `stratum × xa × ya` table and lists each stratum's
//! cells, flat, in first-occurrence order. A retained statistic
//! ([`SuffTable`]) keeps only those runs of cells with their counts,
//! reads its strata's rows from the partition it was counted or patched
//! over, and is patched on append; the filled arena and the retained
//! table share one walk over runs of cells ([`walk_runs`]). A warm child
//! patches a parent's table only when its memo re-derives the query
//! ([`DiscreteState::retained`]). Cell spaces
//! too large for the flat table ([`dense_cell_space`]) go to
//! [`SparseArena`], which appends each stratum's cells to flat vectors
//! through one reusable open-addressing index. Each layout has one walk
//! ([`Walk`]) feeding every cell to a statistic's term, and the G
//! statistic ([`g_stat`]) and plug-in CMI ([`cmi_stat`]) are each defined
//! once over any walk. The hashed per-query count those walks replaced
//! lives on only as the test-side reference
//! (`tests/kernel_reference/reference.rs`), and every statistic is
//! bit-identical to it: strata keep first-occurrence order, cells
//! accumulate in first-occurrence row order, marginals are exact integer
//! sums, and each walk visits the same cells in the same order.

use crate::{CiOutcome, CiQueryRef, VarId};
use fairsel_table::{with_codes, CappedCache, CodeValue, EncodedTable, Encoding};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Precomputed stratification of a conditioning-set encoding — the shared
/// scaffold of a *Z-group*: every query of a GrpSel frontier level
/// conditions on the same set, so its strata structure can be derived once
/// and reused by every `(x, y)` pair (and, for the permutation test, by
/// every permutation replicate).
///
/// Strata are numbered in first-occurrence order of the `z` codes — the
/// order a hashed sweep over the rows discovers them — so statistics
/// counted against the partition accumulate in the same floating-point
/// order on every path and come out byte-identical.
///
/// On dataset extension the partition and its CSR layout are extended
/// together by [`extend_scaffold`], which hashes one code per parent
/// stratum and one per appended row and otherwise only copies.
pub(crate) struct ZPartition {
    /// Per-row stratum index. (The fill loops stream the CSR row layout
    /// ([`StratumRows`]) rather than this per-row array; this stays for
    /// append patching.)
    pub stratum_of: Vec<u32>,
    /// Number of distinct strata.
    pub n_strata: usize,
    /// Rows per stratum — a property of the partition alone, computed
    /// once here so the arena fill loops never pay a per-row total
    /// increment. Exact integer counts, bit-identical to `n` accumulated
    /// `+= 1.0` increments when converted.
    pub sizes: Vec<u64>,
}

impl ZPartition {
    fn from_stratum_of(stratum_of: Vec<u32>, n_strata: usize) -> ZPartition {
        let mut sizes = vec![0u64; n_strata];
        for &s in &stratum_of {
            sizes[s as usize] += 1;
        }
        ZPartition {
            stratum_of,
            n_strata,
            sizes,
        }
    }
}

impl ZPartition {
    /// Build from per-row conditioning codes (hashed first-occurrence
    /// numbering, any code width).
    pub fn from_codes<C: CodeValue>(z: &[C]) -> ZPartition {
        let mut index: HashMap<u32, u32> = HashMap::new();
        let mut stratum_of = Vec::with_capacity(z.len());
        for &zv in z {
            let next = index.len() as u32;
            stratum_of.push(*index.entry(zv.widen()).or_insert(next));
        }
        let n_strata = index.len();
        Self::from_stratum_of(stratum_of, n_strata)
    }

    /// Build from a conditioning-set encoding at its native width. When
    /// the code space is small relative to the row count the
    /// first-occurrence numbering runs on a flat array instead of a hash
    /// map — the numbering (and therefore every downstream bit) is
    /// identical either way.
    pub fn from_encoding(ze: &Encoding) -> ZPartition {
        with_codes!(&ze.codes, |c| Self::from_codes_bounded(c, ze.arity))
    }

    fn from_codes_bounded<C: CodeValue>(z: &[C], arity: u32) -> ZPartition {
        if (arity as usize) > z.len().saturating_mul(4).max(1024) {
            return Self::from_codes(z);
        }
        let mut index = vec![u32::MAX; arity as usize];
        let mut n_strata = 0u32;
        let mut stratum_of = Vec::with_capacity(z.len());
        for &zv in z {
            let slot = &mut index[zv.index()];
            if *slot == u32::MAX {
                *slot = n_strata;
                n_strata += 1;
            }
            stratum_of.push(*slot);
        }
        Self::from_stratum_of(stratum_of, n_strata as usize)
    }
}

/// CSR (offsets + row indices) layout of a partition's per-stratum rows:
/// strata in first-occurrence order, rows ascending within each stratum —
/// exactly the order the old per-stratum `Vec<Vec<usize>>` materialization
/// produced, so the within-stratum permutation consumes identical
/// randomness. Two flat allocations regardless of the stratum count.
pub(crate) struct StratumRows {
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl StratumRows {
    /// Build by counting sort over the partition's stratum indices.
    pub fn from_partition(part: &ZPartition) -> StratumRows {
        let n = part.stratum_of.len();
        assert!(n <= u32::MAX as usize, "row count exceeds u32 CSR layout");
        let mut offsets = vec![0u32; part.n_strata + 1];
        for &s in &part.stratum_of {
            offsets[s as usize + 1] += 1;
        }
        for s in 0..part.n_strata {
            offsets[s + 1] += offsets[s];
        }
        let mut cursor: Vec<u32> = offsets[..part.n_strata].to_vec();
        let mut rows = vec![0u32; n];
        for (i, &s) in part.stratum_of.iter().enumerate() {
            let c = &mut cursor[s as usize];
            rows[*c as usize] = i as u32;
            *c += 1;
        }
        StratumRows { offsets, rows }
    }

    /// Number of strata.
    pub fn n_strata(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row indices of stratum `s`, ascending.
    pub fn stratum(&self, s: usize) -> &[u32] {
        &self.rows[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

/// Extend a parent scaffold — a partition and its CSR row layout — to the
/// conditioning encoding of an appended table, bit-identical to
/// [`ZPartition::from_encoding`] and [`StratumRows::from_partition`] on the
/// whole child.
///
/// Strata are numbered in first-occurrence order and the child's first
/// rows *are* the parent's rows, so the parent's numbering, sizes and
/// per-stratum rows carry over as copies. Only the child codes at each
/// parent stratum's first row are hashed, which maps every code seen
/// before to its stratum (child codes are injective on joint values even
/// where they represent them differently from the parent's). Appended
/// rows then take their stratum from that index or open a new one, bump
/// its size, and join the end of its CSR run.
pub(crate) fn extend_scaffold(
    parent: &(ZPartition, StratumRows),
    child_ze: &Encoding,
) -> (ZPartition, StratumRows) {
    with_codes!(&child_ze.codes, |z| extend_scaffold_codes(parent, z))
}

fn extend_scaffold_codes<C: CodeValue>(
    (part, csr): &(ZPartition, StratumRows),
    z: &[C],
) -> (ZPartition, StratumRows) {
    let n_parent = part.stratum_of.len();
    assert!(z.len() >= n_parent, "a child must not shrink the table");
    assert!(
        z.len() <= u32::MAX as usize,
        "row count exceeds u32 CSR layout"
    );
    let appended = z.len() - n_parent;
    let mut index: HashMap<u32, u32> = HashMap::with_capacity(part.n_strata + appended);
    for s in 0..part.n_strata {
        index.insert(z[csr.stratum(s)[0] as usize].widen(), s as u32);
    }
    let mut stratum_of = Vec::with_capacity(z.len());
    stratum_of.extend_from_slice(&part.stratum_of);
    let mut sizes = Vec::with_capacity(part.n_strata + appended);
    sizes.extend_from_slice(&part.sizes);
    let mut fresh = Vec::with_capacity(appended);
    for (r, &zv) in z.iter().enumerate().skip(n_parent) {
        let next = sizes.len() as u32;
        let s = *index.entry(zv.widen()).or_insert(next);
        if s == next {
            sizes.push(0);
        }
        sizes[s as usize] += 1;
        stratum_of.push(s);
        fresh.push((s, r as u32));
    }
    let n_strata = sizes.len();
    let (offsets, rows) = append_to_runs(&csr.offsets, &csr.rows, fresh, n_strata);
    (
        ZPartition {
            stratum_of,
            n_strata,
            sizes,
        },
        StratumRows { offsets, rows },
    )
}

/// Append items to the ends of their strata's runs in a CSR layout
/// (`offsets`, `items`) that grows to `n_strata` strata. `fresh` holds
/// `(stratum, item)` in the order the items must follow within their
/// stratum; the sort by stratum is stable, so that order is kept. Runs
/// without fresh items are copied a block of strata at a time.
fn append_to_runs<T: Copy>(
    offsets: &[u32],
    items: &[T],
    mut fresh: Vec<(u32, T)>,
    n_strata: usize,
) -> (Vec<u32>, Vec<T>) {
    fresh.sort_by_key(|&(s, _)| s);
    let mut out_offsets = Vec::with_capacity(n_strata + 1);
    out_offsets.push(0);
    let mut out = Vec::with_capacity(items.len() + fresh.len());
    let mut copied = 0;
    let mut i = 0;
    while i < fresh.len() {
        let s = fresh[i].0 as usize;
        copy_runs(offsets, items, copied..s + 1, &mut out_offsets, &mut out);
        while i < fresh.len() && fresh[i].0 as usize == s {
            out.push(fresh[i].1);
            i += 1;
        }
        *out_offsets.last_mut().expect("offsets start at 0") = out.len() as u32;
        copied = s + 1;
    }
    copy_runs(offsets, items, copied..n_strata, &mut out_offsets, &mut out);
    (out_offsets, out)
}

/// Copy the old runs of `strata` (empty past the old stratum count) onto
/// the ends of `out` and `out_offsets`.
fn copy_runs<T: Copy>(
    offsets: &[u32],
    items: &[T],
    strata: std::ops::Range<usize>,
    out_offsets: &mut Vec<u32>,
    out: &mut Vec<T>,
) {
    let old = offsets.len() - 1;
    let (a, b) = (strata.start.min(old), strata.end.min(old));
    if a < b {
        let shift = out.len() as u32 - offsets[a];
        out.extend_from_slice(&items[offsets[a] as usize..offsets[b] as usize]);
        out_offsets.extend(offsets[a + 1..=b].iter().map(|&o| o + shift));
    }
    let new_strata = strata.end - strata.start.max(old).min(strata.end);
    out_offsets.extend(std::iter::repeat_n(out.len() as u32, new_strata));
}

/// Dense-counting threshold: the flat table is worth it only while the
/// cell space stays within a small multiple of the row count (beyond
/// that, zeroing the table dominates and the [`SparseArena`] wins).
pub(crate) fn dense_cell_space(n: usize, n_strata: usize, xa: usize, ya: usize) -> Option<usize> {
    let cells = (n_strata as u64)
        .saturating_mul(xa as u64)
        .saturating_mul(ya as u64);
    (cells <= (8 * n as u64).max(4096)).then_some(cells as usize)
}

/// Counted cells a statistic can walk: every cell, strata in
/// first-occurrence order and each stratum's cells in first-occurrence
/// row order, is fed to `term(n_xy, n_z, n_xz, n_yz)`, and the walk
/// returns the adaptive df (strata with more than one observed x and y
/// value). Marginals are exact integer sums, so every layout feeds the
/// same values in the same order.
pub(crate) trait Walk {
    fn walk(&mut self, term: impl FnMut(f64, f64, f64, f64)) -> usize;
}

/// The G statistic `2 Σ n_xy ln(n_xy n_z / (n_xz n_yz))` of the walked
/// cells, and its degrees of freedom.
pub(crate) fn g_stat(cells: &mut impl Walk) -> (f64, usize) {
    let mut g = 0.0;
    let df = cells.walk(|nxy, nz, nx, ny| {
        // order: the walk's cell order — strata, then each stratum's cells,
        // in first occurrence.
        g += 2.0 * nxy * ((nxy * nz) / (nx * ny)).ln();
    });
    (g, df)
}

/// Plug-in CMI in nats of the walked cells over `n` rows. Slightly
/// negative sums are truncated to 0 (footnote 3 of the paper, after
/// Mukherjee et al. \[39\]).
pub(crate) fn cmi_stat(cells: &mut impl Walk, n: usize) -> f64 {
    let nf = n as f64;
    let mut cmi = 0.0;
    cells.walk(|nxy, nz, nx, ny| {
        // order: the walk's cell order — strata, then each stratum's cells,
        // in first occurrence.
        cmi += (nxy / nf) * ((nxy * nz) / (nx * ny)).ln();
    });
    cmi.max(0.0)
}

/// Reusable dense counting arena: flat `stratum × xa × ya` cell counts,
/// rows per stratum, and each stratum's cells in first-occurrence order,
/// flat — stratum `s` holds `cells[offsets[s]..offsets[s + 1]]`, the CSR
/// layout [`StratumRows`] uses for rows. One arena serves every query of
/// a Z-group (and every permutation replicate of a CMI query): buffers
/// are resized once and refilled. A retained statistic ([`SuffTable`])
/// keeps the filled arena's runs of cells with their counts, not the flat
/// table, and walks through the same [`walk_runs`].
#[derive(Default)]
pub(crate) struct DenseArena {
    /// Integer cell counts: an integer increment retires in one cycle
    /// where the former `f64 += 1.0` serialized on FP-add latency for
    /// hot cells, and the 4-byte width halves the cache footprint of the
    /// randomly-addressed table. Counts are exact integers (a cell holds
    /// at most the row count, bounded `u32` by the CSR layout), so
    /// converting at walk time yields bit-for-bit the values the float
    /// accumulation produced.
    counts: Vec<u32>,
    totals: Vec<u64>,
    cells: Vec<(u32, u32)>,
    offsets: Vec<u32>,
    /// The arities the flat table is laid out at.
    xa: usize,
    ya: usize,
}

/// A dense walk's marginal scratch: the exact integer marginals of the
/// stratum being walked, by x and y value, zero outside it.
#[derive(Default)]
pub(crate) struct Margins {
    xm: Vec<u64>,
    ym: Vec<u64>,
}

impl DenseArena {
    /// Count `(x, y)` cells per stratum into the flat table. `cells` must
    /// come from [`dense_cell_space`] for the same shape.
    ///
    /// The multi-stratum loop iterates the partition's CSR stratum rows
    /// (`rows`) stratum by stratum: the flat-index base `s·xa·ya` is a
    /// loop constant, no per-row stratum index is ever read, and the
    /// per-stratum body is unrolled by 8 lanes — the SIMD-shaped layout
    /// the ROADMAP headroom note asked for (the flat-index computation
    /// over a lane of gathered codes auto-vectorizes; the scatter
    /// increments stay scalar, applied in row order so same-cell
    /// collisions within a lane accumulate sequentially). Within a
    /// stratum the CSR rows ascend, so a cell's first occurrence is found
    /// at the same row the global row sweep found it at — each stratum's
    /// cell run is identical, counts are exact integers, and every
    /// downstream statistic stays bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub fn fill<X: CodeValue, Y: CodeValue>(
        &mut self,
        x: &[X],
        y: &[Y],
        xa: usize,
        ya: usize,
        part: &ZPartition,
        rows: &StratumRows,
        cells: usize,
    ) {
        let n = x.len();
        assert_eq!(n, y.len(), "contingency: length mismatch");
        assert_eq!(n, part.stratum_of.len(), "contingency: partition mismatch");
        assert!(n <= u32::MAX as usize, "row count exceeds u32 cell counts");
        self.xa = xa;
        self.ya = ya;
        resize_zeroed(&mut self.counts, cells);
        // Stratum totals come precomputed from the partition — no per-row
        // accumulation in the fill loops.
        self.totals.clear();
        self.totals.extend_from_slice(&part.sizes);
        self.cells.clear();
        self.offsets.clear();
        self.offsets.push(0);
        if part.n_strata == 1 {
            // Single stratum (empty or constant Z — a large share of real
            // frontiers): the row sweep is already stratum-contiguous.
            for r in 0..n {
                let flat = x[r].index() * ya + y[r].index();
                if self.counts[flat] == 0 {
                    self.cells.push((x[r].widen(), y[r].widen()));
                }
                self.counts[flat] += 1;
            }
            self.offsets.push(self.cells.len() as u32);
            return;
        }
        debug_assert_eq!(rows.n_strata(), part.n_strata, "CSR/partition mismatch");
        for s in 0..part.n_strata {
            let base = s * xa * ya;
            let idx = rows.stratum(s);
            let mut flats = [0usize; 8];
            let mut i = 0;
            while i + 8 <= idx.len() {
                for (k, f) in flats.iter_mut().enumerate() {
                    let r = idx[i + k] as usize;
                    *f = base + x[r].index() * ya + y[r].index();
                }
                for (k, &flat) in flats.iter().enumerate() {
                    let r = idx[i + k] as usize;
                    if self.counts[flat] == 0 {
                        self.cells.push((x[r].widen(), y[r].widen()));
                    }
                    self.counts[flat] += 1;
                }
                i += 8;
            }
            while i < idx.len() {
                let r = idx[i] as usize;
                let flat = base + x[r].index() * ya + y[r].index();
                if self.counts[flat] == 0 {
                    self.cells.push((x[r].widen(), y[r].widen()));
                }
                self.counts[flat] += 1;
                i += 1;
            }
            self.offsets.push(self.cells.len() as u32);
        }
    }

    /// The count of stratum `s`'s cell `(xv, yv)` in the flat table.
    #[inline]
    fn count(&self, s: usize, (xv, yv): (u32, u32)) -> u32 {
        self.counts[(s * self.xa + xv as usize) * self.ya + yv as usize]
    }

    /// The [`Walk`] of the dense layout: the runs of cells it listed,
    /// counts read from the flat table.
    fn walk(&self, m: &mut Margins, term: impl FnMut(f64, f64, f64, f64)) -> usize {
        walk_runs(
            m,
            (self.xa, self.ya),
            (&self.offsets, &self.cells),
            &self.totals,
            |s, i| self.count(s, self.cells[i]),
            term,
        )
    }
}

/// The one walk body of every layout that keeps each stratum's cells as a
/// run, stratum `s` holding `cells[offsets[s]..offsets[s + 1]]` in
/// first-occurrence order: the filled [`DenseArena`], whose counts sit in
/// its flat table, and a retained [`SuffTable`], whose counts sit beside
/// its cells. `count(s, i)` is the count of `cells[i]`, which lies in
/// stratum `s`, and `sizes[s]` is the stratum's rows. Each stratum's
/// marginals are exact integer sums over its finished cells, taken in
/// `m`, which holds `xa + ya` slots and is zeroed again cell by cell
/// before the next stratum.
fn walk_runs(
    m: &mut Margins,
    (xa, ya): (usize, usize),
    (offsets, cells): (&[u32], &[(u32, u32)]),
    sizes: &[u64],
    count: impl Fn(usize, usize) -> u32,
    mut term: impl FnMut(f64, f64, f64, f64),
) -> usize {
    if m.xm.len() < xa {
        m.xm.resize(xa, 0);
    }
    if m.ym.len() < ya {
        m.ym.resize(ya, 0);
    }
    let mut df = 0usize;
    for (s, ends) in offsets.windows(2).enumerate() {
        let run = ends[0] as usize..ends[1] as usize;
        let (mut r, mut c) = (0usize, 0usize);
        for i in run.clone() {
            let (xv, yv) = cells[i];
            let nxy = count(s, i) as u64;
            let xm = &mut m.xm[xv as usize];
            r += usize::from(*xm == 0);
            *xm += nxy;
            let ym = &mut m.ym[yv as usize];
            c += usize::from(*ym == 0);
            *ym += nxy;
        }
        let total = sizes[s] as f64;
        for i in run.clone() {
            let (xv, yv) = cells[i];
            term(
                count(s, i) as f64,
                total,
                m.xm[xv as usize] as f64,
                m.ym[yv as usize] as f64,
            );
        }
        for &(xv, yv) in &cells[run] {
            m.xm[xv as usize] = 0;
            m.ym[yv as usize] = 0;
        }
        if r > 1 && c > 1 {
            df += (r - 1) * (c - 1);
        }
    }
    df
}

/// Resize to `len` and zero every element (keeping capacity across fills).
fn resize_zeroed<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    buf.resize(len, T::default());
}

/// One slot of a [`StampedIndex`]; it holds an entry only while its stamp
/// equals the index's current generation.
#[derive(Clone, Copy, Default)]
struct Slot {
    key: u64,
    stamp: u32,
    val: u32,
}

/// Reusable open-addressing map from `u64` keys to `u32` values, cleared
/// by bumping a generation stamp: slots stamped by an older generation
/// read as empty, so a clear is O(1) and neither reallocates nor re-zeroes
/// the table. The table grows only when one generation needs more slots
/// than any before it, and is re-zeroed only when the 32-bit stamp wraps.
/// Each generation probes the smallest power-of-two prefix that keeps its
/// load at or below one half, so a tiny stratum stays within a few cache
/// lines of a table sized for the largest.
struct StampedIndex {
    slots: Vec<Slot>,
    stamp: u32,
    mask: usize,
    shift: u32,
    /// Random odd multiplier of the multiply-shift hash. Keys are codes
    /// of uploaded data; a fixed multiplier would let crafted codes pile
    /// into one probe run, a random one makes the hash universal. Slot
    /// positions never reach an output, so outputs stay deterministic.
    mul: u64,
}

impl Default for StampedIndex {
    fn default() -> StampedIndex {
        let mut seed = RandomState::new().build_hasher();
        seed.write_u64(0x9E37_79B9_7F4A_7C15);
        StampedIndex {
            slots: Vec::new(),
            stamp: 0,
            mask: 0,
            shift: 0,
            mul: seed.finish() | 1,
        }
    }
}

impl StampedIndex {
    /// Start a new, empty generation for at most `keys` distinct keys.
    fn clear(&mut self, keys: usize) {
        let want = keys.saturating_mul(2).next_power_of_two().max(8);
        if want > self.slots.len() {
            self.slots.resize(want, Slot::default());
        }
        self.mask = want - 1;
        self.shift = 64 - want.trailing_zeros();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill(Slot::default());
            self.stamp = 1;
        }
    }

    /// The value stored under `key` with `false`, or, when the key is new
    /// to this generation, `next` (now stored under it) with `true`.
    #[inline]
    fn get_or_insert(&mut self, key: u64, next: u32) -> (u32, bool) {
        // Multiply-shift: the product's top bits mix every key bit.
        let mut i = (key.wrapping_mul(self.mul) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.stamp {
                *slot = Slot {
                    key,
                    stamp: self.stamp,
                    val: next,
                };
                return (next, true);
            }
            if slot.key == key {
                return (slot.val, false);
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// Reusable sparse counting arena for the cell spaces [`dense_cell_space`]
/// rejects, typically a conditioning set that gives nearly every row its
/// own stratum. It walks the CSR strata in first-occurrence order and
/// finds each stratum's `(x, y)` cells through one [`StampedIndex`],
/// appending new cells in first-occurrence row order to flat vectors that
/// every fill reuses. Its walk derives marginals and df from the finished
/// cells and visits the cells in the dense walk's order, so every
/// statistic is bit-identical to the dense path's.
#[derive(Default)]
pub(crate) struct SparseArena {
    /// `(x, y)` → position in `cells`, for the stratum being counted.
    cell_ix: StampedIndex,
    /// Value → position in `xm` / `ym`, for the stratum being walked.
    x_ix: StampedIndex,
    y_ix: StampedIndex,
    /// Cells of every counted stratum, stratum after stratum, each
    /// stratum's run in first-occurrence row order, with exact counts.
    cells: Vec<(u32, u32)>,
    counts: Vec<u32>,
    /// Per counted stratum: the end of its run in `cells` and its rows.
    strata: Vec<(u32, u32)>,
    /// Walk scratch for one stratum: each cell's marginal positions and
    /// the exact integer marginals.
    cell_m: Vec<(u32, u32)>,
    xm: Vec<u64>,
    ym: Vec<u64>,
}

impl SparseArena {
    /// Count `(x, y)` cells per stratum of `part`, reading rows through
    /// its CSR layout `rows`. CSR rows ascend within a stratum, so each
    /// stratum's cells are discovered in the order a global row sweep
    /// discovers them.
    pub fn fill<X: CodeValue, Y: CodeValue>(
        &mut self,
        x: &[X],
        y: &[Y],
        part: &ZPartition,
        rows: &StratumRows,
    ) {
        let n = x.len();
        assert_eq!(n, y.len(), "contingency: length mismatch");
        assert_eq!(n, part.stratum_of.len(), "contingency: partition mismatch");
        debug_assert_eq!(rows.n_strata(), part.n_strata, "CSR/partition mismatch");
        self.cells.clear();
        self.counts.clear();
        self.strata.clear();
        for (s, &size) in part.sizes.iter().enumerate() {
            if size == 1 {
                // A one-row stratum is one cell whose G and CMI terms are
                // exactly +0.0 (ln 1) and which adds no df. The running
                // sums are never -0.0, so skipping it changes no bit.
                continue;
            }
            let idx = rows.stratum(s);
            self.cell_ix.clear(idx.len());
            for &r in idx {
                let (xv, yv) = (x[r as usize].widen(), y[r as usize].widen());
                let next = self.cells.len() as u32;
                match self
                    .cell_ix
                    .get_or_insert(((xv as u64) << 32) | yv as u64, next)
                {
                    (_, true) => {
                        self.cells.push((xv, yv));
                        self.counts.push(1);
                    }
                    (c, false) => self.counts[c as usize] += 1,
                }
            }
            self.strata.push((self.cells.len() as u32, size as u32));
        }
    }

    /// Move every index's stamp to `stamp`, so tests can drive the
    /// wrap-around re-zeroing.
    #[cfg(test)]
    fn set_stamps(&mut self, stamp: u32) {
        for ix in [&mut self.cell_ix, &mut self.x_ix, &mut self.y_ix] {
            ix.stamp = stamp;
        }
    }
}

impl Walk for SparseArena {
    /// Marginals are exact integer sums over each stratum's finished
    /// cells, found through the stamped value indexes, so their order
    /// does not matter.
    fn walk(&mut self, mut term: impl FnMut(f64, f64, f64, f64)) -> usize {
        let mut df = 0usize;
        let mut start = 0usize;
        for &(end, total) in &self.strata {
            let end = end as usize;
            self.x_ix.clear(end - start);
            self.y_ix.clear(end - start);
            self.xm.clear();
            self.ym.clear();
            self.cell_m.clear();
            for (&(xv, yv), &count) in self.cells[start..end].iter().zip(&self.counts[start..end]) {
                let (xs, new_x) = self.x_ix.get_or_insert(xv as u64, self.xm.len() as u32);
                if new_x {
                    self.xm.push(0);
                }
                self.xm[xs as usize] += count as u64;
                let (ys, new_y) = self.y_ix.get_or_insert(yv as u64, self.ym.len() as u32);
                if new_y {
                    self.ym.push(0);
                }
                self.ym[ys as usize] += count as u64;
                self.cell_m.push((xs, ys));
            }
            let total = total as f64;
            for (&count, &(xs, ys)) in self.counts[start..end].iter().zip(&self.cell_m) {
                let nx = self.xm[xs as usize] as f64;
                let ny = self.ym[ys as usize] as f64;
                term(count as f64, total, nx, ny);
            }
            let (r, c) = (self.xm.len(), self.ym.len());
            if r > 1 && c > 1 {
                df += (r - 1) * (c - 1);
            }
            start = end;
        }
        df
    }
}

/// The counting arenas: the dense table for the cell spaces
/// [`dense_cell_space`] admits and the sparse arena for the rest. The
/// choice is a property of the input shape. One set serves every query
/// of a Z-group and every replicate of a permutation test; its [`Walk`]
/// walks whichever arena the last fill counted into.
#[derive(Default)]
pub(crate) struct Arenas {
    /// Holds the counts of the last dense fill, for retaining them.
    pub dense: DenseArena,
    margins: Margins,
    sparse: SparseArena,
    dense_filled: bool,
}

impl Arenas {
    /// Count `(x, y)` within the strata of `part`, and return the dense
    /// cells counted (`None` when the sparse arena ran).
    pub fn fill<X: CodeValue, Y: CodeValue>(
        &mut self,
        x: &[X],
        xa: usize,
        y: &[Y],
        ya: usize,
        (part, rows): &Scaffold,
    ) -> Option<usize> {
        let cells = dense_cell_space(x.len(), part.n_strata, xa, ya);
        match cells {
            Some(cells) => self.dense.fill(x, y, xa, ya, part, rows, cells),
            None => self.sparse.fill(x, y, part, rows),
        }
        self.dense_filled = cells.is_some();
        cells
    }
}

impl Walk for Arenas {
    fn walk(&mut self, term: impl FnMut(f64, f64, f64, f64)) -> usize {
        if self.dense_filled {
            self.dense.walk(&mut self.margins, term)
        } else {
            self.sparse.walk(term)
        }
    }
}

/// Cache key of a retained sufficient statistic: the canonical query
/// triple (sides via `canonical_sides`, conditioning set via
/// `canonical_set`) — the same quotient the engine's memo key uses, so a
/// session's patch loop can address tables by memoized query.
pub(crate) type SuffKey = (Vec<VarId>, Vec<VarId>, Vec<VarId>);

/// A discrete tester's retained sufficient statistics, keyed by query.
type SuffCache = CappedCache<SuffKey, Arc<SuffTable>>;

/// The retained sufficient statistic of one memoized discrete-tester
/// query: each stratum's run of counted cells in first-occurrence order
/// with their counts, the run offsets, the arities, and the rows and
/// sides it was counted over. It keeps no flat `stratum × xa × ya` table
/// and no copy of the stratum sizes: its walk reads those from the
/// partition it was counted or patched over. On dataset extension the
/// table is *patched* — only the appended rows are counted — instead of
/// refilled from scratch, which is what turns an appended re-select's
/// statistical work from O(workload·n) into O(batch).
///
/// Patching is exact: counts are integers (integer adds never round), an
/// appended row's cell is found among the runs of the strata the batch
/// touches, and appended rows are visited in ascending order, so a cell
/// first observed in the batch joins the end of its stratum's run exactly
/// where a cold fill over the concatenated rows would discover it. The
/// walk body is the arena's own ([`walk_runs`]), so a patched table's
/// statistics are bit-identical to a cold evaluation.
pub(crate) struct SuffTable {
    /// Side variable sets exactly as the statistic was evaluated — the
    /// spelling re-encoded against the extended table when patching.
    pub xset: Vec<VarId>,
    pub yset: Vec<VarId>,
    /// Rows counted so far.
    pub n_rows: usize,
    /// The arities the cells were counted at. Patching requires the
    /// extended encodings to keep them (a batch that introduces new
    /// category values changes the cell space — the table must be
    /// rebuilt, not patched).
    pub xa: usize,
    pub ya: usize,
    /// Stratum `s`'s cells are `cells[offsets[s]..offsets[s + 1]]`, with
    /// their counts at the same positions of `counts`.
    cells: Vec<(u32, u32)>,
    counts: Vec<u32>,
    offsets: Vec<u32>,
}

impl SuffTable {
    /// Retain the cells the dense arena just counted (a walk leaves them
    /// intact) as the statistic of sides `xset` and `yset` over `n_rows`
    /// rows: its runs of cells and offsets, and each cell's count read out
    /// of the flat table.
    fn counted(arena: &DenseArena, xset: Vec<VarId>, yset: Vec<VarId>, n_rows: usize) -> Self {
        let mut counts = Vec::with_capacity(arena.cells.len());
        for (s, ends) in arena.offsets.windows(2).enumerate() {
            let run = &arena.cells[ends[0] as usize..ends[1] as usize];
            counts.extend(run.iter().map(|&cell| arena.count(s, cell)));
        }
        SuffTable {
            xset,
            yset,
            n_rows,
            xa: arena.xa,
            ya: arena.ya,
            cells: arena.cells.clone(),
            counts,
            offsets: arena.offsets.clone(),
        }
    }

    /// Number of strata counted.
    fn n_strata(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Positions of stratum `s`'s cells.
    fn run(&self, s: usize) -> std::ops::Range<usize> {
        self.offsets[s] as usize..self.offsets[s + 1] as usize
    }

    /// Count only the appended rows `self.n_rows..` of the extended codes
    /// into a new table, against the extended partition (whose prefix
    /// numbering equals the partition this table was counted over —
    /// [`extend_scaffold`] guarantees it). The cells of the runs the batch
    /// touches are indexed by flat cell `(s·xa + x)·ya + y`, each appended
    /// row bumps its cell's count or opens a cell, the runs are copied,
    /// and the cells first seen in the batch follow at the end of their
    /// stratum's run in row order.
    pub fn patch<X: CodeValue, Y: CodeValue>(
        &self,
        x: &[X],
        y: &[Y],
        part: &ZPartition,
    ) -> SuffTable {
        let n = x.len();
        debug_assert_eq!(n, y.len(), "suff patch: length mismatch");
        debug_assert_eq!(n, part.stratum_of.len(), "suff patch: partition mismatch");
        debug_assert!(part.n_strata >= self.n_strata(), "strata cannot shrink");
        debug_assert!(self.n_rows <= n, "rows cannot shrink");
        let batch = &part.stratum_of[self.n_rows..n];
        let (xa, ya) = (self.xa as u64, self.ya as u64);
        let flat = |s: u32, (xv, yv): (u32, u32)| (s as u64 * xa + xv as u64) * ya + yv as u64;
        let mut touched = vec![false; self.n_strata()];
        let mut keys = batch.len();
        for &s in batch {
            if let Some(seen) = touched.get_mut(s as usize).filter(|seen| !**seen) {
                *seen = true;
                keys += self.run(s as usize).len();
            }
        }
        let mut index = StampedIndex::default();
        index.clear(keys);
        for s in (0..touched.len()).filter(|&s| touched[s]) {
            for i in self.run(s) {
                index.get_or_insert(flat(s as u32, self.cells[i]), i as u32);
            }
        }
        // A cell first seen in the batch takes the next position past the
        // old cells; `fresh` lists it under its stratum, in row order.
        let mut counts = self.counts.clone();
        let (mut fresh, mut fresh_counts) = (Vec::new(), Vec::new());
        for (r, &s) in (self.n_rows..n).zip(batch) {
            let cell = (x[r].widen(), y[r].widen());
            let next = (counts.len() + fresh.len()) as u32;
            match index.get_or_insert(flat(s, cell), next) {
                (_, true) => {
                    fresh.push((s, cell));
                    fresh_counts.push((s, 1));
                }
                (i, false) => match (i as usize).checked_sub(counts.len()) {
                    Some(f) => fresh_counts[f].1 += 1,
                    None => counts[i as usize] += 1,
                },
            }
        }
        let (offsets, cells) = append_to_runs(&self.offsets, &self.cells, fresh, part.n_strata);
        let (_, counts) = append_to_runs(&self.offsets, &counts, fresh_counts, part.n_strata);
        SuffTable {
            xset: self.xset.clone(),
            yset: self.yset.clone(),
            n_rows: n,
            xa: self.xa,
            ya: self.ya,
            cells,
            counts,
            offsets,
        }
    }
}

/// A retained table walks against the partition it was counted or patched
/// over, which holds its strata's rows, with `xa + ya` slots of fresh
/// marginal scratch per walk.
impl Walk for (&SuffTable, &ZPartition) {
    fn walk(&mut self, term: impl FnMut(f64, f64, f64, f64)) -> usize {
        let (t, part) = *self;
        debug_assert_eq!(t.n_strata(), part.n_strata, "table/partition mismatch");
        debug_assert_eq!(t.n_rows, part.stratum_of.len(), "table/partition mismatch");
        walk_runs(
            &mut Margins::default(),
            (t.xa, t.ya),
            (&t.offsets, &t.cells),
            &part.sizes,
            |_, i| t.counts[i],
            term,
        )
    }
}

/// A conditioning set's evaluation scaffold: the stratification and its
/// CSR row layout (the arena fills iterate the CSR rows).
pub(crate) type Scaffold = (ZPartition, StratumRows);

/// A discrete tester's conditioning scaffolds, keyed by canonical set.
type ScaffoldCache = CappedCache<Vec<VarId>, Arc<Scaffold>>;

/// What the discrete testers keep besides their configuration: the shared
/// encoding layer, the conditioning scaffolds, the retained tables and the
/// counters. Each tester's one evaluation body runs through
/// [`DiscreteState::eval_group`], and each patched answer starts from
/// [`DiscreteState::retained`].
pub(crate) struct DiscreteState {
    pub enc: Arc<EncodedTable>,
    /// Queries short-circuited on all-singleton conditioning strata.
    degenerate: AtomicU64,
    /// Cells zeroed and filled by the dense arena (telemetry:
    /// `dense_count_cells`).
    dense_cells: AtomicU64,
    /// Memoized conditioning-set scaffolds (partition + CSR stratum rows),
    /// keyed by the canonical (sorted, deduplicated) set and bounded like
    /// every other data-path cache, so concurrent chunks of one Z-group
    /// (and later levels re-using the set) share one stratification.
    partitions: ScaffoldCache,
    /// Retained sufficient statistics, keyed by the canonical query
    /// triple: the tables counted since birth and the parent tables
    /// patched on demand ([`DiscreteState::retained`]), so a re-derived
    /// query's observed statistic costs O(batch) counting instead of O(n).
    suff: SuffCache,
    /// The parent tester's retained tables at birth, held weakly and taken
    /// on first ask: a table no memo key reads is never copied, and an
    /// evicted parent's tables are freed rather than kept alive here.
    // analyze: bounded-by the parent's table cache at birth, itself capped; filled once by `extended_from`, entries only removed afterwards
    parent_suff: Mutex<HashMap<SuffKey, Weak<SuffTable>>>,
    /// Scaffolds carried over (and extended) from a parent tester — the
    /// `extended` side of the scaffold conservation ledger.
    extended_scaffolds: u64,
}

impl DiscreteState {
    pub fn over(enc: Arc<EncodedTable>) -> DiscreteState {
        let cap = enc.cache_cap();
        DiscreteState {
            enc,
            degenerate: AtomicU64::new(0),
            dense_cells: AtomicU64::new(0),
            partitions: CappedCache::new(cap),
            suff: CappedCache::new(cap),
            parent_suff: Mutex::default(),
            extended_scaffolds: 0,
        }
    }

    /// The state a tester over the extended encoding layer `enc` starts
    /// from: every resident scaffold of `parent` is extended over the
    /// appended rows ([`extend_scaffold`]), visited in sorted key order.
    /// No retained table is patched here: the child holds weak handles to
    /// the parent's tables, and [`DiscreteState::retained`] patches one
    /// the first time its query is asked for, while the caller still
    /// holds the parent. Counters start fresh, as a cold tester's.
    pub fn extended_from(parent: &DiscreteState, enc: Arc<EncodedTable>) -> DiscreteState {
        let mut child = DiscreteState::over(enc);
        let mut scaffolds = parent.partitions.snapshot();
        scaffolds.sort_by(|a, b| a.0.cmp(&b.0));
        child.extended_scaffolds = scaffolds.len() as u64;
        for (zkey, sc) in scaffolds {
            let ze = child.enc.encode(&zkey);
            child
                .partitions
                .insert_transferred(zkey, Arc::new(extend_scaffold(&sc, &ze)));
        }
        let tables = parent.suff.snapshot().into_iter();
        let weak = tables.map(|(k, t)| (k, Arc::downgrade(&t)));
        child.parent_suff = Mutex::new(weak.collect());
        child
    }

    /// Verify the preconditions that make O(batch) patching exact against
    /// this extended state, then patch the retained table with only the
    /// appended rows ([`SuffTable::patch`]). `None` means the table cannot
    /// be patched — its query must be re-evaluated from scratch:
    ///
    /// - the table must cover exactly the parent rows (`enc.base_rows()`);
    /// - both side encodings must be provably *prefix-stable* under the
    ///   append (the retained counts index cells by the parent's codes — a
    ///   renumbered extension would scatter them differently);
    /// - the conditioning scaffold must be resident (probed with `peek`,
    ///   leaving the hit/miss ledger untouched);
    /// - the side arities must be unchanged (a batch introducing new
    ///   category values changes the cell space);
    /// - the cell space must still be dense at the new row count (a
    ///   resource bound: patching is exact either way, but the
    ///   retained-table budget tracks the dense arena's).
    fn patch(&self, zkey: &[VarId], t: &SuffTable) -> Option<SuffTable> {
        let enc = &self.enc;
        if t.n_rows != enc.base_rows() {
            return None;
        }
        if !enc.prefix_stable(&t.xset) || !enc.prefix_stable(&t.yset) {
            return None;
        }
        let sc = self.partitions.peek(zkey)?;
        let part = &sc.0;
        let (xe, ye) = (enc.encode(&t.xset), enc.encode(&t.yset));
        let (xa, ya) = (t.xa, t.ya);
        if (arity(&xe), arity(&ye)) != (xa, ya) {
            return None;
        }
        dense_cell_space(enc.n_rows(), part.n_strata, xa, ya)?;
        Some(with_codes!(&xe.codes, |xc| with_codes!(&ye.codes, |yc| {
            t.patch(xc, yc, part)
        })))
    }

    /// Queries short-circuited on all-singleton conditioning strata.
    pub fn degenerate(&self) -> u64 {
        self.degenerate.load(Ordering::Relaxed)
    }

    /// Book cells the dense arena counted.
    pub fn dense_counted(&self, cells: usize) {
        self.dense_cells.fetch_add(cells as u64, Ordering::Relaxed);
    }

    /// Evaluate a Z-group. Empty sides decide independence; a
    /// conditioning set that gives every row its own stratum leaves no
    /// stratum informative, so its queries answer p = 1 without
    /// contingency work or randomness; every other query runs `eval`
    /// against the group's scaffold (built lazily, so a group of
    /// empty-sided queries never encodes) with one set of arenas.
    pub fn eval_group(
        &self,
        z: &[VarId],
        queries: &[CiQueryRef<'_>],
        mut eval: impl FnMut(&CiQueryRef<'_>, &[VarId], &Scaffold, &mut Arenas) -> CiOutcome,
    ) -> Vec<CiOutcome> {
        let zkey = crate::canonical_set(z);
        let mut scaffold: Option<Option<Arc<Scaffold>>> = None;
        let mut arenas = Arenas::default();
        queries
            .iter()
            .map(|q| {
                if q.x.is_empty() || q.y.is_empty() {
                    return CiOutcome::decided(true);
                }
                match scaffold.get_or_insert_with(|| self.z_scaffold(&zkey)) {
                    Some(sc) => eval(q, &zkey, sc, &mut arenas),
                    None => {
                        self.degenerate.fetch_add(1, Ordering::Relaxed);
                        CiOutcome::decided(true)
                    }
                }
            })
            .collect()
    }

    /// The scaffold of the canonical conditioning set `zkey`, memoized and
    /// built once even when several workers miss it together, or `None`
    /// when every row is its own stratum.
    fn z_scaffold(&self, zkey: &[VarId]) -> Option<Arc<Scaffold>> {
        let ze = self.enc.encode(zkey);
        if ze.all_singletons() {
            return None;
        }
        Some(self.partitions.get_or_build(zkey, || {
            let part = ZPartition::from_encoding(&ze);
            let rows = StratumRows::from_partition(&part);
            Arc::new((part, rows))
        }))
    }

    /// Retain the dense arena's just-filled cells (a walk leaves them
    /// intact) as the sufficient statistic of the query with sides `x`,
    /// `y` and canonical conditioning set `zkey`, unless one is resident,
    /// so the next dataset extension can patch them with only the
    /// appended rows instead of recounting from scratch.
    pub fn retain(&self, x: &[VarId], y: &[VarId], zkey: &[VarId], arena: &DenseArena) {
        let (xs, ys) = crate::canonical_sides(x, y);
        let key = (xs, ys, zkey.to_vec());
        if self.suff.peek(&key).is_none() {
            let t = SuffTable::counted(arena, x.to_vec(), y.to_vec(), self.enc.n_rows());
            self.suff.insert(key, Arc::new(t));
        }
    }

    /// What a patched answer starts from: the query's canonical key, its
    /// retained table counted over every row, and the scaffold the table
    /// walks against. A table not counted here is the parent's, patched
    /// now the first time its query is asked for ([`DiscreteState::patch`];
    /// the parent's table is dropped from the weak map either way). Without
    /// one, `Err` carries the answer: empty sides decide independence; a
    /// retained table was counted on a conditioning set that was not all
    /// singletons, and extended rows keep its strata, so only a query
    /// without one can be degenerate now, answered as a cold evaluation
    /// answers it (the counter is not bumped: a patched answer does no
    /// contingency work to skip); anything else (`None`) goes to the
    /// invalidate path.
    pub fn retained(
        &self,
        x: &[VarId],
        y: &[VarId],
        z: &[VarId],
    ) -> Result<(SuffKey, Arc<SuffTable>, Arc<Scaffold>), Option<CiOutcome>> {
        if x.is_empty() || y.is_empty() {
            return Err(Some(CiOutcome::decided(true)));
        }
        let (xs, ys) = crate::canonical_sides(x, y);
        let key = (xs, ys, crate::canonical_set(z));
        let table = self.suff.peek(&key).or_else(|| self.patch_parent(&key));
        match table {
            Some(t) if t.n_rows == self.enc.n_rows() => {
                let sc = self.partitions.peek(&key.2).ok_or(None)?;
                Ok((key, t, sc))
            }
            Some(_) => Err(None),
            None => Err(self
                .enc
                .encode(&key.2)
                .all_singletons()
                .then(|| CiOutcome::decided(true))),
        }
    }

    /// The table retained under `key`, if resident, so tests can follow
    /// a table's life.
    #[cfg(test)]
    pub fn resident_table(&self, key: &SuffKey) -> Option<Arc<SuffTable>> {
        self.suff.peek(key)
    }

    /// Take the parent's table for `key` off the weak map and, while the
    /// parent still holds it and the patch preconditions hold, patch it
    /// and keep the result.
    fn patch_parent(&self, key: &SuffKey) -> Option<Arc<SuffTable>> {
        let parent = self.parent_suff.lock().expect("parent tables").remove(key);
        let table = parent?.upgrade()?;
        let patched = self.patch(&key.2, &table)?;
        Some(self.suff.insert_transferred(key.clone(), Arc::new(patched)))
    }

    /// The scaffold ledger: `extended` scaffolds were carried over from a
    /// parent tester, every other insert was rebuilt.
    pub fn scaffold_stats(&self) -> crate::ScaffoldStats {
        crate::ScaffoldStats {
            extended: self.extended_scaffolds,
            rebuilt: self
                .partitions
                .inserted()
                .saturating_sub(self.extended_scaffolds),
            resident: self.partitions.len() as u64,
            evictions: self.partitions.evictions(),
            suff_tables: self.suff.len() as u64,
            suff_evictions: self.suff.evictions(),
        }
    }

    /// The encode counters: the shared encoding layer's, the scaffold
    /// cache's, and the cells the dense arena counted.
    pub fn encode_cache_stats(&self) -> crate::EncodeStats {
        self.enc
            .stats()
            .merged(self.partitions.stats())
            .merged(crate::EncodeStats {
                dense_count_cells: self.dense_cells.load(Ordering::Relaxed),
                ..crate::EncodeStats::default()
            })
    }
}

/// The flat-layout arity of an encoding (an empty code space lays out as
/// one value).
pub(crate) fn arity(e: &Encoding) -> usize {
    e.arity.max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtest::finish_g;
    use crate::kernel_reference::{cmi_from_strata, g_and_df, g_from_strata, Strata};

    /// A retained table over `n_rows` holding the arena's filled cells.
    fn retained(arena: &DenseArena, n_rows: usize) -> SuffTable {
        SuffTable::counted(arena, Vec::new(), Vec::new(), n_rows)
    }

    /// A retained table's cells, each with its count.
    type Counted = Vec<((u32, u32), u32)>;

    /// A retained table's layout: its cells with their counts, and its
    /// run offsets.
    fn layout(t: &SuffTable) -> (Counted, &[u32]) {
        let cells = t.cells.iter().copied().zip(t.counts.iter().copied());
        (cells.collect(), &t.offsets)
    }

    /// The G statistic, df and CMI of a walk over `n` rows, as bits.
    fn stat_bits(cells: &mut impl Walk, n: usize) -> (u64, usize, u64) {
        let (g, df) = g_stat(cells);
        (g.to_bits(), df, cmi_stat(cells, n).to_bits())
    }

    #[test]
    fn counts_in_first_occurrence_order() {
        let x = [1u32, 0, 1, 1];
        let y = [0u32, 0, 0, 1];
        let z = [7u32, 3, 7, 3];
        let part = ZPartition::from_codes(&z);
        let rows = StratumRows::from_partition(&part);
        let mut arena = DenseArena::default();
        arena.fill(&x, &y, 2, 2, &part, &rows, part.n_strata * 4);
        // Stratum of z=7 first (row 0), then z=3 (row 1), each stratum's
        // cells flat in the order its rows first meet them.
        assert_eq!(arena.totals, [2, 2]);
        assert_eq!(arena.offsets, [0, 1, 3]);
        assert_eq!(arena.cells, [(1, 0), (0, 0), (1, 1)]);
        assert_eq!(arena.counts, [0, 0, 2, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn empty_input_is_empty() {
        let part = ZPartition::from_codes::<u32>(&[]);
        assert_eq!(part.n_strata, 0);
        let rows = StratumRows::from_partition(&part);
        let mut arenas = Arenas::default();
        assert_eq!(
            arenas.fill::<u32, u32>(&[], 1, &[], 1, &(part, rows)),
            Some(0)
        );
        assert_eq!(stat_bits(&mut arenas, 0), (0, 0, 0));
        assert_eq!(crate::cmi::cmi_from_codes(&[], &[], &[]).to_bits(), 0);
    }

    /// Counting within a partition — the CSR stratum rows walked by the
    /// dense arena — gives the cells, counts, marginals and totals that
    /// `Strata::count` gives over the same `z` codes, in the same order.
    #[test]
    fn count_within_matches_count() {
        // Irregular codes with repeats and a stratum of size one.
        let x = [1u32, 0, 1, 1, 2, 0, 1, 2];
        let y = [0u32, 0, 0, 1, 1, 2, 0, 1];
        let z = [7u32, 3, 7, 3, 9, 7, 3, 7];
        let part = ZPartition::from_codes(&z);
        assert_eq!(part.n_strata, 3);
        let csr = StratumRows::from_partition(&part);
        assert_eq!(csr.n_strata(), 3);
        assert_eq!(csr.stratum(0), &[0, 2, 5, 7]); // stratum of z=7 first
        assert_eq!(csr.stratum(1), &[1, 3, 6]);
        assert_eq!(csr.stratum(2), &[4]);
        let (xa, ya) = (3usize, 3usize);
        let cells = dense_cell_space(x.len(), part.n_strata, xa, ya).unwrap();
        let mut arena = DenseArena::default();
        arena.fill(&x, &y, xa, ya, &part, &csr, cells);
        let hashed = Strata::count(&x, &y, &z);
        assert_eq!(hashed.strata.len(), part.n_strata);
        for (s, sa) in hashed.strata.iter().enumerate() {
            let run = &arena.cells[arena.offsets[s] as usize..arena.offsets[s + 1] as usize];
            let within: Vec<((u32, u32), f64)> = run
                .iter()
                .map(|&cell| (cell, arena.count(s, cell) as f64))
                .collect();
            assert_eq!(sa.cells, within);
            assert_eq!(sa.total, arena.totals[s] as f64);
            let mut xm: HashMap<u32, f64> = HashMap::new();
            let mut ym: HashMap<u32, f64> = HashMap::new();
            for &((xv, yv), n) in &within {
                *xm.entry(xv).or_default() += n;
                *ym.entry(yv).or_default() += n;
            }
            assert_eq!(sa.xm, xm);
            assert_eq!(sa.ym, ym);
        }
    }

    /// The dense arena counts u8/u16 codes exactly as it counts u32
    /// codes: the same cell order, and G, df and CMI bit for bit.
    #[test]
    fn narrow_widths_count_identically() {
        /// The cells and their offsets, then the G bits, df and CMI bits.
        type Walks = (Vec<(u32, u32)>, Vec<u32>, (u64, usize, u64));
        fn walks<X: CodeValue, Y: CodeValue>(x: &[X], y: &[Y], sc: &Scaffold) -> Walks {
            let mut arenas = Arenas::default();
            assert!(arenas.fill(x, 3, y, 3, sc).is_some(), "dense");
            let d = &arenas.dense;
            let layout = (d.cells.clone(), d.offsets.clone());
            (layout.0, layout.1, stat_bits(&mut arenas, x.len()))
        }
        // Irregular codes with repeats and a stratum of size one.
        let x8 = [1u8, 0, 1, 1, 2, 0, 1, 2];
        let x32: Vec<u32> = x8.iter().map(|&v| v as u32).collect();
        let y16 = [0u16, 0, 0, 1, 1, 2, 0, 1];
        let y32: Vec<u32> = y16.iter().map(|&v| v as u32).collect();
        let z = [7u32, 3, 7, 3, 9, 7, 3, 7];
        let part = ZPartition::from_codes(&z);
        let csr = StratumRows::from_partition(&part);
        let sc = (part, csr);
        let narrow = walks(&x8, &y16, &sc);
        let wide = walks(x32.as_slice(), y32.as_slice(), &sc);
        assert_eq!(narrow, wide);
    }

    #[test]
    fn dense_bounded_partition_matches_hashed() {
        // from_encoding's flat-array numbering must equal the hashed
        // first-occurrence numbering.
        let codes = [5u32, 2, 5, 9, 2, 0, 9, 5];
        let enc = Encoding::new(fairsel_table::Codes::from_slice(&codes, 10), 10);
        let dense = ZPartition::from_encoding(&enc);
        let hashed = ZPartition::from_codes(&codes);
        assert_eq!(dense.stratum_of, hashed.stratum_of);
        assert_eq!(dense.n_strata, hashed.n_strata);
    }

    #[test]
    fn extend_matches_cold_partition_past_width_boundary() {
        // Parent: 300 rows over 200 distinct codes. Child appends 200
        // rows introducing 100 fresh codes, pushing n_strata past the
        // u8 boundary to 300 — every field must match a cold build bit
        // for bit (numbering, stratum count, sizes).
        let parent_codes: Vec<u32> = (0..300).map(|i| (i % 200) as u32).collect();
        let mut child_codes = parent_codes.clone();
        child_codes.extend((0..200).map(|i| 1000 + (i % 100) as u32));
        let parent = ZPartition::from_codes(&parent_codes);
        assert_eq!(parent.n_strata, 200);
        let parent_rows = StratumRows::from_partition(&parent);
        let child_ze = Encoding::new(fairsel_table::Codes::from_slice(&child_codes, 2000), 2000);
        let (ext, ext_rows) = extend_scaffold(&(parent, parent_rows), &child_ze);
        let cold = ZPartition::from_encoding(&child_ze);
        let cold_rows = StratumRows::from_partition(&cold);
        assert_eq!(ext.stratum_of, cold.stratum_of);
        assert_eq!(ext.n_strata, cold.n_strata);
        assert_eq!(ext.sizes, cold.sizes);
        assert_eq!(ext_rows.offsets, cold_rows.offsets);
        assert_eq!(ext_rows.rows, cold_rows.rows);
    }

    #[test]
    fn arena_walks_match_hashed_statistics() {
        // The dense arena's G and CMI walks must be bit-identical to the
        // hashed reference on irregular data.
        let x = [1u32, 0, 1, 1, 2, 0, 1, 2, 0, 1];
        let y = [0u32, 0, 0, 1, 1, 2, 0, 1, 2, 2];
        let z = [7u32, 3, 7, 3, 9, 7, 3, 7, 9, 3];
        let part = ZPartition::from_codes(&z);
        let rows = StratumRows::from_partition(&part);
        let mut arenas = Arenas::default();
        assert!(arenas.fill(&x, 3, &y, 3, &(part, rows)).is_some(), "dense");
        let (g_dense, df_dense) = g_stat(&mut arenas);
        let hashed = Strata::count(&x, &y, &z);
        let (g, df) = g_and_df(&hashed);
        assert_eq!(g_dense.to_bits(), g.to_bits());
        assert_eq!(df_dense, df);
        let finished = finish_g((g_dense, df_dense));
        assert_eq!(finished, g_from_strata(&hashed));
        // A walk leaves the counts intact: walk again for the CMI.
        let cmi_dense = cmi_stat(&mut arenas, x.len());
        let cmi = cmi_from_strata(&hashed, x.len());
        assert_eq!(cmi_dense.to_bits(), cmi.to_bits());
    }

    /// Patching a retained sufficient table with only the appended rows —
    /// new cells and a brand-new stratum included — reproduces the table a
    /// cold fill over the concatenated rows retains, cell for cell with
    /// counts and offsets, and its statistic walks come out bit-identical
    /// to the cold arena walks and to the hashed reference.
    #[test]
    fn suff_patch_matches_cold_fill_and_walks() {
        let x = [1u32, 0, 1, 1, 2, 0, 1, 2, 0, 1, 2, 2, 0, 1];
        let y = [0u32, 0, 0, 1, 1, 2, 0, 1, 2, 2, 0, 2, 1, 1];
        // Appended suffix (last 5 rows) introduces the fresh stratum z=4
        // and revisits existing strata with previously unseen cells.
        let z = [7u32, 3, 7, 3, 9, 7, 3, 7, 9, 3, 4, 4, 7, 9];
        let n_parent = 9;
        let (xa, ya) = (3usize, 3usize);

        let parent_part = ZPartition::from_codes(&z[..n_parent]);
        let parent_rows = StratumRows::from_partition(&parent_part);
        let cells = dense_cell_space(n_parent, parent_part.n_strata, xa, ya).unwrap();
        let mut arena = DenseArena::default();
        arena.fill(
            &x[..n_parent],
            &y[..n_parent],
            xa,
            ya,
            &parent_part,
            &parent_rows,
            cells,
        );
        let snap = retained(&arena, n_parent);

        // First-occurrence numbering over the full rows extends the
        // parent numbering (prefix rows are the parent rows).
        let full_part = ZPartition::from_codes(&z);
        let full_rows = StratumRows::from_partition(&full_part);
        let patched = snap.patch(&x[..], &y[..], &full_part);
        assert_eq!(patched.n_rows, x.len());
        assert_eq!(patched.n_strata(), full_part.n_strata);

        let mut arenas = Arenas::default();
        let full = (full_part, full_rows);
        assert!(arenas.fill(&x, xa, &y, ya, &full).is_some(), "dense");
        let cold = retained(&arenas.dense, x.len());
        assert_eq!(
            layout(&patched),
            layout(&cold),
            "cells, counts and walk order"
        );
        let patched_bits = stat_bits(&mut (&patched, &full.0), x.len());
        assert_eq!(patched_bits, stat_bits(&mut arenas, x.len()));
        let hashed = Strata::count(&x, &y, &z);
        let (g, df) = g_and_df(&hashed);
        let cmi = cmi_from_strata(&hashed, x.len());
        assert_eq!(patched_bits, (g.to_bits(), df, cmi.to_bits()));
        // An empty patch (no appended rows) is the identity.
        let noop = patched.patch(&x[..], &y[..], &full.0);
        assert_eq!(layout(&noop), layout(&patched));
    }

    /// The sparse arena's G, df, p and CMI, bit for bit against the hashed
    /// count followed by `g_from_strata` / `cmi_from_strata`, over 1,000
    /// random shapes the dense budget rejects: many tiny strata, mostly
    /// one-row strata, a few huge strata, and a single stratum, at
    /// arities up to 5,000 and every pairing of u8/u16/u32 code widths.
    /// One arena serves every shape in random order, and its stamps are
    /// driven across the 32-bit wrap-around several times.
    #[test]
    fn sparse_arena_matches_hashed_on_random_sparse_shapes() {
        use fairsel_table::Codes;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn sparse_stats<X: CodeValue, Y: CodeValue>(
            arena: &mut SparseArena,
            x: &[X],
            y: &[Y],
            part: &ZPartition,
            rows: &StratumRows,
        ) -> (f64, usize, f64) {
            arena.fill(x, y, part, rows);
            let (g, df) = g_stat(arena);
            (g, df, cmi_stat(arena, x.len()))
        }
        let stored = |codes: &[u32], width: usize| match width {
            0 => Codes::U8(codes.iter().map(|&c| c as u8).collect()),
            1 => Codes::U16(codes.iter().map(|&c| c as u16).collect()),
            _ => Codes::U32(codes.to_vec()),
        };

        let mut rng = StdRng::seed_from_u64(0x5ba75e);
        let mut arena = SparseArena::default();
        let mut kinds = [0usize; 4];
        let mut pairings = [[0usize; 3]; 3];
        let mut wraps = 0;
        let mut checked = 0;
        while checked < 1000 {
            let n: usize = rng.gen_range(1..=1200);
            let kind = rng.gen_range(0..4);
            let z: Vec<u32> = match kind {
                0 => {
                    let span = (n as u32 * 3 / 4).max(1);
                    (0..n).map(|_| rng.gen_range(0..span)).collect()
                }
                1 => (0..n as u32)
                    .map(|i| {
                        if i % 8 < 3 {
                            rng.gen_range(0..40)
                        } else {
                            1000 + i
                        }
                    })
                    .collect(),
                2 => {
                    let k = rng.gen_range(2..=4);
                    (0..n).map(|_| rng.gen_range(0..k)).collect()
                }
                _ => vec![7; n],
            };
            let (xw, yw) = (rng.gen_range(0..3), rng.gen_range(0..3));
            let max_arity = |w: usize| if w == 0 { 256 } else { 5000 };
            let xa: u32 = rng.gen_range(1..=max_arity(xw));
            let ya: u32 = rng.gen_range(1..=max_arity(yw));
            let part = ZPartition::from_codes(z.as_slice());
            if dense_cell_space(n, part.n_strata, xa as usize, ya as usize).is_some() {
                continue;
            }
            let rows = StratumRows::from_partition(&part);
            let x: Vec<u32> = (0..n).map(|_| rng.gen_range(0..xa)).collect();
            let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..ya)).collect();
            if checked % 200 == 100 {
                // The next generation or two wrap the stamps to zero.
                arena.set_stamps(u32::MAX - rng.gen_range(0..2u32));
                wraps += 1;
            }
            let (xc, yc) = (stored(&x, xw), stored(&y, yw));
            let (g, df, cmi) = with_codes!(&xc, |xs| with_codes!(&yc, |ys| {
                sparse_stats(&mut arena, xs, ys, &part, &rows)
            }));

            let hashed = Strata::count(&x, &y, &z);
            let (g_ref, df_ref) = g_and_df(&hashed);
            let label = format!(
                "shape {checked}: kind {kind}, n {n}, {} strata, arities ({xa}, {ya}), widths ({xw}, {yw})",
                part.n_strata
            );
            assert_eq!(g.to_bits(), g_ref.to_bits(), "G, {label}");
            assert_eq!(df, df_ref, "df, {label}");
            let (gf, p) = finish_g((g, df));
            let (gf_ref, p_ref) = g_from_strata(&hashed);
            assert_eq!(gf.to_bits(), gf_ref.to_bits(), "finished G, {label}");
            assert_eq!(p.to_bits(), p_ref.to_bits(), "p, {label}");
            let cmi_ref = cmi_from_strata(&hashed, n);
            assert_eq!(cmi.to_bits(), cmi_ref.to_bits(), "CMI, {label}");
            kinds[kind] += 1;
            pairings[xw][yw] += 1;
            checked += 1;
        }
        assert!(kinds.iter().all(|&k| k > 0), "shape kinds {kinds:?}");
        assert!(
            pairings.iter().flatten().all(|&k| k > 0),
            "width pairings {pairings:?}"
        );
        assert!(wraps >= 2, "stamp wrap-arounds {wraps}");
    }

    /// Code storage of `codes` at width `w` (0: u8, 1: u16, 2: u32).
    fn stored_at(codes: &[u32], w: usize) -> fairsel_table::Codes {
        use fairsel_table::Codes;
        match w {
            0 => Codes::U8(codes.iter().map(|&c| c as u8).collect()),
            1 => Codes::U16(codes.iter().map(|&c| c as u16).collect()),
            _ => Codes::U32(codes.to_vec()),
        }
    }

    /// The row-replay extension that [`extend_scaffold`] replaced, kept as
    /// its reference: every parent row re-indexed through a hash map, new
    /// strata numbered from the parent's count on.
    fn replay_extend(parent: &ZPartition, z: &[u32]) -> ZPartition {
        let n_parent = parent.stratum_of.len();
        let mut index: HashMap<u32, u32> = HashMap::new();
        for (i, &zv) in z[..n_parent].iter().enumerate() {
            index.entry(zv).or_insert(parent.stratum_of[i]);
        }
        let mut stratum_of = parent.stratum_of.clone();
        let mut n_strata = parent.n_strata as u32;
        for &zv in &z[n_parent..] {
            let s = *index.entry(zv).or_insert_with(|| {
                n_strata += 1;
                n_strata - 1
            });
            stratum_of.push(s);
        }
        ZPartition::from_stratum_of(stratum_of, n_strata as usize)
    }

    fn assert_same_scaffold(
        (a, a_rows): &(ZPartition, StratumRows),
        (b, b_rows): &(ZPartition, StratumRows),
        label: &str,
    ) {
        assert_eq!(a.stratum_of, b.stratum_of, "stratum_of, {label}");
        assert_eq!(a.n_strata, b.n_strata, "n_strata, {label}");
        assert_eq!(a.sizes, b.sizes, "sizes, {label}");
        assert_eq!(a_rows.offsets, b_rows.offsets, "CSR offsets, {label}");
        assert_eq!(a_rows.rows, b_rows.rows, "CSR rows, {label}");
    }

    /// The scaffold extension equals the row-replay reference followed by
    /// a full CSR rebuild, and a cold build on the child codes, over 1,000
    /// random shapes: batches that open new strata, zero-row batches, a
    /// single stratum, mostly one-row strata, arities up to 5,000, every
    /// code width, and parents whose codes represent the same strata
    /// differently from the child's.
    #[test]
    fn extend_scaffold_matches_replay_reference_on_random_shapes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xe57e);
        let mut kinds = [0usize; 4];
        let mut widths = [0usize; 3];
        let (mut empty_batches, mut opened, mut recoded) = (0, 0, 0);
        for shape in 0..1000 {
            let n_parent = rng.gen_range(1..=600);
            let batch = if shape % 10 == 0 {
                0
            } else {
                rng.gen_range(1..=300)
            };
            let n = n_parent + batch;
            let width = rng.gen_range(0..3);
            let arity: u32 = rng.gen_range(1..=if width == 0 { 256 } else { 5000 });
            let kind = rng.gen_range(0..4);
            let z: Vec<u32> = match kind {
                // The parent sees half the code space; the batch all of it.
                0 => (0..n)
                    .map(|i| {
                        let span = if i < n_parent {
                            arity.div_ceil(2)
                        } else {
                            arity
                        };
                        rng.gen_range(0..span)
                    })
                    .collect(),
                1 => vec![arity - 1; n],
                2 => (0..n).map(|_| rng.gen_range(0..arity)).collect(),
                _ => {
                    let k = rng.gen_range(1..=arity.min(8));
                    (0..n).map(|_| rng.gen_range(0..k)).collect()
                }
            };
            let parent_codes: Vec<u32> = if rng.gen_bool(0.5) {
                recoded += 1;
                z[..n_parent].iter().map(|&c| arity - 1 - c).collect()
            } else {
                z[..n_parent].to_vec()
            };
            let parent =
                ZPartition::from_encoding(&Encoding::new(stored_at(&parent_codes, width), arity));
            let parent_rows = StratumRows::from_partition(&parent);
            let replayed = replay_extend(&parent, &z);
            let reference = {
                let rows = StratumRows::from_partition(&replayed);
                (replayed, rows)
            };
            let child_ze = Encoding::new(stored_at(&z, width), arity);
            let cold = ZPartition::from_encoding(&child_ze);
            let cold = {
                let rows = StratumRows::from_partition(&cold);
                (cold, rows)
            };
            let parent_strata = parent.n_strata;
            let extended = extend_scaffold(&(parent, parent_rows), &child_ze);
            let label = format!(
                "shape {shape}: kind {kind}, {n_parent} + {batch} rows, arity {arity}, width {width}"
            );
            assert_same_scaffold(&extended, &reference, &format!("reference, {label}"));
            assert_same_scaffold(&extended, &cold, &format!("cold, {label}"));
            kinds[kind] += 1;
            widths[width] += 1;
            empty_batches += usize::from(batch == 0);
            opened += usize::from(extended.0.n_strata > parent_strata);
        }
        assert!(kinds.iter().all(|&k| k > 0), "shape kinds {kinds:?}");
        assert!(widths.iter().all(|&w| w > 0), "code widths {widths:?}");
        assert!(empty_batches > 0 && opened > 100 && recoded > 100);
    }

    /// Patched sufficient statistics equal a cold fill over the same rows,
    /// over 1,000 random dense shapes each patched in a chain of three
    /// (zero-row patches, new cells in old strata and new strata
    /// included), with the scaffold extended along the chain as the
    /// testers extend it: cells with their counts and offsets equal the
    /// table a cold fill retains, and the patched table's G, p and CMI
    /// (walked against the extended partition) equal the hashed
    /// reference's bit for bit.
    #[test]
    fn suff_patch_chains_match_cold_fill_on_random_shapes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5aff);
        let mut arena = DenseArena::default();
        let (mut zero_row, mut old_strata_cells, mut opened, mut checked) = (0, 0, 0, 0);
        while checked < 1000 {
            let n = rng.gen_range(4..=1200);
            let (xa, ya) = (rng.gen_range(1..=6usize), rng.gen_range(1..=6usize));
            let za = rng.gen_range(1..=200u32);
            let z: Vec<u32> = (0..n).map(|_| rng.gen_range(0..za)).collect();
            let strata = ZPartition::from_codes(z.as_slice()).n_strata;
            if dense_cell_space(n, strata, xa, ya).is_none() {
                continue;
            }
            let x: Vec<u32> = (0..n).map(|_| rng.gen_range(0..xa as u32)).collect();
            let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..ya as u32)).collect();
            let (xc, yc) = (
                stored_at(&x, rng.gen_range(0..3)),
                stored_at(&y, rng.gen_range(0..3)),
            );
            let mut cuts: Vec<usize> = (0..4).map(|_| rng.gen_range(1..=n)).collect();
            cuts.sort_unstable();
            cuts[3] = n;
            // A prefix may miss the dense budget the whole shape meets, so
            // the cold fills count into the dense arena directly.
            let cold_fill = |arena: &mut DenseArena, rows: usize| {
                let part = ZPartition::from_codes(&z[..rows]);
                let csr = StratumRows::from_partition(&part);
                let cells = part.n_strata * xa * ya;
                with_codes!(&xc, |xs| with_codes!(&yc, |ys| {
                    arena.fill(&xs[..rows], &ys[..rows], xa, ya, &part, &csr, cells)
                }));
                (part, csr)
            };
            let mut scaffold = cold_fill(&mut arena, cuts[0]);
            let mut table = retained(&arena, cuts[0]);
            for (k, &rows) in cuts.iter().enumerate().skip(1) {
                let ze = Encoding::new(stored_at(&z[..rows], 2), za);
                let extended = extend_scaffold(&scaffold, &ze);
                let patched = with_codes!(&xc, |xs| with_codes!(&yc, |ys| {
                    table.patch(&xs[..rows], &ys[..rows], &extended.0)
                }));
                let cold_scaffold = cold_fill(&mut arena, rows);
                assert_same_scaffold(&extended, &cold_scaffold, "chained scaffold");
                let label = format!(
                    "shape {checked}, patch {k}: {rows} of {n} rows, ({xa}, {ya}) over {za}"
                );
                assert_eq!(patched.n_rows, rows, "rows, {label}");
                let cold = retained(&arena, rows);
                assert_eq!(patched.n_strata(), cold.n_strata(), "strata, {label}");
                let ((p_cells, p_offsets), (c_cells, c_offsets)) =
                    (layout(&patched), layout(&cold));
                assert_eq!(p_cells, c_cells, "cells and counts, {label}");
                assert_eq!(p_offsets, c_offsets, "offsets, {label}");
                // The patched walk against the hashed reference, not only
                // against the cold arena, which walks the same way.
                let hashed = Strata::count(&x[..rows], &y[..rows], &z[..rows]);
                let walked = &mut (&patched, &extended.0);
                let (g, p) = finish_g(g_stat(walked));
                let (g_ref, p_ref) = g_from_strata(&hashed);
                let cmi = cmi_stat(walked, rows);
                let cmi_ref = cmi_from_strata(&hashed, rows);
                assert_eq!(
                    (g.to_bits(), p.to_bits(), cmi.to_bits()),
                    (g_ref.to_bits(), p_ref.to_bits(), cmi_ref.to_bits()),
                    "G, p and CMI, {label}"
                );
                let (old, new) = (&table, &patched);
                zero_row += usize::from(rows == table.n_rows);
                opened += usize::from(new.n_strata() > old.n_strata());
                old_strata_cells +=
                    usize::from((0..old.n_strata()).any(|s| new.run(s).len() > old.run(s).len()));
                scaffold = extended;
                table = patched;
            }
            checked += 1;
        }
        assert!(zero_row > 0 && opened > 100 && old_strata_cells > 100);
    }
}
