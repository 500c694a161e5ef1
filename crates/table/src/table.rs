//! The [`Table`] type and its column model.

use std::collections::HashMap;
use std::fmt;

/// Fairness role of a column, following the paper's variable taxonomy (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// Protected attribute (`S`): race, gender, age group, ...
    Sensitive,
    /// Admissible attribute (`A`): the sensitive attributes are allowed to
    /// influence the outcome through these.
    Admissible,
    /// Candidate feature (`X`): neither sensitive nor admissible.
    Feature,
    /// The training target (`Y`).
    Target,
    /// Join key (not a model variable).
    Key,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Role::Sensitive => "sensitive",
            Role::Admissible => "admissible",
            Role::Feature => "feature",
            Role::Target => "target",
            Role::Key => "key",
        };
        f.write_str(s)
    }
}

impl Role {
    /// Parse the textual form used in the CSV header.
    pub fn parse(s: &str) -> Option<Role> {
        match s {
            "sensitive" => Some(Role::Sensitive),
            "admissible" => Some(Role::Admissible),
            "feature" => Some(Role::Feature),
            "target" => Some(Role::Target),
            "key" => Some(Role::Key),
            _ => None,
        }
    }
}

/// Physical column storage.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// Categorical codes in `0..arity`.
    Cat { codes: Vec<u32>, arity: u32 },
    /// Numeric values.
    Num(Vec<f64>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Cat { codes, .. } => codes.len(),
            ColumnData::Num(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A named, role-tagged column.
#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    pub name: String,
    pub role: Role,
    pub data: ColumnData,
}

impl Column {
    /// Build a categorical column; validates codes against the arity.
    pub fn cat(name: impl Into<String>, role: Role, codes: Vec<u32>, arity: u32) -> Self {
        assert!(arity >= 1, "categorical arity must be >= 1");
        assert!(
            codes.iter().all(|&c| c < arity),
            "categorical code out of range for column"
        );
        Self {
            name: name.into(),
            role,
            data: ColumnData::Cat { codes, arity },
        }
    }

    /// Build a numeric column.
    pub fn num(name: impl Into<String>, role: Role, values: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            role,
            data: ColumnData::Num(values),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Arity for categorical columns, `None` for numeric.
    pub fn arity(&self) -> Option<u32> {
        match &self.data {
            ColumnData::Cat { arity, .. } => Some(*arity),
            ColumnData::Num(_) => None,
        }
    }

    /// Value at `row` as f64 (categorical codes cast).
    #[inline]
    pub fn value_f64(&self, row: usize) -> f64 {
        match &self.data {
            ColumnData::Cat { codes, .. } => codes[row] as f64,
            ColumnData::Num(v) => v[row],
        }
    }

    /// Materialize the whole column as f64.
    pub fn to_f64(&self) -> Vec<f64> {
        match &self.data {
            ColumnData::Cat { codes, .. } => codes.iter().map(|&c| c as f64).collect(),
            ColumnData::Num(v) => v.clone(),
        }
    }

    /// Categorical codes, or `None` for numeric columns.
    pub fn codes(&self) -> Option<&[u32]> {
        match &self.data {
            ColumnData::Cat { codes, .. } => Some(codes),
            ColumnData::Num(_) => None,
        }
    }

    fn take(&self, rows: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::Cat { codes, arity } => ColumnData::Cat {
                codes: rows.iter().map(|&r| codes[r]).collect(),
                arity: *arity,
            },
            ColumnData::Num(v) => ColumnData::Num(rows.iter().map(|&r| v[r]).collect()),
        };
        Column {
            name: self.name.clone(),
            role: self.role,
            data,
        }
    }
}

/// Index of a column within a table.
pub type ColId = usize;

/// Errors from table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Column lengths disagree.
    RaggedColumns {
        expected: usize,
        got: usize,
        column: String,
    },
    /// Duplicate column name.
    DuplicateColumn(String),
    /// Column not found.
    UnknownColumn(String),
    /// Join key problems (missing key, non-unique right key, dangling FK).
    JoinError(String),
    /// An appended row batch does not match the parent schema.
    SchemaMismatch(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::RaggedColumns {
                expected,
                got,
                column,
            } => {
                write!(f, "column {column} has {got} rows, expected {expected}")
            }
            TableError::DuplicateColumn(c) => write!(f, "duplicate column name: {c}"),
            TableError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            TableError::JoinError(m) => write!(f, "join error: {m}"),
            TableError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
        }
    }
}

impl std::error::Error for TableError {}

/// Result of [`Table::split_rows_stable`]: both halves in ascending row
/// order, plus whether the deterministic fallback cut was taken (in which
/// case the append-stable prefix property does not hold).
#[derive(Debug)]
pub struct StableSplit {
    /// Training rows (ascending original row order).
    pub train: Table,
    /// Held-out rows (ascending original row order).
    pub test: Table,
    /// True when thresholding left a side empty and a prefix cut was used.
    pub fallback: bool,
}

/// Stable per-row hash (splitmix64 finalizer over a seed/row mix): the
/// train-membership coin for [`Table::split_rows_stable`]. Depends only on
/// `(seed, row)`, so appended rows never reshuffle existing ones.
fn stable_row_hash(seed: u64, row: u64) -> u64 {
    let mut z = seed ^ row.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The rows of `rows` whose coin falls below the `train_frac` threshold
/// (train) and the rest (test), each ascending.
fn stable_sides(
    rows: std::ops::Range<usize>,
    seed: u64,
    train_frac: f64,
) -> (Vec<usize>, Vec<usize>) {
    assert!(
        (0.0..1.0).contains(&train_frac) && train_frac > 0.0,
        "train_frac must be in (0,1)"
    );
    let threshold = (train_frac * (u64::MAX as f64)) as u64;
    rows.partition(|&i| stable_row_hash(seed, i as u64) < threshold)
}

/// A columnar table: equal-length named columns plus a name index.
#[derive(Clone, Debug)]
pub struct Table {
    columns: Vec<Column>,
    // analyze: bounded-by one entry per column of the dataset
    index: HashMap<String, ColId>,
    n_rows: usize,
}

impl Table {
    /// Build from columns; all must have equal length and unique names.
    pub fn new(columns: Vec<Column>) -> Result<Self, TableError> {
        let n_rows = columns.first().map_or(0, Column::len);
        let mut index = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            if c.len() != n_rows {
                return Err(TableError::RaggedColumns {
                    expected: n_rows,
                    got: c.len(),
                    column: c.name.clone(),
                });
            }
            if index.insert(c.name.clone(), i).is_some() {
                return Err(TableError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Self {
            columns,
            index,
            n_rows,
        })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by id.
    pub fn col(&self, id: ColId) -> &Column {
        &self.columns[id]
    }

    /// Column id by name.
    pub fn col_id(&self, name: &str) -> Option<ColId> {
        self.index.get(name).copied()
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.col_id(name).map(|i| &self.columns[i])
    }

    /// Column by name, panicking with a clear message when absent.
    pub fn expect_column(&self, name: &str) -> &Column {
        self.column(name)
            .unwrap_or_else(|| panic!("no column named {name:?}"))
    }

    /// Ids of all columns with the given role (in table order).
    pub fn cols_with_role(&self, role: Role) -> Vec<ColId> {
        self.columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| (c.role == role).then_some(i))
            .collect()
    }

    /// Sensitive column ids (`S`).
    pub fn sensitive_cols(&self) -> Vec<ColId> {
        self.cols_with_role(Role::Sensitive)
    }

    /// Admissible column ids (`A`).
    pub fn admissible_cols(&self) -> Vec<ColId> {
        self.cols_with_role(Role::Admissible)
    }

    /// Candidate feature column ids (`X`).
    pub fn feature_cols(&self) -> Vec<ColId> {
        self.cols_with_role(Role::Feature)
    }

    /// The target column id (`Y`).
    ///
    /// # Panics
    /// Panics if there is not exactly one target column.
    pub fn target_col(&self) -> ColId {
        let t = self.cols_with_role(Role::Target);
        assert_eq!(
            t.len(),
            1,
            "expected exactly one target column, found {}",
            t.len()
        );
        t[0]
    }

    /// Add a column (consuming self for chaining in builders).
    pub fn with_column(mut self, col: Column) -> Result<Self, TableError> {
        if self.n_cols() > 0 && col.len() != self.n_rows {
            return Err(TableError::RaggedColumns {
                expected: self.n_rows,
                got: col.len(),
                column: col.name,
            });
        }
        if self.index.contains_key(&col.name) {
            return Err(TableError::DuplicateColumn(col.name));
        }
        if self.n_cols() == 0 {
            self.n_rows = col.len();
        }
        self.index.insert(col.name.clone(), self.columns.len());
        self.columns.push(col);
        Ok(self)
    }

    /// Projection onto the named columns (in the given order).
    pub fn select(&self, names: &[&str]) -> Result<Table, TableError> {
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            let id = self
                .col_id(n)
                .ok_or_else(|| TableError::UnknownColumn(n.to_owned()))?;
            cols.push(self.columns[id].clone());
        }
        Table::new(cols)
    }

    /// New table with only the rows at `rows` (duplicates and reordering
    /// allowed — also how bootstrap resampling is implemented).
    pub fn take_rows(&self, rows: &[usize]) -> Table {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.take(rows)).collect();
        Table::new(columns).expect("take preserves invariants")
    }

    /// Concatenate a row batch with an identical schema onto this table.
    /// Every column must agree in name, order, role, kind, and (for
    /// categorical columns) arity — an appended batch extends the parent's
    /// code dictionaries, it never redefines them.
    pub fn concat(&self, batch: &Table) -> Result<Table, TableError> {
        if batch.n_cols() != self.n_cols() {
            return Err(TableError::SchemaMismatch(format!(
                "batch has {} columns, parent has {}",
                batch.n_cols(),
                self.n_cols()
            )));
        }
        for (a, b) in self.columns.iter().zip(batch.columns()) {
            if a.name != b.name {
                return Err(TableError::SchemaMismatch(format!(
                    "column {:?} in parent vs {:?} in batch",
                    a.name, b.name
                )));
            }
            if a.role != b.role {
                return Err(TableError::SchemaMismatch(format!(
                    "column {:?}: role {} in parent vs {} in batch",
                    a.name, a.role, b.role
                )));
            }
            match (&a.data, &b.data) {
                (ColumnData::Cat { arity: pa, .. }, ColumnData::Cat { arity: ba, .. }) => {
                    if pa != ba {
                        return Err(TableError::SchemaMismatch(format!(
                            "column {:?}: arity {pa} in parent vs {ba} in batch \
                             (a batch may not widen or narrow the code dictionary)",
                            a.name
                        )));
                    }
                }
                (ColumnData::Num(_), ColumnData::Num(_)) => {}
                _ => {
                    return Err(TableError::SchemaMismatch(format!(
                        "column {:?}: categorical/numeric kind differs",
                        a.name
                    )))
                }
            }
        }
        let columns = self
            .columns
            .iter()
            .zip(batch.columns())
            .map(|(a, b)| {
                let data = match (&a.data, &b.data) {
                    (ColumnData::Cat { codes, arity }, ColumnData::Cat { codes: more, .. }) => {
                        let mut all = Vec::with_capacity(codes.len() + more.len());
                        all.extend_from_slice(codes);
                        all.extend_from_slice(more);
                        ColumnData::Cat {
                            codes: all,
                            arity: *arity,
                        }
                    }
                    (ColumnData::Num(v), ColumnData::Num(more)) => {
                        let mut all = Vec::with_capacity(v.len() + more.len());
                        all.extend_from_slice(v);
                        all.extend_from_slice(more);
                        ColumnData::Num(all)
                    }
                    _ => unreachable!("kinds validated above"),
                };
                Column {
                    name: a.name.clone(),
                    role: a.role,
                    data,
                }
            })
            .collect();
        Table::new(columns)
    }

    /// Row-stable train/test split: row `i` is a training row iff a stable
    /// hash of `(seed, i)` falls below the `train_frac` threshold, and both
    /// sides keep ascending row order. Membership depends only on
    /// `(seed, i)` — never on the table length — so splitting a table
    /// extended by appended rows yields exactly the parent's split plus the
    /// new rows (the prefix property the streaming-append path relies on).
    ///
    /// When thresholding leaves either side empty (tiny tables, extreme
    /// fractions) a deterministic prefix cut is used instead and
    /// [`StableSplit::fallback`] is set — the prefix property does not hold
    /// across a fallback, so extenders must rebuild cold in that case.
    pub fn split_rows_stable(&self, seed: u64, train_frac: f64) -> StableSplit {
        let (mut train_rows, mut test_rows) = stable_sides(0..self.n_rows, seed, train_frac);
        let fallback = self.n_rows > 0 && (train_rows.is_empty() || test_rows.is_empty());
        if fallback {
            let cut = ((self.n_rows as f64) * train_frac).round() as usize;
            let cut = cut.clamp(1, self.n_rows.saturating_sub(1).max(1));
            train_rows = (0..cut.min(self.n_rows)).collect();
            test_rows = (cut.min(self.n_rows)..self.n_rows).collect();
        }
        StableSplit {
            train: self.take_rows(&train_rows),
            test: self.take_rows(&test_rows),
            fallback,
        }
    }

    /// The rows from `start` on, as `(train, test)` in ascending row
    /// order, by the same `(seed, row)` coin as
    /// [`Table::split_rows_stable`]. When a table's first `start` rows
    /// are a parent whose split did not fall back, the split of the whole
    /// table is the parent's split with these two sides appended — so a
    /// child extended by appended rows is split by classifying only the
    /// appended rows.
    pub fn split_suffix_stable(&self, start: usize, seed: u64, train_frac: f64) -> (Table, Table) {
        let (train_rows, test_rows) = stable_sides(start..self.n_rows, seed, train_frac);
        (self.take_rows(&train_rows), self.take_rows(&test_rows))
    }

    /// Hash PK-FK join: `self` (fact table, FK in `left_key`) against
    /// `right` (dimension table whose `right_key` values must be unique).
    /// All non-key columns of `right` are appended; the result keeps
    /// `self`'s row order and row count. Dangling foreign keys are an error
    /// (referential integrity, as in a curated feature store).
    pub fn join(
        &self,
        right: &Table,
        left_key: &str,
        right_key: &str,
    ) -> Result<Table, TableError> {
        let lk = self
            .column(left_key)
            .ok_or_else(|| TableError::UnknownColumn(left_key.to_owned()))?;
        let rk = right
            .column(right_key)
            .ok_or_else(|| TableError::UnknownColumn(right_key.to_owned()))?;
        let lcodes = lk.codes().ok_or_else(|| {
            TableError::JoinError(format!("left key {left_key} must be categorical/integer"))
        })?;
        let rcodes = rk.codes().ok_or_else(|| {
            TableError::JoinError(format!("right key {right_key} must be categorical/integer"))
        })?;
        // Build PK hash index over the dimension table.
        let mut pk: HashMap<u32, usize> = HashMap::with_capacity(rcodes.len());
        for (row, &code) in rcodes.iter().enumerate() {
            if pk.insert(code, row).is_some() {
                return Err(TableError::JoinError(format!(
                    "right key {right_key} is not unique (duplicate value {code})"
                )));
            }
        }
        // Probe.
        let mut right_rows = Vec::with_capacity(self.n_rows);
        for &code in lcodes {
            match pk.get(&code) {
                Some(&row) => right_rows.push(row),
                None => {
                    return Err(TableError::JoinError(format!(
                        "dangling foreign key value {code} in {left_key}"
                    )))
                }
            }
        }
        let mut out = self.clone();
        for c in right.columns() {
            if c.name == right_key {
                continue;
            }
            let taken = c.take(&right_rows);
            out = out.with_column(taken)?;
        }
        Ok(out)
    }

    /// Joint categorical code for a set of categorical columns: each row is
    /// encoded as a mixed-radix number. Returns `(codes, arity)`. Used by
    /// discrete CI tests on *sets* of variables (group testing).
    ///
    /// # Panics
    /// Panics when a column is numeric or the joint arity overflows `u32`.
    pub fn joint_codes(&self, cols: &[ColId]) -> (Vec<u32>, u32) {
        if cols.is_empty() {
            return (vec![0; self.n_rows], 1);
        }
        let mut arity: u64 = 1;
        for &c in cols {
            let a = self.columns[c].arity().unwrap_or_else(|| {
                panic!("joint_codes: column {} is numeric", self.columns[c].name)
            });
            arity = arity
                .checked_mul(a as u64)
                .filter(|&v| v <= u32::MAX as u64)
                .unwrap_or_else(|| panic!("joint_codes: joint arity overflow"));
        }
        let mut out = vec![0u32; self.n_rows];
        for &c in cols {
            let col = &self.columns[c];
            let a = col.arity().expect("checked above");
            let codes = col.codes().expect("checked above");
            for (o, &v) in out.iter_mut().zip(codes) {
                *o = *o * a + v;
            }
        }
        (out, arity as u32)
    }

    /// Like [`Table::joint_codes`], but never overflows: when the joint
    /// arity exceeds `u32` (e.g. a 32-variable group query from GrpSel),
    /// distinct *observed* combinations are densely re-encoded instead.
    /// Count-based statistics (G-test, plug-in CMI) depend only on the
    /// partition the codes induce, so dense re-encoding is exact; the
    /// returned arity is then the number of observed combinations.
    ///
    /// # Panics
    /// Panics when a column is numeric.
    pub fn joint_codes_dense(&self, cols: &[ColId]) -> (Vec<u32>, u32) {
        let mut arity: u64 = 1;
        let mut overflow = false;
        for &c in cols {
            let a = self.columns[c].arity().unwrap_or_else(|| {
                panic!("joint_codes: column {} is numeric", self.columns[c].name)
            });
            match arity
                .checked_mul(a as u64)
                .filter(|&v| v <= u32::MAX as u64)
            {
                Some(v) => arity = v,
                None => {
                    overflow = true;
                    break;
                }
            }
        }
        if !overflow {
            return self.joint_codes(cols);
        }
        let col_codes: Vec<&[u32]> = cols
            .iter()
            .map(|&c| self.columns[c].codes().expect("checked above"))
            .collect();
        let mut dense: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut out = Vec::with_capacity(self.n_rows);
        for row in 0..self.n_rows {
            let key: Vec<u32> = col_codes.iter().map(|codes| codes[row]).collect();
            let next = dense.len() as u32;
            out.push(*dense.entry(key).or_insert(next));
        }
        let observed = dense.len() as u32;
        (out, observed.max(1))
    }

    /// Human-readable schema line, e.g. `s:cat2[sensitive] y:cat2[target]`.
    pub fn schema_string(&self) -> String {
        self.columns
            .iter()
            .map(|c| {
                let ty = match &c.data {
                    ColumnData::Cat { arity, .. } => format!("cat{arity}"),
                    ColumnData::Num(_) => "num".to_owned(),
                };
                format!("{}:{}[{}]", c.name, ty, c.role)
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn people() -> Table {
        Table::new(vec![
            Column::cat("id", Role::Key, vec![0, 1, 2, 3], 4),
            Column::cat("gender", Role::Sensitive, vec![0, 1, 0, 1], 2),
            Column::cat("plan", Role::Admissible, vec![0, 0, 1, 1], 2),
            Column::num("income", Role::Feature, vec![30.0, 45.0, 52.0, 38.0]),
            Column::cat("approved", Role::Target, vec![1, 0, 1, 0], 2),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let t = people();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 5);
        assert_eq!(t.col_id("income"), Some(3));
        assert!(t.column("missing").is_none());
        assert_eq!(t.sensitive_cols(), vec![1]);
        assert_eq!(t.admissible_cols(), vec![2]);
        assert_eq!(t.feature_cols(), vec![3]);
        assert_eq!(t.target_col(), 4);
    }

    #[test]
    fn ragged_columns_rejected() {
        let err = Table::new(vec![
            Column::num("a", Role::Feature, vec![1.0, 2.0]),
            Column::num("b", Role::Feature, vec![1.0]),
        ])
        .unwrap_err();
        assert!(matches!(err, TableError::RaggedColumns { .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Table::new(vec![
            Column::num("a", Role::Feature, vec![1.0]),
            Column::num("a", Role::Feature, vec![2.0]),
        ])
        .unwrap_err();
        assert!(matches!(err, TableError::DuplicateColumn(_)));
    }

    #[test]
    #[should_panic(expected = "code out of range")]
    fn cat_codes_validated() {
        Column::cat("c", Role::Feature, vec![0, 3], 2);
    }

    #[test]
    fn select_projects_in_order() {
        let t = people();
        let p = t.select(&["income", "gender"]).unwrap();
        assert_eq!(p.n_cols(), 2);
        assert_eq!(p.col(0).name, "income");
        assert_eq!(p.col(1).name, "gender");
        assert!(t.select(&["nope"]).is_err());
    }

    #[test]
    fn take_and_filter_rows() {
        let t = people();
        let sub = t.take_rows(&[2, 0, 2]);
        assert_eq!(sub.n_rows(), 3);
        assert_eq!(sub.expect_column("income").to_f64(), vec![52.0, 30.0, 52.0]);
    }

    #[test]
    fn concat_appends_rows_with_matching_schema() {
        let t = people();
        let batch = Table::new(vec![
            Column::cat("id", Role::Key, vec![0], 4),
            Column::cat("gender", Role::Sensitive, vec![1], 2),
            Column::cat("plan", Role::Admissible, vec![0], 2),
            Column::num("income", Role::Feature, vec![61.5]),
            Column::cat("approved", Role::Target, vec![1], 2),
        ])
        .unwrap();
        let child = t.concat(&batch).unwrap();
        assert_eq!(child.n_rows(), 5);
        assert_eq!(child.schema_string(), t.schema_string());
        assert_eq!(
            child.expect_column("income").to_f64(),
            vec![30.0, 45.0, 52.0, 38.0, 61.5]
        );
        assert_eq!(
            child.expect_column("gender").codes().unwrap(),
            &[0, 1, 0, 1, 1]
        );
    }

    #[test]
    fn concat_rejects_schema_mismatches() {
        let t = people();
        // Wrong arity.
        let wrong_arity = Table::new(vec![
            Column::cat("id", Role::Key, vec![0], 4),
            Column::cat("gender", Role::Sensitive, vec![2], 3),
            Column::cat("plan", Role::Admissible, vec![0], 2),
            Column::num("income", Role::Feature, vec![1.0]),
            Column::cat("approved", Role::Target, vec![1], 2),
        ])
        .unwrap();
        let err = t.concat(&wrong_arity).unwrap_err();
        assert!(matches!(err, TableError::SchemaMismatch(_)), "{err}");
        assert!(err.to_string().contains("arity"));
        // Wrong column count.
        let narrow = t.select(&["gender", "approved"]).unwrap();
        assert!(matches!(
            t.concat(&narrow),
            Err(TableError::SchemaMismatch(_))
        ));
        // Wrong kind.
        let wrong_kind = Table::new(vec![
            Column::cat("id", Role::Key, vec![0], 4),
            Column::cat("gender", Role::Sensitive, vec![1], 2),
            Column::cat("plan", Role::Admissible, vec![0], 2),
            Column::cat("income", Role::Feature, vec![0], 2),
            Column::cat("approved", Role::Target, vec![1], 2),
        ])
        .unwrap();
        assert!(matches!(
            t.concat(&wrong_kind),
            Err(TableError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn stable_split_is_append_stable() {
        // The prefix property: splitting the concatenated table yields the
        // parent's train rows followed by the batch's train rows.
        let rows = 400usize;
        let mk = |n: usize, offset: usize| {
            Table::new(vec![
                Column::cat(
                    "s",
                    Role::Sensitive,
                    (0..n).map(|i| ((i + offset) % 2) as u32).collect(),
                    2,
                ),
                Column::num(
                    "x",
                    Role::Feature,
                    (0..n).map(|i| (i + offset) as f64).collect(),
                ),
            ])
            .unwrap()
        };
        let parent = mk(rows, 0);
        let batch = mk(60, rows);
        let child = parent.concat(&batch).unwrap();
        let ps = parent.split_rows_stable(7, 0.8);
        let cs = child.split_rows_stable(7, 0.8);
        assert!(!ps.fallback && !cs.fallback);
        assert_eq!(
            ps.train.n_rows() + ps.test.n_rows(),
            rows,
            "split partitions rows"
        );
        // Parent train rows are a prefix of the child train rows (x carries
        // the original row index, so compare by value).
        let pt = ps.train.expect_column("x").to_f64();
        let ct = cs.train.expect_column("x").to_f64();
        assert_eq!(&ct[..pt.len()], &pt[..]);
        let pe = ps.test.expect_column("x").to_f64();
        let ce = cs.test.expect_column("x").to_f64();
        assert_eq!(&ce[..pe.len()], &pe[..]);
        // Deterministic; different seeds differ.
        let again = parent.split_rows_stable(7, 0.8);
        assert_eq!(pt, again.train.expect_column("x").to_f64());
        let other = parent.split_rows_stable(8, 0.8);
        assert_ne!(pt, other.train.expect_column("x").to_f64());
    }

    /// The parent's split with the suffix split of the appended rows
    /// appended to each side is exactly the split of the concatenation,
    /// over random sizes, seeds, fractions and batch sizes (an empty batch
    /// and batches that land on one side only included).
    #[test]
    fn parent_split_plus_suffix_split_is_the_concatenation_split() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x5b1d);
        let mk = |rng: &mut StdRng, n: usize| {
            Table::new(vec![
                Column::cat(
                    "s",
                    Role::Sensitive,
                    (0..n).map(|_| rng.gen_range(0..3)).collect(),
                    3,
                ),
                Column::num(
                    "x",
                    Role::Feature,
                    (0..n).map(|_| rng.gen::<f64>()).collect(),
                ),
            ])
            .unwrap()
        };
        let mut one_sided = 0;
        let mut checked = 0;
        while checked < 200 {
            let (n, b) = (rng.gen_range(1..300), rng.gen_range(0..40));
            let (seed, frac) = (rng.gen::<u64>(), rng.gen_range(0.05..0.95));
            let parent = mk(&mut rng, n);
            let ps = parent.split_rows_stable(seed, frac);
            if ps.fallback {
                continue;
            }
            let child = parent.concat(&mk(&mut rng, b)).unwrap();
            let (train, test) = child.split_suffix_stable(n, seed, frac);
            assert_eq!(train.n_rows() + test.n_rows(), b);
            one_sided += usize::from(b > 0 && (train.n_rows() == 0 || test.n_rows() == 0));
            let cs = child.split_rows_stable(seed, frac);
            assert!(
                !cs.fallback,
                "a superset of a split parent never falls back"
            );
            assert_eq!(
                ps.train.concat(&train).unwrap().columns(),
                cs.train.columns()
            );
            assert_eq!(ps.test.concat(&test).unwrap().columns(), cs.test.columns());
            checked += 1;
        }
        assert!(one_sided > 0, "some batches land on one side only");
    }

    #[test]
    fn stable_split_falls_back_on_degenerate_tables() {
        let t = people(); // 4 rows
                          // With a fraction this extreme, thresholding will usually empty the
                          // test side on 4 rows; either way both sides must end non-empty.
        let s = t.split_rows_stable(3, 0.99);
        assert!(s.train.n_rows() >= 1 && s.test.n_rows() >= 1);
        assert_eq!(s.train.n_rows() + s.test.n_rows(), 4);
    }

    #[test]
    fn pk_fk_join_appends_dimension_columns() {
        let base = people();
        let zipinfo = Table::new(vec![
            Column::cat("pid", Role::Key, vec![3, 2, 1, 0], 4),
            Column::num("zip_density", Role::Feature, vec![0.9, 0.1, 0.5, 0.2]),
            Column::cat("urban", Role::Feature, vec![1, 0, 1, 0], 2),
        ])
        .unwrap();
        let joined = base.join(&zipinfo, "id", "pid").unwrap();
        assert_eq!(joined.n_rows(), 4);
        assert_eq!(joined.n_cols(), 7);
        // Row 0 has id 0 which maps to zipinfo row 3 -> density 0.2.
        assert_eq!(
            joined.expect_column("zip_density").to_f64(),
            vec![0.2, 0.5, 0.1, 0.9]
        );
        assert_eq!(
            joined.expect_column("urban").codes().unwrap(),
            &[0, 1, 0, 1]
        );
    }

    #[test]
    fn join_rejects_duplicate_pk() {
        let base = people();
        let dim = Table::new(vec![
            Column::cat("pid", Role::Key, vec![0, 0, 1, 2], 4),
            Column::num("v", Role::Feature, vec![1.0; 4]),
        ])
        .unwrap();
        assert!(matches!(
            base.join(&dim, "id", "pid"),
            Err(TableError::JoinError(_))
        ));
    }

    #[test]
    fn join_rejects_dangling_fk() {
        let base = people();
        let dim = Table::new(vec![
            Column::cat("pid", Role::Key, vec![0, 1], 4),
            Column::num("v", Role::Feature, vec![1.0, 2.0]),
        ])
        .unwrap();
        let err = base.join(&dim, "id", "pid").unwrap_err();
        assert!(matches!(err, TableError::JoinError(_)));
    }

    #[test]
    fn joint_codes_mixed_radix() {
        let t = Table::new(vec![
            Column::cat("a", Role::Feature, vec![0, 1, 1], 2),
            Column::cat("b", Role::Feature, vec![2, 0, 1], 3),
        ])
        .unwrap();
        let (codes, arity) = t.joint_codes(&[0, 1]);
        assert_eq!(arity, 6);
        assert_eq!(codes, vec![2, 3, 4]); // a*3 + b
        let (codes0, a0) = t.joint_codes(&[]);
        assert_eq!(a0, 1);
        assert!(codes0.iter().all(|&c| c == 0));
    }

    #[test]
    fn joint_codes_dense_matches_when_no_overflow() {
        let t = Table::new(vec![
            Column::cat("a", Role::Feature, vec![0, 1, 1], 2),
            Column::cat("b", Role::Feature, vec![2, 0, 1], 3),
        ])
        .unwrap();
        assert_eq!(t.joint_codes_dense(&[0, 1]), t.joint_codes(&[0, 1]));
        assert_eq!(t.joint_codes_dense(&[]), t.joint_codes(&[]));
    }

    #[test]
    fn joint_codes_dense_survives_arity_overflow() {
        // 40 binary columns: mixed-radix arity would be 2^40 > u32::MAX.
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
        let all: Vec<ColId> = (0..40).collect();
        let (codes, arity) = t.joint_codes_dense(&all);
        assert_eq!(codes.len(), 4);
        // Rows 0..3 are pairwise distinct combinations except none repeat:
        // arity equals the number of distinct observed rows.
        let distinct: std::collections::HashSet<u32> = codes.iter().copied().collect();
        assert_eq!(arity as usize, distinct.len());
        // Equal rows get equal codes, distinct rows distinct codes.
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn value_views() {
        let t = people();
        let g = t.expect_column("gender");
        assert_eq!(g.value_f64(1), 1.0);
        assert_eq!(g.arity(), Some(2));
        let inc = t.expect_column("income");
        assert!(inc.codes().is_none());
        assert_eq!(inc.value_f64(0), 30.0);
    }

    #[test]
    fn schema_string_readable() {
        let t = people();
        let s = t.schema_string();
        assert!(s.contains("gender:cat2[sensitive]"));
        assert!(s.contains("income:num[feature]"));
    }

    #[test]
    fn with_column_on_empty_table() {
        let t = Table::new(vec![]).unwrap();
        let t = t
            .with_column(Column::num("x", Role::Feature, vec![1.0, 2.0]))
            .unwrap();
        assert_eq!(t.n_rows(), 2);
        assert!(t
            .clone()
            .with_column(Column::num("y", Role::Feature, vec![1.0]))
            .is_err());
    }
}
