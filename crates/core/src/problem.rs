//! The selection problem (Problem 1 of the paper) and shared plumbing:
//! variable roles, the ∃A′⊆A subset enumeration, and the [`Selection`]
//! result type.

use fairsel_ci::VarId;
use fairsel_engine::CondSet;
use fairsel_table::{Role, Table};

/// An instance of Problem 1: partition of the variables into sensitive
/// `S`, admissible `A`, candidate features `X`, and the target `Y`.
///
/// Variable ids are opaque indices whose meaning is fixed by the CI tester
/// in use (table columns for data-driven testers, graph nodes for the
/// d-separation oracle).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Problem {
    pub sensitive: Vec<VarId>,
    pub admissible: Vec<VarId>,
    pub features: Vec<VarId>,
    pub target: VarId,
}

impl Problem {
    /// Build from a table's column roles (`Key` columns are ignored).
    ///
    /// # Panics
    /// Panics when the table has no sensitive column or not exactly one
    /// target column.
    pub fn from_table(table: &Table) -> Problem {
        let p = Problem {
            sensitive: table.sensitive_cols(),
            admissible: table.admissible_cols(),
            features: table.feature_cols(),
            target: table.target_col(),
        };
        assert!(!p.sensitive.is_empty(), "Problem: no sensitive columns");
        p
    }

    /// Build from a role slice indexed by variable id (for graph-backed
    /// problems where node `i` is variable `i`).
    pub fn from_roles(roles: &[Role]) -> Problem {
        let mut sensitive = Vec::new();
        let mut admissible = Vec::new();
        let mut features = Vec::new();
        let mut target = None;
        for (i, r) in roles.iter().enumerate() {
            match r {
                Role::Sensitive => sensitive.push(i),
                Role::Admissible => admissible.push(i),
                Role::Feature => features.push(i),
                Role::Target => {
                    assert!(target.is_none(), "Problem: multiple targets");
                    target = Some(i);
                }
                Role::Key => {}
            }
        }
        Problem {
            sensitive,
            admissible,
            features,
            target: target.expect("Problem: no target"),
        }
    }

    /// Total number of candidate features `n`.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }
}

/// The most admissible columns a selection enumerates the subsets of
/// (`2^12` conditioning sets per feature). [`crate::check_column_kinds`]
/// refuses a table with more, and [`SelectConfig::admissible_subsets`]
/// panics on a larger set, which guards against an exponential blowup.
pub const MAX_ADMISSIBLE: usize = 12;

/// Tuning knobs shared by SeqSel and GrpSel.
#[derive(Clone, Debug)]
pub struct SelectConfig {
    /// Maximum size of admissible subsets enumerated for the `∃A′ ⊆ A`
    /// condition. `usize::MAX` means all `2^|A|` subsets; smaller values
    /// trade completeness for test count (the paper notes |A| is a small
    /// constant in practice).
    pub max_admissible_subset: usize,
    /// Maximum width of GrpSel's *root* groups. `None` starts from the
    /// single all-features root (the paper's Algorithm 2). On finite
    /// samples a very wide discrete group is statistically vacuous — the
    /// joint side approaches one category per row, every stratum loses its
    /// degrees of freedom, and the G-test cannot reject, so the root
    /// "passes" and under-rejection follows. Pre-splitting into groups of
    /// width ≲ log₂(rows) ([`SelectConfig::auto_max_group`]) keeps each
    /// group's joint code space below the sample size. Oracle testers
    /// don't need this (group answers are exact at any width).
    pub max_group: Option<usize>,
}

impl Default for SelectConfig {
    fn default() -> Self {
        Self {
            max_admissible_subset: usize::MAX,
            max_group: None,
        }
    }
}

impl SelectConfig {
    /// The data-driven default for [`SelectConfig::max_group`]:
    /// `⌊log₂ rows⌋`, so a group of binary features has at most `rows`
    /// joint categories — the widest a G-test stratum can be before it
    /// degenerates.
    pub fn auto_max_group(rows: usize) -> usize {
        (usize::BITS - 1)
            .saturating_sub(rows.leading_zeros())
            .max(1) as usize
    }

    /// Enumerate the admissible subsets to try, in increasing size
    /// (∅ first, full set last), each interned once for the whole phase
    /// that conditions on it. Size is capped by the config.
    ///
    /// # Panics
    /// Panics when `admissible` holds more than [`MAX_ADMISSIBLE`] ids.
    pub fn admissible_subsets(&self, admissible: &[VarId]) -> Vec<CondSet> {
        let k = admissible.len();
        assert!(
            k <= MAX_ADMISSIBLE,
            "admissible set of size {k} exceeds the enumeration guard ({MAX_ADMISSIBLE})"
        );
        let max_size = self.max_admissible_subset.min(k);
        let mut subsets: Vec<CondSet> = Vec::new();
        for mask in 0u64..(1u64 << k) {
            if (mask.count_ones() as usize) <= max_size {
                let subset: Vec<VarId> = (0..k)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| admissible[i])
                    .collect();
                subsets.push(CondSet::new(&subset));
            }
        }
        subsets.sort_by_key(|s| s.len());
        subsets
    }
}

/// Output of a selection run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Selection {
    /// Features admitted in phase 1 (`X ⊥ S | A'` for some `A' ⊆ A`).
    pub c1: Vec<VarId>,
    /// Features admitted in phase 2 (`X ⊥ Y | A ∪ C₁`).
    pub c2: Vec<VarId>,
    /// Features rejected as potentially bias-inducing.
    pub rejected: Vec<VarId>,
    /// Number of CI tests issued.
    pub tests_used: u64,
}

impl Selection {
    /// All admitted features (`C₁ ∪ C₂`), sorted.
    pub fn selected(&self) -> Vec<VarId> {
        let mut out: Vec<VarId> = self.c1.iter().chain(&self.c2).copied().collect();
        out.sort_unstable();
        out
    }

    /// Normalize internal ordering (the algorithms may emit in recursion
    /// order); useful before equality comparisons in tests.
    pub fn normalized(mut self) -> Selection {
        self.c1.sort_unstable();
        self.c2.sort_unstable();
        self.rejected.sort_unstable();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_table::{Column, Table};

    #[test]
    fn from_table_reads_roles() {
        let t = Table::new(vec![
            Column::cat("s", Role::Sensitive, vec![0, 1], 2),
            Column::cat("a", Role::Admissible, vec![0, 1], 2),
            Column::cat("x1", Role::Feature, vec![0, 1], 2),
            Column::cat("x2", Role::Feature, vec![1, 0], 2),
            Column::cat("y", Role::Target, vec![0, 1], 2),
        ])
        .unwrap();
        let p = Problem::from_table(&t);
        assert_eq!(p.sensitive, vec![0]);
        assert_eq!(p.admissible, vec![1]);
        assert_eq!(p.features, vec![2, 3]);
        assert_eq!(p.target, 4);
        assert_eq!(p.n_features(), 2);
    }

    #[test]
    fn from_roles_builds_problem() {
        let roles = [
            Role::Sensitive,
            Role::Admissible,
            Role::Feature,
            Role::Target,
            Role::Feature,
        ];
        let p = Problem::from_roles(&roles);
        assert_eq!(p.features, vec![2, 4]);
        assert_eq!(p.target, 3);
    }

    #[test]
    #[should_panic(expected = "no target")]
    fn missing_target_panics() {
        Problem::from_roles(&[Role::Sensitive, Role::Feature]);
    }

    #[test]
    fn subset_enumeration_increasing_size() {
        let cfg = SelectConfig::default();
        let subsets = cfg.admissible_subsets(&[10, 20]);
        assert_eq!(subsets.len(), 4);
        assert_eq!(&subsets[0][..], &[] as &[VarId]);
        assert_eq!(&subsets[3][..], &[10, 20]);
        // sizes non-decreasing
        for w in subsets.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
    }

    #[test]
    fn subset_cap_respected() {
        let cfg = SelectConfig {
            max_admissible_subset: 1,
            ..Default::default()
        };
        let subsets = cfg.admissible_subsets(&[1, 2, 3]);
        // ∅ + three singletons
        assert_eq!(subsets.len(), 4);
        assert!(subsets.iter().all(|s| s.len() <= 1));
    }

    #[test]
    #[should_panic(expected = "enumeration guard")]
    fn guard_trips_on_large_admissible() {
        let cfg = SelectConfig::default();
        let many: Vec<usize> = (0..20).collect();
        cfg.admissible_subsets(&many);
    }

    #[test]
    fn selection_selected_sorted_union() {
        let s = Selection {
            c1: vec![5, 1],
            c2: vec![3],
            rejected: vec![],
            tests_used: 0,
        };
        assert_eq!(s.selected(), vec![1, 3, 5]);
    }
}
