//! Causal directed acyclic graphs and the graphical machinery of the paper:
//! d-separation (§2.2, Definition 3), ancestral closures, `do`-operator
//! graph surgery (incoming-edge removal), and random-DAG generation for the
//! synthetic experiments of §5.3.
//!
//! The central type is [`Dag`]; d-separation queries run via the
//! reachable-set ("Bayes ball") algorithm in `O(V + E)` per query in the
//! worst case, stopping at the first node of the other side they reach.
//! The same walk run to the end ([`Reachable`]) answers every query that
//! shares one side and one conditioning set by membership. That matters
//! because the oracle conditional-independence tester used by the
//! complexity experiments (Figures 4 and 5) issues hundreds of thousands
//! of queries against 5000-node graphs.

pub mod dag;
pub mod dsep;
pub mod generate;
pub mod text;

pub use dag::{Dag, DagBuilder, GraphError, NodeId};
pub use dsep::{d_connected, d_separated, Reachable};
pub use generate::{random_dag, RandomDagConfig};
pub use text::{dag_from_text, dag_to_text, DagTextError};
