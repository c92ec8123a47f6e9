//! # tn-audit — determinism & hot-path auditing
//!
//! The kernel promises: same scenario + same seed ⇒ the same run,
//! bit-for-bit. This crate turns that comment into an enforced invariant,
//! from both directions:
//!
//! * **Static** ([`lints`], [`scan`]): a lossless lexer ([`lexer`]) feeds
//!   a lightweight item parser ([`items`]) that builds a workspace-wide
//!   call graph ([`callgraph`]). Hot taint is propagated from the
//!   kernel's registered dispatch roots (`Node::on_frame`/`on_timer`,
//!   `Scheduler` queue ops, `Link` timing, `Simulator::step`) and
//!   determinism taint from the schedule-feeding APIs, then token-level
//!   lints flag the classic ways determinism dies in Rust — iterating a
//!   `HashMap`/`HashSet` (address-seeded order), wall-clock reads,
//!   entropy-seeded RNGs — plus hot-path hygiene (panics and allocation
//!   reachable from a dispatch root), wire-format schema drift
//!   ([`schema`]) and dead code (`dead`: public functions nothing
//!   reaches from every `main`, integration test, example,
//!   `benchmark/src` and trait-impl method, and struct fields nothing
//!   reads). Every taint-gated finding cites its call chain.
//!   Findings can be waived in place with
//!   `// audit:allow(<lint>): <justification>`.
//! * **Dynamic** ([`divergence`]): every example scenario is run twice
//!   with the same seed and the kernel trace digests
//!   ([`tn_sim::TraceLog::digest`]) must match exactly.
//!
//! The binary (`cargo run -p tn-audit -- check`) runs both and exits
//! non-zero on any active finding, on any lint whose suppression count
//! differs from its budget ([`LintInfo::budget`], [`report::budgets`]),
//! or on a digest mismatch; `scripts/ci.sh` wires it into the build.

pub mod callgraph;
pub mod divergence;
pub mod items;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod scan;
pub mod schema;
pub mod source;

pub use callgraph::{DEAD_ROOTS, DET_SINKS, HOT_ROOTS};
pub use lints::{scan_file, FileTaint, Finding, LintInfo, Scope, Severity, LINTS};
pub use report::{budgets, counts, render_json, render_text, Budget, Counts};
pub use scan::{scan_dead, scan_sources, scan_workspace, scope_for};
pub use schema::SCHEMA_REGISTRY;
pub use source::SourceFile;
