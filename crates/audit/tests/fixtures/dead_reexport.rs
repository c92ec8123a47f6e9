//! Fixture: crate-root re-exports of `tn_quotes`. An example imports
//! `Quote` in a `use` group and names `Depth` (a rename) in a path;
//! nothing outside the crate imports `Level`.
mod book;

pub use book::{Level, Quote};
pub use book::Ladder as Depth;
