//! Fixture: benchmark code, a root of the `dead` lint.
pub fn mids(books: &[fixture::Book]) -> Vec<u64> {
    books.iter().map(fixture::Book::mid).collect()
}

pub fn knobs() -> fixture::Knobs {
    fixture::Knobs { rig_depth: 3 }
}
