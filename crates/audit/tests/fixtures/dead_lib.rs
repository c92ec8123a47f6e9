//! Fixture: the `dead` lint over one audited crate. Each `pub fn` says
//! which root reaches it, if any.
pub struct Book;

impl Book {
    /// Reached by a `Type::method` call from an example.
    pub fn new() -> Book {
        Book
    }

    /// Reached from the trait impl below.
    pub fn depth(&self) -> usize {
        0
    }

    /// Called only from this file's own unit tests: dead.
    pub fn spread(&self) -> u64 {
        0
    }

    /// Passed by path, not called, from `benchmark/src`.
    pub fn mid(&self) -> u64 {
        0
    }
}

impl Summary for Book {
    fn summary(&self) -> usize {
        self.depth()
    }
}

/// Reached from an integration test.
pub fn replay() {}

// audit:allow(dead): oracle: the unit test below compares against it
pub fn reference_depth() -> usize {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_the_reference() {
        assert_eq!(Book.spread(), reference_depth() as u64);
    }

    #[test]
    fn meters_start_untallied() {
        assert_eq!(fields::Meter::new().tally, 0);
    }
}
