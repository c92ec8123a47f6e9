//! Fixture: an example, a root of the `dead` lint.
fn main() {
    let _ = fixture::Book::new();
}
