//! Fixture: an integration test, a root of the `dead` lint.
#[test]
fn replays() {
    fixture::replay();
}
