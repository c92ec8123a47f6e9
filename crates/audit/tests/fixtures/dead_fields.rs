//! Fixture: the `dead` lint's field pass over one audited crate. Each
//! field says whether anything reads it.
pub struct Meter {
    /// Only `+=`: write-only, dead.
    pub hits: u64,
    /// Only `push`: write-only, dead.
    log: Vec<u64>,
    /// Read only by this file's own unit tests: dead.
    pub seen: u64,
    /// Read only by another file's unit tests: dead.
    pub tally: u64,
    /// Only initialised: dead.
    born: u64,
    /// Read through a method call on it.
    items: Vec<u64>,
    /// Read in a match guard before `=>`.
    pub threshold: u64,
}

/// Both fields read through a destructuring pattern.
pub struct Window {
    pub lo: u64,
    pub hi: u64,
}

/// Named only in a benchmark struct literal: the benchmark is not
/// edited to suit the library, so the field stays.
pub struct Knobs {
    pub rig_depth: u32,
}

impl Meter {
    fn new() -> Meter {
        Meter {
            hits: 0,
            log: Vec::new(),
            seen: 0,
            tally: 0,
            born: 7,
            items: Vec::new(),
            threshold: 3,
        }
    }

    fn tick(&mut self, last: Option<u64>, x: u64) -> bool {
        self.hits += 1;
        self.log.push(x);
        self.items.push(x);
        match last {
            Some(p) if x >= p + self.threshold => true,
            _ => self.items.len() > 4,
        }
    }
}

fn width(w: &Window) -> u64 {
    let Window { lo, hi } = *w;
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unseen() {
        assert_eq!(Meter::new().seen, 0);
    }
}
