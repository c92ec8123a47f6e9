//! Fixture: types entered only through a trait impl. Nothing builds
//! `Quoter`, so its impl is no root and `widen` is dead with it; an
//! example builds `Taker` through its derived `default`, which roots its
//! impl and keeps `lift`.
#[derive(Default)]
pub struct Quoter {
    spread: u64,
}

impl Strategy for Quoter {
    fn on_tick(&mut self) -> u64 {
        self.widen()
    }
}

impl Quoter {
    pub fn widen(&mut self) -> u64 {
        self.spread += 1;
        self.spread
    }
}

#[derive(Default)]
pub struct Taker;

impl Strategy for Taker {
    fn on_tick(&mut self) -> u64 {
        self.lift()
    }
}

impl Taker {
    pub fn lift(&self) -> u64 {
        1
    }
}
