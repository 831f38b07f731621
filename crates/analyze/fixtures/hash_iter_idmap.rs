// Fixture: press-sim's `IdMap` alias is a hash map too. Never compiled.
use press_sim::IdMap;

pub struct Table {
    requests: IdMap<u64, u32>,
}

pub fn leaky(t: &Table) -> Vec<u64> {
    t.requests.keys().copied().collect()
}
