//! Fixture: constant-time pass — a seeded secret-dependent branch and a
//! secret-indexed table lookup.

pub fn flagged(secret: u32, table: &[u32; 4]) -> u32 {
    // lint:secret-scope(secret, idx)
    let idx = (secret & 3) as usize;
    if secret == 0 {
        return 1;
    }
    table[idx]
}

pub fn justified(secret: u32) -> u32 {
    // lint:secret-scope(secret)
    if secret == 0 { // lint:allow(consttime): fixture — the zero case is rejected upstream
        return 1;
    }
    2
}
