//! Fixture: constant-time pass — SIMD gathers at secret offsets.

use std::arch::x86_64::*;

pub unsafe fn flagged(secret: __m512i, table: &[i64; 64]) -> __m512i {
    // lint:secret-scope(secret, offsets)
    let offsets = _mm512_and_si512(secret, _mm512_set1_epi64(63));
    _mm512_i64gather_epi64::<8>(offsets, table.as_ptr())
}

pub unsafe fn public(table: &[i64; 64]) -> __m512i {
    // lint:secret-scope(secret)
    let offsets = _mm512_set1_epi64(7);
    _mm512_i64gather_epi64::<8>(offsets, table.as_ptr())
}

pub unsafe fn justified(secret: __m512i, table: &[i64; 64]) -> __m512i {
    // lint:secret-scope(secret)
    _mm512_i64gather_epi64::<8>(secret, table.as_ptr()) // lint:allow(consttime): fixture — a documented table walk
}
