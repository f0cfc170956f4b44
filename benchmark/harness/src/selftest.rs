//! `hlf-benchmark selftest`: the benchmark checks its own parts — seeded
//! inputs repeat, the checker accepts a good chain and names each kind of
//! broken one.

use crate::check::Chain;
use crate::gen::Payloads;
use crate::spec::{F, N};
use hlf_crypto::sha256::Hash256;
use hlf_fabric::block::Block;
use hlf_smr::runtime::ClusterKeys;
use hlf_wire::Bytes;

const BLOCK: usize = 5;
const BLOCKS: u64 = 6;

/// A block signed by a quorum of the cluster's orderers.
fn signed_block(number: u64, prev: Hash256, envelopes: Vec<Bytes>, keys: &ClusterKeys) -> Block {
    let mut block = Block::build(number, prev, envelopes);
    for node in 0..2 * F + 1 {
        block.sign(node as u32, &keys.signing[node]);
    }
    block
}

/// A chain of signed blocks over `sequences`, `BLOCK` envelopes each.
fn build_chain(payloads: &Payloads, keys: &ClusterKeys, sequences: &[u64]) -> Vec<Block> {
    let mut prev = Hash256::ZERO;
    sequences
        .chunks(BLOCK)
        .enumerate()
        .map(|(i, chunk)| {
            let envelopes: Vec<Bytes> = chunk.iter().map(|&seq| payloads.envelope(seq)).collect();
            let block = signed_block(i as u64 + 1, prev, envelopes, keys);
            prev = block.header_hash();
            block
        })
        .collect()
}

/// The first violation the checker reports on `blocks`, if any.
fn violation(payloads: &Payloads, keys: &ClusterKeys, blocks: &[Block]) -> Option<String> {
    let mut chain = Chain::new(payloads, 2 * F + 1, 1);
    for block in blocks {
        chain.accept(block);
    }
    chain.verify_data_hashes();
    chain.verify_signatures(&keys.verifying);
    chain.violation
}

/// Runs every check; returns the failures.
pub fn run() -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |what: &str, ok: bool| {
        println!("selftest: {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures.push(what.to_string());
        }
    };

    let (a, again, other) = (
        Payloads::new(7, 200),
        Payloads::new(7, 200),
        Payloads::new(8, 200),
    );
    expect(
        "the same seed gives the same payload digest",
        a.digest(500) == again.digest(500),
    );
    expect(
        "another seed gives another payload digest",
        a.digest(500) != other.digest(500),
    );

    let keys = ClusterKeys::derive("runtime", N);
    let good: Vec<u64> = (0..BLOCKS * BLOCK as u64).collect();
    let blocks = build_chain(&a, &keys, &good);
    expect(
        "a correct chain passes the checker",
        violation(&a, &keys, &blocks).is_none(),
    );

    let mut dropped = good.clone();
    dropped.remove(12);
    let found = violation(&a, &keys, &build_chain(&a, &keys, &dropped));
    expect(
        "a dropped envelope is reported",
        found.is_some_and(|v| v.contains("expected 12")),
    );

    let mut duplicated = good.clone();
    duplicated.insert(12, 11);
    let found = violation(&a, &keys, &build_chain(&a, &keys, &duplicated));
    expect(
        "a duplicated envelope is reported",
        found.is_some_and(|v| v.contains("expected 12")),
    );

    let mut broken = blocks.clone();
    broken[3] = signed_block(4, Hash256::ZERO, broken[3].envelopes.clone(), &keys);
    let found = violation(&a, &keys, &broken);
    expect(
        "a broken prev_hash is reported",
        found.is_some_and(|v| v.contains("block 4") && v.contains("prev_hash")),
    );

    let mut forged = blocks.clone();
    forged[2].signatures[0].signature = forged[1].signatures[0].signature;
    let found = violation(&a, &keys, &forged);
    expect(
        "a signature that does not verify is reported",
        found.is_some_and(|v| v.contains("valid orderer signatures")),
    );

    let found = violation(&other, &keys, &blocks);
    expect(
        "envelopes that are not the submitted bytes are reported",
        found.is_some_and(|v| v.contains("block 1") && v.contains("not the submitted bytes")),
    );

    // A header whose data hash covers other envelopes, signed as it stands.
    let mut wrong_data = blocks.clone();
    let mut block = Block::build(3, blocks[1].header_hash(), blocks[2].envelopes.clone());
    block.header.data_hash = blocks[0].header.data_hash;
    for node in 0..2 * F + 1 {
        block.sign(node as u32, &keys.signing[node]);
    }
    wrong_data.truncate(2);
    wrong_data.push(block);
    let found = violation(&a, &keys, &wrong_data);
    expect(
        "a data hash that does not cover the envelopes is reported",
        found.is_some_and(|v| v.contains("block 3") && v.contains("data_hash")),
    );

    failures
}
