"""Unit tests for blocks and the block store."""

import pytest

from repro.consensus.block import Block, BlockStore, GENESIS_HASH, make_genesis
from repro.errors import ConsensusError


def chain(store, length, view=0, start_parent=GENESIS_HASH, start_height=1, salt=0):
    """Build and add a chain of blocks; returns the list."""
    blocks = []
    parent = start_parent
    for offset in range(length):
        block = Block.create(
            height=start_height + offset,
            view=view,
            parent=parent,
            proposer=0,
            payload_size=1000,
            num_txs=2,
            created_at=float(offset),
            salt=salt,
        )
        store.add(block)
        blocks.append(block)
        parent = block.hash
    return blocks


def test_genesis_pre_committed():
    store = BlockStore()
    assert store.committed_height == 0
    assert store.is_committed(GENESIS_HASH)
    assert store.get(GENESIS_HASH) == make_genesis()


def test_block_hash_deterministic_and_distinct():
    a = Block.create(1, 0, GENESIS_HASH, 0, 100, 1, 0.0, salt=1)
    b = Block.create(1, 0, GENESIS_HASH, 0, 100, 1, 0.0, salt=1)
    c = Block.create(1, 0, GENESIS_HASH, 0, 100, 1, 0.0, salt=2)
    assert a.hash == b.hash
    assert a.hash != c.hash


def test_commit_single_block():
    store = BlockStore()
    (block,) = chain(store, 1)
    newly = store.commit(block)
    assert newly == [block]
    assert store.committed_height == 1
    assert store.is_committed(block.hash)


def test_commit_descendant_commits_ancestors():
    store = BlockStore()
    blocks = chain(store, 5)
    newly = store.commit(blocks[-1])
    assert [b.height for b in newly] == [1, 2, 3, 4, 5]
    assert store.committed_height == 5
    assert store.commit_log == blocks


def test_commit_idempotent_prefix():
    store = BlockStore()
    blocks = chain(store, 3)
    store.commit(blocks[1])
    newly = store.commit(blocks[2])
    assert newly == [blocks[2]]
    assert store.commit(blocks[2]) == []


def test_conflicting_commit_raises():
    store = BlockStore()
    blocks = chain(store, 2)
    store.commit(blocks[1])
    fork = Block.create(2, 1, blocks[0].hash, 1, 100, 1, 0.0, salt=99)
    store.add(fork)
    with pytest.raises(ConsensusError, match="conflicting commit"):
        store.commit(fork)


def test_commit_with_missing_ancestor_raises():
    store = BlockStore()
    orphan = Block.create(5, 0, "unknown-parent", 0, 100, 1, 0.0)
    store.add(orphan)
    with pytest.raises(ConsensusError):
        store.commit(orphan)


def test_knows_chain():
    store = BlockStore()
    blocks = chain(store, 3)
    assert store.knows_chain(blocks[2])
    orphan = Block.create(9, 0, "nowhere", 0, 100, 1, 0.0)
    assert not store.knows_chain(orphan)


def test_extends_through_chain():
    store = BlockStore()
    blocks = chain(store, 4)
    assert store.extends(blocks[3], blocks[0].hash)
    assert store.extends(blocks[3], GENESIS_HASH)
    assert store.extends(blocks[0], blocks[0].hash)
    fork = Block.create(2, 1, blocks[0].hash, 1, 100, 1, 0.0, salt=7)
    store.add(fork)
    assert not store.extends(blocks[3], fork.hash)


def test_extends_with_unknown_direct_parent():
    """A block naming an unknown ancestor as parent still extends it."""
    store = BlockStore()
    block = Block.create(10, 2, "some-unknown-qc-block", 0, 100, 1, 0.0)
    assert store.extends(block, "some-unknown-qc-block")
    assert not store.extends(block, "other")


def test_commit_fork_below_committed_height_raises():
    store = BlockStore()
    main = chain(store, 3)
    store.commit(main[2])
    # a fork off height 1 reaching height 4: its height-2 ancestor conflicts
    side2 = Block.create(2, 1, main[0].hash, 1, 100, 1, 0.0, salt=50)
    store.add(side2)
    side3 = Block.create(3, 1, side2.hash, 1, 100, 1, 0.0, salt=51)
    store.add(side3)
    side4 = Block.create(4, 1, side3.hash, 1, 100, 1, 0.0, salt=52)
    store.add(side4)
    with pytest.raises(ConsensusError):
        store.commit(side4)


def test_hash_collision_detection():
    store = BlockStore()
    block = Block.create(1, 0, GENESIS_HASH, 0, 100, 1, 0.0)
    store.add(block)
    impostor = Block(
        height=2, view=0, parent=GENESIS_HASH, proposer=1, payload_size=1,
        num_txs=1, created_at=0.0, hash=block.hash,
    )
    with pytest.raises(ConsensusError):
        store.add(impostor)


def test_committed_block_lookup():
    store = BlockStore()
    blocks = chain(store, 2)
    store.commit(blocks[1])
    assert store.committed_block(1) == blocks[0]
    assert store.committed_block(99) is None
