"""Index builds: the bulk loader against one-at-a-time insertion.

``CREATE INDEX`` and the rebuild on reopen load an index in one pass (a
sort plus bottom-up load for the B-tree, in-memory first-fit chains for the
hash index).  These tests hold that loader to what incremental ``insert``
builds from the same postings: the same answers for every key and range,
page-for-page identical hash chains, and indexes that stay equal under
the same churn of deletes and inserts.  They also check the B-tree's
structural invariants and cap the pages a 4,000-row build may pin.
"""

from __future__ import annotations

import random

import pytest

from repro.relational.schema import Column, Schema
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.storage.buffer import BufferManager
from repro.storage.engine import StorageEngine
from repro.storage.file import FileManager
from repro.storage.index import (
    _MAX_NODE_ENTRIES,
    BTREE,
    HASH,
    BTreeIndex,
    HashIndex,
    IndexDefinition,
    sort_key,
)
from repro.storage.page import encode_record

ROWS = 2000
#: Few buckets, so chains grow overflow pages and first-fit placement matters.
BUCKETS = 16


class Unorderable:
    """A key neither the B-tree can order nor the hash index can encode."""


def make_postings(seed: int = 13):
    """Seeded ``(key, rid)`` pairs in heap order, mixing every key kind."""
    rng = random.Random(seed)
    postings = []
    for i in range(ROWS):
        roll = rng.random()
        if roll < 0.1:
            key = None
        elif roll < 0.45:
            key = rng.randrange(6)  # heavy duplicates
        elif roll < 0.55:
            key = rng.choice((1, 1.0, True))
        elif roll < 0.9:
            key = "k" * rng.randrange(0, 120, 10) + str(rng.randrange(8))
        else:
            key = round(rng.uniform(-5.0, 5.0), 1)
        postings.append((key, (i // 40, i % 40)))
    postings[ROWS // 2] = (Unorderable(), postings[ROWS // 2][1])
    return postings


def make_index(buffers: BufferManager, name: str, kind: str):
    definition = IndexDefinition(name=name, table="t", column="k", kind=kind)
    if kind == BTREE:
        return BTreeIndex(buffers, definition)
    return HashIndex(buffers, definition, buckets=BUCKETS)


def build_pair(tmp_path, kind: str, block_size: int):
    """A bulk-loaded and an incrementally built index over the same postings."""
    buffers = BufferManager(FileManager(str(tmp_path), block_size), pool_size=16)
    postings = make_postings()
    bulk = make_index(buffers, "bulk", kind)
    bulk.rebuild(postings)
    incremental = make_index(buffers, "incremental", kind)
    for key, rid in postings:
        incremental.insert(key, rid)
    return postings, bulk, incremental


def probe_keys(postings):
    return {
        key for key, _ in postings if key is not None and not isinstance(key, Unorderable)
    }


def answers(index, keys):
    """Per-key postings, plus the full range scan for a B-tree."""
    result = {repr(key): index.search_eq(key) for key in keys}
    if index.kind == BTREE:
        result["<all>"] = [(repr(key), rid) for key, rid in index.search_range(None, None)]
    return result


def sorted_answers(index, keys):
    return {probe: sorted(found) for probe, found in answers(index, keys).items()}


def chains(index: HashIndex):
    """Each bucket's chain as the list of its pages' entries, head first."""
    result = []
    for bucket in range(1, index.buckets + 1):
        pages, number = [], bucket
        while number:
            number, entries = index._read_chain_page(number)
            pages.append(entries)
        result.append(pages)
    return result


def btree_nodes(index: BTreeIndex):
    """``(depth, node)`` for every node reachable from the root."""
    stack = [(index.root, index.height)]
    while stack:
        number, depth = stack.pop()
        node = index._read_node(number)
        yield depth, node
        if depth > 1:
            stack.append((node[1], depth - 1))
            stack.extend((child, depth - 1) for _, child in node[2])


def leaf_chain(index: BTreeIndex):
    """Every leaf entry as ``(sort_key, block, slot)``, in leaf-chain order."""
    entries, leaves, number = [], 0, index._leftmost_leaf()
    while number >= 0:
        _, number, leaf_entries = index._read_node(number)
        leaves += 1
        entries.extend((sort_key(key), block, slot) for key, block, slot in leaf_entries)
    return leaves, entries


def churn(index, postings, seed: int = 29):
    """Delete a seeded sample of postings and insert fresh ones, some into
    freed slots the way the heap reuses them."""
    rng = random.Random(seed)
    victims = rng.sample([p for p in postings if p[0] is not None], 200)
    for key, rid in victims:
        index.delete(key, rid)
    fresh = [
        (rng.choice((2, 2.0, "k" * rng.randrange(80), rng.randrange(6))), rid)
        for _, rid in victims[:100]
    ]
    fresh += [(rng.randrange(6), (ROWS // 40 + 1, slot)) for slot in range(100)]
    for key, rid in fresh:
        index.insert(key, rid)
    return fresh


@pytest.mark.parametrize("kind, block_size", [(BTREE, 512), (BTREE, 4096), (HASH, 4096)])
def test_bulk_load_matches_incremental_insert(tmp_path, kind, block_size):
    postings, bulk, incremental = build_pair(tmp_path, kind, block_size)
    keys = probe_keys(postings)
    assert bulk.incomplete and incremental.incomplete
    assert bulk.entry_count == incremental.entry_count == sum(
        1 for key, _ in postings if key is not None and not isinstance(key, Unorderable)
    )
    assert answers(bulk, keys) == answers(incremental, keys)
    assert len(bulk.search_eq(1)) == len(bulk.search_eq(True)) > 0
    if kind == HASH:
        bulk_chains = chains(bulk)
        assert bulk_chains == chains(incremental)
        assert any(len(chain) > 1 for chain in bulk_chains)  # overflow pages exist

    fresh = churn(bulk, postings)
    assert churn(incremental, postings) == fresh
    keys |= probe_keys(fresh)
    assert bulk.entry_count == incremental.entry_count
    assert sorted_answers(bulk, keys) == sorted_answers(incremental, keys)
    if kind == HASH:
        assert chains(bulk) == chains(incremental)


@pytest.mark.parametrize("block_size", [512, 4096])
class TestBulkLoadedBTree:
    @staticmethod
    def _load(tmp_path, block_size: int):
        buffers = BufferManager(FileManager(str(tmp_path), block_size), pool_size=16)
        index = make_index(buffers, "bulk", BTREE)
        index.rebuild(make_postings())
        return buffers, index

    def test_nodes_fit_their_page_and_fanout(self, tmp_path, block_size):
        _, bulk = self._load(tmp_path, block_size)
        depths = set()
        for depth, node in btree_nodes(bulk):
            depths.add(depth)
            assert node[0] == (1 if depth == 1 else 0)
            assert len(node[2]) <= _MAX_NODE_ENTRIES
            assert len(encode_record(node)) <= bulk._node_capacity()
        assert depths == set(range(1, bulk.height + 1))
        if block_size == 512:
            assert bulk.height >= 3

    def test_leaf_chain_is_in_key_then_rid_order(self, tmp_path, block_size):
        _, bulk = self._load(tmp_path, block_size)
        leaves, entries = leaf_chain(bulk)
        assert leaves == bulk.leaf_count
        assert len(entries) == bulk.entry_count
        assert entries == sorted(entries)

    def test_meta_survives_reopen(self, tmp_path, block_size):
        buffers, bulk = self._load(tmp_path, block_size)
        buffers.flush_all()
        reopened = BTreeIndex(
            BufferManager(FileManager(str(tmp_path), block_size), pool_size=16),
            bulk.definition,
        )
        expected = (bulk.root, bulk.height, bulk.entry_count, bulk.leaf_count, True)
        assert (
            reopened.root, reopened.height, reopened.entry_count,
            reopened.leaf_count, reopened.incomplete,
        ) == expected


@pytest.mark.parametrize("kind, column", [(BTREE, "Price"), (HASH, "Code")])
def test_build_pins_a_bounded_number_of_pages(tmp_path, kind, column):
    """A 4,000-row ``CREATE INDEX`` pins each index page about once, not a
    descent and a meta page per row."""
    rng = random.Random(7)
    engine = StorageEngine(str(tmp_path))
    schema = Schema((Column("Id", INTEGER), Column("Price", FLOAT), Column("Code", STRING)))
    storage = engine.create_table("Items", schema)
    for i in range(4000):
        storage.append((i, round(rng.uniform(0.0, 1000.0), 3), f"c{rng.randrange(4000)}"))
    handle = engine.create_index("items_idx", "Items", column, kind=kind)
    assert handle.entry_count == 4000
    assert handle.pages_read <= 3 * handle.block_count()
    engine.close()
