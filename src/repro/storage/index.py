"""Secondary indexes over the paged heap: a B-tree and a hash index.

Both index kinds are ordinary page files reached through the shared
:class:`~repro.storage.buffer.BufferManager`, so index I/O shows up in the
same hit/miss/eviction counters as heap I/O.  Postings are heap RIDs
``(block, slot)`` — the slotted-page layer keeps slots stable across
deletes, so postings never dangle while maintenance is wired.

B-tree layout (``<table>.<index>.btx``):

* block 0 — meta page: magic, root block, height (1 = root is a leaf),
  entry count, leaf count, and an ``incomplete`` flag set when a key of an
  unorderable type (e.g. a ``DataObject``) was skipped;
* node pages — one encoded record per page (``length`` at offset 0, payload
  from offset 4).  A leaf is ``(1, next_leaf, [(key, block, slot), ...])``
  with leaves chained left to right for range scans; an internal node is
  ``(0, first_child, [(key, child), ...])`` where ``child`` serves keys
  ``>= key`` and ``first_child`` everything smaller.  Equal keys may also
  end the left sibling (a split or a load can cut a run of duplicates), so
  descents go left of an equal separator and lookups walk the leaf chain
  forward from there.

Hash layout (``<table>.<index>.hsx``): block 0 is the meta page, blocks
``1..buckets`` are bucket heads, each a chain page ``(next_block,
length, payload)`` whose payload is ``[(encoded_key, block, slot), ...]``.
Bucketing hashes ``crc32(encode_value(key))`` — deliberately not Python's
process-randomised ``hash()`` — so a reopened database hashes identically.

Both kinds are built by one bulk load, :meth:`rebuild`, used for an empty
index as well as ``CREATE INDEX`` and the rebuild on reopen.  The B-tree
sorts its postings by ``(sort_key, rid)``, packs leaves greedily up to the
node limits, and builds each internal level bottom-up from the first key
of every child.  The hash index places entries first-fit along their
bucket's chain in memory, exactly as :meth:`HashIndex.insert` would, so
the chains match an insert-by-insert build page for page; only overflow
block numbers differ.  Either writes each page once and the meta page
last.  ``insert`` and ``delete`` maintain an index row by row as the
table changes.

Keys are compared by ``(type_rank, value)`` so mixed numeric/string/bytes
columns still order totally; ``None`` keys are never indexed (an equality
probe can't match NULL under three-valued logic).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferManager
from repro.storage.page import BlockId, decode_record, encode_record, encode_value
from repro.storage.record import RecordId

_BTREE_MAGIC = 0x1DB7
_HASH_MAGIC = 0x1DB8
#: Hard cap on node fanout, besides the page-size limit.
_MAX_NODE_ENTRIES = 128
_DEFAULT_BUCKETS = 64

BTREE = "btree"
HASH = "hash"


def _type_rank(value: Any) -> int:
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return 0
    if isinstance(value, str):
        return 1
    if isinstance(value, (bytes, bytearray)):
        return 2
    raise TypeError(f"value of type {type(value).__name__} is not orderable")


def sort_key(value: Any) -> Tuple[int, Any]:
    """A totally ordered key for any orderable indexed value."""
    return (_type_rank(value), value)


@dataclass(frozen=True)
class IndexDefinition:
    """One secondary index as recorded in the catalog."""

    name: str
    table: str
    column: str
    kind: str  # BTREE or HASH

    @property
    def file_name(self) -> str:
        suffix = "btx" if self.kind == BTREE else "hsx"
        return f"{self.table.lower()}.{self.name.lower()}.{suffix}"

    def describe(self) -> str:
        return f"{self.kind} index {self.name} on {self.table}({self.column})"


class _PagedIndex:
    """Shared plumbing: meta page access and node allocation."""

    def __init__(self, buffers: BufferManager, definition: IndexDefinition) -> None:
        self.buffers = buffers
        self.definition = definition
        self.file_name = definition.file_name
        #: Cumulative index pages pinned; operators snapshot deltas per query.
        self.pages_read = 0

    def _pin(self, number: int):
        self.pages_read += 1
        return self.buffers.pin(BlockId(self.file_name, number))

    def _pin_new(self):
        self.pages_read += 1
        return self.buffers.pin_new(self.file_name)

    def block_count(self) -> int:
        return self.buffers.file_manager.block_count(self.file_name)

    def delete_file(self) -> None:
        self.buffers.discard(self.file_name)
        self.buffers.file_manager.delete(self.file_name)

    # -- meta page ---------------------------------------------------------------

    def _read_meta(self, expected_magic: int) -> List[int]:
        buffer = self._pin(0)
        try:
            if buffer.page.read_int(0) != expected_magic:
                raise StorageError(
                    f"{self.file_name!r} is not a valid index file "
                    f"for {self.definition.describe()}"
                )
            return [buffer.page.read_int(4 * i) for i in range(1, 8)]
        finally:
            self.buffers.unpin(buffer)

    def _write_meta(self, magic: int, fields: Sequence[int]) -> None:
        buffer = self._pin(0)
        try:
            buffer.page.write_int(0, magic)
            for i, value in enumerate(fields, start=1):
                buffer.page.write_int(4 * i, value)
            buffer.mark_dirty()
        finally:
            self.buffers.unpin(buffer)


class BTreeIndex(_PagedIndex):
    """A paged B-tree mapping column values to heap RIDs."""

    kind = BTREE
    supports_range = True

    def __init__(self, buffers: BufferManager, definition: IndexDefinition) -> None:
        super().__init__(buffers, definition)
        if self.block_count() == 0:
            self.rebuild(())
        meta = self._read_meta(_BTREE_MAGIC)
        self.root, self.height, self.entry_count, self.leaf_count, flag = meta[:5]
        self.incomplete = bool(flag)

    def _save_meta(self) -> None:
        self._write_meta(
            _BTREE_MAGIC,
            [self.root, self.height, self.entry_count, self.leaf_count,
             1 if self.incomplete else 0],
        )

    # -- node codec --------------------------------------------------------------

    def _node_capacity(self) -> int:
        return self.buffers.file_manager.block_size - 4

    def _encode_node(self, page, node: Tuple[int, int, List[tuple]]) -> None:
        payload = encode_record(node)
        if len(payload) > self._node_capacity():
            raise StorageError(
                f"index node of {len(payload)} bytes overflows a page in "
                f"{self.file_name!r}"
            )
        page.write_int(0, len(payload))
        page.write_bytes(4, payload)

    def _read_node(self, number: int) -> Tuple[int, int, List[tuple]]:
        buffer = self._pin(number)
        try:
            length = buffer.page.read_int(0)
            payload = buffer.page.read_bytes(4, length)
        finally:
            self.buffers.unpin(buffer)
        values, _ = decode_record(payload)
        is_leaf, pointer, entries = values
        return int(is_leaf), int(pointer), [tuple(entry) for entry in entries]

    def _write_node(self, number: int, node: Tuple[int, int, List[tuple]]) -> None:
        buffer = self._pin(number)
        try:
            self._encode_node(buffer.page, node)
            buffer.mark_dirty()
        finally:
            self.buffers.unpin(buffer)

    def _allocate_node(self, node: Tuple[int, int, List[tuple]]) -> int:
        buffer = self._pin_new()
        try:
            self._encode_node(buffer.page, node)
            buffer.mark_dirty()
            return buffer.block.number
        finally:
            self.buffers.unpin(buffer)

    def _node_overflows(self, node: Tuple[int, int, List[tuple]]) -> bool:
        if len(node[2]) > _MAX_NODE_ENTRIES:
            return True
        return len(encode_record(node)) > self._node_capacity()

    # -- mutation ----------------------------------------------------------------

    def insert(self, key: Any, rid: RecordId) -> bool:
        """Index ``key -> rid``; False when the key is unindexable."""
        if key is None:
            return False
        try:
            sk = sort_key(key)
        except TypeError:
            if not self.incomplete:
                self.incomplete = True
                self._save_meta()
            return False
        split = self._insert_into(self.root, self.height, sk, key, rid)
        if split is not None:
            sep_key, right = split
            self.root = self._allocate_node((0, self.root, [(sep_key, right)]))
            self.height += 1
        self.entry_count += 1
        self._save_meta()
        return True

    def _insert_into(
        self, number: int, depth: int, sk: Tuple[int, Any], key: Any, rid: RecordId
    ) -> Optional[Tuple[Any, int]]:
        is_leaf, pointer, entries = self._read_node(number)
        if depth == 1:
            position = len(entries)
            for i, (existing, block, slot) in enumerate(entries):
                if (sort_key(existing), block, slot) > (sk, rid[0], rid[1]):
                    position = i
                    break
            entries.insert(position, (key, rid[0], rid[1]))
            node = (1, pointer, entries)
            if not self._node_overflows(node):
                self._write_node(number, node)
                return None
            middle = len(entries) // 2
            right_entries = entries[middle:]
            right = self._allocate_node((1, pointer, right_entries))
            self.leaf_count += 1
            self._write_node(number, (1, right, entries[:middle]))
            return (right_entries[0][0], right)
        child = pointer
        for existing, child_block in entries:
            if sk >= sort_key(existing):
                child = child_block
            else:
                break
        split = self._insert_into(child, depth - 1, sk, key, rid)
        if split is None:
            return None
        sep_key, new_child = split
        sep_sk = sort_key(sep_key)
        position = len(entries)
        for i, (existing, _) in enumerate(entries):
            if sort_key(existing) > sep_sk:
                position = i
                break
        entries.insert(position, (sep_key, new_child))
        node = (0, pointer, entries)
        if not self._node_overflows(node):
            self._write_node(number, node)
            return None
        middle = len(entries) // 2
        promoted, promoted_child = entries[middle]
        right = self._allocate_node((0, promoted_child, entries[middle + 1 :]))
        self._write_node(number, (0, pointer, entries[:middle]))
        return (promoted, right)

    def delete(self, key: Any, rid: RecordId) -> bool:
        """Remove one posting; False when the key was never indexed."""
        if key is None:
            return False
        try:
            sk = sort_key(key)
        except TypeError:
            return False
        number = self._descend_to_leaf(sk)
        while number >= 0:
            is_leaf, next_leaf, entries = self._read_node(number)
            for i, (existing, block, slot) in enumerate(entries):
                existing_sk = sort_key(existing)
                if existing_sk == sk and (block, slot) == rid:
                    del entries[i]
                    self._write_node(number, (1, next_leaf, entries))
                    self.entry_count -= 1
                    self._save_meta()
                    return True
                if existing_sk > sk:
                    return False
            number = next_leaf
        return False

    # -- lookup ------------------------------------------------------------------

    def _descend_to_leaf(self, sk: Tuple[int, Any]) -> int:
        """The leaf a forward scan for keys ``>= sk`` starts from.

        Copies of a separator's key may also end its left sibling, so the
        descent stops left of an equal separator and the caller walks on.
        """
        number, depth = self.root, self.height
        while depth > 1:
            _, pointer, entries = self._read_node(number)
            child = pointer
            for existing, child_block in entries:
                if sort_key(existing) < sk:
                    child = child_block
                else:
                    break
            number = child
            depth -= 1
        return number

    def _leftmost_leaf(self) -> int:
        number, depth = self.root, self.height
        while depth > 1:
            _, pointer, _ = self._read_node(number)
            number = pointer
            depth -= 1
        return number

    def search_eq(self, key: Any) -> List[RecordId]:
        """RIDs of every record whose indexed value equals ``key``."""
        return [rid for _, rid in self.search_range(key, key, True, True)]

    def search_range(
        self,
        low: Any,
        high: Any,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Tuple[Any, RecordId]]:
        """Yield ``(key, rid)`` for keys in the given range, in key order.

        ``None`` bounds are open ends.  Unorderable bounds yield nothing.
        """
        try:
            low_sk = sort_key(low) if low is not None else None
            high_sk = sort_key(high) if high is not None else None
        except TypeError:
            return
        number = self._descend_to_leaf(low_sk) if low_sk is not None else self._leftmost_leaf()
        while number >= 0:
            _, next_leaf, entries = self._read_node(number)
            for key, block, slot in entries:
                sk = sort_key(key)
                if low_sk is not None:
                    if sk < low_sk or (sk == low_sk and not include_low):
                        continue
                if high_sk is not None:
                    if sk > high_sk or (sk == high_sk and not include_high):
                        return
                yield key, (block, slot)
            number = next_leaf

    # -- bulk / introspection ----------------------------------------------------

    def rebuild(self, pairs: Iterable[Tuple[Any, RecordId]]) -> None:
        """Drop the file and bulk-load it from ``(key, rid)`` pairs.

        Postings are sorted by ``(sort_key, rid)`` and packed into leaves
        left to right; each internal level is then built bottom-up, every
        child separated by its first key.  Each page is written once, the
        meta page last.
        """
        self.incomplete = False
        postings = []
        for key, rid in pairs:
            if key is None:
                continue
            try:
                postings.append((sort_key(key), rid[0], rid[1], key))
            except TypeError:
                self.incomplete = True
        postings.sort()
        leaves = self._pack([(key, block, slot) for _, block, slot, key in postings], leaf=True)

        self.delete_file()
        self.buffers.unpin(self._pin_new())  # block 0: the meta page, written last
        first = self.block_count()  # leaves take consecutive blocks from here
        level = []
        for i, entries in enumerate(leaves):
            next_leaf = first + i + 1 if i + 1 < len(leaves) else -1
            number = self._allocate_node((1, next_leaf, entries))
            level.append((entries[0][0] if entries else None, number))
        self.height = 1
        while len(level) > 1:
            level = [
                (run[0][0], self._allocate_node((0, run[0][1], run[1:])))
                for run in self._pack(level, leaf=False)
            ]
            self.height += 1
        self.root = level[0][1]
        self.entry_count, self.leaf_count = len(postings), len(leaves)
        self._save_meta()

    def _pack(self, items: List[tuple], leaf: bool) -> List[List[tuple]]:
        """Split ``items`` greedily into runs that each fill one node.

        A run stops at ``_MAX_NODE_ENTRIES`` entries or at the page's byte
        capacity, the limits :meth:`_node_overflows` enforces.  An internal
        node's first child sits in its pointer field and costs no entry.
        """
        room = self._node_capacity() - len(encode_record((int(leaf), -1, [])))
        runs: List[List[tuple]] = []
        count = used = 0
        for item in items:
            width = len(encode_value(item))
            if not runs or count == _MAX_NODE_ENTRIES or used + width > room:
                runs.append([item])
                count, used = (1, width) if leaf else (0, 0)
            else:
                runs[-1].append(item)
                count += 1
                used += width
        return runs or [[]]

    def average_leaf_entries(self) -> float:
        return self.entry_count / max(1, self.leaf_count)

    def __repr__(self) -> str:
        return (
            f"BTreeIndex({self.definition.name!r}, entries={self.entry_count}, "
            f"height={self.height}, leaves={self.leaf_count})"
        )


class HashIndex(_PagedIndex):
    """A static-bucket hash index for equality probes only."""

    kind = HASH
    supports_range = False
    height = 1  # costing: one bucket page per probe, plus chain pages

    def __init__(
        self,
        buffers: BufferManager,
        definition: IndexDefinition,
        buckets: int = _DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(buffers, definition)
        if self.block_count() == 0:
            self.buckets = buckets
            self.rebuild(())
        meta = self._read_meta(_HASH_MAGIC)
        self.buckets, self.entry_count, flag = meta[:3]
        self.incomplete = bool(flag)

    def _save_meta(self) -> None:
        self._write_meta(
            _HASH_MAGIC, [self.buckets, self.entry_count, 1 if self.incomplete else 0]
        )

    # -- chain pages -------------------------------------------------------------

    def _write_chain_page(self, page, next_block: int, entries: List[tuple]) -> None:
        payload = encode_record(entries)
        if len(payload) > self._chain_room():
            raise StorageError(
                f"hash chain page overflow in {self.file_name!r} "
                f"({len(payload)} bytes)"
            )
        page.write_int(0, next_block)
        page.write_int(4, len(payload))
        page.write_bytes(8, payload)

    def _read_chain_page(self, number: int) -> Tuple[int, List[tuple]]:
        buffer = self._pin(number)
        try:
            next_block = buffer.page.read_int(0)
            length = buffer.page.read_int(4)
            payload = buffer.page.read_bytes(8, length)
        finally:
            self.buffers.unpin(buffer)
        values, _ = decode_record(payload)
        return next_block, [tuple(entry) for entry in values]

    def _chain_room(self) -> int:
        return self.buffers.file_manager.block_size - 8

    def _chain_fits(self, entries: List[tuple]) -> bool:
        return len(encode_record(entries)) <= self._chain_room()

    def _append_chain_page(self, next_block: int, entries: List[tuple]) -> int:
        buffer = self._pin_new()
        try:
            self._write_chain_page(buffer.page, next_block, entries)
            buffer.mark_dirty()
            return buffer.block.number
        finally:
            self.buffers.unpin(buffer)

    def _bucket_block(self, key_bytes: bytes) -> int:
        return 1 + (zlib.crc32(key_bytes) % self.buckets)

    @staticmethod
    def _encode_key(key: Any) -> Optional[bytes]:
        # Numeric keys hash by *value*, not representation: ``1``, ``1.0``
        # and ``True`` are equal in Python (and in predicate evaluation) but
        # encode to different byte strings, which would make a float probe
        # miss an int entry.  Coerce every numeric key to float first; keys
        # too large for a float keep their exact encoding (a probe with the
        # same exact value still matches).
        if isinstance(key, (bool, int, float)):
            try:
                key = float(key)
            except OverflowError:
                pass
        try:
            return encode_value(key)
        except Exception:
            return None

    # -- mutation ----------------------------------------------------------------

    def insert(self, key: Any, rid: RecordId) -> bool:
        if key is None:
            return False
        key_bytes = self._encode_key(key)
        if key_bytes is None:
            if not self.incomplete:
                self.incomplete = True
                self._save_meta()
            return False
        number = self._bucket_block(key_bytes)
        while True:
            next_block, entries = self._read_chain_page(number)
            candidate = entries + [(key_bytes, rid[0], rid[1])]
            if self._chain_fits(candidate):
                self._rewrite_chain_page(number, next_block, candidate)
                break
            if next_block:
                number = next_block
                continue
            overflow_number = self._append_chain_page(0, [(key_bytes, rid[0], rid[1])])
            self._rewrite_chain_page(number, overflow_number, entries)
            break
        self.entry_count += 1
        self._save_meta()
        return True

    def _rewrite_chain_page(self, number: int, next_block: int, entries: List[tuple]) -> None:
        buffer = self._pin(number)
        try:
            self._write_chain_page(buffer.page, next_block, entries)
            buffer.mark_dirty()
        finally:
            self.buffers.unpin(buffer)

    def delete(self, key: Any, rid: RecordId) -> bool:
        if key is None:
            return False
        key_bytes = self._encode_key(key)
        if key_bytes is None:
            return False
        number = self._bucket_block(key_bytes)
        while number:
            next_block, entries = self._read_chain_page(number)
            for i, (existing, block, slot) in enumerate(entries):
                if existing == key_bytes and (block, slot) == rid:
                    del entries[i]
                    self._rewrite_chain_page(number, next_block, entries)
                    self.entry_count -= 1
                    self._save_meta()
                    return True
            number = next_block
        return False

    # -- lookup ------------------------------------------------------------------

    def search_eq(self, key: Any) -> List[RecordId]:
        if key is None:
            return []
        key_bytes = self._encode_key(key)
        if key_bytes is None:
            return []
        result: List[RecordId] = []
        number = self._bucket_block(key_bytes)
        while number:
            next_block, entries = self._read_chain_page(number)
            for existing, block, slot in entries:
                if existing == key_bytes:
                    result.append((block, slot))
            number = next_block
        return result

    def rebuild(self, pairs: Iterable[Tuple[Any, RecordId]]) -> None:
        """Drop the file and bulk-load it from ``(key, rid)`` pairs.

        Each entry goes first-fit along its bucket's chain in input order,
        as :meth:`insert` places it, but in memory; then every chain page is
        written once.  Bucket heads keep blocks ``1..buckets`` and overflow
        pages follow, bucket by bucket.
        """
        self.incomplete = False
        room = self._chain_room()
        empty = len(encode_record([]))
        # Per bucket, its chain's pages as ``[payload bytes, entries]``.
        chains = [[[empty, []]] for _ in range(self.buckets)]
        for key, rid in pairs:
            if key is None:
                continue
            key_bytes = self._encode_key(key)
            if key_bytes is None:
                self.incomplete = True
                continue
            entry = (key_bytes, rid[0], rid[1])
            width = len(encode_value(entry))
            chain = chains[self._bucket_block(key_bytes) - 1]
            page = next((page for page in chain if page[0] + width <= room), None)
            if page is None:
                page = [empty, []]
                chain.append(page)
            page[0] += width
            page[1].append(entry)

        self.delete_file()
        self.buffers.unpin(self._pin_new())  # block 0: the meta page, written last
        heads, overflow = [], []
        spare = 1 + self.buckets
        for chain in chains:
            links = list(range(spare, spare + len(chain) - 1))
            spare += len(links)
            pages = [(next_block, entries) for (_, entries), next_block in zip(chain, links + [0])]
            heads.append(pages[0])
            overflow.extend(pages[1:])
        for next_block, entries in heads + overflow:
            self._append_chain_page(next_block, entries)
        self.entry_count = sum(len(entries) for _, entries in heads + overflow)
        self._save_meta()

    def average_leaf_entries(self) -> float:
        return self.entry_count / max(1, self.buckets)

    def __repr__(self) -> str:
        return (
            f"HashIndex({self.definition.name!r}, entries={self.entry_count}, "
            f"buckets={self.buckets})"
        )


def open_index(buffers: BufferManager, definition: IndexDefinition):
    """Open (or create empty) the index file behind ``definition``."""
    if definition.kind == BTREE:
        return BTreeIndex(buffers, definition)
    if definition.kind == HASH:
        return HashIndex(buffers, definition)
    raise StorageError(f"unknown index kind {definition.kind!r}")
