"""Path ORAM simulators: an array-backed fast path and a pure-Python reference.

ObliDB (the L-0 back-end evaluated in the paper) stores tables either as flat
arrays scanned obliviously or inside an ORAM so that point accesses do not
reveal which record was touched.  This module implements a faithful,
laptop-scale Path ORAM (Stefanov et al.) over opaque block payloads:

* a complete binary tree of buckets with ``bucket_size`` slots each,
* a client-side position map and stash,
* the standard access protocol: read the path for the block's leaf, remap the
  block to a fresh random leaf, write the path back greedily from the leaves.

Two implementations share one API:

* :class:`PathORAM` -- the one ObliDB builds: the tree lives in flat NumPy
  ``(num_nodes, bucket_size)`` slot arrays, path-node indices are computed
  with vectorized shifts, and :meth:`PathORAM.write_many` performs a *single
  combined eviction* for the whole batch -- every distinct tree node on the
  union of the batch's paths is read and written exactly once, instead of
  once per item.  Per-item RNG consumption is identical to the reference
  (one leaf draw for an absent block, one remap draw per item), so position
  maps evolve identically at a fixed seed.
* :class:`ReferencePathORAM` -- the original pure-Python implementation,
  kept as the executable specification (no back-end builds it).  Its
  ``write_many`` loops one oblivious access per item.  The property tests
  and the ORAM flush benchmark pin the fast path against it.

Both simulators expose the *access transcript* (which tree nodes were
touched) so tests can verify obliviousness: the distribution of touched
paths is independent of the logical access sequence.  They also count
physical block reads/writes and distinct node touches, which the ObliDB
cost model charges for -- batched accesses are accounted with the same
per-block constants as sequential ones, they simply touch fewer nodes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

__all__ = [
    "ORAMStats",
    "PathORAM",
    "ReferencePathORAM",
]


@dataclass
class ORAMStats:
    """Physical-access counters maintained by the ORAM."""

    accesses: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    stash_peak: int = 0
    #: Distinct tree nodes touched by accesses (a batch touches the union of
    #: its paths once; the sequential reference touches one path per item).
    nodes_touched: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = 0
        self.blocks_read = 0
        self.blocks_written = 0
        self.stash_peak = 0
        self.nodes_touched = 0


def _tree_geometry(capacity: int) -> tuple[int, int, int]:
    """(height, num_leaves, num_nodes) of the complete bucket tree."""
    height = max(1, int(np.ceil(np.log2(max(2, capacity)))))
    num_leaves = 2**height
    num_nodes = 2 ** (height + 1) - 1
    return height, num_leaves, num_nodes


def _position_map_snapshot(
    position_map: dict[int, int], stash: "dict | Iterable[int]"
) -> dict:
    """Deterministic, checksummed view of client-side ORAM metadata.

    Sorted ``(block_id, leaf)`` pairs plus the stash's block ids, with a
    SHA-256 over their canonical JSON encoding.  Shared by both ORAM
    implementations so the durable store can persist the snapshot alongside
    the pickled ORAM and verify on restore that the position map survived
    the round trip bit-exactly.
    """
    positions = sorted(
        (int(block), int(leaf)) for block, leaf in position_map.items()
    )
    stash_ids = sorted(int(block) for block in stash)
    encoded = json.dumps(
        {"positions": positions, "stash": stash_ids}, separators=(",", ":")
    ).encode()
    return {
        "positions": positions,
        "stash": stash_ids,
        "checksum": hashlib.sha256(encoded).hexdigest(),
    }


def _check_batch_capacity(
    position_map: dict[int, int], capacity: int, block_ids: Iterable[int]
) -> None:
    """Reject a write batch that would overflow ``capacity``, atomically.

    Shared by both implementations so the overflow predicate (and the error
    both differential tests match) can never drift between them: the whole
    batch is validated before any state change or RNG draw.
    """
    new_ids = {b for b in block_ids if b not in position_map}
    if len(position_map) + len(new_ids) > capacity:
        raise ValueError(f"ORAM capacity of {capacity} blocks exceeded")


class PathORAM:
    """Array-backed Path ORAM over opaque payloads keyed by integer block ids.

    The bucket tree is stored as two flat ``(num_nodes, bucket_size)`` int64
    arrays (block id per slot, assigned leaf per slot; ``-1`` marks an empty
    slot), payloads live in a side table keyed by block id, and the stash is
    an insertion-ordered ``block id -> leaf`` map that is lowered to NumPy
    arrays for the vectorized eviction pass.

    Parameters
    ----------
    capacity:
        Maximum number of logical blocks that can be stored.  The tree height
        is chosen so that the number of leaves is at least ``capacity``.
    bucket_size:
        Number of block slots per tree node (Z in the Path ORAM paper;
        4 is the standard choice).
    rng:
        Random generator used for leaf remapping.  Passing an explicitly
        seeded generator makes every access sequence reproducible.
    """

    def __init__(
        self,
        capacity: int,
        bucket_size: int = 4,
        rng: np.random.Generator | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if bucket_size <= 0:
            raise ValueError("bucket_size must be positive")
        self._capacity = capacity
        self._bucket_size = bucket_size
        self._rng = rng if rng is not None else np.random.default_rng()
        self._height, self._num_leaves, self._num_nodes = _tree_geometry(capacity)
        self._slot_ids = np.full((self._num_nodes, bucket_size), -1, dtype=np.int64)
        self._slot_leaves = np.full((self._num_nodes, bucket_size), -1, dtype=np.int64)
        self._payloads: dict[int, Any] = {}
        self._position_map: dict[int, int] = {}
        self._stash: dict[int, int] = {}
        self.stats = ORAMStats()
        self.last_path: tuple[int, ...] = ()

    # -- public API --------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of logical blocks."""
        return self._capacity

    @property
    def height(self) -> int:
        """Tree height (root has depth 0)."""
        return self._height

    @property
    def num_leaves(self) -> int:
        """Number of leaf buckets."""
        return self._num_leaves

    def __len__(self) -> int:
        return len(self._position_map)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._position_map

    def stash_size(self) -> int:
        """Current number of blocks waiting in the client stash."""
        return len(self._stash)

    def position_map_snapshot(self) -> dict:
        """Checksummed snapshot of the position map and stash (see
        :func:`_position_map_snapshot`); persisted by the durable store."""
        return _position_map_snapshot(self._position_map, self._stash)

    def write(self, block_id: int, payload: Any) -> None:
        """Insert or overwrite the block ``block_id`` with ``payload``."""
        _check_batch_capacity(self._position_map, self._capacity, [block_id])
        self._batch_access([(block_id, payload)], is_write=True)

    def write_many(self, items: Iterable[tuple[int, Any]]) -> None:
        """Insert a batch of ``(block_id, payload)`` pairs with one eviction.

        The whole batch is served as one combined oblivious access: every
        item's path is fetched, but each distinct tree node on the union of
        those paths is read -- and greedily written back -- exactly once.
        Per-item leaf remaps are still drawn independently, so the access
        pattern remains a set of uniformly random paths.
        """
        batch = list(items)
        if not batch:
            return
        _check_batch_capacity(
            self._position_map, self._capacity, (block_id for block_id, _ in batch)
        )
        self._batch_access(batch, is_write=True)

    def read(self, block_id: int) -> Any:
        """Read the payload of ``block_id`` (raises ``KeyError`` if absent)."""
        if block_id not in self._position_map:
            raise KeyError(f"block {block_id} is not stored in the ORAM")
        return self._batch_access([(block_id, None)], is_write=False)[0]

    def read_all(self) -> dict[int, Any]:
        """Return payloads of all stored blocks (a full oblivious scan).

        A full scan touches the entire tree, so it is charged as reading every
        bucket once; this is what ObliDB's oblivious full-scan operators do.
        """
        self.stats.blocks_read += self._num_nodes * self._bucket_size
        self.stats.nodes_touched += self._num_nodes
        result: dict[int, Any] = {}
        stored = self._slot_ids[self._slot_ids >= 0]
        for block_id in stored.tolist():
            result[block_id] = self._payloads[block_id]
        for block_id in self._stash:
            result[block_id] = self._payloads[block_id]
        return result

    # -- internals ----------------------------------------------------------

    def _path_nodes(self, leaf: int) -> list[int]:
        """Indices of tree nodes from root to the given leaf."""
        base = leaf + self._num_leaves
        return [(base >> (self._height - d)) - 1 for d in range(self._height + 1)]

    def _batch_access(self, items: list[tuple[int, Any]], is_write: bool) -> list[Any]:
        """Serve ``items`` as one combined access with a single eviction."""
        k = len(items)
        height, leaves_n = self._height, self._num_leaves
        self.stats.accesses += k

        # Per-item RNG draws, in the same order as sequential accesses: one
        # path draw for an absent block, then one remap draw for every item.
        position_map = self._position_map
        batch_ids = {block_id for block_id, _ in items}
        if (
            is_write
            and k > 1
            and len(batch_ids) == k
            and not any(block_id in position_map for block_id in batch_ids)
        ):
            # Pure-insert batch of distinct blocks (the ingest hot loop):
            # every item draws exactly (read leaf, remap leaf), so the whole
            # interleaved sequence is one vectorized draw of 2k integers --
            # NumPy fills bounded-integer arrays from the same bit stream as
            # repeated single draws, which the lockstep position-map tests
            # pin.  A batch re-writing an existing block (or repeating an id)
            # falls back to the per-item loop, whose draw count is data
            # dependent.
            draws = self._rng.integers(0, leaves_n, size=2 * k)
            read_leaves = draws[0::2].copy()
            for index, (block_id, _) in enumerate(items):
                position_map[block_id] = int(draws[2 * index + 1])
        else:
            read_leaves = np.empty(k, dtype=np.int64)
            for index, (block_id, _) in enumerate(items):
                leaf = position_map.get(block_id)
                if leaf is None:
                    leaf = int(self._rng.integers(0, leaves_n))
                new_leaf = int(self._rng.integers(0, leaves_n))
                position_map[block_id] = new_leaf
                read_leaves[index] = leaf

        # Vectorized root-to-leaf node indices: ancestor of leaf ``l`` at
        # depth ``d`` is ``((l + num_leaves) >> (height - d)) - 1``.
        bases = read_leaves + leaves_n
        depths = np.arange(height + 1, dtype=np.int64)
        path_matrix = (bases[:, None] >> (height - depths)[None, :]) - 1
        self.last_path = tuple(path_matrix[-1].tolist())
        union = np.unique(path_matrix)

        # Read every distinct node on the union of paths into the stash.
        bucket_ids = self._slot_ids[union]
        bucket_leaves = self._slot_leaves[union]
        occupied = bucket_ids >= 0
        for block_id, leaf in zip(
            bucket_ids[occupied].tolist(), bucket_leaves[occupied].tolist()
        ):
            self._stash[block_id] = leaf
        self._slot_ids[union] = -1
        self._slot_leaves[union] = -1
        self.stats.blocks_read += int(union.size) * self._bucket_size
        self.stats.nodes_touched += int(union.size)

        # Serve the requests from the stash / payload table.
        results: list[Any] = []
        for block_id, payload in items:
            if is_write:
                self._payloads[block_id] = payload
                self._stash[block_id] = self._position_map[block_id]
            else:
                if block_id not in self._stash:
                    raise KeyError(f"block {block_id} missing from ORAM path and stash")
                self._stash[block_id] = self._position_map[block_id]
                results.append(self._payloads[block_id])

        self.stats.stash_peak = max(self.stats.stash_peak, len(self._stash))
        self._evict(union, path_matrix)
        return results

    def _evict(self, union: np.ndarray, path_matrix: np.ndarray) -> None:
        """Greedy deepest-first write-back over the union of fetched paths.

        Every node in ``union`` was emptied by the read phase, so each can
        accept up to ``bucket_size`` stash blocks.  Levels are processed from
        the leaves up; within a level, placement is resolved with one stable
        sort over the eligible stash blocks (rank within bucket = slot).
        """
        height, leaves_n, z = self._height, self._num_leaves, self._bucket_size
        if self._stash:
            stash_ids = np.fromiter(self._stash.keys(), dtype=np.int64, count=len(self._stash))
            stash_leaves = np.fromiter(
                self._stash.values(), dtype=np.int64, count=len(self._stash)
            )
            placed = np.zeros(stash_ids.size, dtype=bool)
            for depth in range(height, -1, -1):
                level_nodes = np.unique(path_matrix[:, depth])
                candidate_nodes = ((stash_leaves + leaves_n) >> (height - depth)) - 1
                eligible = ~placed & np.isin(candidate_nodes, level_nodes)
                if not eligible.any():
                    continue
                idx = np.flatnonzero(eligible)
                nodes = candidate_nodes[idx]
                order = np.argsort(nodes, kind="stable")
                idx, nodes = idx[order], nodes[order]
                starts = np.flatnonzero(np.r_[True, nodes[1:] != nodes[:-1]])
                rank = np.arange(nodes.size) - np.repeat(starts, np.diff(np.r_[starts, nodes.size]))
                fits = rank < z
                sel_idx, sel_nodes, sel_rank = idx[fits], nodes[fits], rank[fits]
                self._slot_ids[sel_nodes, sel_rank] = stash_ids[sel_idx]
                self._slot_leaves[sel_nodes, sel_rank] = stash_leaves[sel_idx]
                placed[sel_idx] = True
            if placed.any():
                for block_id in stash_ids[placed].tolist():
                    del self._stash[block_id]
        self.stats.blocks_written += int(union.size) * z


class ReferencePathORAM:
    """Pure-Python Path ORAM kept as the executable reference specification.

    Identical public surface to :class:`PathORAM`; every access -- including
    each item of :meth:`write_many` -- performs its own path read, remap and
    greedy eviction, exactly as in the Path ORAM paper's sequential protocol.
    """

    def __init__(
        self,
        capacity: int,
        bucket_size: int = 4,
        rng: np.random.Generator | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if bucket_size <= 0:
            raise ValueError("bucket_size must be positive")
        self._capacity = capacity
        self._bucket_size = bucket_size
        self._rng = rng if rng is not None else np.random.default_rng()
        self._height, self._num_leaves, self._num_nodes = _tree_geometry(capacity)
        self._tree: list[list[_Block]] = [[] for _ in range(self._num_nodes)]
        self._position_map: dict[int, int] = {}
        self._stash: dict[int, _Block] = {}
        self.stats = ORAMStats()
        self.last_path: tuple[int, ...] = ()

    # -- public API --------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of logical blocks."""
        return self._capacity

    @property
    def height(self) -> int:
        """Tree height (root has depth 0)."""
        return self._height

    @property
    def num_leaves(self) -> int:
        """Number of leaf buckets."""
        return self._num_leaves

    def __len__(self) -> int:
        return len(self._position_map)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._position_map

    def stash_size(self) -> int:
        """Current number of blocks waiting in the client stash."""
        return len(self._stash)

    def position_map_snapshot(self) -> dict:
        """Checksummed snapshot of the position map and stash (see
        :func:`_position_map_snapshot`); persisted by the durable store."""
        return _position_map_snapshot(self._position_map, self._stash)

    def write(self, block_id: int, payload: Any) -> None:
        """Insert or overwrite the block ``block_id`` with ``payload``."""
        _check_batch_capacity(self._position_map, self._capacity, [block_id])
        self._access(block_id, payload, is_write=True)

    def write_many(self, items: Iterable[tuple[int, Any]]) -> None:
        """Insert a batch of ``(block_id, payload)`` pairs.

        The reference performs one full oblivious access per item; the fast
        path's combined batch eviction is pinned against this behaviour by
        the differential tests (identical position maps, fewer node touches).
        Capacity is checked for the whole batch up front, exactly like the
        fast path, so an overflowing batch fails atomically (no partial
        writes, no RNG consumption) in either implementation.
        """
        batch = list(items)
        _check_batch_capacity(
            self._position_map, self._capacity, (b for b, _ in batch)
        )
        for block_id, payload in batch:
            self.write(block_id, payload)

    def read(self, block_id: int) -> Any:
        """Read the payload of ``block_id`` (raises ``KeyError`` if absent)."""
        if block_id not in self._position_map:
            raise KeyError(f"block {block_id} is not stored in the ORAM")
        return self._access(block_id, None, is_write=False)

    def read_all(self) -> dict[int, Any]:
        """Return payloads of all stored blocks (a full oblivious scan)."""
        self.stats.blocks_read += self._num_nodes * self._bucket_size
        self.stats.nodes_touched += self._num_nodes
        result: dict[int, Any] = {}
        for bucket in self._tree:
            for block in bucket:
                result[block.block_id] = block.payload
        for block_id, block in self._stash.items():
            result[block_id] = block.payload
        return result

    # -- internals ----------------------------------------------------------

    def _path_nodes(self, leaf: int) -> list[int]:
        """Indices of tree nodes from root to the given leaf."""
        node = leaf + self._num_leaves - 1
        path = []
        while True:
            path.append(node)
            if node == 0:
                break
            node = (node - 1) // 2
        path.reverse()
        return path

    def _access(self, block_id: int, payload: Any, is_write: bool) -> Any:
        self.stats.accesses += 1
        leaf = self._position_map.get(block_id)
        if leaf is None:
            leaf = int(self._rng.integers(0, self._num_leaves))
        new_leaf = int(self._rng.integers(0, self._num_leaves))
        self._position_map[block_id] = new_leaf

        path = self._path_nodes(leaf)
        self.last_path = tuple(path)

        # Read the whole path into the stash.
        for node in path:
            bucket = self._tree[node]
            self.stats.blocks_read += self._bucket_size
            self.stats.nodes_touched += 1
            for block in bucket:
                self._stash[block.block_id] = block
            self._tree[node] = []

        # Serve the request from the stash.
        result = None
        if is_write:
            self._stash[block_id] = _Block(block_id, payload, new_leaf)
        else:
            block = self._stash.get(block_id)
            if block is None:
                raise KeyError(f"block {block_id} missing from ORAM path and stash")
            block.leaf = new_leaf
            result = block.payload

        self.stats.stash_peak = max(self.stats.stash_peak, len(self._stash))

        # Write the path back, placing each stashed block as deep as possible.
        for node in reversed(path):
            depth = self._node_depth(node)
            bucket: list[_Block] = []
            for candidate_id in list(self._stash.keys()):
                if len(bucket) >= self._bucket_size:
                    break
                candidate = self._stash[candidate_id]
                candidate_path = self._path_nodes(self._position_map[candidate_id])
                if len(candidate_path) > depth and candidate_path[depth] == node:
                    bucket.append(candidate)
                    del self._stash[candidate_id]
            self._tree[node] = bucket
            self.stats.blocks_written += self._bucket_size
        return result

    @staticmethod
    def _node_depth(node: int) -> int:
        depth = 0
        while node != 0:
            node = (node - 1) // 2
            depth += 1
        return depth


@dataclass
class _Block:
    block_id: int
    payload: Any
    leaf: int
