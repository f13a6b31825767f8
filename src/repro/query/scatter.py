"""Scatter-gather query evaluation over sharded encrypted databases.

When a table's records are hash-partitioned across K independent EDB shards
(:class:`repro.edb.router.ShardRouter`), the paper's three query shapes all
decompose into *partial aggregates* computed per shard plus a cheap,
deterministic merge at the coordinator -- the classic distributed
aggregation/join-evaluation move (cf. PANDA-style join decomposition and the
incremental-maintenance view of counts under updates):

* ``COUNT(*) WHERE p``           -- per-shard counts, merged by summation;
* ``... GROUP BY g``             -- per-shard group histograms, merged by
  per-key summation with keys kept in first-appearance order across shards
  (shard order first, per-shard order within);
* ``COUNT(*)`` of an equi-join   -- per-shard *per-side key histograms*
  (a join over hash-partitioned sides cannot be summed shard-locally:
  a left record on shard 0 joins right records on shard 1), merged into
  global per-side histograms whose dot product is the exact join count.

Every merge is pure integer/float arithmetic over the shard answers, so for
*exact* back-ends (ObliDB's L-0 answers) the gathered answer over K shards
equals the answer the unsharded back-end computes over the union of the
shards' records -- the property the fleet benchmarks assert at every query
point.  On an L-DP back-end (Crypt-epsilon) each shard perturbs its partial
answer independently, so the gathered answer carries the *sum* of K noise
draws (K-fold variance): semantically each shard is its own L-DP EDB, but
sharding is not accuracy-free there the way it is on exact back-ends.

Because the merges are deterministic functions of the per-shard partials
taken in shard-index order, the same gather runs unchanged on every router
executor -- the sequential loop or pipelined persistent worker processes
(:mod:`repro.edb.shard_worker`); only where the partials are *computed*
moves, never what the coordinator gathers.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence, TypeVar

from repro.query.ast import (
    GroupByCountQuery,
    JoinCountQuery,
    ModCountQuery,
    MultiJoinCountQuery,
    Query,
)

__all__ = [
    "merge_scalar_counts",
    "merge_grouped_counts",
    "merge_partial_answers",
    "join_count_from_histograms",
    "join_side_probes",
    "multi_join_count_from_histograms",
    "multi_join_probes",
    "drain",
]

_R = TypeVar("_R")


def drain(collects: Sequence[Callable[[], _R]]) -> list[_R]:
    """Call every collect in order, then raise the first failure (if any).

    The fan-out failure-propagation contract: when one shard call raises
    (e.g. :class:`~repro.edb.shard_worker.ShardWorkerDied` from a killed
    worker), the sibling calls are *drained* -- each pipelined command's
    reply read -- before the error propagates.  That guarantees no pipe
    holds an unread reply when the caller starts recovery or teardown, and
    it makes the raised error deterministic: the first failure in item
    (shard) order, not in wall-clock completion order.
    """
    error: BaseException | None = None
    results: list = []
    for collect in collects:
        try:
            results.append(collect())
        except BaseException as exc:  # noqa: BLE001 - re-raised after drain
            if error is None:
                error = exc
    if error is not None:
        raise error
    return results


def merge_scalar_counts(parts: Sequence[int | float]) -> int | float:
    """Gather a scalar count: the sum of the per-shard partial counts.

    The sum stays an ``int`` when every part is integral (exact back-ends),
    and becomes a ``float`` as soon as any shard answered with DP noise left
    unrounded.
    """
    return sum(parts)


def merge_grouped_counts(parts: Sequence[Mapping]) -> dict:
    """Gather per-group counts: per-key summation, first-appearance order.

    Keys appear in the order shards are visited and, within one shard, in
    that shard's answer order -- a deterministic function of the shard
    contents, which keeps gathered answers reproducible at a fixed seed.
    """
    merged: dict = {}
    for part in parts:
        for key, count in part.items():
            merged[key] = merged.get(key, 0) + count
    return merged


def merge_partial_answers(query: Query, parts: Sequence) -> "int | float | dict":
    """Gather the per-shard partial answers of one scattered query.

    Dispatches on the query shape: group-by answers merge per key
    (:func:`merge_grouped_counts`), scalar counts merge by summation.  Join
    counts never reach this function -- they scatter as two group-by probes
    (:func:`join_side_probes`) whose merged histograms feed
    :func:`join_count_from_histograms`.
    """
    if isinstance(query, (JoinCountQuery, MultiJoinCountQuery)):
        raise TypeError(
            "join counts are gathered from per-side histograms, not merged "
            "per-shard answers"
        )
    if isinstance(query, GroupByCountQuery):
        return merge_grouped_counts(parts)
    if isinstance(query, ModCountQuery):
        # Sum-then-re-mod is the valid homomorphism for modular counts:
        # (a mod m + b mod m) mod m == (a + b) mod m.  Noisy (L-DP) partials
        # stay deterministic under the same rule.
        return merge_scalar_counts(parts) % query.modulus
    return merge_scalar_counts(parts)


def join_count_from_histograms(left: Mapping, right: Mapping) -> "int | float":
    """Join count from global per-side key histograms: ``sum_k L[k] * R[k]``.

    Iterating the smaller histogram keeps the merge ``O(min(|L|, |R|))``
    regardless of how many shards contributed.

    Exact back-ends contribute integral histograms and get an ``int`` back;
    a histogram carrying unrounded DP noise yields a ``float`` -- truncating
    it would silently bias the gathered count toward zero.
    """
    if len(right) < len(left):
        left, right = right, left
    return sum(count * right[key] for key, count in left.items() if key in right)


def join_side_probes(query: JoinCountQuery) -> tuple[GroupByCountQuery, GroupByCountQuery]:
    """The two per-shard probe queries a join count scatters into.

    Each probe is an ordinary group-by-count over one side's join attribute
    (with that side's predicate), so shards evaluate it through their normal
    Query protocol -- dummy-aware rewriting and the columnar fast path
    included -- and the coordinator merges the resulting histograms.
    """
    left = GroupByCountQuery(
        table=query.left_table,
        group_attribute=query.left_attribute,
        predicate=query.left_predicate,
        label=f"{query.name}/scatter-left",
    )
    right = GroupByCountQuery(
        table=query.right_table,
        group_attribute=query.right_attribute,
        predicate=query.right_predicate,
        label=f"{query.name}/scatter-right",
    )
    return left, right


def multi_join_probes(query: MultiJoinCountQuery) -> tuple[GroupByCountQuery, ...]:
    """The per-shard probe queries a multi-way star join scatters into.

    One group-by-count probe per join side over that side's key attribute;
    the merged histograms feed :func:`multi_join_count_from_histograms`.
    Probes are labelled by side index so their QET ledger entries stay
    distinguishable.
    """
    return tuple(
        GroupByCountQuery(
            table=table,
            group_attribute=attribute,
            predicate=predicate,
            label=f"{query.name}/scatter-{index}",
        )
        for index, (table, attribute, predicate) in enumerate(query.sides())
    )


def multi_join_count_from_histograms(
    histograms: Sequence[Mapping],
) -> "int | float":
    """Star-join count from global per-side histograms: ``sum_k prod_i H_i[k]``.

    Iterating the smallest histogram's keys keeps the merge
    ``O(min_i |H_i| * m)`` regardless of shard count.  Like the binary case,
    integral histograms yield an ``int`` and unrounded DP noise propagates as
    a ``float``.
    """
    if not histograms:
        raise ValueError("at least one histogram is required")
    base_index = min(range(len(histograms)), key=lambda i: len(histograms[i]))
    base = histograms[base_index]
    others = [h for i, h in enumerate(histograms) if i != base_index]
    total: "int | float" = 0
    for key, count in base.items():
        product = count
        for histogram in others:
            value = histogram.get(key, 0)
            if not value:
                product = 0
                break
            product *= value
        total += product
    return total

