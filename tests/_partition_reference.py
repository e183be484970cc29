"""The O(V^2) scan form of the FM partitioner, kept as a test oracle.

``repro.core.partition`` picks each seed-growth node and each FM move
from heaps on an int-indexed graph.  This module keeps the form it
replaced: dict adjacencies narrowed per bisection, a scan over every
unplaced node per growth step and over every node per FM move, and
``str`` comparisons as the tie-break.  :func:`reference_partition`
must return what ``partition_graph(..., method="fm")`` returns, or
raise a ``PartitionError`` with the same text
(``tests/test_partition.py::TestHeapOracle``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import PartitionError
from repro.core.partition import Adjacency, Node, Weights, build_adjacency


def reference_partition(
    nodes: Sequence[Node], weights: Weights, k: int, max_part_size: Optional[int] = None
) -> List[Set[Node]]:
    """``partition_graph(nodes, weights, k, max_part_size)`` by scans.

    For distinct nodes and a ``max_part_size`` of at least 1, the inputs
    the oracle tests draw; the partitioner checks those itself.
    """
    nodes = list(nodes)
    adj = build_adjacency(nodes, weights)
    n = len(nodes)
    if k < 1:
        raise PartitionError("part count must be >= 1, got %d" % k)
    if k > n:
        raise PartitionError("cannot split %d nodes into %d non-empty parts" % (n, k))
    if max_part_size is not None and k * max_part_size < n:
        raise PartitionError(
            "%d parts of <= %d nodes cannot cover %d nodes" % (k, max_part_size, n)
        )
    if k == 1:
        return [set(nodes)]
    if k == n:
        return sorted(({x} for x in nodes), key=_part_sort_key)
    parts = [set(p) for p in _recursive_bisect(tuple(nodes), adj, k, max_part_size) if p]
    parts.sort(key=_part_sort_key)
    return parts


def _part_sort_key(part: Set[Node]) -> str:
    return min(str(x) for x in part)


def _recursive_bisect(
    nodes: Tuple[Node, ...], adj: Adjacency, k: int, bound: Optional[int]
) -> List[Set[Node]]:
    if k == 1:
        return [set(nodes)]
    n = len(nodes)
    k_left = k // 2
    k_right = k - k_left
    target_left = int(round(n * k_left / float(k)))
    target_left = max(k_left, min(n - k_right, target_left))
    if bound is not None:
        target_left = min(target_left, k_left * bound)
        target_left = max(target_left, n - k_right * bound)
    if len(adj) != n:
        adj = _induced(adj, set(nodes))
    left, right = _bisect(list(nodes), adj, target_left)
    return _recursive_bisect(
        tuple(sorted(left, key=str)), adj, k_left, bound
    ) + _recursive_bisect(tuple(sorted(right, key=str)), adj, k_right, bound)


def _induced(adj: Adjacency, keep: Set[Node]) -> Adjacency:
    return {
        u: {v: w for v, w in nbrs.items() if v in keep}
        for u, nbrs in adj.items()
        if u in keep
    }


def _bisect(nodes: List[Node], adj: Adjacency, target_left: int) -> Tuple[Set[Node], Set[Node]]:
    n = len(nodes)
    if target_left <= 0 or target_left >= n:
        raise PartitionError(
            "bisection target %d out of range for %d nodes" % (target_left, n)
        )
    order = sorted(nodes, key=lambda u: (-sum(adj[u].values()), str(u)))
    order_ix = {u: i for i, u in enumerate(order)}
    seed_node = order[0]
    left: Set[Node] = {seed_node}
    gain: Dict[Node, float] = {}
    for v, w in adj[seed_node].items():
        gain[v] = gain.get(v, 0.0) + w
    while len(left) < target_left:
        candidates = [u for u in nodes if u not in left]
        best = max(candidates, key=lambda u: (gain.get(u, 0.0), -order_ix[u]))
        left.add(best)
        for v, w in adj[best].items():
            if v not in left:
                gain[v] = gain.get(v, 0.0) + w
        gain.pop(best, None)
    right = set(nodes) - left
    return _fm_refine(nodes, adj, left, right, target_left)


def _fm_refine(
    nodes: List[Node],
    adj: Adjacency,
    left: Set[Node],
    right: Set[Node],
    target_left: int,
    max_passes: int = 8,
    balance_slack: int = 1,
) -> Tuple[Set[Node], Set[Node]]:
    n = len(nodes)
    lo = max(1, target_left - balance_slack)
    hi = min(n - 1, target_left + balance_slack)
    ix = {u: i for i, u in enumerate(nodes)}
    nbrs = [[(ix[v], w) for v, w in adj[u].items()] for u in nodes]
    srank = [0] * n
    for r, i in enumerate(sorted(range(n), key=lambda i: str(nodes[i]))):
        srank[i] = r
    in_left = [u in left for u in nodes]
    for _ in range(max_passes):
        side = in_left[:]
        len_l = sum(side)
        locked = [False] * n
        n_locked = 0
        gains = [0.0] * n
        for i in range(n):
            internal = external = 0.0
            for j, w in nbrs[i]:
                if side[j] == side[i]:
                    internal += w
                else:
                    external += w
            gains[i] = external - internal
        moves: List[int] = []
        cum_gain: List[float] = []
        total = 0.0
        while n_locked < n:
            best_i = -1
            best_gain = -math.inf
            best_rank = -1
            for i in range(n):
                if locked[i]:
                    continue
                new_left_size = len_l + (-1 if side[i] else 1)
                if new_left_size < lo or new_left_size > hi:
                    continue
                g = gains[i]
                if g > best_gain or (g == best_gain and srank[i] < best_rank):
                    best_gain = g
                    best_i = i
                    best_rank = srank[i]
            if best_i < 0:
                break
            i = best_i
            side[i] = not side[i]
            len_l += 1 if side[i] else -1
            locked[i] = True
            n_locked += 1
            total += gains[i]
            moves.append(i)
            cum_gain.append(total)
            for j, w in nbrs[i]:
                if locked[j]:
                    continue
                if side[j] == side[i]:
                    gains[j] -= 2 * w
                else:
                    gains[j] += 2 * w
        if not moves:
            break
        best_prefix = max(range(len(moves)), key=lambda i: (cum_gain[i], -i))
        if cum_gain[best_prefix] <= 1e-12:
            break
        for m in moves[: best_prefix + 1]:
            in_left[m] = not in_left[m]
    left = {nodes[i] for i in range(n) if in_left[i]}
    right = {nodes[i] for i in range(n) if not in_left[i]}
    return _rebalance(adj, left, right, target_left)


def _rebalance(
    adj: Adjacency, left: Set[Node], right: Set[Node], target_left: int
) -> Tuple[Set[Node], Set[Node]]:
    left, right = set(left), set(right)
    while len(left) != target_left:
        src, dst = (left, right) if len(left) > target_left else (right, left)

        def move_cost(u: Node) -> float:
            internal = sum(w for v, w in adj[u].items() if v in src)
            external = sum(w for v, w in adj[u].items() if v in dst)
            return internal - external

        u = min(sorted(src, key=str), key=move_cost)
        src.remove(u)
        dst.add(u)
    return left, right
