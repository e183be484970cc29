"""Weighted k-way min-cut graph partitioning.

Step 11 of Algorithm 1 performs "k min-cut partitions of VCG(V, E, j)":
cores that communicate heavily (or under tight latency constraints) end
up in the same partition and therefore share a switch, which cuts both
power and hop count.

This module implements the classic EDA recipe the 2009-era tools used:

* **recursive bisection** to go from 2-way to k-way, splitting target
  sizes proportionally so non-power-of-two ``k`` works;
* a **Fiduccia–Mattheyses (FM) style refinement** on each bisection —
  single-node moves ordered by gain, with a balance constraint, taking
  the best prefix of the move sequence (allowing hill-climbing out of
  local minima);
* deterministic tie-breaking by node strength, then by node string, so
  synthesis results are reproducible run to run.

The graph is undirected with finite, non-negative edge weights; callers
symmetrize directed communication graphs first (see
:func:`repro.core.vcg.symmetric_weights`).

Synthesis asks for every part count ``k`` of the switch-count sweep,
so :class:`IslandPartitioner` holds one graph and answers
:meth:`~IslandPartitioner.parts` for each ``k``, reusing bisections
across them: every even ``k`` opens with the same ``n/2`` split.  The
reuse is exact.  Nothing in a bisection is random, so it is a pure
function of its node set, its induced adjacency and its target size;
and the induced adjacency of a node set is an order-preserving filter
of the whole graph's adjacency, so it depends on the set alone.
``(node set, target size)`` therefore determines a bisection.
:func:`partition_graph` is the one-shot form.

The FM method runs on an int-indexed copy of the graph that the
partitioner builds once.  Each node gets a *rank*: its place in the
``str`` order of the nodes, with equal strings in the caller's order.
The rank is every string tie-break, and a node set is the sorted tuple
of its ranks.  Neighbour lists keep the adjacency's dict order, so
every strength and gain accumulates its floats in one fixed order.
The seed growth and each FM pass pick their next node from
lazy-deletion heaps keyed ``(-gain, rank)``, which pop exactly the node
a scan of all candidates would choose, so one bisection of ``V`` nodes
and ``E`` edges costs O((V + E) log V) per pass instead of O(V^2).

A greedy agglomerative variant (``method="greedy"``) is kept as the
baseline of the partitioner ablation.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..exceptions import PartitionError

Node = Hashable
Weights = Mapping[Tuple[Node, Node], float]
Adjacency = Dict[Node, Dict[Node, float]]
#: Per-node ``(neighbour index, weight)`` lists, in adjacency dict order.
Neighbours = List[List[Tuple[int, float]]]
#: The two sides of one bisection, each a sorted tuple of node ranks.
Halves = Tuple[Tuple[int, ...], Tuple[int, ...]]


def build_adjacency(nodes: Iterable[Node], weights: Weights) -> Adjacency:
    """Build a symmetric adjacency map from an edge-weight mapping.

    Both ``(u, v)`` and ``(v, u)`` entries are accepted; weights for the
    same unordered pair accumulate.  Self-loops are ignored (they never
    affect a cut).  Negative, NaN and infinite weights are rejected.
    """
    adj: Adjacency = {n: {} for n in nodes}
    for (u, v), w in weights.items():
        if u == v:
            continue
        if u not in adj or v not in adj:
            raise PartitionError("edge (%r, %r) references unknown node" % (u, v))
        if w < 0:
            raise PartitionError("edge (%r, %r) has negative weight %r" % (u, v, w))
        if not math.isfinite(w):
            raise PartitionError("edge (%r, %r) has non-finite weight %r" % (u, v, w))
        adj[u][v] = adj[u].get(v, 0.0) + w
        adj[v][u] = adj[v].get(u, 0.0) + w
    return adj


def cut_weight(adj: Adjacency, parts: Sequence[Set[Node]]) -> float:
    """Total weight of edges crossing between different parts.

    Each undirected edge is counted once.
    """
    owner: Dict[Node, int] = {}
    for i, part in enumerate(parts):
        for n in part:
            owner[n] = i
    total = 0.0
    seen: Set[FrozenSet[Node]] = set()
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            key = frozenset((u, v))
            if key in seen:
                continue
            seen.add(key)
            if owner.get(u) != owner.get(v):
                total += w
    return total


def partition_graph(
    nodes: Sequence[Node],
    weights: Weights,
    k: int,
    max_part_size: Optional[int] = None,
    method: str = "fm",
) -> List[Set[Node]]:
    """Partition ``nodes`` into ``k`` parts minimizing the cut weight.

    Parameters
    ----------
    nodes:
        The vertex set (order matters only for deterministic
        tie-breaking).
    weights:
        Edge weights; directed duplicates are symmetrized.
    k:
        Number of parts.  Must satisfy ``1 <= k <= len(nodes)``.
    max_part_size:
        Upper bound on any part's cardinality (the paper's
        ``max_sw_size`` constraint: a switch cannot host more cores than
        it has ports).  ``None`` means unbounded.
    method:
        ``"fm"`` (recursive bisection + FM refinement, default) or
        ``"greedy"`` (agglomerative merging, ablation baseline).

    Returns
    -------
    list of sets
        Exactly ``k`` non-empty, disjoint sets covering ``nodes``,
        sorted by their smallest member for determinism.
    """
    return IslandPartitioner(nodes, weights, max_part_size, method).parts(k)


class IslandPartitioner:
    """k-way min-cut partitions of one graph, for every ``k`` asked.

    The constructor validates the graph and builds its int-indexed form
    once; the greedy method also keeps the dict adjacency it runs on.
    :meth:`parts` answers one part count, memoized per ``k``.  The FM
    method also memoizes each bisection under ``(rank tuple, target
    size)``, which determines it exactly (see the module docstring), so
    part counts that share a split compute it once.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        weights: Weights,
        max_part_size: Optional[int] = None,
        method: str = "fm",
    ) -> None:
        self.nodes = list(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise PartitionError("duplicate nodes in partition input")
        if max_part_size is not None and max_part_size < 1:
            raise PartitionError("max_part_size must be >= 1, got %d" % max_part_size)
        if method not in ("fm", "greedy"):
            raise PartitionError("unknown partition method %r" % method)
        self.max_part_size = max_part_size
        self.method = method
        adj = build_adjacency(self.nodes, weights)
        # The node of each rank, and each rank's neighbours by rank.
        self._by_rank = sorted(self.nodes, key=str)
        rank = {u: r for r, u in enumerate(self._by_rank)}
        self._nbrs: Neighbours = [
            [(rank[v], w) for v, w in adj[u].items()] for u in self._by_rank
        ]
        # Only the greedy baseline reads the dict adjacency.
        self._adj: Optional[Adjacency] = adj if method == "greedy" else None
        self._parts: Dict[int, List[Set[Node]]] = {}
        self._halves: Dict[Tuple[Tuple[int, ...], int], Halves] = {}

    def memoized(self, k: int) -> bool:
        """Whether :meth:`parts` already holds the answer for ``k``."""
        return k in self._parts

    def parts(self, k: int) -> List[Set[Node]]:
        """The ``k``-way partition, as :func:`partition_graph` returns it.

        Repeated calls return the same list; callers must not mutate it.
        """
        found = self._parts.get(k)
        if found is not None:
            return found
        n = len(self.nodes)
        if k < 1:
            raise PartitionError("part count must be >= 1, got %d" % k)
        if k > n:
            raise PartitionError("cannot split %d nodes into %d non-empty parts" % (n, k))
        bound = self.max_part_size
        if bound is not None and k * bound < n:
            raise PartitionError(
                "%d parts of <= %d nodes cannot cover %d nodes" % (k, bound, n)
            )
        if k == 1:
            parts = [set(self.nodes)]
        elif k == n:
            parts = [{x} for x in self._by_rank]
        else:
            if self.method == "fm":
                # Disjoint sorted rank tuples sort by their smallest
                # rank, which is the order of their smallest strings.
                by_rank = self._by_rank
                raw = sorted(self._recursive_bisect(tuple(range(n)), k))
                parts = [{by_rank[r] for r in p} for p in raw if p]
            else:
                raw = _greedy_agglomerate(self.nodes, self._adj, k, bound)
                parts = [set(p) for p in raw if p]
                parts.sort(key=_part_sort_key)
            if len(parts) != k:
                raise PartitionError(
                    "internal error: produced %d parts, expected %d" % (len(parts), k)
                )
        self._parts[k] = parts
        return parts

    def _recursive_bisect(self, members: Tuple[int, ...], k: int) -> List[Tuple[int, ...]]:
        """Split the sorted rank tuple ``members`` into ``k`` parts by repeated bisection."""
        if k == 1:
            return [members]
        n = len(members)
        k_left = k // 2
        k_right = k - k_left
        # Target sizes proportional to part counts, adjusted to remain
        # coverable under the per-part size bound on both sides.
        target_left = int(round(n * k_left / float(k)))
        target_left = max(k_left, min(n - k_right, target_left))
        if self.max_part_size is not None:
            # Each side must be able to hold its nodes within its parts.
            target_left = min(target_left, k_left * self.max_part_size)
            target_left = max(target_left, n - k_right * self.max_part_size)
        key = (members, target_left)
        halves = self._halves.get(key)
        if halves is None:
            halves = _bisect(self._nbrs, members, target_left)
            self._halves[key] = halves
        left, right = halves
        return self._recursive_bisect(left, k_left) + self._recursive_bisect(right, k_right)


def _part_sort_key(part: Set[Node]) -> str:
    return min(str(x) for x in part)


# ----------------------------------------------------------------------
# Bisection
# ----------------------------------------------------------------------


def _bisect(nbrs: Neighbours, members: Tuple[int, ...], target_left: int) -> Halves:
    """Two-way partition of ``members`` with ``target_left`` on the left side.

    ``nbrs`` is the whole graph's rank-indexed neighbour lists and
    ``members`` a sorted tuple of ranks.  Seeding grows the left side
    greedily (:func:`_grow`); FM passes then refine it until no
    improving prefix exists, and :func:`_rebalance` restores the exact
    target size.  Returns both sides as sorted rank tuples.
    """
    n = len(members)
    if target_left <= 0 or target_left >= n:
        raise PartitionError(
            "bisection target %d out of range for %d nodes" % (target_left, n)
        )
    if n == len(nbrs):
        sub = nbrs  # the whole graph: ranks are already local indices
    else:
        local = {r: i for i, r in enumerate(members)}.get
        sub = [[(i, w) for j, w in nbrs[r] if (i := local(j)) is not None] for r in members]
    in_left = _grow(sub, target_left)
    _fm_refine(sub, in_left, target_left)
    _rebalance(sub, in_left, target_left)
    return (
        tuple(r for r, s in zip(members, in_left) if s),
        tuple(r for r, s in zip(members, in_left) if not s),
    )


def _grow(nbrs: Neighbours, target_left: int) -> List[bool]:
    """Seed a bisection: grow the left side to ``target_left`` nodes.

    Starts from the highest-connectivity node and keeps absorbing the
    node with the strongest ties to the current left side (a BFS
    flavoured by weight).  Ties go to the stronger node, then to the
    lower index.  A heap keyed ``(-gain, place in that order)`` holds
    every candidate; an entry whose node has joined the left side or
    whose gain has grown since it was pushed is dropped when it surfaces.
    """
    n = len(nbrs)
    strength = [sum(w for _, w in row) for row in nbrs]
    # Descending strength; the sort is stable, so ties keep index order.
    order = sorted(range(n), key=strength.__getitem__, reverse=True)
    place = [0] * n
    for p, i in enumerate(order):
        place[i] = p
    in_left = [False] * n
    gain = [0.0] * n
    heap = [(-0.0, p) for p in range(n)]  # sorted, hence a heap
    for _ in range(target_left):
        while True:
            g, p = heappop(heap)
            best = order[p]
            if not in_left[best] and g == -gain[best]:
                break
        in_left[best] = True
        for j, w in nbrs[best]:
            if not in_left[j]:
                gain[j] += w
                heappush(heap, (-gain[j], place[j]))
    return in_left


def _fm_refine(
    nbrs: Neighbours,
    in_left: List[bool],
    target_left: int,
    max_passes: int = 8,
    balance_slack: int = 1,
) -> None:
    """Fiduccia–Mattheyses refinement of the bisection ``in_left``, in place.

    Repeats passes of tentative single-node moves (each node moved at
    most once per pass, always the highest-gain feasible move, ties to
    the lower index) and commits the best prefix, until a pass yields no
    improvement.  A pass keeps one heap of ``(-gain, index)`` per side;
    the balance rule says which sides may give a node, and the better
    of their tops moves.

    ``balance_slack`` lets the left side deviate from ``target_left`` by
    at most that many nodes, which gives FM room to climb out of local
    minima without destroying the size targets the recursion needs.
    """
    n = len(nbrs)
    lo = max(1, target_left - balance_slack)
    hi = min(n - 1, target_left + balance_slack)
    for _ in range(max_passes):
        side = in_left[:]  # tentative sides for this pass
        len_l = sum(side)
        locked = [False] * n
        # gain(u) = (external weight) - (internal weight)
        gains = [0.0] * n
        heaps: Tuple[List[Tuple[float, int]], List[Tuple[float, int]]] = ([], [])
        for i, row in enumerate(nbrs):
            internal = external = 0.0
            u_left = side[i]
            for j, w in row:
                if side[j] == u_left:
                    internal += w
                else:
                    external += w
            g = gains[i] = external - internal
            heaps[u_left].append((-g, i))
        heapify(heaps[0])
        heapify(heaps[1])
        moves: List[int] = []
        cum_gain: List[float] = []
        total = 0.0
        while True:
            # The best node of each side that may give one.
            top_l = _live_top(heaps[1], locked, gains) if lo <= len_l - 1 <= hi else None
            top_r = _live_top(heaps[0], locked, gains) if lo <= len_l + 1 <= hi else None
            if top_r is None or (top_l is not None and top_l < top_r):
                if top_l is None:
                    break
                heappop(heaps[1])
                i = top_l[1]
            else:
                heappop(heaps[0])
                i = top_r[1]
            # Apply the tentative move and update neighbour gains.
            u_left = side[i] = not side[i]
            len_l += 1 if u_left else -1
            locked[i] = True
            total += gains[i]
            moves.append(i)
            cum_gain.append(total)
            for j, w in nbrs[i]:
                if locked[j]:
                    continue
                if side[j] == u_left:
                    gains[j] -= 2 * w
                else:
                    gains[j] += 2 * w
                heappush(heaps[side[j]], (-gains[j], j))
        if not moves:
            break
        best_prefix = 0  # the first of the highest cumulative gains
        for m in range(1, len(moves)):
            if cum_gain[m] > cum_gain[best_prefix]:
                best_prefix = m
        if cum_gain[best_prefix] <= 1e-12:
            break  # no improving prefix: converged
        # Commit moves[0..best_prefix] starting from the original sides.
        for m in moves[: best_prefix + 1]:
            in_left[m] = not in_left[m]


def _live_top(
    heap: List[Tuple[float, int]], locked: List[bool], gains: List[float]
) -> Optional[Tuple[float, int]]:
    """The top entry of ``heap`` once stale ones are dropped, or ``None``.

    An entry is stale when its node is locked or its gain has changed
    since it was pushed (the change pushed a newer entry).
    """
    while heap:
        top = heap[0]
        i = top[1]
        if not locked[i] and top[0] == -gains[i]:
            return top
        heappop(heap)
    return None


def _rebalance(nbrs: Neighbours, in_left: List[bool], target_left: int) -> None:
    """Move lowest-cost nodes until the left side holds ``target_left``, in place.

    A node's cost is its weight to its own side minus its weight to the
    other; ties go to the lower index.
    """
    len_l = sum(in_left)
    while len_l != target_left:
        src = len_l > target_left  # the side that gives a node
        best, best_cost = -1, 0.0
        for i, row in enumerate(nbrs):
            if in_left[i] != src:
                continue
            internal = sum(w for j, w in row if in_left[j] == src)
            external = sum(w for j, w in row if in_left[j] != src)
            cost = internal - external  # lower = cheaper to move
            if best < 0 or cost < best_cost:
                best, best_cost = i, cost
        in_left[best] = not src
        len_l += -1 if src else 1


# ----------------------------------------------------------------------
# Greedy agglomerative variant (ablation baseline)
# ----------------------------------------------------------------------


def _greedy_agglomerate(
    nodes: List[Node],
    adj: Adjacency,
    k: int,
    max_part_size: Optional[int],
) -> List[Set[Node]]:
    """Merge the heaviest-connected cluster pair until ``k`` remain.

    Simpler and usually worse than FM; kept as a comparison point for
    the partitioner ablation.
    """
    clusters: List[Set[Node]] = [{u} for u in sorted(nodes, key=str)]

    def inter_weight(a: Set[Node], b: Set[Node]) -> float:
        return sum(adj[u].get(v, 0.0) for u in a for v in b)

    while len(clusters) > k:
        best_pair = None
        best_w = -1.0
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if max_part_size is not None:
                    if len(clusters[i]) + len(clusters[j]) > max_part_size:
                        continue
                w = inter_weight(clusters[i], clusters[j])
                if w > best_w:
                    best_w = w
                    best_pair = (i, j)
        if best_pair is None:
            # Size bound blocks every merge; merge the two smallest that
            # fit, or fail if really impossible.
            sizes = sorted(range(len(clusters)), key=lambda i: (len(clusters[i]), str(min(map(str, clusters[i])))))
            merged = False
            for a in range(len(sizes)):
                for b in range(a + 1, len(sizes)):
                    i, j = sizes[a], sizes[b]
                    if max_part_size is None or len(clusters[i]) + len(clusters[j]) <= max_part_size:
                        best_pair = (min(i, j), max(i, j))
                        merged = True
                        break
                if merged:
                    break
            if not merged:
                raise PartitionError(
                    "size bound %r makes %d-way agglomeration impossible" % (max_part_size, k)
                )
        i, j = best_pair
        clusters[i] = clusters[i] | clusters[j]
        del clusters[j]
    return clusters
