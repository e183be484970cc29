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

The graph is undirected with non-negative edge weights; callers
symmetrize directed communication graphs first (see
:func:`repro.core.vcg.symmetric_weights`).

Synthesis asks for every part count ``k`` of the switch-count sweep,
so :class:`IslandPartitioner` holds one graph and answers
:meth:`~IslandPartitioner.parts` for each ``k``, reusing bisections
across them: every even ``k`` opens with the same ``n/2`` split.  The
reuse is exact.  Nothing in a bisection is random, so it is a pure
function of its node order, its induced adjacency and its target
size.  The induced adjacency of a node set is an order-preserving
filter of the whole graph's adjacency, so it depends on the set alone;
and the node order is the caller's at the top and ``str``-sorted below
it.  ``(node tuple, target size)`` therefore determines a bisection.
:func:`partition_graph` is the one-shot form.

A greedy agglomerative variant (``method="greedy"``) is kept as the
baseline of the partitioner ablation.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..exceptions import PartitionError

Node = Hashable
Weights = Mapping[Tuple[Node, Node], float]
Adjacency = Dict[Node, Dict[Node, float]]
#: The two sides of one bisection, each ``str``-sorted.
Halves = Tuple[Tuple[Node, ...], Tuple[Node, ...]]


def build_adjacency(nodes: Iterable[Node], weights: Weights) -> Adjacency:
    """Build a symmetric adjacency map from an edge-weight mapping.

    Both ``(u, v)`` and ``(v, u)`` entries are accepted; weights for the
    same unordered pair accumulate.  Self-loops are ignored (they never
    affect a cut).
    """
    adj: Adjacency = {n: {} for n in nodes}
    for (u, v), w in weights.items():
        if u == v:
            continue
        if u not in adj or v not in adj:
            raise PartitionError("edge (%r, %r) references unknown node" % (u, v))
        if w < 0:
            raise PartitionError("edge (%r, %r) has negative weight %r" % (u, v, w))
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

    The constructor validates the graph and builds its adjacency once;
    :meth:`parts` answers one part count, memoized per ``k``.  The FM
    method also memoizes each bisection under ``(node tuple, target
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
        self.adj = build_adjacency(self.nodes, weights)
        self._parts: Dict[int, List[Set[Node]]] = {}
        self._halves: Dict[Tuple[Tuple[Node, ...], int], Halves] = {}

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
            parts = sorted(({x} for x in self.nodes), key=_part_sort_key)
        else:
            if self.method == "fm":
                raw = self._recursive_bisect(tuple(self.nodes), self.adj, k)
            else:
                raw = _greedy_agglomerate(self.nodes, self.adj, k, bound)
            parts = [set(p) for p in raw if p]
            if len(parts) != k:
                raise PartitionError(
                    "internal error: produced %d parts, expected %d" % (len(parts), k)
                )
            parts.sort(key=_part_sort_key)
        self._parts[k] = parts
        return parts

    def _recursive_bisect(
        self, nodes: Tuple[Node, ...], adj: Adjacency, k: int
    ) -> List[Set[Node]]:
        """Split ``nodes`` into ``k`` parts by repeated balanced bisection.

        ``adj`` is the adjacency of ``nodes`` or of a superset of them;
        it is narrowed to ``nodes`` only when a bisection is computed.
        """
        if k == 1:
            return [set(nodes)]
        n = len(nodes)
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
        key = (nodes, target_left)
        halves = self._halves.get(key)
        if halves is None:
            if len(adj) != n:
                adj = _induced(adj, set(nodes))
            left, right = _bisect(list(nodes), adj, target_left)
            halves = (tuple(sorted(left, key=str)), tuple(sorted(right, key=str)))
            self._halves[key] = halves
        left_nodes, right_nodes = halves
        return self._recursive_bisect(left_nodes, adj, k_left) + self._recursive_bisect(
            right_nodes, adj, k_right
        )


def _part_sort_key(part: Set[Node]) -> str:
    return min(str(x) for x in part)


# ----------------------------------------------------------------------
# Bisection
# ----------------------------------------------------------------------


def _induced(adj: Adjacency, keep: Set[Node]) -> Adjacency:
    """Adjacency restricted to ``keep`` nodes."""
    return {
        u: {v: w for v, w in nbrs.items() if v in keep}
        for u, nbrs in adj.items()
        if u in keep
    }


def _bisect(
    nodes: List[Node],
    adj: Adjacency,
    target_left: int,
) -> Tuple[Set[Node], Set[Node]]:
    """Two-way partition with ``target_left`` nodes on the left side.

    Seeding: grow the left side greedily from the highest-connectivity
    node, always absorbing the frontier node with the strongest ties to
    the current left side (a BFS flavoured by weight).  Refinement: FM
    passes until no improving prefix exists.
    """
    n = len(nodes)
    if target_left <= 0 or target_left >= n:
        raise PartitionError(
            "bisection target %d out of range for %d nodes" % (target_left, n)
        )
    order = sorted(nodes, key=lambda u: (-_strength(adj, u), str(u)))
    order_ix = {u: i for i, u in enumerate(order)}
    seed_node = order[0]
    left: Set[Node] = {seed_node}
    # Greedy weighted growth.
    gain: Dict[Node, float] = {}
    for v, w in adj[seed_node].items():
        gain[v] = gain.get(v, 0.0) + w
    while len(left) < target_left:
        candidates = [u for u in nodes if u not in left]
        if not candidates:
            break
        best = max(candidates, key=lambda u: (gain.get(u, 0.0), -order_ix[u]))
        left.add(best)
        for v, w in adj[best].items():
            if v not in left:
                gain[v] = gain.get(v, 0.0) + w
        gain.pop(best, None)
    right = set(nodes) - left
    left, right = _fm_refine(nodes, adj, left, right, target_left)
    return left, right


def _strength(adj: Adjacency, u: Node) -> float:
    return sum(adj[u].values())


def _fm_refine(
    nodes: List[Node],
    adj: Adjacency,
    left: Set[Node],
    right: Set[Node],
    target_left: int,
    max_passes: int = 8,
    balance_slack: int = 1,
) -> Tuple[Set[Node], Set[Node]]:
    """Fiduccia–Mattheyses refinement of a bisection.

    Repeats passes of tentative single-node moves (each node moved at
    most once per pass, always the highest-gain feasible move) and
    commits the best prefix, until a pass yields no improvement.

    ``balance_slack`` lets the left side deviate from ``target_left`` by
    at most that many nodes, which gives FM room to climb out of local
    minima without destroying the size targets the recursion needs.
    """
    n = len(nodes)
    lo = max(1, target_left - balance_slack)
    hi = min(n - 1, target_left + balance_slack)
    # Int-indexed mirrors of the graph: the pass below runs the gain /
    # lock / best-prefix loop over flat lists instead of hashing nodes.
    # Neighbour lists keep adjacency dict order, so every float
    # accumulates in the historical order; the deterministic string
    # tie-break becomes a precomputed rank (the stable sort leaves
    # equal strings in scan order, which reproduces the strict ``<``
    # comparison on string forms exactly).
    ix = {u: i for i, u in enumerate(nodes)}
    nbrs: List[List[Tuple[int, float]]] = [
        [(ix[v], w) for v, w in adj[u].items()] for u in nodes
    ]
    srank = [0] * n
    for r, i in enumerate(sorted(range(n), key=lambda i: str(nodes[i]))):
        srank[i] = r
    in_left = [u in left for u in nodes]  # committed sides

    for _ in range(max_passes):
        side = in_left[:]  # tentative sides for this pass
        len_l = sum(side)
        locked = [False] * n
        n_locked = 0
        # gain(u) = (external weight) - (internal weight)
        gains = [0.0] * n
        for i in range(n):
            internal = external = 0.0
            u_left = side[i]
            for j, w in nbrs[i]:
                if side[j] == u_left:
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
            # Apply the tentative move and update neighbour gains.
            i = best_i
            if side[i]:
                side[i] = False
                len_l -= 1
            else:
                side[i] = True
                len_l += 1
            locked[i] = True
            n_locked += 1
            total += gains[i]
            moves.append(i)
            cum_gain.append(total)
            gains[i] = -gains[i]
            u_left = side[i]
            for j, w in nbrs[i]:
                if locked[j]:
                    continue
                if side[j] == u_left:
                    gains[j] -= 2 * w
                else:
                    gains[j] += 2 * w
        if not moves:
            break
        best_prefix = max(range(len(moves)), key=lambda i: (cum_gain[i], -i))
        if cum_gain[best_prefix] <= 1e-12:
            break  # no improving prefix: converged
        # Commit moves[0..best_prefix] starting from the original sides.
        for m in moves[: best_prefix + 1]:
            in_left[m] = not in_left[m]
    left = {nodes[i] for i in range(n) if in_left[i]}
    right = {nodes[i] for i in range(n) if not in_left[i]}
    # Restore the exact target size if slack left us off-target: move
    # the cheapest boundary nodes.
    left, right = _rebalance(adj, left, right, target_left)
    return left, right


def _rebalance(
    adj: Adjacency, left: Set[Node], right: Set[Node], target_left: int
) -> Tuple[Set[Node], Set[Node]]:
    """Move lowest-cost nodes until ``len(left) == target_left``."""
    left, right = set(left), set(right)
    while len(left) != target_left:
        if len(left) > target_left:
            src, dst = left, right
        else:
            src, dst = right, left

        def move_cost(u: Node) -> float:
            internal = sum(w for v, w in adj[u].items() if v in src)
            external = sum(w for v, w in adj[u].items() if v in dst)
            return internal - external  # lower = cheaper to move

        u = min(sorted(src, key=str), key=move_cost)
        src.remove(u)
        dst.add(u)
    return left, right


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
