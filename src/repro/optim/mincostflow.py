"""Successive-shortest-path min-cost flow with node potentials.

Used as an exact combinatorial solver for the caching subproblem ``P1``
(see :mod:`repro.core.caching_lp`): the totally unimodular LP of Theorem 1
is equivalently a small min-cost flow in which each cache slot is one flow
unit travelling through time. This solver supports real-valued arc costs,
including negative ones, via:

- an initial potential computed by Bellman-Ford (general graphs) or a
  single topological-order pass (DAGs, the caching case), and
- Dijkstra with reduced costs for every augmentation.

Capacities are integers (cache slots), so augmentations are integral and
termination is guaranteed.

In the batched P1 path this per-SBS solver is the *fallback*, not the
front door: the vectorized relaxed DP and the cap-constrained cancel
kernel (:mod:`repro.core.capped`) answer the stacked rows first, and both
certify optimality by the same criterion this solver terminates on — no
improving arc (respectively, no negative cycle) left in the residual
graph. The capped kernel's node layout mirrors this graph exactly (one
hub per slot boundary, a split in/out node pair per ``(slot, item)``
holding arc), so a row it certifies is bit-comparable against
:func:`repro.core.caching_lp._solve_single_sbs_flow` in tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, SolverError
from repro.types import FloatArray

_INF = float("inf")


@dataclass(frozen=True)
class FlowResult:
    """Outcome of a min-cost-flow computation.

    Attributes
    ----------
    amount:
        Units of flow actually routed from source to sink.
    cost:
        Total cost of the routed flow.
    arc_flow:
        Flow on each arc, indexed by the ids returned from ``add_arc``.
    """

    amount: int
    cost: float
    arc_flow: FloatArray


class MinCostFlow:
    """A directed graph supporting successive-shortest-path min-cost flow."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ConfigurationError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        # Forward and residual arcs are stored interleaved: arc 2i is the
        # i-th user arc, arc 2i+1 its residual twin.
        self._head: list[int] = []
        self._cap: list[float] = []
        self._cost: list[float] = []
        self._adj: list[list[int]] = [[] for _ in range(num_nodes)]
        # (arc id, head) pairs per node, built lazily; saves one list
        # lookup per scanned arc in the Dijkstra hot loop.
        self._adj_pairs: list[list[tuple[int, int]]] | None = None
        self._num_user_arcs = 0

    def add_arc(self, u: int, v: int, capacity: int, cost: float) -> int:
        """Add an arc ``u -> v`` and return its id (for flow read-back)."""
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ConfigurationError(f"arc ({u}, {v}) references unknown node")
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self._adj_pairs = None
        arc_id = self._num_user_arcs
        self._adj[u].append(len(self._head))
        self._head.append(v)
        self._cap.append(float(capacity))
        self._cost.append(float(cost))
        self._adj[v].append(len(self._head))
        self._head.append(u)
        self._cap.append(0.0)
        self._cost.append(-float(cost))
        self._num_user_arcs += 1
        return arc_id

    # ------------------------------------------------------------ potentials

    def _bellman_ford_potentials(self, source: int) -> list[float]:
        dist = [_INF] * self.num_nodes
        dist[source] = 0.0
        for _ in range(self.num_nodes - 1):
            changed = False
            for u in range(self.num_nodes):
                du = dist[u]
                if du == _INF:
                    continue
                for e in self._adj[u]:
                    if self._cap[e] > 1e-12 and du + self._cost[e] < dist[self._head[e]] - 1e-12:
                        dist[self._head[e]] = du + self._cost[e]
                        changed = True
            if not changed:
                break
        else:
            # One more relaxation detects negative cycles.
            for u in range(self.num_nodes):
                du = dist[u]
                if du == _INF:
                    continue
                for e in self._adj[u]:
                    if self._cap[e] > 1e-12 and du + self._cost[e] < dist[self._head[e]] - 1e-9:
                        raise SolverError("negative-cost cycle detected")
        return dist

    def _topological_potentials(self, source: int) -> list[float]:
        """Single-pass shortest distances for DAGs (Kahn order)."""
        indeg = [0] * self.num_nodes
        for u in range(self.num_nodes):
            for e in self._adj[u]:
                if e % 2 == 0:  # forward arcs only define the DAG
                    indeg[self._head[e]] += 1
        order = [u for u in range(self.num_nodes) if indeg[u] == 0]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for e in self._adj[u]:
                if e % 2 == 0:
                    v = self._head[e]
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        order.append(v)
        if len(order) != self.num_nodes:
            raise ConfigurationError(
                "graph is not a DAG; use Bellman-Ford potentials"
            )
        dist = [_INF] * self.num_nodes
        dist[source] = 0.0
        for u in order:
            du = dist[u]
            if du == _INF:
                continue
            for e in self._adj[u]:
                if e % 2 == 0 and self._cap[e] > 1e-12:
                    v = self._head[e]
                    if du + self._cost[e] < dist[v]:
                        dist[v] = du + self._cost[e]
        return dist

    # ----------------------------------------------------------------- solve

    def solve(
        self,
        source: int,
        sink: int,
        amount: int,
        *,
        dag: bool = False,
        stop_when_unprofitable: bool = False,
        initial_potentials: list[float] | None = None,
    ) -> FlowResult:
        """Route up to ``amount`` units from ``source`` to ``sink`` at min cost.

        Parameters
        ----------
        dag:
            When the forward graph is a DAG, initial potentials come from a
            linear-time topological pass instead of Bellman-Ford.
        stop_when_unprofitable:
            Stop early once the cheapest augmenting path has non-negative
            cost. With free parallel "idle" capacity in the network this
            computes the min-cost flow of *any* value up to ``amount``.
        initial_potentials:
            Caller-computed shortest distances from ``source`` on the empty
            flow (one entry per node). Callers whose graph has closed-form
            structure (the caching flow) supply these to skip the generic
            potential pass; the values must equal what that pass would
            compute, or Dijkstra's stale-potential guard fires.
        """
        if source == sink:
            raise ConfigurationError("source and sink must differ")
        if amount < 0:
            raise ConfigurationError(f"amount must be >= 0, got {amount}")

        if initial_potentials is not None:
            if len(initial_potentials) != self.num_nodes:
                raise ConfigurationError(
                    f"got {len(initial_potentials)} potentials for "
                    f"{self.num_nodes} nodes"
                )
            potentials = list(initial_potentials)
        else:
            potentials = (
                self._topological_potentials(source)
                if dag
                else self._bellman_ford_potentials(source)
            )
        flow = 0
        total_cost = 0.0
        while flow < amount:
            dist, parent_arc = self._dijkstra(source, potentials)
            if dist[sink] == _INF:
                break
            path_cost = dist[sink] + potentials[sink] - potentials[source]
            if stop_when_unprofitable and path_cost >= -1e-12:
                break
            potentials = [
                p + d if d < _INF else p for p, d in zip(potentials, dist)
            ]
            # Bottleneck along the path.
            bottleneck = float(amount - flow)
            v = sink
            while v != source:
                e = parent_arc[v]
                bottleneck = min(bottleneck, self._cap[e])
                v = self._head[e ^ 1]
            bottleneck = float(int(bottleneck))  # capacities are integral
            if bottleneck <= 0:
                raise SolverError("zero-bottleneck augmenting path")
            v = sink
            while v != source:
                e = parent_arc[v]
                self._cap[e] -= bottleneck
                self._cap[e ^ 1] += bottleneck
                v = self._head[e ^ 1]
            flow += int(bottleneck)
            total_cost += bottleneck * path_cost

        arc_flow = np.array(self._cap, dtype=np.float64)[
            1 : 2 * self._num_user_arcs : 2
        ]
        return FlowResult(amount=flow, cost=total_cost, arc_flow=arc_flow)

    def _dijkstra(
        self, source: int, potentials: list[float]
    ) -> tuple[list[float], list[int]]:
        # The tightest loop in the solver: every name it touches is bound
        # to a local, arcs are scanned as precomputed (id, head) pairs, and
        # the `max(reduced, 0.0)` clamp is branched inline. None of this
        # changes any comparison or float operation, so the pop order —
        # and with it the chosen paths — is unchanged.
        pairs = self._adj_pairs
        if pairs is None:
            head = self._head
            pairs = [[(e, head[e]) for e in arcs] for arcs in self._adj]
            self._adj_pairs = pairs
        dist = [_INF] * self.num_nodes
        parent_arc = [-1] * self.num_nodes
        dist[source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, source)]
        heappop, heappush = heapq.heappop, heapq.heappush
        cap, cost = self._cap, self._cost
        inf = _INF
        while heap:
            d, u = heappop(heap)
            if d > dist[u] + 1e-15:
                continue
            pu = potentials[u]
            if pu == inf:
                continue
            for e, v in pairs[u]:
                if cap[e] <= 1e-12:
                    continue
                pv = potentials[v]
                if pv == inf:
                    continue
                reduced = cost[e] + pu - pv
                if reduced < 0.0:
                    if reduced < -1e-7:
                        raise SolverError(
                            f"negative reduced cost {reduced:.3e}; "
                            "potentials are stale"
                        )
                    nd = d
                else:
                    nd = d + reduced
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    parent_arc[v] = e
                    heappush(heap, (nd, v))
        return dist, parent_arc
