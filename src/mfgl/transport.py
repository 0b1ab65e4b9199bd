"""Exact Wasserstein-1 distance between measures on the hypercube.

Ground cost is the Hamming distance (half the coordinate one-norm between
vertices), which is the shortest-path metric of the hypercube edge graph.
The optimum is therefore computed as a min-cost flow on that edge graph
with unit arc costs, solved by the primal-dual method with node
potentials (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9).  Each
phase runs one Bellman-Ford pass on reduced costs from all sources, raises
the potentials by the distances (capped at the nearest deficit's), and
then augments along zero-reduced-cost paths, found by breadth-first
search, until no deficit is reachable on them.  The source-to-deficit
distance under the original costs is an integer between 1 and n that rises
every phase, so a solve takes at most n phases.

Probabilities are scaled to integers (denominator ``mass_scale(n)``) so
every quantity in the solver is integer-valued and exact in float64, and
optimality is certified by checking that all residual arcs have
nonnegative reduced cost under the final potentials (which also forces
complementary slackness on the flow-carrying arcs).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_TRANSPORT_STATES
from .boolfn import CapExceeded

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TransportResult:
    value: float
    cost_units: int
    potentials: np.ndarray
    iterations: int
    phases: int
    certified: bool
    mass_error_bound: float


def mass_scale(n: int) -> int:
    """Integer units per unit of probability: 2^(52 - ceil(log2(n + 1))).

    Each unit of mass travels at most n edges, so the flow over all arcs,
    counted in both directions, sums to at most 2 n times the shipped mass,
    which stays below (n + 1) * scale <= 2^52: every partial sum is an exact
    float64 integer.  Rounding the supplies moves W1 by at most
    ``n * 2^n / scale`` (the ``mass_error_bound``).
    """
    return 1 << (52 - n.bit_length())


def _integer_supplies(p: np.ndarray, q: np.ndarray, scale: int) -> np.ndarray:
    supply = np.rint((p - q) * scale).astype(np.int64)
    residue = int(supply.sum())
    if residue:
        supply[int(np.argmax(np.abs(supply)))] -= residue  # repair on the largest atom
    return supply


def solve_w1(p: np.ndarray, q: np.ndarray, n: int, *,
             max_states: int | None = None) -> TransportResult:
    """Exact optimal transport between two probability vectors over 2^n vertices."""
    states = 1 << n
    cap = DEFAULT_TRANSPORT_STATES if max_states is None else int(max_states)
    if states > cap:
        raise CapExceeded(f"transport needs {states} states but the cap is {cap}")
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != (states,) or q.shape != (states,):
        raise ValueError("probability vectors must have length 2^n")

    scale = mass_scale(n)
    supply = _integer_supplies(p, q, scale)
    mass_error = n * states / scale
    excess = supply.astype(np.float64)  # integer-valued throughout
    flow = np.zeros((n, states))        # flow[i, v] = signed flow on arc v -> v^bit_i
    potential = np.zeros(states)
    xor_idx = [np.arange(states) ^ (1 << i) for i in range(n)]
    phases = 0
    paths = 0

    while np.any(excess > 0):
        phases += 1
        if phases > n + 1:
            raise RuntimeError("transport solver failed to converge")
        dist = _distances(flow, potential, excess > 0, xor_idx)
        reachable = (excess < 0) & np.isfinite(dist)
        if not reachable.any():
            raise RuntimeError("disconnected transport instance")
        potential += np.minimum(dist, dist[reachable].min())
        paths += _augment_admissible(flow, potential, excess, xor_idx)

    cost_units = int(round(np.abs(flow).sum() / 2.0))
    assert 2 * cost_units < 2**53, "flow sums left the exact float64 integers"
    certified = _certify(flow, potential, xor_idx)
    logger.debug("%d states: %d phases, %d augmenting paths, certified %s",
                 states, phases, paths, certified)
    return TransportResult(
        value=cost_units / scale,
        cost_units=cost_units,
        potentials=potential,
        iterations=paths,
        phases=phases,
        certified=certified,
        mass_error_bound=mass_error,
    )


def _reduced_costs(flow: np.ndarray, potential: np.ndarray, xor_idx: list, i: int) -> np.ndarray:
    """Reduced cost of the cheapest residual arc v -> v^bit_i, for every v.

    That arc cancels flow (cost -1) where flow runs the other way, and adds
    flow (cost +1, unbounded) elsewhere.
    """
    return np.where(flow[i] < 0, -1.0, 1.0) + potential - potential[xor_idx[i]]


def _distances(flow: np.ndarray, potential: np.ndarray, sources: np.ndarray,
               xor_idx: list) -> np.ndarray:
    """Bellman-Ford from every source on reduced costs; inf where unreachable.

    All quantities are integers, so the half-unit improvement test is exact.
    """
    n, states = flow.shape
    dist = np.where(sources, 0.0, np.inf)
    rcs = [_reduced_costs(flow, potential, xor_idx, i) for i in range(n)]
    for _ in range(states + 1):
        changed = False
        for i in range(n):
            cand = (dist + rcs[i])[xor_idx[i]]
            improve = cand < dist - 0.5
            if improve.any():
                dist[improve] = cand[improve]
                changed = True
        if not changed:
            return dist
    raise RuntimeError("negative cycle in transport residual graph")


def _augment_admissible(flow: np.ndarray, potential: np.ndarray, excess: np.ndarray,
                        xor_idx: list) -> int:
    """Augment along zero-reduced-cost paths until no deficit is reachable.

    Each round is one breadth-first search from every source over the
    admissible arcs, then one augmentation along the search tree to each
    reached deficit.  An earlier augmentation of the round may have drained
    a cancel arc, which then costs +1 and leaves the admissible graph, so
    every path is checked again against the current flows and its
    bottleneck is taken from them.  Returns the number of augmenting paths.
    """
    n, states = flow.shape
    paths = 0
    while True:
        admissible = [_reduced_costs(flow, potential, xor_idx, i) == 0.0 for i in range(n)]
        pred_dir = np.full(states, -1, dtype=np.int64)
        seen = excess > 0
        frontier = seen.copy()
        while frontier.any():
            reached = np.zeros(states, dtype=bool)
            for i in range(n):
                new = (frontier & admissible[i])[xor_idx[i]] & ~seen & ~reached
                pred_dir[new] = i
                reached |= new
            seen |= reached
            frontier = reached
        targets = np.flatnonzero(seen & (excess < 0))
        if targets.size == 0:
            return paths
        for target in targets.tolist():
            path = []
            v = target
            while pred_dir[v] >= 0:
                i = int(pred_dir[v])
                path.append((i, v ^ (1 << i)))
                v ^= 1 << i
            amount = min(excess[v], -excess[target])
            for i, u in path:
                rc = (-1.0 if flow[i, u] < 0 else 1.0) + potential[u] - potential[u ^ (1 << i)]
                if rc != 0.0:
                    amount = 0.0
                    break
                if flow[i, u] < 0:
                    amount = min(amount, -flow[i, u])
            if amount <= 0:
                continue
            for i, u in path:
                flow[i, u] += amount
                flow[i, u ^ (1 << i)] -= amount
            excess[v] -= amount
            excess[target] += amount
            paths += 1


def _certify(flow: np.ndarray, potential: np.ndarray, xor_idx: list) -> bool:
    """All residual arcs have nonnegative reduced cost under the potentials.

    The cancel direction of a flow-carrying arc costs -1, so rc >= 0 on it
    together with rc >= 0 on the forward direction pins the potential drop
    across every flow-carrying edge to exactly one unit (complementary
    slackness).
    """
    return all(_reduced_costs(flow, potential, xor_idx, i).min() >= 0.0
               for i in range(flow.shape[0]))
