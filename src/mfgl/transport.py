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

Every sweep works on the whole (n, 2^n) arc table at once: one
precomputed XOR index lines up the arcs into each vertex, so a
Bellman-Ford sweep and a search level are each one gather and one
reduction over all n directions, and the admissibility test and the
certificate read the potential rises across all arcs, gathered once per
phase.  Each search starts from the smaller side (the sources, or the
deficits against the arcs), so one round gives a path to every vertex of
the other side it reaches; the round then augments its paths one after
another in plain Python numbers, reading the tree arcs' flows with one
gather and writing them back with one scatter.

Probabilities are scaled to integers (denominator ``mass_scale(n)``) so
every quantity in the solver is integer-valued and exact in float64, and
optimality is certified by checking that all residual arcs have
nonnegative reduced cost under the final potentials (which also forces
complementary slackness on the flow-carrying arcs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _caps_in_force, _debug_logger
from .boolfn import CapExceeded


@dataclass(frozen=True, eq=False)
class TransportResult:
    """A certified W1 solve: ``value`` is the distance and ``cost_units`` the flow's cost in
    integer mass units, with the dual ``potentials``, the augmenting paths (``iterations``)
    and ``phases`` taken, whether the dual certificate held, and ``mass_error_bound``, how
    far rounding the supplies to integers can move ``value``."""

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


def solve_w1(p: np.ndarray, q: np.ndarray, n: int) -> TransportResult:
    """Exact optimal transport between two probability vectors over 2^n vertices,
    refused above the transport cap in force (``mfgl.size_caps``)."""
    states = 1 << n
    cap = _caps_in_force()[1]
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
    rise = np.zeros((n, states))        # rise[i, v] = potential[v^bit_i] - potential[v]
    # the arc v -> v^bit_i sits at flat index i * states + v of an (n, states)
    # table; inward[i, v] is the flat index of the arc v^bit_i -> v, its reverse
    neighbour = np.arange(states) ^ (1 << np.arange(n))[:, None]
    inward = neighbour + states * np.arange(n)[:, None]
    phases = rounds = paths = 0

    while np.any(excess > 0):
        phases += 1
        if phases > n + 1:
            raise RuntimeError("transport solver failed to converge")
        dist = _distances(_reduced_costs(flow, rise), excess > 0, inward)
        reachable = (excess < 0) & np.isfinite(dist)
        if not reachable.any():
            raise RuntimeError("disconnected transport instance")
        potential += np.minimum(dist, dist[reachable].min())
        rise = potential[neighbour] - potential
        searched, augmented = _augment_admissible(flow, rise, excess, neighbour)
        rounds += searched
        paths += augmented

    cost_units = int(round(np.abs(flow).sum() / 2.0))
    assert 2 * cost_units < 2**53, "flow sums left the exact float64 integers"
    certified = _certify(flow, rise)
    if (logger := _debug_logger(__name__)) is not None:
        logger.debug("%d states: %d phases, %d search rounds, %d augmenting paths, certified %s",
                     states, phases, rounds, paths, certified)
    return TransportResult(
        value=cost_units / scale,
        cost_units=cost_units,
        potentials=potential,
        iterations=paths,
        phases=phases,
        certified=certified,
        mass_error_bound=mass_error,
    )


def _reduced_costs(flow: np.ndarray, rise: np.ndarray) -> np.ndarray:
    """Reduced cost of the cheapest residual arc v -> v^bit_i, as an (n, 2^n) table.

    That arc cancels flow (cost -1) where flow runs the other way, and adds
    flow (cost +1, unbounded) elsewhere; ``rise`` holds the potential
    differences across the arcs.
    """
    return np.where(flow < 0, -1.0, 1.0) - rise


def _distances(reduced: np.ndarray, sources: np.ndarray, inward: np.ndarray) -> np.ndarray:
    """Bellman-Ford from every source on reduced costs; inf where unreachable.

    Each sweep relaxes the arcs of all n directions at once: one gather
    lines up the arcs into every vertex.  All quantities are integers, so
    comparisons are exact.
    """
    dist = np.where(sources, 0.0, np.inf)
    for _ in range(sources.size + 1):
        cand = (dist + reduced).take(inward).min(axis=0)
        if not (cand < dist).any():
            return dist
        np.minimum(dist, cand, out=dist)
    raise RuntimeError("negative cycle in transport residual graph")


def _augment_admissible(flow: np.ndarray, rise: np.ndarray, excess: np.ndarray,
                        neighbour: np.ndarray) -> tuple[int, int]:
    """Augment along zero-reduced-cost paths until no deficit is reachable.

    Each round is one breadth-first search over the admissible arcs, then
    one augmentation along the search tree to each vertex it reached on the
    other side.  The search starts from the smaller side: from every source
    along the arcs, or, when there are fewer deficits than sources, from
    every deficit against them, so that one round gives a path to each
    vertex of the larger side.  A round's augmentation adds arcs only
    between vertices its search reached, so the vertices it reached on the
    far side are all that a later round could reach: once they are
    settled, none is left.  Returns the number of rounds and of augmenting
    paths.
    """
    # v -> v^bit_i is admissible where it adds flow and the potential rises
    # by one, or cancels flow and it falls by one
    up, down = rise == 1.0, rise == -1.0
    rounds = paths = 0
    while True:
        rounds += 1
        sources, deficits = excess > 0, excess < 0
        backward = np.count_nonzero(deficits) < np.count_nonzero(sources)
        roots, far = (deficits, sources) if backward else (sources, deficits)
        # step[i, v]: the search may step from v^bit_i to v, backward against
        # an admissible arc v -> v^bit_i, forward along one v^bit_i -> v
        step = np.where(flow < 0, down, up) if backward else np.where(flow > 0, up, down)
        depth, pred = _search(step, roots, neighbour)
        ends = np.flatnonzero((depth > 0) & far)
        if ends.size == 0:
            return rounds, paths
        paths += _augment_tree(flow, excess, depth, pred, ends, backward)
        if not excess[ends].any():
            return rounds, paths


def _search(step: np.ndarray, roots: np.ndarray,
            neighbour: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from every root at once, where ``step[i, v]``
    says the search may step from v^bit_i to v.

    Each level is one gather and one reduction over all n directions.
    Returns each vertex's depth (0 at a root, -1 where unreached) and, at
    depth >= 1, the direction i of the tree edge to its parent v^bit_i: the
    lowest direction among the vertices one level up that step to v.
    """
    depth = np.where(roots, 0, -1)
    unseen = ~roots
    frontier = roots
    level = 0
    while True:
        links = frontier[neighbour]
        links &= step
        frontier = np.logical_or.reduce(links, axis=0)
        frontier &= unseen
        if not frontier.any():
            break
        level += 1
        depth[frontier] = level
        unseen ^= frontier
    links = depth[neighbour] == depth - 1
    links &= step
    return depth, links.argmax(axis=0)


def _augment_tree(flow: np.ndarray, excess: np.ndarray, depth: np.ndarray, pred: np.ndarray,
                  ends: np.ndarray, backward: bool) -> int:
    """Augment along the search tree from its root to each end, one path after another.

    The tree arc at v joins v and its parent v^bit_i, from the parent to
    v (forward) or from v to the parent (backward), so that flow runs from
    sources to deficits.  An earlier path may have drained a root or a
    cancel arc (one whose flow runs against it) that a later one shares,
    so each path takes the least residual amount the earlier paths left
    it; a path left zero is stale and skipped.  The tree holds each edge in
    one direction only, and a tree arc with no flow against it has
    unbounded capacity, so no other arc can leave the admissible graph.
    The tree arcs' flows are read with one gather and written back with
    one scatter; every flow is an integer below 2^53, so the sums are
    exact.  Returns the number of paths augmented.
    """
    states = excess.size
    flat = flow.reshape(-1)
    vertex = np.arange(states)
    parent = np.where(depth > 0, vertex ^ (1 << pred), vertex)
    base = pred * states
    arc, reverse = (base + vertex, base + parent) if backward else (base + parent, base + vertex)
    carried = flat[arc]
    capacity = np.where((depth > 0) & (carried < 0), -carried, np.inf)
    walk = [ends]  # walk[j]: j steps up the tree from each end; the roots repeat
    for _ in range(int(depth[ends].max())):
        walk.append(parent[walk[-1]])
    path = np.stack(walk[:-1])
    roots = walk[-1]
    crosses = np.isfinite(capacity[path].min(axis=0))  # the path crosses a cancel arc
    crossings = iter(zip(path[:, crosses].T.tolist(), capacity[path[:, crosses]].T.tolist()))
    # what the earlier paths left at each root, and at each cancel arc by the vertex below it
    left = dict(zip(roots.tolist(), np.abs(excess[roots]).tolist()))
    amounts = []
    for root, amount, cross in zip(roots.tolist(), np.abs(excess[ends]).tolist(), crosses.tolist()):
        amount = min(amount, left[root])
        if cross:
            cancels = [(v, c) for v, c in zip(*next(crossings)) if c != np.inf]
            for v, c in cancels:
                amount = min(amount, left.setdefault(v, c))
            if amount > 0:
                for v, _ in cancels:
                    left[v] -= amount
        if amount > 0:
            left[root] -= amount
        amounts.append(amount)
    amounts = np.array(amounts)
    carry = np.bincount(path.ravel(), np.tile(amounts, len(path)), states)
    carry[roots] = 0.0  # roots have no tree arc; they repeat on the shorter paths
    moved = np.flatnonzero(carry)
    np.add.at(flat, np.concatenate((arc[moved], reverse[moved])),
              np.concatenate((carry[moved], -carry[moved])))
    if backward:
        amounts = -amounts
    np.subtract.at(excess, roots, amounts)
    excess[ends] += amounts
    return int(np.count_nonzero(amounts))


def _certify(flow: np.ndarray, rise: np.ndarray) -> bool:
    """All residual arcs have nonnegative reduced cost under the potentials.

    The cancel direction of a flow-carrying arc costs -1, so rc >= 0 on it
    together with rc >= 0 on the forward direction pins the potential drop
    across every flow-carrying edge to exactly one unit (complementary
    slackness).
    """
    return bool(_reduced_costs(flow, rise).min() >= 0.0)
