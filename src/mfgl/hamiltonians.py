"""Hamiltonian catalog, scalar cutoff shapes, and composition parameters.

The catalog covers linear fields, pairwise-interaction (Ising-type) models,
the Curie-Weiss ferromagnet, triangle counting on graphs, raw sparse
expansions, and smoothed-cutoff compositions.  Quadratic-form convention:
``ising`` places coefficient A_ij on each *unordered* pair {i,j}, so its
discrete gradient field is exactly A x + mu and the closed-form complexity
bounds below are valid for the function actually built.  ``curie_weiss``
encodes the ordered double sum (beta/n) sum_{i != j} x_i x_j literally,
i.e. pair coefficient 2*beta/n; the two conventions differ by that factor.
``CurieWeissSpec.scalar_slope`` holds the slope beta_eff of the scalar
equation x = tanh(beta_eff x) that its constant fixed points solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .boolfn import MAX_DIMENSION, FourierExpansion, compose, vertex_values


class InvalidSpec(ValueError):
    """Hamiltonian specification violates its invariants."""


# ---------------------------------------------------------------------------
# Scalar shapes
# ---------------------------------------------------------------------------

# A shape h maps arrays elementwise through ``value``, ``deriv1`` and ``deriv2``; its sup
# bounds ``d1_bound`` and ``d2_bound`` on |h'| and |h''| are None where h has none.

class CutoffShape:
    """psi(x) = n * h((x/n - t)/delta) for the monotone ramp h.

    h(u) is 2u+1 below -1, -u^2 on [-1,0] and 0 above 0, with |h'| <= 2 and
    |h''| <= 2 everywhere; value and first derivative agree one-sidedly at
    both knots.  At the knots the second derivative takes the left branch at
    -1 and the right branch at 0.  So |psi'| <= 2/delta and
    |psi''| <= 2/(n delta^2); psi <= 0 everywhere and vanishes for x >= t*n.
    The defaults n = 1, t = 0, delta = 1 give h itself bit for bit: x/1,
    x - 0.0 (which keeps -0.0), division by 1.0 and 1*h(u) are all exact.
    """

    name = "cutoff"

    def __init__(self, n: int = 1, t: float = 0.0, delta: float = 1.0):
        _check_level(t, delta)
        self.n = int(n)
        self.t = float(t)
        self.delta = float(delta)
        self.d1_bound = 2.0 / self.delta
        self.d2_bound = 2.0 / (self.n * self.delta**2)

    def _u(self, x):
        return (np.asarray(x, dtype=np.float64) / self.n - self.t) / self.delta

    def value(self, x):
        u = self._u(x)
        # square u clipped to [-1, 0], the only range where the square is kept, so a
        # far u cannot overflow
        v = np.clip(u, -1.0, 0.0)
        return self.n * np.where(u <= -1.0, 2.0 * u + 1.0, np.where(u < 0.0, -v * v, 0.0))

    def deriv1(self, x):
        u = self._u(x)
        return np.where(u <= -1.0, 2.0, np.where(u < 0.0, -2.0 * u, 0.0)) / self.delta

    def deriv2(self, x):
        u = self._u(x)
        return np.where(u <= -1.0, 0.0, np.where(u < 0.0, -2.0, 0.0)) / (self.n * self.delta**2)


class CubicQuinticShape:
    """Cubic-quintic core with quadratic wings; h'(0) = 0, |h''| bounded.

    h(x) = 3/4 x^3 - 1/4 x^5 for |x| < 1, +-x^2/2 outside.  Continuously
    differentiable at +-1 but the first derivative (|h'| = |x| on the wings)
    is unbounded, so only the second-derivative bound is available.
    """

    name = "cubic_quintic"
    d1_bound = None
    d2_bound = math.sqrt(27.0 / 10.0)

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        core = 0.75 * x**3 - 0.25 * x**5
        return np.where(x >= 1.0, 0.5 * x * x, np.where(x <= -1.0, -0.5 * x * x, core))

    def deriv1(self, x):
        x = np.asarray(x, dtype=np.float64)
        core = 2.25 * x * x - 1.25 * x**4
        return np.where(x >= 1.0, x, np.where(x <= -1.0, -x, core))

    def deriv2(self, x):
        x = np.asarray(x, dtype=np.float64)
        core = 4.5 * x - 5.0 * x**3
        return np.where(x >= 1.0, 1.0, np.where(x <= -1.0, -1.0, core))


def _check_level(t: float, delta: float) -> None:
    if not math.isfinite(t):
        raise InvalidSpec(f"t must be finite, got {t}")
    if not (math.isfinite(delta) and delta > 0):
        raise InvalidSpec(f"delta must be finite and positive, got {delta}")


# ---------------------------------------------------------------------------
# Complexity parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityParams:
    """The (D, L1, L2) triple with the unit floors already applied.

    L1 = max(1, sup |partial_i f|) and L2 = max(1, gradient one-norm
    Lipschitz ratio); D is the Gaussian width of the gradient cloud.  A
    sampled D carries its standard error, and its certified ends ``d_lower``
    and ``d_upper`` or its estimator's levels (``d_levels``, see
    ``complexity.WidthEstimate``); a D without ``d_stderr`` is not an estimate.
    """

    d: float
    l1: float
    l2: float
    d_stderr: Optional[float] = None
    d_levels: Optional[dict] = field(default=None, hash=False)
    d_lower: Optional[float] = None
    d_upper: Optional[float] = None

    def __post_init__(self):
        numbers = (self.d, self.l1, self.l2, self.d_stderr, self.d_lower, self.d_upper)
        if not all(math.isfinite(x) for x in numbers if x is not None):
            raise ValueError(f"complexity parameters must be finite, got {self}")
        if self.d < 0:
            raise ValueError("gradient complexity must be nonnegative")
        if self.l1 < 1.0 or self.l2 < 1.0:
            raise ValueError("L1 and L2 carry a floor of 1")

    def structural_threshold(self, n: int) -> float:
        """The structural-set threshold 5000 L1 L2^(3/4) D^(1/4) n^(3/4) at dimension n.

        A point X is in the structural set when ||X - tanh(grad f(X))||_1 is at
        most this.  At desk scale it usually exceeds 2n, the largest such
        residual on [-1, 1]^n, so membership is vacuous there.  One that overflows is refused.
        """
        threshold = 5000.0 * self.l1 * self.l2**0.75 * self.d**0.25 * n**0.75
        if not math.isfinite(threshold):
            raise ValueError(f"the structural threshold overflows at n = {n} for {self}")
        return threshold

    @staticmethod
    def from_raw(d: float, lip: float, grad_ratio: float, **kw) -> "ComplexityParams":
        return ComplexityParams(d=float(d), l1=max(1.0, float(lip)),
                                l2=max(1.0, float(grad_ratio)), **kw)


@dataclass(frozen=True)
class CompositionParams:
    """Parameters of h∘f from derivative bounds of h and the base triple."""

    d: float
    l1: float
    l2: float
    l3: float


def composition_params(b1: float, b2: float, base: ComplexityParams, n: int) -> CompositionParams:
    """(D~, L1~, L2~, L3~) for a composition with |h'| <= b1, |h''| <= b2.

    D~ = b1 D + b2 L1^2 n, L1~ = max(1, b1 L1),
    L2~ = max(1, b1 L2 + 3 b2 L1^2 n), L3~ = 2 b2 L1^2 n^(3/2).
    """
    if b1 < 0 or b2 < 0:
        raise ValueError("derivative bounds must be nonnegative")
    if n <= 0:
        raise ValueError("n must be positive")
    quad = b2 * base.l1**2 * n
    return CompositionParams(
        d=b1 * base.d + quad,
        l1=max(1.0, b1 * base.l1),
        l2=max(1.0, b1 * base.l2 + 3.0 * quad),
        l3=2.0 * b2 * base.l1**2 * n**1.5,
    )


# ---------------------------------------------------------------------------
# Hamiltonian specs
# ---------------------------------------------------------------------------


def _number(value) -> float:
    """``value`` as a finite float; a bool, a string, a NaN or an infinity is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidSpec(f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise InvalidSpec("expected a number in the float range") from None
    if not math.isfinite(x):
        raise InvalidSpec(f"expected a finite number, got {value!r}")
    return x


def _integer(value) -> int:
    """``value`` as an int; a fractional number is refused, not truncated."""
    if not _number(value).is_integer():
        raise InvalidSpec(f"expected an integer, got {value!r}")
    return int(value)


def _numbers(value) -> np.ndarray:
    """``value``, nested sequences of numbers, as a float64 array; ``_number`` checks each entry."""
    entries = np.asarray(value, dtype=object)
    return np.array([_number(x) for x in entries.flat], dtype=np.float64).reshape(entries.shape)


class HamiltonianSpec:
    """Base of the spec types; ``SPEC_TYPES`` maps each ``type`` tag to its class.

    A spec's JSON object is its ``type`` tag followed by its dataclass fields,
    in field order, and no other key; each type's ``_validate`` coerces and
    validates those fields, and ``__post_init__`` then refuses a dimension n
    below 1 or above ``MAX_DIMENSION``, which the int64 subset masks cannot
    hold.  So every route into a spec (JSON or Python) is checked the same
    way, before anything is built.  Each type's ``build()`` returns its
    ``FourierExpansion`` for ``build_hamiltonian``.
    """

    def __post_init__(self):
        self._validate()
        if self.n < 1:
            raise InvalidSpec(f"n = {self.n}: a spec needs at least one coordinate")
        if self.n > MAX_DIMENSION:
            raise InvalidSpec(f"n = {self.n} exceeds {MAX_DIMENSION}, the most coordinates "
                              f"a subset bitmask holds")

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return {"type": self.type, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_dict(cls, data: dict) -> "HamiltonianSpec":
        return cls(*(data[f.name] for f in fields(cls)))


@dataclass(frozen=True)
class LinearSpec(HamiltonianSpec):
    """A linear field: f(x) = <theta, x>."""

    type = "linear"
    theta: tuple

    def _validate(self):
        theta = _numbers(self.theta)
        if theta.ndim != 1:
            raise InvalidSpec("linear field must be a vector")
        self._set(theta=tuple(theta.tolist()))

    @property
    def n(self) -> int:
        return len(self.theta)

    def build(self):
        return FourierExpansion.from_terms(self.n, [((i,), c) for i, c in enumerate(self.theta)])


@dataclass(frozen=True)
class IsingSpec(HamiltonianSpec):
    """Pairwise couplings A (symmetric, zero diagonal) plus external field mu.

    The built expansion is sum_{i<j} A_ij x_i x_j + <mu, x>, whose gradient
    field is exactly A x + mu.
    """

    type = "ising"
    coupling: tuple
    field: tuple

    def _validate(self):
        a, mu = _numbers(self.coupling), _numbers(self.field)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidSpec("coupling must be a square matrix")
        if mu.shape != (a.shape[0],):
            raise InvalidSpec("field length must match the coupling size")
        if not np.allclose(a, a.T, rtol=0, atol=0):
            raise InvalidSpec("coupling must be symmetric")
        if np.any(np.diag(a) != 0.0):
            raise InvalidSpec("coupling must have a zero diagonal")
        self._set(coupling=tuple(map(tuple, a.tolist())), field=tuple(mu.tolist()))

    @property
    def n(self) -> int:
        return len(self.field)

    def build(self):
        terms = [((i, j), row[j]) for i, row in enumerate(self.coupling)
                 for j in range(i + 1, self.n)]
        terms += [((i,), c) for i, c in enumerate(self.field)]
        return FourierExpansion.from_terms(self.n, terms)


@dataclass(frozen=True)
class CurieWeissSpec(HamiltonianSpec):
    """The Curie-Weiss model on n sites: f(x) = (2 beta / n) sum_{i<j} x_i x_j."""

    type = "curie_weiss"
    beta: float
    n: int

    def _validate(self):
        self._set(beta=_number(self.beta), n=_integer(self.n))
        if not self.beta > 0.0:
            raise InvalidSpec(f"beta must be positive, got {self.beta}")
        if self.n < 2:
            raise InvalidSpec("need at least two sites")

    def build(self):
        c = 2.0 * (self.beta / self.n)  # not 2 beta / n, which differs for subnormal beta / n
        return FourierExpansion.from_terms(
            self.n, [((i, j), c) for i in range(self.n) for j in range(i + 1, self.n)])

    @property
    def scalar_slope(self) -> float:
        """beta_eff = 2 beta (n - 1)/n: at a constant point x each coordinate's field sums
        n - 1 pair terms 2 beta/n x, so constant fixed points solve x = tanh(beta_eff x)."""
        return 2.0 * self.beta * (self.n - 1) / self.n


@dataclass(frozen=True)
class TriangleCountSpec(HamiltonianSpec):
    """Triangle count of the graph on ``num_vertices`` vertices whose edges are the
    coordinates: f(x) = (6 beta / num_vertices) sum over triangles of x_ij x_jk x_ik."""

    type = "triangle_count"
    beta: float
    num_vertices: int

    def _validate(self):
        self._set(beta=_number(self.beta), num_vertices=_integer(self.num_vertices))
        if self.num_vertices < 3:
            raise InvalidSpec("need at least three graph vertices")

    @property
    def n(self) -> int:
        return self.num_vertices * (self.num_vertices - 1) // 2

    def build(self):
        nv = self.num_vertices
        edges = edge_index_map(nv)
        coeff = 6.0 * self.beta / nv  # pairwise-distinct ordered triples: 3! per triangle
        terms = []
        for i in range(nv):
            for j in range(i + 1, nv):
                for k in range(j + 1, nv):
                    terms.append(((edges[(i, j)], edges[(j, k)], edges[(i, k)]), coeff))
        return FourierExpansion.from_terms(self.n, terms)


@dataclass(frozen=True)
class SparseFourierSpec(HamiltonianSpec):
    """An explicit term list: f(x) = sum of coeff * prod_{i in subset} x_i over ``terms``."""

    type = "sparse_fourier"
    n: int
    terms: tuple  # ((sorted index tuple, coeff), ...)

    def _validate(self):
        norm = []
        n = _integer(self.n)
        for subset, coeff in self.terms:
            if not isinstance(subset, (list, tuple, set, frozenset)):
                raise InvalidSpec(f"subset must be a list of indices, got {subset!r}")
            subset = tuple(sorted(_integer(i) for i in subset))
            if len(set(subset)) != len(subset):
                raise InvalidSpec("repeated index in subset")
            if subset and (subset[0] < 0 or subset[-1] >= n):
                raise InvalidSpec("subset index out of range")
            norm.append((subset, _number(coeff)))
        self._set(n=n, terms=tuple(norm))

    def to_dict(self) -> dict:
        return {"type": self.type, "n": self.n,
                "terms": [{"subset": s, "coeff": c} for s, c in self.terms]}

    @classmethod
    def from_dict(cls, data: dict) -> "SparseFourierSpec":
        terms = tuple(_values("a term", t, ("subset", "coeff")) for t in data["terms"])
        return cls(data["n"], terms)

    def build(self):
        return FourierExpansion.from_terms(self.n, self.terms)


@dataclass(frozen=True)
class SmoothedCutoffSpec(HamiltonianSpec):
    """The smoothed cutoff psi∘f of the ``inner`` spec at level ``t`` with width ``delta``."""

    type = "smoothed_cutoff"
    inner: HamiltonianSpec
    t: float
    delta: float

    def _validate(self):
        if not isinstance(self.inner, HamiltonianSpec):
            raise InvalidSpec(f"unknown inner Hamiltonian spec {type(self.inner).__name__}")
        self._set(t=_number(self.t), delta=_number(self.delta))
        _check_level(self.t, self.delta)

    @property
    def n(self) -> int:
        return self.inner.n

    def to_dict(self) -> dict:
        return {"type": self.type, "inner": self.inner.to_dict(), "t": self.t, "delta": self.delta}

    @classmethod
    def from_dict(cls, data: dict) -> "SmoothedCutoffSpec":
        return cls(spec_from_dict(data["inner"]), data["t"], data["delta"])

    def build(self):
        inner = build_hamiltonian(self.inner)
        return compose(inner, CutoffShape(inner.n, self.t, self.delta).value)


SPEC_TYPES = {cls.type: cls for cls in (LinearSpec, IsingSpec, CurieWeissSpec, TriangleCountSpec,
                                        SparseFourierSpec, SmoothedCutoffSpec)}


def _values(what: str, data, keys: tuple) -> tuple:
    """The values of ``keys`` in the object ``data``, which must have no other key."""
    if not isinstance(data, dict) or set(data) != set(keys):
        given = list(data) if isinstance(data, dict) else data
        raise InvalidSpec(f"{what} takes exactly the keys {list(keys)}, got {given!r}")
    return tuple(data[k] for k in keys)


def spec_from_dict(data) -> HamiltonianSpec:
    """Parse a spec's JSON object; anything malformed raises ``InvalidSpec``."""
    if not isinstance(data, dict) or "type" not in data:
        raise InvalidSpec("Hamiltonian spec must be an object with a 'type' key")
    kind = data["type"]
    if not isinstance(kind, str) or kind not in SPEC_TYPES:
        raise InvalidSpec(f"unknown Hamiltonian type {kind!r}")
    cls = SPEC_TYPES[kind]
    _values(f"a {kind!r} spec", data, ("type", *(f.name for f in fields(cls))))
    try:
        return cls.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed {kind!r} spec: {exc}") from exc


def edge_index_map(num_vertices: int) -> dict[tuple[int, int], int]:
    """Graph edge {i<j} -> coordinate index, in lexicographic order."""
    pairs = [(i, j) for i in range(num_vertices) for j in range(i + 1, num_vertices)]
    return {p: k for k, p in enumerate(pairs)}


def build_hamiltonian(spec: HamiltonianSpec) -> FourierExpansion:
    """Realize a spec as its sparse expansion f.

    Its gradient field is ``meanfield.as_gradient_field(f)``, which runs
    degree <= 2 expansions as x @ A + mu with (A, mu) = ``pairwise_form(f)``.
    """
    if not isinstance(spec, HamiltonianSpec):
        raise InvalidSpec(f"unknown Hamiltonian spec {type(spec).__name__}")
    return spec.build()


# ---------------------------------------------------------------------------
# Smoothed cutoff weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SmoothedCutoff:
    """Vertex tables of the smoothed cutoff g = psi∘f and its weight table phi.

    ``psi`` is the ramp ``CutoffShape(n, t, delta)``, so it carries n, t and
    delta.  ``f_values`` and ``g_values`` tabulate f and g over the 2^n
    vertices.  phi is 0 strictly below the (t - delta_prime) n level, exp(g)
    on the middle band and exactly 1 at or above t n; ``log_phi`` holds it
    in log space (-inf where phi = 0), since g can reach hundreds of negative
    e-folds.  The three masks mark those bands.
    """

    psi: CutoffShape
    delta_prime: float
    f_values: np.ndarray
    g_values: np.ndarray
    log_phi: np.ndarray
    zero_mask: np.ndarray
    mid_mask: np.ndarray
    top_mask: np.ndarray


DELTA_PRIME_FACTOR = (math.log(4.0) + 1.0) / 2.0


def smoothed_cutoff_weights(f: FourierExpansion, t: float, delta: float) -> SmoothedCutoff:
    """Tabulate g = psi∘f, log phi and delta' for level t and smoothing width delta.

    One vertex table of f gives every field; no expansion of g is built
    (``SmoothedCutoffSpec`` builds one).  Weights are relative to the
    uniform base measure.  A biased coin base would add a per-coordinate
    log-weight sum to g; that is a deliberate extension point, not
    implemented here.
    """
    n = f.n
    delta_prime = DELTA_PRIME_FACTOR * delta
    psi = CutoffShape(n, t, delta)
    fvals = vertex_values(f)
    gvals = np.asarray(psi.value(fvals), dtype=np.float64)
    zero = fvals < (t - delta_prime) * n
    top = fvals >= t * n
    mid = ~zero & ~top
    log_phi = np.where(zero, -np.inf, gvals)
    return SmoothedCutoff(psi=psi, delta_prime=delta_prime, f_values=fvals, g_values=gvals,
                          log_phi=log_phi, zero_mask=zero, mid_mask=mid, top_mask=top)
