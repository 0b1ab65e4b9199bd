"""Mean-field Gibbs laboratory.

Exact small-n machinery for Gibbs distributions on the Boolean hypercube:
sparse Fourier Hamiltonians, tilts and product approximations, gradient
complexity estimation, tanh fixed-point solvers, smoothed-cutoff
large-deviation constructions, and a numerical audit harness for the
quantitative inequalities the package is built around.

``import mfgl`` is lazy: it loads no layer and no numpy.  Each exported
name loads its defining module on first access (PEP 562), so
``from mfgl import gibbs_measure`` loads ``mfgl.gibbs`` and what it
imports, and nothing else.
"""

import contextlib
import contextvars
import importlib

__version__ = "0.1.0"

# Run defaults, here and not in the layers so that the command-line front reads
# them without loading numpy: the two size caps (no dense 2^n table above
# n = DEFAULT_ENUM_CAP, no transport above DEFAULT_TRANSPORT_STATES states), the
# Monte-Carlo draws of the width, and the fixed-point iteration's tol and damping.
DEFAULT_ENUM_CAP = 20
DEFAULT_TRANSPORT_STATES = 1024
DEFAULT_SAMPLES = 100_000
DEFAULT_TOL = 1e-10
DEFAULT_DAMPING = 0.5

_SIZE_CAPS = contextvars.ContextVar("mfgl_size_caps")


@contextlib.contextmanager
def size_caps(max_n: int = DEFAULT_ENUM_CAP, transport_states: int = DEFAULT_TRANSPORT_STATES):
    """Hold the size caps for the ``with`` body: a dense 2^n table with n above the
    first cap, or a transport of more states than the second, raises
    ``CapExceeded``.  Blocks nest; leaving one, by an exception too, restores
    the caps that held before it."""
    token = _SIZE_CAPS.set((int(max_n), int(transport_states)))
    try:
        yield
    finally:
        _SIZE_CAPS.reset(token)


def _caps_in_force() -> tuple[int, int]:
    """The two caps of the innermost ``size_caps``, else the defaults."""
    return _SIZE_CAPS.get((DEFAULT_ENUM_CAP, DEFAULT_TRANSPORT_STATES))


# Exported name -> the module of this package that defines it.
_EXPORTS = {
    "AuditRow": "verify",
    "CapExceeded": "boolfn",
    "ComplexityParams": "hamiltonians",
    "CurieWeissSpec": "hamiltonians",
    "CutoffShape": "hamiltonians",
    "DenseMeasure": "gibbs",
    "DimensionMismatch": "boolfn",
    "FixedPointSolution": "meanfield",
    "FourierExpansion": "boolfn",
    "GradientCloud": "complexity",
    "InvalidSpec": "hamiltonians",
    "IsingSpec": "hamiltonians",
    "LinearSpec": "hamiltonians",
    "CubicQuinticShape": "hamiltonians",
    "ScalarShape": "hamiltonians",
    "SmoothedCutoffSpec": "hamiltonians",
    "SparseFourierSpec": "hamiltonians",
    "TriangleCountSpec": "hamiltonians",
    "build_hamiltonian": "hamiltonians",
    "complexity_params": "complexity",
    "compose": "boolfn",
    "composition_params": "hamiltonians",
    "curie_weiss_roots": "meanfield",
    "eval_extension": "boolfn",
    "gaussian_width_mc": "complexity",
    "gibbs_measure": "gibbs",
    "gradient_extension": "boolfn",
    "tanh_covariance": "gibbs",
    "ising_complexity_bounds": "hamiltonians",
    "lambda_scan": "meanfield",
    "lipschitz": "boolfn",
    "mean": "gibbs",
    "mean_field_functional": "meanfield",
    "mf_iterate": "meanfield",
    "product_law": "gibbs",
    "smoothed_cutoff_weights": "hamiltonians",
    "solve_multistart": "meanfield",
    "tilt": "gibbs",
    "tv": "gibbs",
    "structural_set_test": "meanfield",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
