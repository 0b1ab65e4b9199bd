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

import importlib

__version__ = "0.1.0"

# Largest state space `transport.solve_w1` solves by default.  It lives here,
# not in `transport`, so that the command-line front can read it without
# loading numpy.
DEFAULT_TRANSPORT_STATES = 1024

# Exported name -> the module of this package that defines it.
_EXPORTS = {
    "AuditRow": "verify",
    "BuiltHamiltonian": "hamiltonians",
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
    "ProductMeasure": "gibbs",
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
    "cutoff_shape_eval": "hamiltonians",
    "densify": "gibbs",
    "eval_extension": "boolfn",
    "gaussian_width_mc": "complexity",
    "gibbs_measure": "gibbs",
    "gradient_extension": "boolfn",
    "tanh_covariance": "gibbs",
    "ising_complexity_bounds": "hamiltonians",
    "lambda_scan": "meanfield",
    "lipschitz_l1": "boolfn",
    "lipschitz_l2": "boolfn",
    "mean": "gibbs",
    "mean_field_functional": "meanfield",
    "mf_iterate": "meanfield",
    "product_approx": "gibbs",
    "smoothed_cutoff_weights": "hamiltonians",
    "solve_multistart": "meanfield",
    "tilt": "gibbs",
    "tv": "gibbs",
    "w1_exact": "gibbs",
    "structural_set_test": "meanfield",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
