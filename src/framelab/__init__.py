"""Model-manifold flows, finite spectral models of geometric operators, and
high-energy state diagnostics.

Subpackage layout:

- ``geometry``: closed-form model manifolds (flat tori, round 2-sphere,
  genus-2 hyperbolic octagon) with geodesics, parallel transport, holonomy.
- ``flows``: geodesic and frame flows, the induced pull-back flow on
  observables, Birkhoff / Liouville averaging.
- ``algebra``: Clifford algebras, SO(n) and SO(n-1) representation tables,
  invariant projections and branching.
- ``spectral``: truncated eigenbasis models of Laplace- and Dirac-type
  operators, exterior calculus, Hodge and polarization projections,
  Fourier quantization, sphere multipliers.
- ``limits``: eigenstate / Cesaro / heat / tracial state functionals and
  their high-energy comparison, decay, time-evolution residual, variance
  and decomposition diagnostics.
"""

__version__ = "0.1.0"


class CapabilityError(ValueError):
    """Requested an (operator, model) combination the finite models do not support."""


class ResolutionError(RuntimeError):
    """A quadrature or truncation was too coarse for the requested computation."""
