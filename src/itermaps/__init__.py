"""Iterated unimodal interval maps and their complexity measures.

Modules cover: exact piecewise-linear arithmetic (pl), parametric map
families (maps), oscillation/entropy counting (oscillation), periodic-orbit
and itinerary analysis (cycles), spectral lower bounds (spectra),
inapproximability certificates (hardness), ReLU network synthesis (relunet),
VC-dimension calculators (vcbounds), the toy-map growth comparison
(warmup), bifurcation sweeps (bifurcation) and SVG plots (svgplot).
"""

from .errors import CertificateError, NotPiecewiseLinear, ResourceLimitError

__all__ = ["CertificateError", "NotPiecewiseLinear", "ResourceLimitError"]

__version__ = "0.1.0"
