"""Exact computations around Torelli groups of high-dimensional manifolds:
Hirzebruch L-polynomials, kappa-class rings, arithmetic groups preserving
(skew-)symmetric forms, Borel-type vanishing constants, and a brute-force
invariant-dimension oracle. All arithmetic is exact: over Q via
fractions.Fraction, or modulo a prime where a certificate lifts the answer to Q.
Import each name from its module, e.g. ``from torelli.lclasses import
l_polynomial``; importing the package alone loads no module.
"""

__version__ = "0.1.0"
