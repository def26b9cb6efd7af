"""Shared floating-point comparison policy.

All threshold comparisons in the package use an absolute tolerance of
``1e-9`` scaled by ``max(1, |value|)``.  Centralizing it here keeps the
root finder, the DP criticality test, and the trigger checks consistent.
"""

from __future__ import annotations

TOL = 1e-9


def tol_at(value: float) -> float:
    """Comparison tolerance near ``value``."""
    return TOL * max(1.0, abs(value))

