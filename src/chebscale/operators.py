"""Weighted-derivative operators attached to the factorization chains.

``M_k`` runs the type-II chain to level k, ``L_k`` the type-I chain; level 0
is multiplication by the zeroth weight, level n the full operator.  The
structural constants (the unit constants of the type-II images, the tail
signs, the proportionality constants to the principal system) are detected
numerically and cross-checked against the all-positive-Wronskian pattern
when it applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EvaluationError, NotConstant
from .factorization import apply_chain
from .wronskian import bordered_wronskian, wronskian


@dataclass
class WeightedOperator:
    """Level-k weighted derivative bound to a chain."""

    chain: object
    k: int
    kind: str  # "L" (type-I chain) or "M" (type-II chain)

    def __post_init__(self):
        if not 0 <= self.k <= self.chain.n:
            raise EvaluationError(f"order {self.k} outside [0, {self.chain.n}]")

    def apply(self, f, x):
        return apply_chain(self.chain, f, x, level=self.k)

    def __repr__(self):
        return f"{self.kind}_{self.k}"


def apply_weighted(op, f, x):
    """Evaluate the weighted derivative: multiply by the zeroth weight, then
    alternately differentiate and multiply, in jet arithmetic."""
    return op.apply(f, x)


def wronskian_operator(scale, indices, f, x):
    """Bordered Wronskian with ``f`` appended as the last column."""
    value, _, _ = bordered_wronskian(scale, tuple(indices), f, x)
    return value


@dataclass
class OperatorConstants:
    """Structural constants of the two operator families.

    ``epsilon[k]`` is the constant value of M_k applied to the (k+1)-th scale
    function, for k = 0..n-1 (always of modulus one).  ``epsilon_hk`` maps
    (h, k) with h >= k+2 to the empirically detected sign of M_k[phi_h].
    ``b[i-1]`` is the proportionality constant of phi_i to the principal
    system: the constant value of L_{n-i}[phi_i], the mean that the
    ``L_k[phi_{n-k}]`` constancy test computes along the schedule.  No
    principal system is built to find it.
    """

    epsilon: list
    epsilon_hk: dict
    b: list
    positivity_case: bool = False
    matches_alternating_pattern: bool | None = None
    constancy: dict = field(default_factory=dict)


def detect_constant(values, rel_tol=1e-8):
    """Mean of a sequence that must be constant to within ``rel_tol``."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise NotConstant("no finite samples")
    mean = sum(finite) / len(finite)
    spread = max(abs(v - mean) for v in finite)
    if spread > rel_tol * (1.0 + abs(mean)):
        raise NotConstant(
            f"relative variation {spread / (1.0 + abs(mean)):.3e} exceeds {rel_tol:.0e}"
        )
    return mean, spread


def operator_constants(scale, chain_q, chain_p, schedule, rel_tol=1e-8):
    """Detect the structural constants along the schedule.

    ``epsilon`` and ``b`` are the means of the constancy tests of
    M_k[phi_{k+1}] and L_k[phi_{n-k}].  Raises :class:`NotConstant` if a
    chain image of its own kernel-edge function fails its constancy test,
    which signals a broken chain.
    """
    pts = scale.toward_x0(schedule.points)
    n = scale.n
    epsilon = []
    constancy = {}
    for k in range(n):
        vals = [apply_chain(chain_q, scale.functions[k], x, level=k) for x in pts]
        mean, spread = detect_constant(vals, rel_tol)
        epsilon.append(1 if mean > 0 else -1)
        constancy[f"M_{k}[phi_{k + 1}]"] = {"value": mean, "spread": spread}
    epsilon_hk = {}
    for k in range(n - 1):
        for h in range(k + 2, n + 1):
            vals = [apply_chain(chain_q, scale.functions[h - 1], x, level=k) for x in pts]
            late = [v for v in vals[-3:] if v != 0.0]
            sign = 0
            if late and all(v > 0 for v in late):
                sign = 1
            elif late and all(v < 0 for v in late):
                sign = -1
            epsilon_hk[(h, k)] = sign
    b = [0.0] * n
    for k in range(n):
        vals = [apply_chain(chain_p, scale.functions[n - k - 1], x, level=k) for x in pts]
        mean, spread = detect_constant(vals, rel_tol)
        b[n - k - 1] = mean
        constancy[f"L_{k}[phi_{n - k}]"] = {"value": mean, "spread": spread}

    positivity = True
    for i in range(1, n + 1):
        ev = wronskian(scale, tuple(range(1, i + 1)), pts[-1])
        if ev.value <= 0:
            positivity = False
            break
    matches = None
    if positivity:
        matches = all(e == 1 for e in epsilon[1:]) and all(
            sign == 0 or sign == (-1) ** (h + k + 1)
            for (h, k), sign in epsilon_hk.items()
        )
    return OperatorConstants(
        epsilon=epsilon,
        epsilon_hk=epsilon_hk,
        b=b,
        positivity_case=positivity,
        matches_alternating_pattern=matches,
        constancy=constancy,
    )
