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
from .wronskian import wronskian


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


def detect_constant(values):
    """Mean of a sequence that must be constant to within 1e-8, relative."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise NotConstant("no finite samples")
    mean = sum(finite) / len(finite)
    spread = max(abs(v - mean) for v in finite)
    if spread > 1e-8 * (1.0 + abs(mean)):
        raise NotConstant(
            f"relative variation {spread / (1.0 + abs(mean)):.3e} exceeds 1e-08"
        )
    return mean, spread


def schedule_images(scale, chain_q, chain_p, schedule):
    """The images of every scale member through both chains at every
    schedule point, as one node-array chain pass per (chain, member) on the
    node array of the points ordered toward x0
    (:meth:`~chebscale.factorization.WeightChain.images_on`), which a
    bundle's chains share.  Each weight is evaluated once on that array,
    each member once per array, and the chains keep the levels of every
    node the array pass does not flag; a second call does no work.  Nothing
    raises here: a flagged node's first read runs the scalar pass, where
    its error, if any, surfaces."""
    points = scale.toward_x0(schedule.points)
    for chain in (chain_q, chain_p):
        chain.images_on(scale.functions, points)


def operator_constants(scale, chain_q, chain_p, schedule, scan=None):
    """Detect the structural constants along the schedule.

    ``epsilon`` and ``b`` are the means of the constancy tests of
    M_k[phi_{k+1}] and L_k[phi_{n-k}].  Raises :class:`NotConstant` if a chain
    image of its own kernel-edge function fails its constancy test, which
    signals a broken chain.  ``positivity_case`` reads the signs of the
    leading Wronskians at the last point where they are all finite (read
    from ``scan``, the build's shared evaluations, when given).

    The images come from :func:`schedule_images`, one node-array pass per
    (chain, member), run here unless the caller ran it (a bundle does,
    before its probe cut); the points that pass flags are read point by
    point, in the order of the tests below, so values and errors are those
    of the point-by-point loop.  The chains keep every image read here:
    the M_k[phi_h] of ``epsilon_hk`` are the deflation basis of every later
    operator limit on the schedule.
    """
    schedule_images(scale, chain_q, chain_p, schedule)
    pts = scale.toward_x0(schedule.points)
    n = scale.n

    def constant(chain, i, k):
        return detect_constant([chain.image(scale.functions[i - 1], k, x)[0] for x in pts])

    epsilon = []
    constancy = {}
    for k in range(n):
        mean, spread = constant(chain_q, k + 1, k)
        epsilon.append(1 if mean > 0 else -1)
        constancy[f"M_{k}[phi_{k + 1}]"] = {"value": mean, "spread": spread}
    epsilon_hk = {}
    for k in range(n - 1):
        for h in range(k + 2, n + 1):
            vals = [chain_q.image(scale.functions[h - 1], k, x)[0] for x in pts]
            late = [v for v in vals[-3:] if v != 0.0]
            sign = 0
            if late and all(v > 0 for v in late):
                sign = 1
            elif late and all(v < 0 for v in late):
                sign = -1
            epsilon_hk[(h, k)] = sign
    b = [0.0] * n
    for k in range(n):
        mean, spread = constant(chain_p, n - k, k)
        b[n - k - 1] = mean
        constancy[f"L_{k}[phi_{n - k}]"] = {"value": mean, "spread": spread}

    positivity = False
    for x in reversed(pts):  # the last point where the leading Wronskians are finite
        try:
            positivity = all(
                wronskian(scale, tuple(range(1, i + 1)), x, scan).value > 0
                for i in range(1, n + 1)
            )
            break
        except EvaluationError:  # one of them overflows at x
            pass
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
