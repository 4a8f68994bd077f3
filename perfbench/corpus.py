"""The tier-1 theorem corpus, copied so the benchmark does not import tests.

Scales, schedules, sources and checkers are those of the test corpus
(23 labelled cases on the appendix, cubic and taylor scales).  The only
change is that the coefficient vectors of the constructed targets are drawn
from the benchmark seed; entries that are zero in the test corpus stay zero,
so every case keeps its character (kernel part, divergent part, ...).
"""

from __future__ import annotations

import math

import chebscale as cs

APPENDIX = (["exp(x)", "x", "log(x)", "1"], 4.0, math.inf, 10, 1.22)
CUBIC = (["1", "x", "x^2", "x^3"], -1.0, 0.0, 12, 0.5)
TAYLOR = (["1", "1-x", "(1-x)^2", "(1-x)^3"], 0.0, 1.0, 12, 0.5)
SCALES = (("appendix", APPENDIX), ("cubic", CUBIC), ("taylor", TAYLOR))

E = math.e
# Known expansion coefficients of the corpus's non-constructed targets.
EXP_ON_CUBIC = [1.0, 1.0, 0.5, 1.0 / 6.0]
EXP_ON_TAYLOR = [E, -E, E / 2.0, -E / 6.0]

# (name, source, mode, coefficient pattern of the test corpus)
CONSTRUCTED = (
    ("tail exp", "exp(-x)", "tail", (1.0, 1.0, 1.0, 1.0)),
    ("tail pow", "x^-3", "tail", (2.0, -1.0, 0.5, 1.5)),
    ("oscillating-source", "exp(-x)*cos(x)", "tail", (1.0, 0.0, 1.0, 0.0)),
    ("divergent", "1/x", "from_T", (1.0, 1.0, 0.0, 0.0)),
    ("mixed", "log(x)/x", "from_T", (1.0, 1.0, 0.0, 0.0)),
    ("bounded-oscillation", "sin(x)", "from_T", (1.0, 1.0, 1.0, 0.0)),
)


def build_bundle(spec):
    """A cold bundle: fresh scale objects, so no cache is shared."""
    exprs, T, x0, count, ratio = spec
    scale = cs.ChebyshevScale.from_exprs(exprs, T=T, x0=x0)
    return cs.artifacts_for(scale, cs.make_schedule(T, x0, count, ratio))


def draw_coefficients(rng, pattern):
    """Seeded coefficients with the corpus's zero pattern kept."""
    return [
        0.0 if p == 0.0 else round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0), 6)
        for p in pattern
    ]


def source_value(psi):
    return lambda x: psi(x, 0).value


class Case:
    """One labelled checker call; ``truth`` holds known coefficients or None."""

    __slots__ = ("label", "art", "call", "truth")

    def __init__(self, label, art, call, truth=None):
        self.label = label
        self.art = art
        self.call = call
        self.truth = truth


def corpus(bundles, rng):
    """The 23 labelled cases on ``bundles`` = {"appendix", "cubic", "taylor"}."""
    art, cubic, taylor = bundles["appendix"], bundles["cubic"], bundles["taylor"]
    Fn = cs.ExpressionFunction
    out = []

    kern = Fn("exp(x) + x + log(x) + 1")
    out.append(Case("appendix kernel complete", art,
                    lambda: cs.check_complete(kern, art), [1.0, 1.0, 1.0, 1.0]))
    out.append(Case("appendix kernel absolute", art, lambda: cs.check_absolute(kern, art)))
    kern2 = Fn("2*exp(x) - x + 3*log(x) + 5")
    out.append(Case("appendix kernel2 complete", art,
                    lambda: cs.check_complete(kern2, art), [2.0, -1.0, 3.0, 5.0]))
    phi2 = art.scale.functions[1]
    out.append(Case("appendix basis phi2 complete", art,
                    lambda: cs.check_complete(phi2, art), [0.0, 1.0, 0.0, 0.0]))

    built = {}
    for name, text, mode, pattern in CONSTRUCTED:
        psi = Fn(text)
        g = cs.construct_from_source(art, draw_coefficients(rng, pattern), psi, mode=mode)
        built[name] = (g, source_value(psi))

    def complete(name):
        g, src = built[name]
        return lambda: cs.check_complete(
            g, art, source=src, remainder=g.remainder, coefficients=g.coefficients
        )

    def with_source(check, name, *args):
        g, src = built[name]
        return lambda: check(g, *args, art, source=src)

    def absolute(name):
        g, src = built[name]
        return lambda: cs.check_absolute(g, art, source=src)

    def truth(name):
        return list(built[name][0].coefficients)

    out.append(Case("appendix tail exp complete", art, complete("tail exp"), truth("tail exp")))
    out.append(Case("appendix tail exp absolute", art, absolute("tail exp")))
    out.append(Case("appendix tail exp O i=4", art, with_source(cs.check_O, "tail exp", 4)))
    out.append(Case("appendix tail pow complete", art, complete("tail pow"), truth("tail pow")))
    out.append(Case("appendix tail pow absolute", art, absolute("tail pow")))
    out.append(Case("appendix oscillating-source complete", art, complete("oscillating-source"),
                    truth("oscillating-source")))
    out.append(Case("appendix oscillating-source absolute", art, absolute("oscillating-source")))
    g4, src4 = built["divergent"]
    out.append(Case("appendix divergent complete", art,
                    lambda: cs.check_complete(g4, art, source=src4)))
    out.append(Case("appendix divergent absolute", art, absolute("divergent")))
    out.append(Case("appendix divergent O i=4", art, with_source(cs.check_O, "divergent", 4)))
    out.append(Case("appendix mixed incomplete i=2", art,
                    with_source(cs.check_incomplete, "mixed", 2)))
    out.append(Case("appendix mixed incomplete i=3", art,
                    with_source(cs.check_incomplete, "mixed", 3)))
    out.append(Case("appendix bounded-oscillation O i=4", art,
                    with_source(cs.check_O, "bounded-oscillation", 4)))

    fe = Fn("exp(x)")
    out.append(Case("cubic convex exp complete", cubic,
                    lambda: cs.check_complete(fe, cubic), EXP_ON_CUBIC))
    out.append(Case("cubic convex exp absolute", cubic, lambda: cs.check_absolute(fe, cubic)))
    kernc = Fn("1 + 2*x - x^2 + 0.5*x^3")
    out.append(Case("cubic kernel complete", cubic,
                    lambda: cs.check_complete(kernc, cubic), [1.0, 2.0, -1.0, 0.5]))
    out.append(Case("taylor exp complete", taylor,
                    lambda: cs.check_complete(fe, taylor), EXP_ON_TAYLOR))
    out.append(Case("taylor exp absolute", taylor, lambda: cs.check_absolute(fe, taylor)))
    out.append(Case("taylor exp O i=4", taylor, lambda: cs.check_O(fe, 4, taylor)))
    return out
