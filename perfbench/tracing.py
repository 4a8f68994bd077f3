"""Per-layer tracing from outside the library.

``Tracer.install`` rebinds chosen public functions and methods of
``chebscale`` to wrappers.  Because ``expansion``, ``cli`` and
``factorization`` import names directly, every module namespace (and every
module-level dispatch table, such as ``jet._UNARY``) that binds the original
object is patched, not only the defining module.  Hot arithmetic is only
counted; everything else records a span (name, start, end, parent).  Spans
stay in memory and are written out by ``write_spans`` at the end.

Metric names are ``<module>.<function>.<calls|s|self_s>``: ``s`` is the
inclusive time of the outermost span of that name (recursion is not counted
twice) and ``self_s`` is inclusive time minus the time of child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (metric prefix, module, attribute path); a method is "Class.method".
COUNTED = (
    ("jet.mul", "jet", "Jet.__mul__"),
    ("jet.elementary", "jet", "jexp"),
    ("jet.elementary", "jet", "jlog"),
    ("jet.elementary", "jet", "jpow"),
    ("jet.elementary", "jet", "jsqrt"),
    ("jet.elementary", "jet", "jsin"),
    ("jet.elementary", "jet", "jcos"),
)
SPANNED = (
    ("expr.ExpressionFunction.call", "expr", "ExpressionFunction.__call__"),
    ("expr.eval_jet", "expr", "eval_jet"),
    ("scale.phi_jet", "scale", "ChebyshevScale.phi_jet"),
    ("scale.require_verified", "scale", "require_verified"),
    ("scale.verify_hierarchy", "scale", "verify_hierarchy"),
    ("wronskian.wronskian_jet", "wronskian", "wronskian_jet"),
    ("wronskian.det_jet", "wronskian", "det_jet"),
    ("wronskian.bordered_wronskian", "wronskian", "bordered_wronskian"),
    ("factorization.build_type1_chain", "factorization", "build_type1_chain"),
    ("factorization.build_type2_chain", "factorization", "build_type2_chain"),
    ("factorization.classify_canonicity", "factorization", "classify_canonicity"),
    ("factorization.build_principal_system", "factorization", "build_principal_system"),
    ("factorization.apply_chain", "factorization", "apply_chain"),
    ("factorization.prefix_jet", "factorization", "_PrefixWronskians.jet"),
    ("operators.operator_constants", "operators", "operator_constants"),
    ("quadrature.integrate", "quadrature", "integrate"),
    ("quadrature.classify_toward", "quadrature", "classify_toward"),
    ("quadrature.WorkGrid.build", "quadrature", "WorkGrid.__init__"),
    ("quadrature.WorkGrid.values", "quadrature", "WorkGrid.values"),
    ("quadrature.NestedIntegral.build", "quadrature", "NestedIntegral.__init__"),
    ("quadrature.NestedIntegral.value", "quadrature", "NestedIntegral.value"),
    ("extrapolate.extrapolate_limit", "extrapolate", "extrapolate_limit"),
    ("extrapolate.classify_sequence", "extrapolate", "classify_sequence"),
    ("expansion.artifacts_for", "expansion", "artifacts_for"),
    ("expansion.check_complete", "expansion", "check_complete"),
    ("expansion.check_incomplete", "expansion", "check_incomplete"),
    ("expansion.check_O", "expansion", "check_O"),
    ("expansion.check_absolute", "expansion", "check_absolute"),
    ("expansion.construct_from_source", "expansion", "construct_from_source"),
    ("expansion.extract_operator", "expansion", "extract_operator"),
    ("expansion.extract_recursive", "expansion", "extract_recursive"),
    ("expansion.ScaleArtifacts.limit", "expansion", "ScaleArtifacts.limit"),
    ("expansion.ScaleArtifacts.M", "expansion", "ScaleArtifacts.M"),
    ("expansion.ScaleArtifacts.L", "expansion", "ScaleArtifacts.L"),
    ("expansion.ScaleArtifacts.nest", "expansion", "ScaleArtifacts.nest"),
    ("cli.run", "cli", "run"),
    ("cli.render_json", "cli", "render_json"),
)

# per-layer metrics reported (name -> unit); see README.md for the table
CALLS = (
    "jet.mul", "jet.elementary", "expr.ExpressionFunction.call", "expr.eval_jet",
    "scale.phi_jet", "wronskian.wronskian_jet", "wronskian.det_jet",
    "wronskian.bordered_wronskian", "factorization.apply_chain", "quadrature.integrate",
    "quadrature.WorkGrid.values", "quadrature.NestedIntegral.build",
    "quadrature.NestedIntegral.value", "extrapolate.extrapolate_limit",
    "extrapolate.classify_sequence", "expansion.ScaleArtifacts.limit",
)
SECONDS = (
    "scale.require_verified", "scale.verify_hierarchy", "wronskian.bordered_wronskian",
    "factorization.build_type1_chain", "factorization.build_type2_chain",
    "factorization.classify_canonicity", "factorization.build_principal_system",
    "factorization.apply_chain", "operators.operator_constants", "quadrature.integrate",
    "quadrature.classify_toward", "quadrature.WorkGrid.values",
    "quadrature.NestedIntegral.build", "quadrature.NestedIntegral.value",
    "extrapolate.extrapolate_limit", "extrapolate.classify_sequence",
    "expansion.artifacts_for", "expansion.check_complete", "expansion.check_incomplete",
    "expansion.check_O", "expansion.check_absolute", "expansion.construct_from_source",
    "expansion.extract_operator", "expansion.extract_recursive", "cli.run",
    "cli.render_json",
)
SELF_SECONDS = ("expr.eval_jet", "wronskian.wronskian_jet")
RATIOS = (
    "wronskian.wronskian_jet.order0_frac", "factorization.prefix_hit_ratio",
    "expansion.apply_hit_ratio", "expansion.nest_hit_ratio",
)


def per_layer_units():
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({f"{n}.s": "s" for n in SECONDS})
    units.update({f"{n}.self_s": "s" for n in SELF_SECONDS})
    units.update({n: "ratio" for n in RATIOS})
    units["quadrature.grid.cells"] = "count"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "chebscale" or name.startswith("chebscale."))]


def _resolve(module, path):
    """(owner object, attribute name, original) for 'f' or 'Class.method'."""
    mod = sys.modules[f"chebscale.{module}"]
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(mod, cls_name)
        return owner, attr, owner.__dict__[attr]
    return mod, path, getattr(mod, path)


class Tracer:
    def __init__(self):
        self.names = []  # span name table
        self.spans = []  # (name index, start, end, parent span index or -1)
        self.calls = Counter()
        self.incl = Counter()  # outermost-span inclusive seconds
        self.self_s = Counter()
        self.under = Counter()  # (name, parent name) -> calls
        self.order0 = 0
        self.cells = 0
        self._stack = []  # [name index, start, child seconds, span index]
        self._depth = Counter()
        self._patches = []

    # -- wrappers ---------------------------------------------------------------------

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanner(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        names, spans, stack, depth = self.names, self.spans, self._stack, self._depth
        calls, incl, self_s, under = self.calls, self.incl, self.self_s, self.under
        clock = time.perf_counter
        on_wronskian = name == "wronskian.wronskian_jet"
        on_grid = name == "quadrature.WorkGrid.build"

        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1] if stack else None
            under[name, names[parent[0]] if parent else ""] += 1
            if on_wronskian and (args[3] if len(args) > 3 else kwargs.get("order")) == 0:
                self.order0 += 1
            frame = [idx, 0.0, 0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            depth[name] += 1
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                self_s[name] += dur - frame[2]
                if not depth[name]:
                    incl[name] += dur
                if parent is not None:
                    parent[2] += dur
                spans[frame[3]] = (idx, start, end, parent[3] if parent else -1)
                if on_grid:
                    self.cells += args[0].cells

        return wrapper

    # -- patching ---------------------------------------------------------------------

    def install(self):
        for group, make in ((COUNTED, self._counter), (SPANNED, self._spanner)):
            for name, module, path in group:
                owner, attr, orig = _resolve(module, path)
                self._rebind(orig, make(name, orig), owner if "." in path else None)

    def _rebind(self, orig, wrapper, cls):
        if cls is not None:
            for attr, val in list(vars(cls).items()):  # aliases such as __rmul__
                if val is orig:
                    self._patches.append((setattr, cls, attr, orig))
                    setattr(cls, attr, wrapper)
            return
        for mod in _modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((setattr, mod, attr, orig))
                    setattr(mod, attr, wrapper)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is orig:
                            self._patches.append((dict.__setitem__, val, key, orig))
                            val[key] = wrapper

    def uninstall(self):
        for setter, owner, key, orig in reversed(self._patches):
            setter(owner, key, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------------------

    def metrics(self, overhead_s):
        def ratio(num, den):
            return num / den if den else 0.0

        calls = self.calls
        out = {f"{n}.calls": calls[n] for n in CALLS}
        out.update({f"{n}.s": self.incl[n] for n in SECONDS})
        out.update({f"{n}.self_s": self.self_s[n] for n in SELF_SECONDS})
        out["wronskian.wronskian_jet.order0_frac"] = ratio(
            self.order0, calls["wronskian.wronskian_jet"])
        # hits = calls that did not reach the layer below
        base = self.bases()
        misses = {
            "factorization.prefix_hit_ratio":
                self.under["wronskian.wronskian_jet", "factorization.prefix_jet"],
            "expansion.apply_hit_ratio":
                self.under["factorization.apply_chain", "expansion.ScaleArtifacts.M"]
                + self.under["factorization.apply_chain", "expansion.ScaleArtifacts.L"],
            "expansion.nest_hit_ratio":
                self.under["quadrature.NestedIntegral.build", "expansion.ScaleArtifacts.nest"],
        }
        for name, miss in misses.items():
            out[name] = ratio(base[name] - miss, base[name])
        out["quadrature.grid.cells"] = self.cells
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_s"] = overhead_s
        return out

    def bases(self):
        """The denominators of the ratios, so each ratio is read with its base."""
        c = self.calls
        return {
            "wronskian.wronskian_jet.order0_frac": c["wronskian.wronskian_jet"],
            "factorization.prefix_hit_ratio": c["factorization.prefix_jet"],
            "expansion.apply_hit_ratio":
                c["expansion.ScaleArtifacts.M"] + c["expansion.ScaleArtifacts.L"],
            "expansion.nest_hit_ratio": c["expansion.ScaleArtifacts.nest"],
        }

    def write_spans(self, path):
        """A header line with the span names, then one line per span: name
        index, start and end seconds, parent span line (-1: root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# names: " + " ".join(self.names) + "\n")
            fh.writelines(
                f"{idx}\t{start - t0:.7f}\t{end - t0:.7f}\t{parent}\n"
                for idx, start, end, parent in self.spans
            )
