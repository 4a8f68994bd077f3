"""Every name the benchmark tracer patches must resolve on the package.

``perfbench/tracing.py`` rebinds functions and methods by module and
attribute path, and reads methods from their own class ``__dict__``; a
refactor that renames, moves or inherits one of them would break the traced
run.  ``perfbench/selfcheck.py`` reads four more bindings to check that
rebinding.  This test only reads ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACING = _load_tracing()
TRACED = TRACING.COUNTED + TRACING.SPANNED


@pytest.mark.parametrize("module,path", [(m, p) for _, m, p in TRACED],
                         ids=[f"{m}.{p}" for _, m, p in TRACED])
def test_traced_name_resolves(module, path):
    importlib.import_module(f"chebscale.{module}")
    owner, attr, original = TRACING._resolve(module, path)
    assert callable(original)
    assert getattr(owner, attr) is original


def test_selfcheck_rebinding_names_are_bound():
    # test_rebinding of perfbench/selfcheck.py reads these four bindings; an
    # import a module keeps only for it must stay
    import chebscale.cli
    import chebscale.expansion
    import chebscale.factorization
    import chebscale.jet

    assert chebscale.expansion.apply_chain is chebscale.factorization.apply_chain
    assert chebscale.cli.artifacts_for is chebscale.expansion.artifacts_for
    assert chebscale.jet._UNARY["exp"] is chebscale.jet.jexp
    assert chebscale.jet.Jet.__rmul__ is chebscale.jet.Jet.__mul__
