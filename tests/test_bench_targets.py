"""The benchmark's traced functions still exist in the library.

perfbench/tracer.py wraps each of its TARGETS by (module, qualname), and a
name that no longer resolves reads as a null per-layer metric.  The file is
read with ast, not imported, since it needs numpy, which the tests do not.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_targets() -> list[tuple[str, str]]:
    """(module, qualname) of each Target(...) in tracer.TARGETS."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return [(call.args[1].value, call.args[2].value)
                    for call in node.value.elts]
    raise AssertionError(f"no TARGETS in {TRACER}")


TARGETS = traced_targets()


def test_the_tracer_names_targets():
    assert len(TARGETS) >= 10
    assert ("vfunc.extension_algebra", "LElement.norm") in TARGETS
    assert ("vfunc.laurent", "reduce_to_J") in TARGETS


@pytest.mark.parametrize("module, qualname", TARGETS,
                         ids=[f"{m}.{q}" for m, q in TARGETS])
def test_every_traced_target_resolves(module, qualname):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        assert hasattr(obj, part), f"{module}.{qualname} is gone"
        obj = getattr(obj, part)
    assert callable(obj)
