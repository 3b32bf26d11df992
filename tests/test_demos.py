"""Every `ri.<name>(...)` call in demos/*.py binds to the current signature.

Running the demos takes tens of seconds; parsing them checks in well under
one that none calls a function with arguments it no longer takes.
"""

import ast
import inspect
from pathlib import Path

import pytest

import roughir as ri

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _ri_calls(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "ri"):
            yield node


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind(demo):
    calls = list(_ri_calls(ast.parse(demo.read_text(), filename=str(demo))))
    assert calls
    for call in calls:
        name = call.func.attr
        where = f"{demo.name}:{call.lineno} ri.{name}"
        assert hasattr(ri, name), f"{where}: roughir has no {name}"
        assert not any(isinstance(a, ast.Starred) for a in call.args), where
        assert all(k.arg is not None for k in call.keywords), where
        try:
            inspect.signature(getattr(ri, name)).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as e:
            pytest.fail(f"{where}: {e}")
