"""The package's attributes: roughir.<m> for a module file <m>.py is that
module or absent, never a function or class that shadows it."""

import sys
from pathlib import Path

import roughir


def test_no_attribute_shadows_a_module():
    modules = [f.stem for f in Path(roughir.__file__).parent.glob("*.py") if f.stem != "__init__"]
    assert "simulators" in modules
    shadowed = [m for m in modules if hasattr(roughir, m)
                and getattr(roughir, m) is not sys.modules.get(f"roughir.{m}")]
    assert shadowed == []
