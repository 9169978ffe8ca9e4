"""Every layer the benchmark wraps still exists under the name it wraps.

perfbench/spans.py replaces functions and methods of sympair by name, so a
rename in src/ silently drops a layer from the trace.  The name lists are
read from that file's source, which is never imported or written here.
"""

import ast
import importlib
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def wrapped_names():
    names = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS"):
                names[target.id] = ast.literal_eval(node.value)
    return names


def test_every_wrapped_name_resolves():
    names = wrapped_names()
    assert names["FUNCTIONS"] and names["METHODS"]
    importlib.import_module("sympair.cli")
    for layer, modname, attr in names["FUNCTIONS"]:
        assert modname in sys.modules, (layer, modname)
        assert callable(getattr(sys.modules[modname], attr, None)), (layer, modname, attr)
    for layer, modname, clsname, attr in names["METHODS"]:
        assert modname in sys.modules, (layer, modname)
        cls = getattr(sys.modules[modname], clsname, None)
        assert isinstance(cls, type), (layer, modname, clsname)
        assert attr in cls.__dict__, (layer, clsname, attr)
