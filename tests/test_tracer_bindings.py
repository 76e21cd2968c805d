"""Every function and method the benchmark tracer wraps still exists.

perfbench/tracer.py names its traced functions by defining module and
attribute; a rename in `src/` would only fail when the benchmark runs
`Tracer.install`.  These tests load tracer.py read-only and resolve each
name as `install` does: a module attribute, or an entry of the class
dict.  The probe-loop commands are also run under the tracer, which
wraps every binding site, to check that all of their holonomy work sits
in one `transport.holonomy_loop` span.
"""

import importlib
import importlib.util
import os

import pytest

from shadowgeom.cli import run


def _load_tracer():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def test_traced_functions_resolve():
    missing = [f"{mod}.{attr}" for mod, attr, *_ in TRACER.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_traced_methods_resolve():
    missing = []
    for mod, cls_name, attr, *_ in TRACER.METHODS:
        cls = getattr(importlib.import_module(mod), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append(f"{mod}.{cls_name}.{attr}")
    assert missing == []


@pytest.mark.parametrize("command", ["transport", "parallel-field"])
def test_probe_loop_commands_call_holonomy_once(command, capsys):
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        run([command, "latitude_p3"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.summary()["transport.holonomy_loop"]["calls"] == 1
