"""The benchmark's span tracer patches package names that must stay bound.

``perfbench/spans.py`` wraps each layer at every module that binds it and
puts the originals back on exit.  A name deleted from one of those modules
would surface only as an ``AttributeError`` in a traced benchmark run; this
test catches it in the suite, and checks that every binding is restored.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_install_wraps_and_restores_every_patched_binding():
    spans = _load_spans()
    bindings = [(module, attribute) for _, attribute, callers, _ in spans.PATCHES
                for module in callers]
    bindings += [("qsts.cli", "render_json"), ("qsts.cli", "build_parser")]
    modules = {name: importlib.import_module(name) for name, _ in bindings}
    for name, attribute in bindings:
        assert hasattr(modules[name], attribute), f"{name}.{attribute} is not bound"
    originals = {key: getattr(modules[key[0]], key[1]) for key in bindings}
    with spans.install(spans.Tracer()):
        for (name, attribute), original in originals.items():
            assert getattr(modules[name], attribute) is not original, (name, attribute)
    for (name, attribute), original in originals.items():
        assert getattr(modules[name], attribute) is original, (name, attribute)
