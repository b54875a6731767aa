"""The benchmark's tracer wraps goerw functions by (owner, attribute). A
name it patches that goerw no longer has makes every traced workload fail,
so tier-1 checks the names without running the benchmark."""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_exists():
    tracer = load_tracer()
    targets = tracer.replacements(tracer.Tracer())
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if not hasattr(owner, attr)]
    assert missing == []
