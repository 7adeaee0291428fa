"""The benchmark's span tracer names layer modules, classes and methods
of the package; renaming or deleting one must fail here, not only in
the benchmark's own smoke check."""

import sys
from pathlib import Path

import rankdec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_on_every_layer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = Tracer()
    tracer.install(rankdec)
    originals = [(holder, attr, fn) for holder, attr, fn, _ in tracer._plan]
    assert originals
    tracer.enable()
    try:
        rankdec.FieldContext(2, 1, 3)
    finally:
        tracer.disable()
    assert all(vars(holder)[attr] is fn for holder, attr, fn in originals)
    assert len(tracer) > 0
