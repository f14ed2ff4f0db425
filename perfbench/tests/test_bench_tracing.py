import contextlib
import io
import sys
import threading

import tracing
from gradnotch import cli  # noqa: F401  (loads every gradnotch module)
from gradnotch.model import PolarSeries


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered(0.0, 10.0, [(1, 5), (2, 6), (8, 12)]) == 7.0
    assert tracing.covered(0.0, 10.0, []) == 0.0
    assert tracing.covered(2.0, 4.0, [(0, 3), (3.5, 9)]) == 1.5


def test_self_time_with_overlapping_children_on_two_threads():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    entered = [threading.Event(), threading.Event()]
    release = [threading.Event(), threading.Event()]

    def child(k):
        span = tracer._enter("child")
        entered[k].set()
        release[k].wait(5)
        tracer._exit(span)

    with tracer.request(1, "root"):
        threads = [threading.Thread(target=child, args=(k,)) for k in (0, 1)]
        threads[0].start()
        entered[0].wait(5)
        threads[1].start()
        entered[1].wait(5)
        for k in (0, 1):
            release[k].set()
            threads[k].join(5)
            assert not threads[k].is_alive()
    # children cover [1, 5] and [2, 6]: their union is 5, not 8
    assert tracer.stats["root"].self_s == 5.0
    assert tracer.stats["child"].calls == 2
    assert tracer.stats["child"].self_s == 8.0


def _namespaces():
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "gradnotch" or name.startswith("gradnotch.")}
    mods["PolarSeries"] = dict(vars(PolarSeries))
    return mods


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[m].keys() == b[m].keys()
        and all(a[m][k] is b[m][k] for k in a[m]) for m in a)


def test_install_wraps_every_binding_and_uninstall_restores():
    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _namespaces()
        assert not _same(before, during)
        # imported by name: the wrapper must replace these bindings too
        assert sys.modules["gradnotch.cli"].eigenfield is not \
            before["gradnotch.cli"]["eigenfield"]
        assert sys.modules["gradnotch.verify"].find_roots is not \
            before["gradnotch.verify"]["find_roots"]
        with tracer.request(0, "cli.eig"), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = sys.modules["gradnotch.cli"].main(
                ["eig", "--mode", "ap", "--angle-deg", "150"])
        assert rc == 0
    finally:
        tracer.uninstall()
    assert _same(before, _namespaces())
    assert tracer.stats["eigensolver.find_roots"].calls == 1
    assert tracer.stats["basis.eigenfield"].calls >= 1
    assert tracer.counters["model.PolarSeries.created"] > 0


def test_wrappers_record_nothing_outside_a_request():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            sys.modules["gradnotch.cli"].main(
                ["eig", "--mode", "ap", "--angle-deg", "150"])
    finally:
        tracer.uninstall()
    assert not tracer.stats and not tracer.counters
