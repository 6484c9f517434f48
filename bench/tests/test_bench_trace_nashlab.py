"""The nashlab instrumentation reaches every binding and is fully undone."""
from collections import Counter

import nashlab.cli
import nashlab.intlinalg
import nashlab.semigroups
from trace_nashlab import LAYERS, count_classes, install, span_name
from tracer import Tracer


def traced_cli(argv, capsys):
    tracer, counters, trees = Tracer(), Counter(), []
    install(tracer, counters, trees)
    try:
        code = nashlab.cli.main(argv)
    finally:
        tracer.unpatch()
    capsys.readouterr()
    return code, tracer.spans(), counters, trees


def test_copies_bound_by_from_imports_are_traced_and_restored(capsys):
    original = nashlab.intlinalg.determinant
    code, spans, counters, trees = traced_cli(["nash", "example:cdll", "--max-depth", "1"], capsys)
    assert code == 2
    assert nashlab.semigroups.determinant is original
    assert nashlab.semigroups.AffineSemigroup.member.__name__ == "member"
    names = [spans.names[i] for i in spans.name_of]
    parents = {spans.names[spans.name_of[p]] for i, p in enumerate(spans.parent)
               if p >= 0 and names[i] == "intlinalg.determinant"}
    # determinant is reached through copies bound in semigroups and blowup
    assert {"semigroups.is_smooth", "blowup.log_jacobian"} <= parents
    assert names[0] == "cli.main" and spans.parent[0] == -1
    expected = {span_name(layer, f) for layer, fs in LAYERS.items() for f in fs}
    assert set(names) <= expected
    assert counters["charts"] >= counters["vertex_charts"] > 0
    assert len(trees) == 1 and count_classes(trees[0]) <= len(trees[0].nodes)


def test_pool_is_timed_from_outside(capsys):
    argv = ["sweep", "cyclic_quotient", "--b-max", "3", "--normalized", "--jobs", "2"]
    code, spans, counters, trees = traced_cli(argv, capsys)
    assert code == 0
    st = spans.self_times()
    assert st["iterate.pool.start"][0] == len(trees) == 3
    assert st["iterate.pool.map"][0] >= 1 and counters["pool_tasks"] >= 3
    assert "blowup.step_charts" not in st  # runs in the workers, out of sight
