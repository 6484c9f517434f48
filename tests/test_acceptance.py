"""Acceptance gate: one test per headline capability, with the runtime
budgets asserted alongside the mathematical claims.  Each test prints a
single PASS line straight to the terminal (bypassing capture) so the whole
gate reads as a checklist."""
import json
import random
import time
from math import gcd

from nashlab.blowup import nash_step
from nashlab.cli import main
from nashlab.families import (
    X_RELATIONS,
    counterexample_generators,
    counterexample_x,
    cyclic_quotient,
    numerical,
    rebassoo,
    reeve,
)
from nashlab.intlinalg import determinant
from nashlab.iterate import RunConfig, run
from nashlab.semigroups import is_smooth, isomorphic

from .helpers import (
    brute_charts,
    iso_class_multisets_equal,
    singular_saturated_corpus,
    smooth_corpus,
)


def test_criterion_1_nobile_char_two_is_an_isomorphism(capsys):
    started = time.perf_counter()
    s = numerical([2, 3])
    charts = nash_step(s, 2, False)
    assert len(charts) == 1
    assert isomorphic(charts[0], s) is not None
    tree = run(s, RunConfig(characteristic=2))
    assert tree.verdict_summary == "CounterexampleCycle"
    assert tree.nodes[1].verdict == "Cycle" and tree.nodes[1].depth == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: cusp char 2 is a self-cycle at depth 1 ({elapsed:.2f}s)")


def test_criterion_2_curves_resolve_in_characteristic_zero(capsys):
    started = time.perf_counter()
    tree = run(numerical([2, 3]), RunConfig(characteristic=0))
    assert tree.verdict_summary == "Resolved"
    assert tree.stats()["depth_reached"] == 1
    rng = random.Random(0)
    picked = set()
    while len(picked) < 20:
        k = rng.randint(2, 4)
        picked.add(tuple(sorted(rng.sample(range(2, 16), k))))
    for gens in sorted(picked):
        t = run(
            numerical(list(gens)),
            RunConfig(characteristic=0, max_depth=25),
        )
        assert t.verdict_summary == "Resolved", (gens, t.verdict_summary)
        assert t.stats()["depth_reached"] <= 25
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f}s (budget 60s)"
    with capsys.disabled():
        print(f"\nACCEPTANCE 2 PASS: cusp and 20 numerical semigroups resolve ({elapsed:.2f}s)")


def test_criterion_3_normal_toric_surfaces_resolve_in_all_characteristics(capsys):
    started = time.perf_counter()
    count = 0
    for ch in (0, 2, 3, 5):
        for b in range(2, 13):
            for a in range(1, b):
                if gcd(a, b) != 1:
                    continue
                t = run(
                    cyclic_quotient(a, b),
                    RunConfig(characteristic=ch, normalized=True),
                )
                assert t.verdict_summary == "Resolved", (a, b, ch, t.verdict_summary)
                count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.2f}s (budget 300s)"
    with capsys.disabled():
        print(f"\nACCEPTANCE 3 PASS: {count} normalized cyclic-quotient runs resolve ({elapsed:.2f}s)")


def test_criterion_4_rebassoo_family_resolves(capsys):
    started = time.perf_counter()
    count = 0
    for p in range(1, 5):
        for q in range(1, 5):
            for r in range(1, 5):
                if gcd(gcd(p, q), r) != 1:
                    continue
                t = run(
                    rebassoo(p, q, r),
                    RunConfig(characteristic=0, max_depth=25),
                )
                assert t.verdict_summary == "Resolved", (p, q, r, t.verdict_summary)
                assert t.stats()["depth_reached"] <= 25
                count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.2f}s (budget 300s)"
    with capsys.disabled():
        print(f"\nACCEPTANCE 4 PASS: {count} Rebassoo surfaces resolve un-normalized ({elapsed:.2f}s)")


def test_criterion_5_counterexample_cycles_at_depth_one(capsys):
    started = time.perf_counter()
    gens = counterexample_generators()
    for rel in X_RELATIONS:
        for k in range(4):
            assert sum(rel[i] * gens[i][k] for i in range(7)) == 0
    x = counterexample_x()
    step = nash_step(x, 0, False)
    assert any(c.rank == 4 and isomorphic(c, x) is not None for c in step)
    tree = run(x, RunConfig(characteristic=0, max_depth=1))
    assert tree.verdict_summary == "CounterexampleCycle"
    cycle = next(n for n in tree.nodes if n.closes_cycle)
    assert cycle.depth == 1 and cycle.cycle_target == 0
    cert = cycle.certificate
    assert abs(determinant([list(r) for r in cert.matrix])) == 1
    assert cert.verify(cycle.semigroup, tree.nodes[0].semigroup)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.2f}s (budget 120s)"
    with capsys.disabled():
        print(
            "\nACCEPTANCE 5 PASS: seven-generator rank-4 semigroup reappears in its own "
            f"Nash blowup, unimodular certificate verified ({elapsed:.2f}s)"
        )


def test_criterion_6_smoothness_dichotomy(capsys):
    rng = random.Random(606)
    smooth = smooth_corpus(rng, 15)
    singular = singular_saturated_corpus(rng, 15)

    def single_iso_chart(s, ch):
        charts = nash_step(s, ch, False)
        return len(charts) == 1 and isomorphic(charts[0], s) is not None

    for s in smooth:
        assert is_smooth(s)
        assert single_iso_chart(s, 0), s.generators
    for s in singular:
        assert not is_smooth(s)
        assert not single_iso_chart(s, 0), s.generators
        for ch in (2, 3):
            assert not single_iso_chart(s, ch), (s.generators, ch)
    with capsys.disabled():
        print(
            "\nACCEPTANCE 6 PASS: blowup is trivial exactly on the 15 smooth inputs, "
            "never on the 15 singular saturated ones (chars 0, 2, 3)"
        )


def test_criterion_7_brute_force_chart_oracle_agrees(capsys):
    rng = random.Random(707)
    corpus = [s for s in smooth_corpus(rng, 8) if s.rank <= 3]
    corpus += [cyclic_quotient(1, 2), cyclic_quotient(2, 5), cyclic_quotient(3, 7)]
    corpus += [numerical([2, 3]), numerical([3, 4, 5]), rebassoo(3, 1, 2)]
    from nashlab.semigroups import canonicalize

    corpus.append(canonicalize([(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1)]))
    checked = 0
    for s in corpus:
        assert s.rank <= 3
        for ch in (0, 2):
            fast = nash_step(s, ch, False)
            slow = [sg for _, sg in brute_charts(s, ch, normalized=False)]
            assert iso_class_multisets_equal(fast, slow), (s.generators, ch)
            checked += 1
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 7 PASS: optimized charts match the brute-force oracle on "
            f"{checked} instance/characteristic pairs"
        )


def test_criterion_8_reports_are_byte_identical(capsys):
    def report(args):
        code = main(args)
        out = capsys.readouterr().out
        doc = json.loads(out)
        doc.pop("timing_seconds", None)
        return code, json.dumps(doc, sort_keys=False)

    base = ["nash", "example:cdll", "--max-depth", "2", "--max-nodes", "100", "--full-tree"]
    runs = [report(base + ["--jobs", "1"]), report(base + ["--jobs", "1"]),
            report(base + ["--jobs", "4"])]
    assert runs[0] == runs[1] == runs[2]
    sweep = ["sweep", "cyclic_quotient", "--b-max", "6", "--normalized"]
    assert report(sweep) == report(sweep)
    with capsys.disabled():
        print("\nACCEPTANCE 8 PASS: reports byte-identical across repeats and --jobs 1/4")


def test_positive_characteristic_survey_is_reported_not_asserted(capsys):
    """Positive-characteristic behaviour is exploratory: run a small survey
    and print what happens, with no assertion on the verdicts."""
    lines = ["", "characteristic-p survey (reported, no assertion):"]
    x = counterexample_x()
    for p in (2, 3, 5, 7):
        tree = run(x, RunConfig(characteristic=p, max_depth=2, max_nodes=200))
        lines.append(
            f"  counterexample_x char {p}: {tree.verdict_summary}"
            f" (nodes={tree.stats()['node_count']})"
        )
    for q in (2, 3, 4):
        s = reeve(q)
        for p in (2, 3, 5, 7):
            tree = run(s, RunConfig(characteristic=p, max_depth=3, max_nodes=200))
            lines.append(
                f"  reeve({q}) char {p}: {tree.verdict_summary}"
                f" (nodes={tree.stats()['node_count']})"
            )
    with capsys.disabled():
        print("\n".join(lines))
