"""The report checker rejects tampered reports."""
import copy
import json
from pathlib import Path

import pytest

from checks import check_nash, check_sweep, determinant, digest, is_unimodular

CDLL_REPORT = {
    "schema": "nashlab/1",
    "command": "nash",
    "verdict": "CounterexampleCycle",
    "cycles": [{"node": 8, "ancestor": True,
                "certificate": [[0, 1, 0, -1], [1, 0, 1, 0], [1, 0, 0, 0], [0, -1, 0, 2]]}],
    "timing_seconds": 4.8,
}


def test_determinant_matches_cofactor_expansion():
    assert determinant([[2, 1], [7, 4]]) == 1
    assert determinant([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([]) == 1


def test_untampered_report_passes():
    out = check_nash("cdll", 2, CDLL_REPORT, "CounterexampleCycle")
    assert out.ok and not out.changed


def test_wrong_definite_verdict_fails():
    bad = dict(CDLL_REPORT, verdict="Resolved", cycles=[])
    out = check_nash("cdll", 0, bad, "CounterexampleCycle")
    assert not out.ok
    assert "differs from reference" in out.failures[0]


def test_non_unimodular_certificate_fails():
    bad = copy.deepcopy(CDLL_REPORT)
    bad["cycles"][0]["certificate"][3] = [0, -1, 0, 3]
    assert not is_unimodular(bad["cycles"][0]["certificate"])
    out = check_nash("cdll", 2, bad, "CounterexampleCycle")
    assert out.failures == ["cycle certificate of node 8 is not unimodular"]


@pytest.mark.parametrize("cert", [[[1, 0], [0, 1], [0, 0]], [[1, 0.5], [0, 1]], None])
def test_malformed_certificate_fails(cert):
    bad = dict(CDLL_REPORT, cycles=[{"node": 1, "certificate": cert}])
    assert not check_nash("cdll", 2, bad, "CounterexampleCycle").ok


def test_exit_code_must_match_verdict():
    assert not check_nash("cdll", 3, CDLL_REPORT, "CounterexampleCycle").ok
    assert not check_nash("cdll", 2, None, "CounterexampleCycle").ok


def test_inconclusive_reference_that_becomes_definite_is_a_change_not_a_failure():
    out = check_nash("reeve", 2, CDLL_REPORT, "Inconclusive")
    assert out.ok and out.changed
    weaker = dict(CDLL_REPORT, verdict="Inconclusive", cycles=[])
    assert not check_nash("cdll", 3, weaker, "CounterexampleCycle").ok


def test_sweep_rows_are_checked_one_by_one():
    refs = {"1 2": "Resolved", "2 3": "Resolved"}
    report = {"rows": [{"params": [1, 2], "verdict": "Resolved"},
                       {"params": [2, 3], "verdict": "Inconclusive"}]}
    outcomes = check_sweep(0, report, refs)
    assert [o.ok for o in outcomes] == [True, False]
    missing = check_sweep(0, {"rows": report["rows"][:1]}, refs)
    assert [o.ok for o in missing] == [True, False]
    extra = check_sweep(0, {"rows": report["rows"][:1] + [{"params": [9], "verdict": "Resolved"}]},
                        {"1 2": "Resolved"})
    assert [o.ok for o in extra] == [True, False]
    assert not any(o.ok for o in check_sweep(1, report, refs))


def test_digest_ignores_timing_only():
    other = dict(CDLL_REPORT, timing_seconds=1.0)
    assert digest(other) == digest(CDLL_REPORT)
    assert digest(dict(CDLL_REPORT, verdict="Inconclusive")) != digest(CDLL_REPORT)


def test_reference_table_covers_every_instance():
    from workloads import WORKLOADS, load_reference

    refs = load_reference()
    for instances in WORKLOADS.values():
        for inst in instances:
            assert inst.label in refs
    sweep = refs["cyclic_quotient b<=24 normalized"]
    assert len(sweep) == 179 and set(sweep.values()) == {"Resolved"}
    assert refs["cdll char 0"] == refs["reeve:3 char 2"] == "CounterexampleCycle"


def test_benchmark_file_lists_the_metrics_the_run_prints():
    from run import END_TO_END, per_layer_units

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
