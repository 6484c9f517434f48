"""Command-line behavior: exit codes, report schemas, error reporting,
sweeps, DOT emission, and byte-level determinism."""
import io
import json
import sys

import pytest

import nashlab.intlinalg
from nashlab.cli import main
from nashlab.cones import Cone


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nash_nobile_char_two_exits_two(capsys):
    code, out, _ = run_cli(["nash", "example:nobile", "--char", "2"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["schema"] == "nashlab/1"
    assert doc["verdict"] == "CounterexampleCycle"
    assert doc["cycles"][0]["depth"] == 1


def test_nash_a1_normalized_exits_zero(capsys):
    code, out, _ = run_cli(["nash", "example:a1", "--char", "0", "--normalized"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Resolved"
    assert doc["stats"]["depth_reached"] == 1


def test_nash_counterexample_shallow(capsys):
    code, out, _ = run_cli(
        ["nash", "example:cdll", "--char", "0", "--max-depth", "1"], capsys
    )
    assert code == 2
    doc = json.loads(out)
    closing = [c for c in doc["cycles"] if c["closes_cycle"]]
    assert closing and closing[0]["cycle_target"] == 0


def test_nash_inconclusive_exit_three(capsys):
    code, out, _ = run_cli(
        ["nash", "example:cdll", "--char", "0", "--max-depth", "0"], capsys
    )
    assert code == 3
    assert json.loads(out)["verdict"] == "Inconclusive"


def test_nash_reads_json_file_and_stdin(tmp_path, capsys, monkeypatch):
    doc = {"schema": "nashlab/1", "generators": [[2], [3]]}
    p = tmp_path / "cusp.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli(["nash", str(p), "--char", "0"], capsys)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run_cli(["describe", "-"], capsys)
    assert code == 0
    assert json.loads(out)["smooth"] is False


def test_describe_fields(capsys):
    code, out, _ = run_cli(["describe", "example:nobile"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 1
    assert doc["pointed"] is True
    assert doc["smooth"] is False
    assert doc["minimal_generators"] == [[2], [3]]


def test_describe_saturate_counts_hilbert_basis(capsys):
    code, out, _ = run_cli(["describe", "example:a1", "--saturate"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["hilbert_basis"]) == 3


def test_describe_smooth_plane(tmp_path, capsys):
    p = tmp_path / "plane.json"
    p.write_text(json.dumps({"generators": [[1, 0], [0, 1]]}))
    code, out, _ = run_cli(["describe", str(p)], capsys)
    assert code == 0
    assert json.loads(out)["smooth"] is True


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"generators": [[1, 0],\n  oops]}')
    code, _, err = run_cli(["nash", str(p)], capsys)
    assert code == 1
    assert "line 2" in err and "column" in err


def test_input_error_exits_one(capsys):
    assert run_cli(["nash", "example:mystery"], capsys)[0] == 1
    assert run_cli(["nash", "example:nobile", "--char", "4"], capsys)[0] == 1
    assert run_cli(["nash", "/nonexistent/file.json"], capsys)[0] == 1
    assert run_cli(["nash", "example:nobile", "--jobs", "0"], capsys)[0] == 1
    assert run_cli(["nash", "example:nobile", "--bogus-flag"], capsys)[0] == 1
    assert run_cli([], capsys)[0] == 1


def test_huge_characteristic_exits_one(capsys):
    code, _, err = run_cli(["nash", "example:a1", "--char", str(2**61 - 1)], capsys)
    assert code == 1
    assert "MAX_CHARACTERISTIC" in err


def test_schema_mismatch_rejected(tmp_path, capsys):
    p = tmp_path / "v2.json"
    p.write_text(json.dumps({"schema": "nashlab/2", "generators": [[1]]}))
    code, _, err = run_cli(["describe", str(p)], capsys)
    assert code == 1
    assert "unsupported schema" in err


def test_dot_file_output(tmp_path, capsys):
    target = tmp_path / "tree.dot"
    code, _, _ = run_cli(
        ["nash", "example:nobile", "--char", "2", "--dot", str(target)], capsys
    )
    assert code == 2
    dot = target.read_text()
    assert dot.startswith("digraph")
    assert "lightcoral" in dot


def test_full_tree_embeds_nodes(capsys):
    code, out, _ = run_cli(
        ["nash", "example:nobile", "--char", "2", "--full-tree"], capsys
    )
    doc = json.loads(out)
    assert len(doc["nodes"]) == doc["stats"]["node_count"]
    assert doc["nodes"][0]["semigroup"]["generators"] == [[2], [3]]


def test_sweep_cyclic_quotient_all_resolved(capsys):
    code, out, _ = run_cli(
        ["sweep", "cyclic_quotient", "--b-max", "5", "--normalized"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "sweep"
    assert doc["rows"]
    assert all(r["verdict"] == "Resolved" for r in doc["rows"])
    params = [tuple(r["params"]) for r in doc["rows"]]
    assert params == sorted(params, key=lambda p: (p[1], p[0]))


def test_sweep_csv_format(capsys):
    code, out, _ = run_cli(
        ["sweep", "reeve", "--q-max", "2", "--max-depth", "1", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "params,verdict,depth,nodes"
    assert len(lines) == 3
    assert lines[1].startswith("1,Resolved")


def test_sweep_numerical_is_seeded_and_resolved(capsys):
    args = ["sweep", "numerical", "--count", "5", "--gen-max", "9", "--seed", "7"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    assert all(r["verdict"] == "Resolved" for r in json.loads(out1)["rows"])


def test_sweep_invalid_ranges_exit_one(capsys):
    assert run_cli(["sweep", "cyclic_quotient", "--b-max", "1"], capsys)[0] == 1
    assert run_cli(["sweep", "numerical", "--count", "0"], capsys)[0] == 1
    assert run_cli(["sweep", "mystery"], capsys)[0] == 1


def test_sweep_numerical_rejects_unreachable_counts(capsys):
    # range(2, 6) has C(4,2) + C(4,3) + C(4,4) = 11 sets of 2 to 4 elements
    code, out, err = run_cli(["sweep", "numerical", "--gen-max", "5"], capsys)
    assert code == 1 and out == ""
    assert "--count 20 exceeds the 11 distinct generator sets" in err
    code, out, err = run_cli(["sweep", "numerical", "--gen-max", "2"], capsys)
    assert code == 1 and out == ""
    assert "--gen-max >= 3" in err
    code, out, _ = run_cli(["sweep", "numerical", "--gen-max", "5", "--count", "11"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 11 == len({tuple(r["params"]) for r in rows})


def _strip_timing(raw):
    doc = json.loads(raw)
    doc.pop("timing_seconds", None)
    return json.dumps(doc)


def test_reports_are_deterministic_across_runs_and_jobs(capsys):
    base = ["nash", "example:cdll", "--max-depth", "2", "--max-nodes", "80", "--full-tree"]
    _, out1, _ = run_cli(base + ["--jobs", "1"], capsys)
    _, out2, _ = run_cli(base + ["--jobs", "1"], capsys)
    _, out3, _ = run_cli(base + ["--jobs", "3"], capsys)
    assert _strip_timing(out1) == _strip_timing(out2) == _strip_timing(out3)


def test_sweep_is_identical_across_jobs(capsys):
    """A sweep shares expansions across its instances; ``--jobs`` spreads
    only the fresh ones, so the report does not depend on it."""
    base = ["sweep", "cyclic_quotient", "--b-max", "10", "--normalized"]
    code, out1, _ = run_cli(base + ["--jobs", "1"], capsys)
    assert code == 0
    _, out2, _ = run_cli(base + ["--jobs", "2"], capsys)
    assert out1 == out2


def test_pretty_flag_indents(capsys):
    _, out, _ = run_cli(["describe", "example:nobile", "--pretty"], capsys)
    assert out.startswith("{\n  ")


def test_pipeline_runs_without_smith_form_rational_solving_or_containment(capsys, monkeypatch):
    """Runs use the Hermite form as their one lattice normal form: every
    binding of ``smith_normal_form`` and ``solve_rational`` in a ``nashlab``
    module, and ``Cone.contains``, raise, and the runs still succeed."""

    def unused(*args, **kwargs):
        raise AssertionError("the pipeline must not call this")

    for name in ("smith_normal_form", "solve_rational"):
        original = getattr(nashlab.intlinalg, name)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "nashlab"]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, unused)
    monkeypatch.setattr(Cone, "contains", unused)

    assert run_cli(["nash", "example:cdll", "--max-depth", "1"], capsys)[0] == 2
    assert run_cli(["sweep", "cyclic_quotient", "--b-max", "8", "--normalized"], capsys)[0] == 0
    # an A1 surface times a torus, in other lattice coordinates
    torus = {"generators": [[1, 0, 0], [1, 1, 0], [1, 2, 0], [1, -1, 1], [-1, 1, -1]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(torus)))
    code, out, _ = run_cli(["nash", "-", "--full-tree"], capsys)
    assert code == 0 and json.loads(out)["nodes"][0]["unit_rank"] == 1
    code, out, _ = run_cli(["describe", "example:reeve:3", "--saturate"], capsys)
    assert code == 0 and json.loads(out)["hilbert_basis"]
