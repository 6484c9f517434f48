"""Command-line behavior: exit codes, report schemas, error reporting,
sweeps, DOT emission, and byte-level determinism."""
import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nashlab.cli
import nashlab.cones
import nashlab.intlinalg
import nashlab.iterate
import nashlab.semigroups
from nashlab.cli import _run_config, _sweep_instances, build_parser, main
from nashlab.cones import Cone
from nashlab.families import cyclic_quotient
from nashlab.iterate import _root_chart, run
from nashlab.semigroups import invariant_key

from .helpers import stopped_by_the_budget


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


def test_a_parallelepiped_above_its_bound_is_a_one_line_error(monkeypatch, capsys):
    """reeve(50)'s simplex spans a parallelepiped of 50 points, and so do
    the rays of the rank-2 cone((1, 0), (1, 50)); with the bound set to 49,
    saturating either in ``describe --saturate``, building the
    ``example:reeve:50`` preset or the ``reeve --q-max 50`` sweep, or a
    normalized run that saturates its first chart exits 1 with the bound's
    name."""
    monkeypatch.setattr(nashlab.cones, "MAX_PARALLELEPIPED_POINTS", 49)
    gens = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 50, 1], [1, 1, 1, 2]]  # they span Z^4
    plane = [[1, 0], [1, 1], [1, 50]]  # they span Z^2
    for argv, inputs in ((["describe", "-", "--saturate"], gens), (["describe", "-", "--saturate"], plane),
                         (["nash", "example:reeve:50"], gens),
                         (["nash", "-", "--normalized", "--max-depth", "2"], gens),
                         (["sweep", "reeve", "--q-max", "50", "--max-depth", "1"], gens)):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"generators": inputs})))
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "MAX_PARALLELEPIPED_POINTS = 49" in err


def test_describe_smooth_plane(tmp_path, capsys):
    p = tmp_path / "plane.json"
    p.write_text(json.dumps({"generators": [[1, 0], [0, 1]]}))
    code, out, _ = run_cli(["describe", str(p)], capsys)
    assert code == 0
    assert json.loads(out)["smooth"] is True


def test_describe_rejects_boolean_entries_and_bad_ranks(capsys, monkeypatch):
    for doc in ({"generators": [[True, 0], [0, 1]]},
                {"rank": 2.0, "generators": [[1, 0], [0, 1]]},
                {"rank": "2", "generators": [[1, 0], [0, 1]]}):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(["describe", "-"], capsys)
        assert code == 1 and out == "", doc
        assert "not integers" in err or "'rank' must be a nonnegative integer" in err, doc


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"generators": [[1, 0],\n  oops]}')
    code, _, err = run_cli(["nash", str(p)], capsys)
    assert code == 1
    assert "line 2" in err and "column" in err


def test_non_utf8_file_is_a_read_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe")
    for command in ("nash", "describe"):
        code, out, err = run_cli([command, str(p)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {str(p)!r}: ") and err.count("\n") == 1


def test_input_error_exits_one(capsys):
    assert run_cli(["nash", "example:mystery"], capsys)[0] == 1
    assert run_cli(["nash", "example:nobile", "--char", "4"], capsys)[0] == 1
    assert run_cli(["nash", "/nonexistent/file.json"], capsys)[0] == 1
    assert run_cli(["nash", "example:nobile", "--jobs", "0"], capsys)[0] == 1
    assert run_cli(["nash", "example:nobile", "--bogus-flag"], capsys)[0] == 1
    assert run_cli([], capsys)[0] == 1


def test_jobs_above_the_bound_fail_before_any_run(monkeypatch, capsys):
    """``--jobs`` above ``MAX_JOBS`` is a usage error that names the
    constant, for ``nash`` and ``sweep``, and no pool is ever asked for."""
    pools = []

    def no_pool(*args, **kwargs):
        pools.append(args or kwargs)
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(nashlab.iterate.multiprocessing, "Pool", no_pool)
    for argv in (["nash", "example:cdll"], ["sweep", "cyclic_quotient", "--b-max", "5"]):
        for jobs in ("100000", str(nashlab.cli.MAX_JOBS + 1)):
            code, out, err = run_cli(argv + ["--jobs", jobs], capsys)
            assert (code, out) == (1, "")
            assert f"MAX_JOBS = {nashlab.cli.MAX_JOBS}" in err
    assert pools == []


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


def test_a_failed_run_leaves_the_dot_path_as_it_was(tmp_path, capsys, monkeypatch):
    """A Reeve cone of height 3000000 on Z^4 is not saturated, and the
    parallelepiped of its normalized first chart is above
    ``MAX_PARALLELEPIPED_POINTS``: the run fails after the DOT path was
    checked.  A missing path stays missing, and a file or a symlink there
    stays as it was."""
    gens = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 3000000, 1], [1, 1, 1, 2]]
    kept = tmp_path / "kept.dot"
    kept.write_text("digraph kept {}\n")
    link = tmp_path / "link.dot"
    link.symlink_to(kept)
    missing = tmp_path / "tree.dot"
    for target in (missing, kept, link):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"generators": gens})))
        argv = ["nash", "-", "--normalized", "--max-depth", "2", "--dot", str(target)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "MAX_PARALLELEPIPED_POINTS" in err
    assert not missing.exists()
    assert link.is_symlink() and kept.read_text() == "digraph kept {}\n"


def test_unwritable_dot_path_fails_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(nashlab.cli, "run", no_run)
    target = tmp_path / "missing" / "tree.dot"
    code, out, err = run_cli(["nash", "example:nobile", "--dot", str(target)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1


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


PINNED_REPORTS = [
    ("nash example:cdll --max-depth 2 --full-tree", 2,
     "2161b90a0f238886c0802b025980c20208f3e8465cd68d0e33a26694708d2880"),
    ("nash example:reeve:3 --char 3 --full-tree", 2,
     "2874ec93a25c7c069143ad7b8915d398f1e8cef8c38d689dc630925aedf79d93"),
    ("nash example:reeve:2 --char 5 --full-tree", 0,
     "4b8754e0d14a15d2aa4445e2f8c3767936c3830a331ea2ac17118015afd2872e"),
    ("nash example:cyclic_quotient:5,13 --normalized --full-tree", 0,
     "cdd5a4505b410a2ef516e3427121996597dbce99922796a61fa86b7ecb67f83b"),
    ("nash example:rebassoo:3,1,2", 0,
     "c7d1ebcaa1247727a27269a0d543ca661357f12e145af68fbe927aac1f76e1f7"),
    ("nash example:numerical:4,6,7 --char 2", 2,
     "0f41dea6f940caaddd19eb4b90c82cdcfcf21febe24eadf387f64f59579a3b35"),
    ("sweep cyclic_quotient --b-max 12 --normalized", 0,
     "c6dfc76940836337e9a9cdc4b966f3627e869d8e0ac509a3dceeb5ad9dc1bc72"),
    ("sweep rebassoo --max-entry 3", 0,
     "e6ff79bd9e2d2d4378ce68f86236a8aeb41ea63ef5e975c3658fef728ca14e00"),
    ("sweep rebassoo --max-entry 4 --normalized", 0,
     "55ffcec56a0405cf760a7fd898e12c78614cbc32cdd9d8e60f50ed4ebe590d4d"),
    ("describe example:cyclic_quotient:17,97 --saturate", 0,
     "881c615ce7d05288a049978add5c64a8bad182120cd63676bcb897550574a2e7"),
]


def _pinned_ids(rows):
    """The first two words of each command; a later row whose two words are
    taken is named by its whole command, so earlier rows keep their ids."""
    ids = []
    for command, _, _ in rows:
        short = "-".join(command.split()[:2])
        ids.append(short if short not in ids else "-".join(w.lstrip("-") for w in command.split()))
    return ids


@pytest.mark.parametrize("command, exit_code, digest", PINNED_REPORTS, ids=_pinned_ids(PINNED_REPORTS))
def test_reports_match_their_pinned_digests(command, exit_code, digest, capsys):
    """Exit code and sha256 of the report minus ``timing_seconds``, recorded
    before the 2 × 2 closed forms and the early stop of ``_least_form``'s
    refinement (the last two rows before the rank-2 Hilbert bases were
    walked instead of boxed): a kernel change that keeps every value, key
    and generator order keeps them byte for byte, certificates and full
    trees included."""
    code, out, _ = run_cli(command.split(), capsys)
    assert code == exit_code
    assert hashlib.sha256(_strip_timing(out).encode()).hexdigest() == digest


def test_a_normalized_surface_sweep_lists_no_parallelepiped(monkeypatch, capsys):
    """Every cone of a cyclic quotient sweep has rank 2, so its Hilbert
    bases are walked along the boundary and no box is listed; the sweep
    computes as many Hilbert bases as it did with boxes."""
    counts = {"hilbert_basis": 0, "_parallelepiped_points": 0}

    def counted(module, name):
        function = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(nashlab.semigroups, "hilbert_basis")
    counted(nashlab.cones, "_parallelepiped_points")
    code, _, _ = run_cli(["sweep", "cyclic_quotient", "--b-max", "12", "--normalized"], capsys)
    assert code == 0
    assert counts == {"hilbert_basis": 133, "_parallelepiped_points": 0}


def test_sweep_is_identical_across_jobs(capsys):
    """A sweep shares expansions across its instances; ``--jobs`` spreads
    only the fresh ones, so the report does not depend on it."""
    base = ["sweep", "cyclic_quotient", "--b-max", "10", "--normalized"]
    code, out1, _ = run_cli(base + ["--jobs", "1"], capsys)
    assert code == 0
    _, out2, _ = run_cli(base + ["--jobs", "2"], capsys)
    assert out1 == out2


def _root_class(s):
    """The invariant key of the chart a run on ``s`` starts from; keys are
    equal exactly on isomorphism classes."""
    return invariant_key(_root_chart(s)[0])


@pytest.mark.parametrize("argv, stopped", [
    (("cyclic_quotient", "--b-max", "12"), 0),
    (("cyclic_quotient", "--b-max", "12", "--normalized"), 0),
    (("rebassoo", "--max-entry", "3"), 0),
    (("numerical", "--count", "5"), 0),
    (("cyclic_quotient", "--b-max", "12", "--max-nodes", "6"), 22),
    (("cyclic_quotient", "--b-max", "12", "--normalized", "--max-nodes", "4"), 34),
])
def test_sweep_rows_equal_independent_runs(argv, stopped, monkeypatch, capsys):
    """Each row of a sweep is that of its instance run alone, with a fresh
    ``expansions``; and the sweep calls ``run`` once per root class, plus
    once more for each instance whose class has no run that the node
    budget did not stop (such a row depends on coordinates)."""
    args = build_parser().parse_args(["sweep", *argv])
    instances, config = _sweep_instances(args), _run_config(args)
    trees = [run(s, config) for _, s in instances]
    expected = [{"params": list(params), "verdict": t.verdict_summary,
                 "depth": t.stats()["depth_reached"], "nodes": len(t.nodes)}
                for (params, _), t in zip(instances, trees)]
    assert sum(map(stopped_by_the_budget, trees)) == stopped
    stored, runs = set(), 0
    for (_, s), tree in zip(instances, trees):
        key = _root_class(s)
        if key not in stored:
            runs += 1
            if not stopped_by_the_budget(tree):
                stored.add(key)
    if not stopped:
        assert runs == len({_root_class(s) for _, s in instances})
    if argv[0] == "cyclic_quotient":
        # X(a, b) and X(a', b) are isomorphic iff a' = a or a·a' = 1 mod b
        orbits = {(min(a, pow(a, -1, b)), b) for (a, b), _ in instances}
        assert len({_root_class(s) for _, s in instances}) == len(orbits) < len(instances)

    calls = []
    real_run = nashlab.iterate.run

    def counted(*a, **k):
        calls.append(a[0])
        return real_run(*a, **k)

    monkeypatch.setattr(nashlab.iterate, "run", counted)
    code, out, _ = run_cli(["sweep", *argv], capsys)
    assert code == 0
    assert json.loads(out)["rows"] == expected
    assert len(calls) == runs


def test_a_root_key_hit_without_an_isomorphism_fails_loudly(monkeypatch, capsys):
    """cyclic_quotient(3, 5) is cyclic_quotient(2, 5) with the axes swapped,
    so its root hits the other's key; an ``isomorphic`` that finds no map
    between those two roots must stop the sweep, not reuse the row.  Every
    other call, the runs' own, gets the real answer, so the error comes
    from the sweep's key check."""
    roots = {_root_chart(cyclic_quotient(a, 5))[0].generators for a in (2, 3)}
    real_isomorphic = nashlab.iterate.isomorphic

    def no_map_between_the_roots(a, b):
        return None if {a.generators, b.generators} == roots else real_isomorphic(a, b)

    monkeypatch.setattr(nashlab.iterate, "isomorphic", no_map_between_the_roots)
    with pytest.raises(AssertionError, match="equal invariant keys without an isomorphism") as info:
        main(["sweep", "cyclic_quotient", "--b-max", "5"])
    assert info.traceback[-1].name == "sweep"
    capsys.readouterr()


def test_every_value_error_is_one_error_line_and_an_assertion_propagates(monkeypatch, capsys):
    """``main`` alone turns a ``ValueError`` into one ``error:`` line and
    exit 1, whether the CLI, a preset or the library raises it; an
    ``AssertionError``, a failed internal check, is not caught."""
    for argv, message in ((["sweep", "cyclic_quotient", "--b-max", "1"], "--b-max must be at least 2"),
                          (["nash", "example:nosuch"], "nosuch"),
                          (["nash", "example:a1", "--max-nodes", "0"], "max_nodes")):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def raising(error):
        def fail(*args, **kwargs):
            raise error
        return fail

    monkeypatch.setattr(nashlab.cli, "run", raising(ValueError("from the library")))
    assert run_cli(["nash", "example:a1"], capsys) == (1, "", "error: from the library\n")
    monkeypatch.setattr(nashlab.cli, "run", raising(AssertionError("a failed check")))
    with pytest.raises(AssertionError, match="a failed check"):
        main(["nash", "example:a1"])
    assert capsys.readouterr().err == ""


def test_cli_imports_no_private_name_of_another_module():
    """``cli`` uses the library through its public names only: no
    ``_``-prefixed name is imported from another ``nashlab`` module, or
    looked up on a module that ``cli`` imports from the package."""
    tree = ast.parse(Path(nashlab.cli.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nashlab")):
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, f"cli imports {private} from {node.module}"
            if node.module in (None, "nashlab"):
                modules.update(a.asname or a.name for a in node.names)
    assert "families" in modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert not (node.value.id in modules and node.attr.startswith("_")), node.attr


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


def test_cli_import_leaves_out_dataclasses_fractions_and_csv():
    """Every ``nash`` call is a fresh process that imports the CLI first, so
    the CLI must not pull in ``dataclasses`` (and with it ``inspect``), nor
    ``fractions`` and ``csv``, which only ``solve_rational`` and
    ``sweep --format csv`` use, nor ``multiprocessing`` (with ``pickle`` and
    ``socket``), which only a run at ``--jobs > 1`` imports.  A ``--jobs 2``
    run loads it and reports what a ``--jobs 1`` run does."""
    src = os.path.dirname(os.path.dirname(nashlab.cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = """if True:
        import contextlib, io, json, sys
        import nashlab.cli
        heavy = ("dataclasses", "inspect", "fractions", "csv",
                 "multiprocessing", "pickle", "socket")
        def loaded():
            return [m for m in heavy if m in sys.modules]
        def nash(*extra):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = nashlab.cli.main(["nash", "example:cdll", "--max-depth", "1", *extra])
            report = json.loads(out.getvalue())
            del report["timing_seconds"]
            return code, report, loaded()
        print(json.dumps([loaded(), nash(), nash("--jobs", "2")]))
    """
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    at_import, (code1, report1, after1), (code2, report2, after2) = json.loads(done.stdout)
    assert at_import == [] and after1 == []
    assert "multiprocessing" in after2
    assert (code2, report2) == (code1, report1)


def test_a_reader_that_closes_stdout_early_leaves_stderr_empty():
    """``nash ... | head -c 50``: the report, 144 kB here, overflows the
    pipe, the reader closes it after 50 bytes, and the run still exits with
    its verdict's code and prints nothing on stderr, no traceback and no
    failed flush at exit."""
    src = os.path.dirname(os.path.dirname(nashlab.cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["nash", "example:cdll", "--max-depth", "3", "--full-tree", "--pretty"]
    with subprocess.Popen([sys.executable, "-m", "nashlab", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert head.startswith(b"{\n")
    assert err == b""
    assert code == 2
