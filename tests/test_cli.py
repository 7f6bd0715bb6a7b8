"""Command-line interface: outputs, exit codes, cache behavior, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

from reflfact.cli import build_parser, main
from reflfact.counting import DEFAULT_MAX_DP_CELLS
from reflfact.errors import (
    EXIT_CONSISTENCY,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VALIDATION,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_count_example(capsys):
    payload = run_json(
        capsys,
        "count",
        "--r", "1", "--s", "1", "--n", "3",
        "--omega", '{"perm":[2,3,1],"exps":[0,0,0]}',
        "--m", "2",
    )
    assert payload == {"count": "3"}


def test_count_m0_identity(capsys):
    payload = run_json(
        capsys,
        "count",
        "--r", "2", "--s", "1", "--n", "2",
        "--omega", '{"perm":[1,2],"exps":[0,0]}',
        "--m", "0",
    )
    assert payload == {"count": "1"}


def test_count_refined_and_connected(capsys):
    omega = '{"perm":[2,1],"exps":[0,1]}'
    base = ["--r", "2", "--s", "1", "--n", "2", "--omega", omega]
    assert run_json(capsys, "count-refined", *base, "--m1", "1", "--m2", "1") == {
        "count": "4"
    }
    for method in ("enum", "comparison"):
        payload = run_json(
            capsys, "count-connected", *base, "--m1", "1", "--m2", "1",
            "--method", method,
        )
        assert payload["count"] == "4"
    payload = run_json(
        capsys, "count-connected", *base, "--m", "2", "--method", "inversion"
    )
    assert payload["count"] == "4"


def test_walks_reference(capsys, reference_graph):
    payload = run_json(capsys, "walks", "--graph", json.dumps(reference_graph.to_json()))
    walks = {w["vertex"]: w for w in payload["walks"]}
    assert walks[3]["end"] == 1 and walks[3]["weight"] == 4
    assert walks[4]["end"] == 3 and walks[4]["weight"] == -2
    assert payload["element"]["perm"] == [2, 4, 1, 3]
    assert payload["element"]["exps"] == [1, 3, 4, 4]
    assert payload["connected"] is True


def test_reflections_counts(capsys):
    payload = run_json(capsys, "reflections", "--r", "6", "--s", "2", "--n", "4")
    assert payload["count"] == 44
    assert payload["reflections"][0] == {"swap": [1, 2, 0]}
    assert payload["reflections"][-1] == {"diag": [4, 2]}


def test_verify_comparison(capsys):
    payload = run_json(
        capsys, "verify-comparison", "--r", "2", "--s", "1", "--n", "2", "--max-m", "5"
    )
    assert payload["mismatches"] == []
    assert payload["checked"] == 8 * 21  # |G| elements x splits with m <= 5


def test_series_kinds(capsys):
    payload = run_json(capsys, "series", "--kind", "cyclic", "--q", "2", "--t", "0",
                       "--order", "6")
    assert payload["counts"] == ["1", "0", "1", "0", "1", "0", "1"]
    payload = run_json(capsys, "series", "--kind", "sn-long-cycle", "--n", "3",
                       "--order", "4")
    assert payload["counts"] == ["0", "0", "3", "0", "27"]
    payload = run_json(
        capsys, "series", "--kind", "long-cycle",
        "--r", "2", "--s", "2", "--n", "2", "--t", "0", "--order", "5",
    )
    assert payload["counts"] == ["0", "1", "0", "4", "0", "16"]
    payload = run_json(
        capsys, "series", "--kind", "connected",
        "--r", "2", "--s", "1", "--n", "2",
        "--omega", '{"perm":[2,1],"exps":[0,1]}', "--order", "4",
    )
    assert payload["counts"] == ["0", "0", "4", "0", "64"]


def test_fit_command(capsys):
    payload = run_json(
        capsys, "fit", "--g", "1", "--ell", "1", "--n-values", "2,3",
    )
    poly = payload["fit"]["polynomial"]
    assert poly["terms"] == [
        {"exponents": [0], "coefficient": "-1/24"},
        {"exponents": [1], "coefficient": "1/24"},
    ]
    assert payload["fit"]["window_ok"] is True

    verdict = run_json(
        capsys, "fit", "--g", "0", "--ell", "1", "--r", "2", "--s", "1",
        "--normalization", "verdict", "--n-values", "2,3,4",
    )
    assert verdict["verdict"]["winners"] == ["derived"]


def test_exit_codes(capsys, tmp_path):
    # usage: unknown flag
    code, _, _ = run_cli(capsys, "count", "--bogus")
    assert code == EXIT_USAGE
    # usage: --cache belongs to the count commands only
    cache = tmp_path / "x.jsonl"
    for argv in (
        ["reflections", "--r", "1", "--s", "1", "--n", "2"],
        ["series", "--kind", "cyclic", "--q", "2", "--order", "3"],
    ):
        code, _, _ = run_cli(capsys, *argv, "--cache", str(cache))
        assert code == EXIT_USAGE and not cache.exists(), argv[0]
    # usage: inconsistent flag combination
    code, _, err = run_cli(
        capsys, "count-connected", "--r", "1", "--s", "1", "--n", "2",
        "--omega", '{"perm":[1,2],"exps":[0,0]}', "--m1", "1",
    )
    assert code == EXIT_USAGE and "m2" in err
    # validation: s does not divide r
    code, _, err = run_cli(
        capsys, "count", "--r", "2", "--s", "3", "--n", "2",
        "--omega", '{"perm":[1,2],"exps":[0,0]}', "--m", "1",
    )
    assert code == EXIT_VALIDATION and "divide" in err
    # validation: malformed element JSON
    code, _, err = run_cli(
        capsys, "count", "--r", "2", "--s", "1", "--n", "2",
        "--omega", "{not json", "--m", "1",
    )
    assert code == EXIT_VALIDATION
    # validation: negative m on the connected DP route
    code, _, err = run_cli(
        capsys, "count-connected", "--r", "2", "--s", "1", "--n", "3",
        "--omega", '{"perm":[2,3,1],"exps":[0,1,1]}', "--m", "-1", "--method", "enum",
    )
    assert code == EXIT_VALIDATION and "nonnegative" in err
    # validation: negative sizes on every other route that takes one
    omega = ["--omega", '{"perm":[2,3,1],"exps":[0,1,1]}']
    group = ["--r", "2", "--s", "1", "--n", "3"]
    for argv in (
        ["count-connected", *group, *omega, "--m", "-1", "--method", "comparison"],
        ["verify-comparison", *group, "--max-m", "-1"],
        ["series", "--kind", "connected", *group, *omega, "--order", "-1"],
        ["series", "--kind", "cyclic", "--q", "2", "--order", "-1"],
        ["series", "--kind", "sn-long-cycle", "--n", "3", "--order", "-1"],
        ["series", "--kind", "long-cycle", *group, "--order", "-1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_VALIDATION and "nonnegative" in err and not out, argv
    # resource refusal
    code, _, err = run_cli(
        capsys, "count", "--r", "6", "--s", "1", "--n", "4",
        "--omega", '{"perm":[1,2,3,4],"exps":[0,0,0,0]}', "--m", "3",
        "--max-dp-cells", "10",
    )
    assert code == EXIT_RESOURCE
    code, _, err = run_cli(
        capsys, "count-connected", "--r", "2", "--s", "1", "--n", "3",
        "--omega", '{"perm":[2,3,1],"exps":[0,0,0]}', "--m", "4",
        "--method", "enum", "--max-dp-cells", "10",
    )
    assert code == EXIT_RESOURCE


def test_refined_budget_without_diagonal_reflections(capsys):
    # S_4 keeps one refined row per round: 5 classes * 41 rounds at m = 40
    base = ["--r", "1", "--s", "1", "--n", "4", "--omega", '{"perm":[1,2,3,4],"exps":[0,0,0,0]}']
    total = run_json(capsys, "count", *base, "--m", "40", "--max-dp-cells", "205")
    refined = ["count-refined", *base, "--m1", "40", "--m2", "0"]
    assert run_json(capsys, *refined, "--max-dp-cells", "205") == total
    code, _, _ = run_cli(capsys, *refined, "--max-dp-cells", "204")
    assert code == EXIT_RESOURCE


def test_connected_enum_method_at_depth(capsys):
    # a thousand factors: far deeper than the interpreter's recursion limit
    payload = run_json(
        capsys, "count-connected", "--r", "1", "--s", "1", "--n", "2",
        "--omega", '{"perm":[2,1],"exps":[0,0]}', "--m", "1001", "--method", "enum",
    )
    assert payload == {"count": "1", "method": "enum"}


def test_cache_roundtrip(capsys, tmp_path):
    cache = tmp_path / "counts.jsonl"
    args = (
        "count", "--r", "1", "--s", "1", "--n", "3",
        "--omega", '{"perm":[2,3,1],"exps":[0,0,0]}',
        "--m", "2", "--cache", str(cache),
    )
    assert run_json(capsys, *args) == {"count": "3"}
    first = cache.read_text()
    assert run_json(capsys, *args) == {"count": "3"}  # served from cache
    assert cache.read_text() == first
    record = json.loads(first.splitlines()[0])
    assert record["value"] == "3" and record["provenance"] == "dp"


def test_cache_hit_leaves_file_untouched(capsys, tmp_path):
    cache = tmp_path / "counts.jsonl"
    args = (
        "count", "--r", "1", "--s", "1", "--n", "3",
        "--omega", '{"perm":[2,3,1],"exps":[0,0,0]}',
        "--m", "2", "--cache", str(cache),
    )
    run_json(capsys, *args)
    before = os.stat(cache)
    assert run_json(capsys, *args) == {"count": "3"}  # served from cache
    after = os.stat(cache)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_cache_conflict_exit(capsys, tmp_path):
    cache = tmp_path / "counts.jsonl"
    args = (
        "count", "--r", "1", "--s", "1", "--n", "3",
        "--omega", '{"perm":[2,3,1],"exps":[0,0,0]}',
        "--m", "2", "--cache", str(cache),
    )
    run_json(capsys, *args)
    line = json.loads(cache.read_text().splitlines()[0])
    line["value"] = "99"
    line["provenance"] = "enumeration"
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")
    code, _, err = run_cli(capsys, *args)
    assert code == EXIT_CONSISTENCY and "conflict" in err.lower()


def test_omega_from_file(capsys, tmp_path):
    path = tmp_path / "omega.json"
    path.write_text('{"perm":[2,3,1],"exps":[0,0,0]}')
    payload = run_json(
        capsys, "count", "--r", "1", "--s", "1", "--n", "3",
        "--omega", f"@{path}", "--m", "2",
    )
    assert payload == {"count": "3"}


def test_big_count_through_json(capsys):
    payload = run_json(
        capsys, "count", "--r", "2", "--s", "1", "--n", "2",
        "--omega", '{"perm":[1,2],"exps":[0,0]}', "--m", "80",
    )
    assert int(payload["count"]) > 2**63


def test_fit_half_integer_genus(capsys):
    payload = run_json(
        capsys, "fit", "--g", "1/2", "--ell", "1", "--r", "2", "--s", "1",
        "--trivial-product", "0", "--normalization", "derived",
        "--n-values", "2,3,4",
    )
    terms = payload["fit"]["polynomial"]["terms"]
    assert terms == [{"exponents": [-1], "coefficient": "1/2"}]


def test_deterministic_output(capsys):
    args = (
        "verify-comparison", "--r", "2", "--s", "2", "--n", "2", "--max-m", "4",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    # sorted keys
    payload = json.loads(out1)
    assert list(payload.keys()) == sorted(payload.keys())


_LIST_MODULES = """
import contextlib, io, json, sys
from reflfact import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("reflfact."))]))
"""


def _modules_after(*argv):
    """The reflfact modules a fresh interpreter holds after one cli.main
    call; the test process itself has imported all of them."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _LIST_MODULES, json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == EXIT_OK, proc.stderr
    return set(modules)


def test_subcommands_import_only_what_they_run(reference_graph):
    group = ["--r", "2", "--s", "1", "--n", "2"]
    omega = ["--omega", '{"perm":[2,1],"exps":[0,1]}']
    for argv in (
        ["count", *group, *omega, "--m", "2"],
        ["count-refined", *group, *omega, "--m1", "1", "--m2", "1"],
        ["count-connected", *group, *omega, "--m", "2", "--method", "inversion"],
    ):
        loaded = _modules_after(*argv)
        assert "reflfact.counting" in loaded
        assert not loaded & {"reflfact.polyfit", "reflfact.series"}, argv
    for argv in (
        ["reflections", *group],
        ["walks", "--graph", json.dumps(reference_graph.to_json())],
    ):
        assert "reflfact.counting" not in _modules_after(*argv), argv


def test_max_dp_cells_default_matches_library():
    parser = build_parser()
    group = ["--r", "1", "--s", "1", "--n", "2"]
    for argv in (
        ["count", *group, "--omega", "{}", "--m", "1"],
        ["count-connected", *group, "--omega", "{}", "--m", "1"],
        ["series", "--kind", "cyclic", "--q", "2", "--order", "3"],
        ["fit", "--g", "0", "--ell", "1", "--n-values", "2"],
    ):
        assert parser.parse_args(argv).max_dp_cells == DEFAULT_MAX_DP_CELLS, argv[0]
