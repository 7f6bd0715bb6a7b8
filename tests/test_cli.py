"""Command-line interface: outputs, exit codes, cache behavior, determinism."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from reflfact.cli import _ROUTES, _SUBCOMMANDS, build_parser, main
from reflfact.counting import DEFAULT_MAX_DP_CELLS, CountTable, clear_caches
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
    assert payload["classes"] == 5  # colored cycle types of G(2,1,2)


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
    # validation: JSON integers must be integers, not floats, bools or strings
    group2 = ["--r", "1", "--s", "1", "--n", "2"]
    for omega in (
        '{"perm":[2,1.5],"exps":[0,0]}',
        '{"perm":"21","exps":[0,0]}',
        '{"perm":[2,true],"exps":[0,0]}',
        '{"perm":[2,1],"exps":[0,false]}',
        '{"perm":[2,1],"exps":[0,0],"n":2.0}',
    ):
        code, out, err = run_cli(capsys, "count", *group2, "--omega", omega, "--m", "1")
        assert code == EXIT_VALIDATION and not out, omega
    for graph in (
        {"r": 1, "s": 1, "n": 2, "edges": [[1, 2.0, 0]]},
        {"r": 1, "s": 1, "n": 2, "edges": [[1, 2, False]]},
        {"r": 1, "s": 1, "n": "2", "edges": [[1, 2, 0]]},
        {"r": 1, "s": 1, "n": 2, "edges": ["120"]},
    ):
        code, out, err = run_cli(capsys, "walks", "--graph", json.dumps(graph))
        assert code == EXIT_VALIDATION and not out, graph
    # validation: a cache file that cannot be opened, written or decoded
    not_utf8 = tmp_path / "latin1.jsonl"
    not_utf8.write_bytes(b"\xff\xfe\n")
    for path in (tmp_path / "missing" / "c.jsonl", tmp_path, not_utf8):
        code, out, err = run_cli(
            capsys, "count", *group2, "--omega", '{"perm":[2,1],"exps":[0,0]}',
            "--m", "1", "--cache", str(path),
        )
        assert code == EXIT_VALIDATION and str(path) in err and not out, path
    # validation: an @file that is not UTF-8 or nests too deeply to parse,
    # and an exponent of more digits than Python converts by default
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000)
    for path in (not_utf8, nested):
        code, out, err = run_cli(capsys, "count", *group2, "--omega", f"@{path}", "--m", "1")
        assert code == EXIT_VALIDATION and str(path) in err and not out, path
        code, out, err = run_cli(capsys, "walks", "--graph", f"@{path}")
        assert code == EXIT_VALIDATION and str(path) in err and not out, path
    omega = '{"perm":[2,1],"exps":[0,%s]}' % ("9" * 5000)
    code, out, err = run_cli(capsys, "count", *group2, "--omega", omega, "--m", "1")
    assert code == EXIT_VALIDATION and "exponents" in err and not out
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
    # validation: --n-values holds comma-separated ASCII decimal integers,
    # none repeated, and a budget is a nonnegative number of cells
    fit = ["fit", "--g", "0", "--ell", "1"]
    for n_values in ("\u0663,4", "2,2,3", "2,,3", "2,3,", " 3", "+3", "1_0", "-2", ""):
        code, out, err = run_cli(capsys, *fit, "--n-values", n_values)
        assert code == EXIT_VALIDATION and not out, n_values
    for argv in (
        [*fit, "--n-values", "2,3"],
        [*fit, "--n-values", "2,3", "--normalization", "verdict"],
        ["count", *group, *omega, "--m", "1"],
        ["count-refined", *group, *omega, "--m1", "1", "--m2", "1"],
        *(
            ["count-connected", *group, *omega, "--m", "1", "--method", method]
            for method in ("inversion", "enum", "comparison")
        ),
        ["verify-comparison", *group, "--max-m", "1"],
        ["series", "--kind", "connected", *group, *omega, "--order", "1"],
    ):
        code, out, err = run_cli(capsys, *argv, "--max-dp-cells", "-1")
        assert code == EXIT_VALIDATION and not out, argv
        assert err == "reflfact: max_dp_cells must be nonnegative, got -1\n", argv
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


def test_each_route_records_its_provenance(capsys, tmp_path):
    # a miss records the provenance of the `_ROUTES` row that counted it
    group = ["--r", "2", "--s", "1", "--n", "2"]
    omega = ["--omega", '{"perm":[2,1],"exps":[0,1]}']
    provenances = {
        "dp": "dp", "enum": "enumeration", "inversion": "inversion", "comparison": "closed-form"
    }
    assert {method: row[3] for method, row in _ROUTES.items()} == provenances
    for method, provenance in provenances.items():
        cache = tmp_path / f"{method}.jsonl"
        argv = ["count"] if method == "dp" else ["count-connected", "--method", method]
        run_json(capsys, *argv, *group, *omega, "--m", "2", "--cache", str(cache))
        (line,) = cache.read_text().splitlines()
        assert json.loads(line)["provenance"] == provenance, method


def test_an_empty_cache_path_is_refused_before_counting(capsys, tmp_path, monkeypatch):
    # '' names no file: each count subcommand exits 3 before any route
    # counts, and writes nothing, not even a lock file beside the path
    def counted(*args):
        raise AssertionError("a route ran")

    for module, total, refined, _ in _ROUTES.values():
        for name in filter(None, (total, refined)):
            monkeypatch.setattr(f"reflfact.{module}.{name}", counted)
    monkeypatch.chdir(tmp_path)
    group = ["--r", "1", "--s", "1", "--n", "3"]
    omega = ["--omega", '{"perm":[2,3,1],"exps":[0,0,0]}']
    for argv in (
        ["count", *group, *omega, "--m", "2"],
        ["count-refined", *group, *omega, "--m1", "2", "--m2", "0"],
        *(
            ["count-connected", *group, *omega, "--m", "2", "--method", method]
            for method in ("inversion", "enum", "comparison")
        ),
    ):
        code, out, err = run_cli(capsys, *argv, "--cache", "")
        assert (code, out) == (EXIT_VALIDATION, "") and "--cache" in err, argv
    assert list(tmp_path.iterdir()) == []


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


def test_cache_miss_appends_in_place(capsys, tmp_path):
    cache = tmp_path / "counts.jsonl"
    args = (
        "count", "--r", "1", "--s", "1", "--n", "3",
        "--omega", '{"perm":[2,3,1],"exps":[0,0,0]}', "--cache", str(cache),
    )
    run_json(capsys, *args, "--m", "2")
    before, first = os.stat(cache), cache.read_bytes()
    assert run_json(capsys, *args, "--m", "4") == {"count": "27"}
    assert os.stat(cache).st_ino == before.st_ino
    after = cache.read_bytes()
    assert after.startswith(first) and after.count(b"\n") == 2


def test_cache_torn_tail_is_skipped_then_cut_off(capsys, tmp_path):
    cache = tmp_path / "counts.jsonl"
    args = (
        "count", "--r", "1", "--s", "1", "--n", "3",
        "--omega", '{"perm":[2,3,1],"exps":[0,0,0]}', "--cache", str(cache),
    )
    run_json(capsys, *args, "--m", "2")
    whole = cache.read_bytes()
    with open(cache, "ab") as fh:  # an append cut short: half a record
        fh.write(whole[: len(whole) // 2])
    assert len(CountTable.load(cache)) == 1
    assert run_json(capsys, *args, "--m", "2") == {"count": "3"}  # served from cache
    assert run_json(capsys, *args, "--m", "4") == {"count": "27"}
    lines = cache.read_bytes().splitlines(keepends=True)
    assert lines[0] == whole and len(lines) == 2
    assert [json.loads(line)["value"] for line in lines] == ["3", "27"]
    assert len(CountTable.load(cache)) == 2
    # a malformed last line that ends in a newline is a bad record
    with open(cache, "ab") as fh:
        fh.write(whole[: len(whole) // 2] + b"\n")
    code, out, err = run_cli(capsys, *args, "--m", "2")
    assert code == EXIT_VALIDATION and not out and "bad record" in err


def test_cache_record_cannot_answer_a_refused_query(capsys, tmp_path):
    # without --cache the negative m exits 3; a record for it is refused
    # when the file is read, so --cache cannot turn that into a count
    cache = tmp_path / "counts.jsonl"
    key = {"r": 2, "s": 1, "n": 2, "perm": [2, 1], "exps": [0, 0], "m1": -1, "m2": None,
           "connected": False}
    cache.write_text(json.dumps({"key": key, "value": "5", "provenance": "dp"}) + "\n")
    args = ("count", "--r", "2", "--s", "1", "--n", "2",
            "--omega", '{"perm":[2,1],"exps":[0,0]}', "--m", "-1")
    for extra in ((), ("--cache", str(cache))):
        code, out, _ = run_cli(capsys, *args, *extra)
        assert code == EXIT_VALIDATION and not out, extra


def test_a_cache_hit_reads_the_budget(capsys, tmp_path):
    # the budget is read before the lookup: a count the --cache file holds
    # is refused as the same count without the file is
    cache = str(tmp_path / "counts.jsonl")
    group = ["--r", "2", "--s", "1", "--n", "2"]
    omega = ["--omega", '{"perm":[2,1],"exps":[0,1]}']
    for argv in (
        ["count", *group, *omega, "--m", "2"],
        ["count-refined", *group, *omega, "--m1", "1", "--m2", "1"],
        *(
            ["count-connected", *group, *omega, "--m", "2", "--method", method]
            for method in ("inversion", "enum", "comparison")
        ),
        ["count-connected", *group, *omega, "--m1", "1", "--m2", "1", "--method", "enum"],
    ):
        refused = run_cli(capsys, *argv, "--max-dp-cells", "-1")
        assert refused == (EXIT_VALIDATION, "", "reflfact: max_dp_cells must be nonnegative, got -1\n")
        counted = run_json(capsys, *argv, "--cache", cache)
        assert run_cli(capsys, *argv, "--cache", cache, "--max-dp-cells", "-1") == refused, argv
        assert run_json(capsys, *argv, "--cache", cache) == counted  # the hit is kept


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


def test_big_count_through_json(capsys, tmp_path):
    payload = run_json(
        capsys, "count", "--r", "2", "--s", "1", "--n", "2",
        "--omega", '{"perm":[1,2],"exps":[0,0]}', "--m", "80",
    )
    assert int(payload["count"]) > 2**63
    # a count of more digits than Python prints by default prints, saves
    # to the cache and loads back from it; the limit is restored on return
    limit = sys.get_int_max_str_digits()
    cache = tmp_path / "counts.jsonl"
    args = (
        "count", "--r", "2", "--s", "1", "--n", "2",
        "--omega", '{"perm":[2,1],"exps":[0,1]}', "--m", "8000", "--cache", str(cache),
    )
    count = run_json(capsys, *args)["count"]
    assert count.isdigit() and len(count) > 4300
    assert sys.get_int_max_str_digits() == limit
    before = os.stat(cache)
    assert run_json(capsys, *args)["count"] == count  # served from cache
    after = os.stat(cache)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    clear_caches()  # drop the 8001 rounds of big counts


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
print(json.dumps([code, sorted(
    m for m in sys.modules
    if m.startswith("reflfact.") or m in ("dataclasses", "inspect")
)]))
"""


def _modules_after(*argv):
    """The reflfact modules, and `dataclasses` and `inspect` if loaded, that
    a fresh interpreter holds after one successful cli.main call; the test
    process itself has imported all of them."""
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


def test_subcommands_import_only_what_they_run(capsys, tmp_path, reference_graph):
    group = ["--r", "2", "--s", "1", "--n", "2"]
    omega = ["--omega", '{"perm":[2,1],"exps":[0,1]}']
    # no value class is a dataclass: no process loads dataclasses, nor
    # inspect through it
    unused = {"dataclasses", "inspect"}
    cache = str(tmp_path / "counts.jsonl")
    hits = []
    for argv in (
        ["count", *group, *omega, "--m", "2"],
        ["count-refined", *group, *omega, "--m1", "1", "--m2", "1"],
        ["count-connected", *group, *omega, "--m", "2", "--method", "inversion"],
    ):
        loaded = _modules_after(*argv)
        assert "reflfact.counting" in loaded
        # the kernels need no backend name: kernels is not loaded
        assert not loaded & {
            "reflfact.polyfit", "reflfact.series", "reflfact.kernels", *unused
        }, argv
        run_json(capsys, *argv, "--cache", cache)
        hits.append([*argv, "--cache", cache, "--max-dp-cells", "5"])  # the budget is read
    # a count answered from the --cache file loads no counting code
    for argv in (
        *hits,
        ["--version"],
        ["--help"],
        ["reflections", *group],
        ["walks", "--graph", json.dumps(reference_graph.to_json())],
    ):
        loaded = _modules_after(*argv)
        assert not loaded & {"reflfact.counting", "reflfact._kernels_pure", *unused}, argv
    # walks loads `graphs` and nothing more
    walks = _modules_after("walks", "--graph", json.dumps(reference_graph.to_json()))
    assert walks - {"dataclasses", "inspect"} <= {
        "reflfact.cli", "reflfact.errors", "reflfact.groups", "reflfact.graphs"
    }
    for argv in (
        ["verify-comparison", *group, "--max-m", "1"],
        ["series", "--kind", "connected", *group, *omega, "--order", "3"],
        ["fit", "--g", "0", "--ell", "1", "--n-values", "2,3"],
    ):
        loaded = _modules_after(*argv)
        assert "reflfact.counting" in loaded
        assert not loaded & unused, argv
    # the closed-form series count nothing: no counting code is loaded
    counting_code = {
        "reflfact.counting",
        "reflfact.counttable",
        "reflfact.kernels",
        "reflfact._kernels_pure",
        "reflfact.indexing",
    }
    for argv in (
        ["series", "--kind", "cyclic", "--q", "2", "--order", "3"],
        ["series", "--kind", "sn-long-cycle", "--n", "4", "--order", "3"],
        ["series", "--kind", "long-cycle", *group, "--t", "1", "--order", "3"],
    ):
        loaded = _modules_after(*argv)
        assert "reflfact.series" in loaded
        assert not loaded & {*counting_code, *unused}, argv
    # the package itself resolves its names on first access
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, reflfact; print(json.dumps(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert [m for m in json.loads(proc.stdout) if m.startswith("reflfact.")] == []


def test_max_dp_cells_default_matches_library(capsys):
    # without --max-dp-cells a subcommand passes None, which the library
    # reads as DEFAULT_MAX_DP_CELLS; a value given reaches the library as
    # it is
    parser = build_parser()
    group = ["--r", "1", "--s", "1", "--n", "2"]
    for argv in (
        ["count", *group, "--omega", "{}", "--m", "1"],
        ["count-refined", *group, "--omega", "{}", "--m1", "1", "--m2", "0"],
        ["count-connected", *group, "--omega", "{}", "--m", "1"],
        ["verify-comparison", *group, "--max-m", "1"],
        ["series", "--kind", "cyclic", "--q", "2", "--order", "3"],
        ["fit", "--g", "0", "--ell", "1", "--n-values", "2"],
    ):
        assert parser.parse_args(argv).max_dp_cells is None, argv[0]
        given = parser.parse_args([*argv, "--max-dp-cells", "7"])
        assert given.max_dp_cells == 7, argv[0]
    # S_1000's classes alone are over either budget, so every subcommand
    # that counts is refused at once, naming the limit it read
    big = ["--r", "1", "--s", "1", "--n", "1000"]
    omega = ["--omega", json.dumps({"perm": list(range(1, 1001)), "exps": [0] * 1000})]
    fit = ["fit", "--g", "0", "--ell", "1", "--n-values", "1000"]
    for argv in (
        ["count", *big, *omega, "--m", "1"],
        ["count-refined", *big, *omega, "--m1", "1", "--m2", "0"],
        *(
            ["count-connected", *big, *omega, "--m", "1", "--method", method]
            for method in ("inversion", "enum", "comparison")
        ),
        ["verify-comparison", *big, "--max-m", "1"],
        ["series", "--kind", "connected", *big, *omega, "--order", "1"],
        fit,
        [*fit, "--normalization", "verdict"],
    ):
        for budget, limit in (([], DEFAULT_MAX_DP_CELLS), (["--max-dp-cells", "7"], 7)):
            code, out, err = run_cli(capsys, *argv, *budget)
            assert code == EXIT_RESOURCE and f"(limit {limit})" in err and not out, argv
    clear_caches()


def test_parser_for_the_chosen_subcommand_prints_as_the_full_one(capsys):
    # main adds the arguments of the subcommand argv names only, and no
    # other subcommand when argv starts with it; every help text and usage
    # error still reads as the full parser's, with the same exit code
    group = ["--r", "1", "--s", "1", "--n", "2"]
    helps = [["--help"], ["-h", "count"], ["--version"]]
    helps += [[name, "--help"] for name in _SUBCOMMANDS]
    errors = [
        [], ["bogus"], ["count"],
        ["reflections", *group, "--bogus"],
        ["count", *group, "--omega", "{}", "--m", "x"],
        ["count-connected", *group, "--omega", "{}", "--m", "1", "--method", "bad"],
        ["walks", "--graph"],
        ["fit", "--g", "0"],
    ]
    cases = [(EXIT_OK, argv) for argv in helps] + [(EXIT_USAGE, argv) for argv in errors]
    for code, argv in cases:
        printed = []
        for parser in (build_parser(), build_parser(argv)):
            try:
                parser.parse_args(argv)
            except SystemExit as exc:
                printed.append((exc.code or 0, *capsys.readouterr()))
        assert printed[0][0] == code and printed[1] == printed[0], argv
    parser = build_parser(["count", *group])
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["count"]
    args = sub.choices["count"].parse_args([*group, "--omega", "{}", "--m", "1"])
    assert sorted(vars(args)) == ["cache", "m", "max_dp_cells", "n", "omega", "r", "s"]


def test_usage_errors_of_count_connected_and_series(capsys):
    group = ["--r", "2", "--s", "1", "--n", "2"]
    omega = ["--omega", '{"perm":[2,1],"exps":[0,1]}']
    for argv, says in (
        (["count-connected", *group, *omega, "--m", "2", "--m1", "1", "--m2", "1"], "not both"),
        (["count-connected", *group, *omega], "is required"),
        (["count-connected", *group, *omega, "--m1", "1", "--m2", "1"], "use --m"),
        (["series", "--kind", "cyclic", "--r", "2", "--order", "3"], "--q or both"),
        (["series", "--kind", "sn-long-cycle", "--order", "3"], "needs --n"),
        (["series", "--kind", "long-cycle", "--r", "2", "--s", "1", "--order", "3"], "needs --r"),
        (["series", "--kind", "connected", *group, "--order", "3"], "needs --r"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and says in err and not out, argv


def test_series_cyclic_derives_q_from_r_and_s(capsys):
    payload = run_json(capsys, "series", "--kind", "cyclic", "--r", "6", "--s", "2", "--order", "5")
    direct = run_json(capsys, "series", "--kind", "cyclic", "--q", "3", "--order", "5")
    assert payload == direct and payload["q"] == 3
    assert payload["counts"] == ["1", "0", "2", "2", "6", "10"]


def test_fit_refuses_a_bad_genus(capsys):
    for g in ("one", "-1", "1/3"):
        code, out, err = run_cli(capsys, "fit", "--g", g, "--ell", "1", "--n-values", "2,3")
        assert code == EXIT_VALIDATION and "genus" in err and not out, g


def test_fit_refuses_an_ell_below_one(capsys):
    # ell is the number of cycles of the sampled cycle types
    for ell in ("-1", "0"):
        for extra in ([], ["--normalization", "verdict"]):
            argv = ["fit", "--g", "1", "--ell", ell, "--n-values", "2,3", *extra]
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_VALIDATION and "ell" in err and not out, argv


def test_count_connected_methods_agree_on_every_split(capsys):
    # every route of count-connected, at --m and at each --m1/--m2 split
    # it has a reader for, as `_ROUTES` names them
    group = ["--r", "2", "--s", "1", "--n", "3"]
    omega = ["--omega", '{"perm":[2,3,1],"exps":[0,1,1]}']
    connected = [method for method in _ROUTES if method != "dp"]
    by_split = [method for method in connected if _ROUTES[method][2] is not None]
    assert {"enum", "comparison", "inversion"} <= set(connected)
    assert {"enum", "comparison"} <= set(by_split)
    for m in range(5):
        totals = {
            run_json(capsys, "count-connected", *group, *omega, "--m", str(m),
                     "--method", method)["count"]
            for method in connected
        }
        assert len(totals) == 1, m
        split = []
        for m1 in range(m + 1):
            counts = {
                run_json(capsys, "count-connected", *group, *omega, "--m1", str(m1),
                         "--m2", str(m - m1), "--method", method)["count"]
                for method in by_split
            }
            assert len(counts) == 1, (m1, m - m1)
            split.append(int(counts.pop()))
        assert sum(split) == int(totals.pop()), m


def test_verify_comparison_prints_its_mismatches_and_exits_5(capsys, monkeypatch):
    # an oracle that always disagrees: every class and split is a mismatch,
    # and the payload is still printed as one JSON document with sorted keys
    from reflfact import counting

    monkeypatch.setattr(
        counting, "connected_rows",
        lambda w, max_m, max_dp_cells: [[-1] * (m + 1) for m in range(max_m + 1)],
    )
    code, out, err = run_cli(
        capsys, "verify-comparison", "--r", "2", "--s", "1", "--n", "2", "--max-m", "2"
    )
    assert code == EXIT_CONSISTENCY and "consistency check failed" in err
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    assert payload["checked"] == 8 * 6 and payload["classes"] == 5
    assert len(payload["mismatches"]) == 5 * 6  # one per class and split
    assert {bad["enumeration"] for bad in payload["mismatches"]} == {"-1"}
    assert sum(bad["class_size"] for bad in payload["mismatches"]) == 8 * 6


def _zero_group_argvs():
    """Each subcommand that reads r, s or n, with one of them zero."""
    omega = ["--omega", '{"perm":[1,2],"exps":[0,0]}']
    triples = [("0", "1", "2"), ("2", "0", "2"), ("1", "1", "0")]
    for r, s, n in triples:
        group = ["--r", r, "--s", s, "--n", n]
        yield ["reflections", *group]
        yield ["count", *group, *omega, "--m", "1"]
        yield ["count-refined", *group, *omega, "--m1", "1", "--m2", "0"]
        yield ["count-connected", *group, *omega, "--m", "1"]
        yield ["verify-comparison", *group, "--max-m", "2"]
        yield ["series", "--kind", "long-cycle", *group, "--order", "2"]
        graph = {"r": int(r), "s": int(s), "n": int(n), "edges": []}
        yield ["walks", "--graph", json.dumps(graph)]
    for r, s, _ in triples[:2]:
        yield ["series", "--kind", "cyclic", "--r", r, "--s", s, "--order", "2"]
        for normalization in ("derived", "verdict"):
            yield [
                "fit", "--g", "0", "--ell", "1", "--r", r, "--s", s,
                "--normalization", normalization, "--n-values", "2,3",
            ]
    yield ["series", "--kind", "sn-long-cycle", "--n", "0", "--order", "2"]
    yield ["fit", "--g", "0", "--ell", "1", "--n-values", "0,2"]  # S_n


def test_a_zero_r_s_or_n_is_refused_with_exit_3(capsys):
    # `fit --normalization verdict --s 0` once ended in a ZeroDivisionError
    # traceback, exit 1
    for argv in _zero_group_argvs():
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_VALIDATION, ""), argv
        assert err.count("\n") == 1 and err.startswith("reflfact: "), argv


def _readme_examples():
    """(argv, the comment line after it) of each `reflfact` line of the
    README's command-line block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines() + [""]
    return [
        (shlex.split(line)[1:], lines[i + 1])
        for i, line in enumerate(lines)
        if line.startswith("reflfact ")
    ]


def test_readme_examples_print_one_sorted_json_document(capsys):
    examples = _readme_examples()
    assert len(examples) == 8
    for argv, _ in examples:
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, (argv, err)
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", argv
    argv, comment = examples[0]
    assert run_cli(capsys, *argv)[1] == comment.removeprefix("# ") + "\n"
