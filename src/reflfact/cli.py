"""Command-line front end.

Every subcommand prints exactly one JSON document (sorted keys) on
stdout; diagnostics go to stderr.  Exit codes: 0 success, 2 usage
error, 3 validation error, 4 resource refusal, 5 internal consistency
failure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from . import __version__
from .errors import ReflFactError, UsageError, ValidationError
from .groups import GroupElement, GroupParams, cell_budget, reflections

# Each handler imports the modules it runs when it runs, so a process
# that counts does not load the fitting and series code.


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _load_json_arg(text: str):
    """Parse inline JSON, or @path to read it from a file."""
    source = "JSON argument"
    if text.startswith("@"):
        path = text[1:]
        source = f"JSON in {path}"
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"malformed {source}: {exc}") from exc


def _params(args) -> GroupParams:
    return GroupParams(args.r, args.s, args.n)


def _element(args, params: GroupParams) -> GroupElement:
    return GroupElement.from_json(_load_json_arg(args.omega), params)


def _with_cache(args, key, provenance: str, compute) -> int:
    """The count under `key`: read from the --cache file when it holds
    it, else compute() inserted with `provenance`, and the file saved.
    A hit leaves the file untouched and loads no counting code: only
    compute() imports `counting`.  An empty path is refused first."""
    from .counttable import CountTable

    if args.cache == "":
        raise ValidationError("--cache needs a path, got ''")
    table = CountTable()
    if args.cache and os.path.exists(args.cache):
        table = CountTable.load(args.cache)
    value = table.get(key)
    if value is None:
        value = compute()
        table.insert(key, value, provenance)
        if args.cache:
            table.save(args.cache)
    return value


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--s", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-dp-cells",
        type=int,
        help="cells a kernel's kept rounds 0..m may hold: one per class and "
        "round for total counts, one per class, round and diagonal count for "
        "refined counts and one per orbit of states, round and diagonal "
        "count for the connected DP",
    )


def _add_counted(parser: argparse.ArgumentParser) -> None:
    """The arguments count, count-refined and count-connected share: the
    group, the budget, the --cache file and the element."""
    _add_params(parser)
    _add_budget(parser)
    parser.add_argument("--cache", default=None, help="JSON-lines count cache path")
    parser.add_argument("--omega", required=True, help="element JSON (inline or @file)")


def _args_count(p: argparse.ArgumentParser) -> None:
    _add_counted(p)
    p.add_argument("--m", type=int, required=True)


def _args_count_refined(p: argparse.ArgumentParser) -> None:
    _add_counted(p)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)


def _args_count_connected(p: argparse.ArgumentParser) -> None:
    _add_counted(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument(
        "--method",
        choices=[name for name in _ROUTES if name != "dp"],
        default="inversion",
    )


def _args_verify_comparison(p: argparse.ArgumentParser) -> None:
    _add_params(p)
    _add_budget(p)
    p.add_argument("--max-m", type=int, required=True)


def _args_series(p: argparse.ArgumentParser) -> None:
    _add_budget(p)
    p.add_argument(
        "--kind",
        choices=["cyclic", "connected", "sn-long-cycle", "long-cycle"],
        required=True,
    )
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--q", type=int, help="cyclic group order (kind=cyclic)")
    p.add_argument("--t", type=int, default=0, help="target exponent")
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--omega", help="element JSON (kind=connected)")


def _args_fit(p: argparse.ArgumentParser) -> None:
    _add_budget(p)
    p.add_argument("--g", required=True, help="genus parameter (integer or half-integer)")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument(
        "--trivial-product",
        type=int,
        choices=[0, 1],
        default=1,
        help="entry-product class of the sampled elements",
    )
    p.add_argument(
        "--normalization", choices=["printed", "derived", "verdict"], default="derived"
    )
    p.add_argument(
        "--n-values",
        required=True,
        help="comma-separated n to sample, e.g. 2,3,4",
    )


def _args_walks(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="graph JSON (inline or @file)")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every subcommand or, given argv, of what parsing
    argv can reach: arguments only for the subcommand argv names (its
    first word that is not an option) and, when argv starts with that
    name, no other subcommand, since no top-level help or choice error
    can then list them."""
    parser = argparse.ArgumentParser(
        prog="reflfact",
        description="Exact reflection-factorization counts in G(r,s,n)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = None if argv is None else next((a for a in argv if not a.startswith("-")), "")
    alone = chosen in _SUBCOMMANDS and argv[0] == chosen
    if alone:
        # the usage line argparse gives every choice, which an error on an
        # unrecognized argument prints
        sub.metavar = "{" + ",".join(_SUBCOMMANDS) + "}"
    for name, (help_line, add_arguments, _) in _SUBCOMMANDS.items():
        if alone and name != chosen:
            continue
        p = sub.add_parser(name, help=help_line)
        if chosen in (None, name):
            add_arguments(p)
    return parser


def _cmd_reflections(args) -> dict:
    params = _params(args)
    refs = reflections(params)
    return {**params.to_json(), "count": len(refs), "reflections": [ref.to_json() for ref in refs]}


# --method name -> (the module that counts, its function at --m, at --m1/--m2
# or None, the provenance the --cache file records).  count and count-refined
# count by "dp"; every other row is a connected route of count-connected.
_ROUTES = {
    "dp": ("counting", "count_all", "count_refined", "dp"),
    "enum": ("counting", "count_connected_total_enum", "count_connected_enum", "enumeration"),
    "inversion": ("counting", "connected_from_all", None, "inversion"),
    "comparison": ("series", "comparison_total", "comparison_refined", "closed-form"),
}


def _cmd_count(args) -> dict:
    """count, count-refined and count-connected: w's count at --m, or at
    --m1 swap and --m2 diagonal factors, under its CountKey, by the
    `_ROUTES` row that --method names.  count and count-refined have no
    --method (they count by the "dp" row) and their parsers require --m,
    or --m1 and --m2.  The row's module is imported only on a miss, so a
    count the --cache file holds loads no counting code."""
    from .counttable import CountKey

    w = _element(args, _params(args))
    given = vars(args)
    m, m1, m2 = given.get("m"), given.get("m1"), given.get("m2")
    method = given.get("method", "dp")
    module, total, refined, provenance = _ROUTES[method]
    split = m1 is not None or m2 is not None
    if split and (m1 is None or m2 is None):
        raise UsageError("--m1 and --m2 must be given together")
    if split and m is not None:
        raise UsageError("give either --m or --m1/--m2, not both")
    if not split and m is None:
        raise UsageError("one of --m or --m1/--m2 is required")
    if split and refined is None:
        raise UsageError(f"--method {method} computes totals; use --m")
    counts = (m1, m2) if split else (m,)
    key = CountKey(w, counts[0], m2, connected=method != "dp")
    cell_budget(args.max_dp_cells)  # read before the lookup: a hit is refused as a miss is

    def compute() -> int:
        counter = importlib.import_module(f".{module}", __package__)
        return getattr(counter, refined if split else total)(w, *counts, args.max_dp_cells)

    payload = {"count": str(_with_cache(args, key, provenance, compute))}
    if key.connected:
        payload["method"] = method
    return payload


def _cmd_verify_comparison(args) -> dict:
    from .indexing import class_count
    from .series import comparison_mismatches

    params = _params(args)
    checks, mismatches = comparison_mismatches(params, args.max_m, args.max_dp_cells)
    payload = {
        **params.to_json(),
        "max_m": args.max_m,
        "checked": checks,
        "classes": class_count(params),
        "mismatches": [
            {
                "omega": bad.element.to_json(),
                "class_size": bad.class_size,
                "m1": bad.m1,
                "m2": bad.m2,
                "formula": str(bad.formula),
                "enumeration": str(bad.enumeration),
            }
            for bad in mismatches
        ],
    }
    if mismatches:
        raise CliConsistencyFailure(payload)
    return payload


class CliConsistencyFailure(ReflFactError):
    """Verification-style subcommand found mismatches; payload still printed."""

    def __init__(self, payload: dict):
        super().__init__("consistency check failed")
        self.payload = payload


def _cmd_series(args) -> dict:
    from .series import (
        connected_series,
        cyclic_series,
        long_cycle_series,
        sn_long_cycle_series,
    )

    if args.kind == "cyclic":
        q = args.q
        if q is None:
            if args.r is None or args.s is None:
                raise UsageError("kind=cyclic needs --q or both --r and --s")
            q = GroupParams(args.r, args.s, 1).q
        series = cyclic_series(q, args.t, args.order)
        meta = {"q": q, "t": args.t}
    elif args.kind == "sn-long-cycle":
        if args.n is None:
            raise UsageError("kind=sn-long-cycle needs --n")
        series = sn_long_cycle_series(args.n, args.order)
        meta = {"n": args.n}
    elif args.kind == "long-cycle":
        if args.r is None or args.s is None or args.n is None:
            raise UsageError("kind=long-cycle needs --r, --s, --n")
        series = long_cycle_series(params := _params(args), args.t, args.order)
        meta = {**params.to_json(), "t": args.t}
    else:
        if args.r is None or args.s is None or args.n is None or args.omega is None:
            raise UsageError("kind=connected needs --r, --s, --n, --omega")
        params = _params(args)
        series = connected_series(_element(args, params), args.order, args.max_dp_cells)
        meta = params.to_json()
    return {"kind": args.kind, **meta, **series.to_json()}


def _cmd_fit(args) -> dict:
    from .polyfit import (
        collect_samples,
        fit_grsn_polynomial,
        fit_sn_polynomial,
        normalization_verdict,
        parse_genus,
    )

    g = parse_genus(args.g)
    pieces = args.n_values.split(",")
    if not all(x.isascii() and x.isdigit() for x in pieces):
        raise ValidationError(f"bad --n-values {args.n_values!r}: expected e.g. 2,3,4")
    n_values = [int(x) for x in pieces]
    if args.normalization == "verdict":
        verdict = normalization_verdict(g, args.ell, args.r, args.s, n_values, args.max_dp_cells)
        return {"verdict": verdict.to_json()}
    trivial = bool(args.trivial_product)
    samples = collect_samples(args.r, args.s, g, args.ell, trivial, n_values, args.max_dp_cells)
    if args.r == 1 and args.s == 1:
        report = fit_sn_polynomial(g, args.ell, [(c, v) for c, _, v in samples])
    else:
        report = fit_grsn_polynomial(
            g, args.ell, trivial, args.r, args.s, args.normalization, samples
        )
    return {"fit": report.to_json()}


def _cmd_walks(args) -> dict:
    from .graphs import DecoratedGraph, all_walks, evaluate, is_connected, walk_weight

    graph = DecoratedGraph.from_json(_load_json_arg(args.graph))
    walks = all_walks(graph)
    element = evaluate(graph)
    return {
        **graph.params.to_json(),
        "connected": is_connected(graph),
        "element": element.to_json(),
        "walks": [
            {
                "vertex": walk.start,
                "end": walk.end,
                "weight": walk_weight(graph, walk),
                "steps": [
                    {"edge": idx + 1, "tail": tail, "head": head}
                    for idx, tail, head in walk.steps
                ],
            }
            for walk in walks
        ],
    }


# subcommand -> (its help line, the function adding its arguments, its handler)
_SUBCOMMANDS = {
    "reflections": ("list the reflection generating set", _add_params, _cmd_reflections),
    "count": ("total factorization count f_m", _args_count, _cmd_count),
    "count-refined": ("refined count by swap/diagonal split", _args_count_refined, _cmd_count),
    "count-connected": ("connected factorization count", _args_count_connected, _cmd_count),
    "verify-comparison": (
        "exhaustively check the comparison formula against the connected DP",
        _args_verify_comparison,
        _cmd_verify_comparison,
    ),
    "series": ("exact truncated generating series", _args_series, _cmd_series),
    "fit": ("fit the symmetric polynomial behind connected counts", _args_fit, _cmd_fit),
    "walks": ("ordered edge walks of a decorated graph", _args_walks, _cmd_walks),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # counts are exact: read and print every digit
    try:
        _emit(_SUBCOMMANDS[args.command][2](args))
    except CliConsistencyFailure as exc:
        _emit(exc.payload)
        print(f"reflfact: {exc}", file=sys.stderr)
        return exc.exit_code
    except ReflFactError as exc:
        print(f"reflfact: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
