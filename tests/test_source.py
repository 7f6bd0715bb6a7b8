"""Rules on the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reflfact"


def test_no_assert_statements():
    # cross-checks must raise ConsistencyError (exit 5): `python -O`
    # strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_indexer_sweep_pairs_checked_parts():
    # `GroupElement._from_checked_parts` runs no check: only the sweep,
    # which checks every part it pairs, reaches it; `multiply`, `from_json`
    # and `class_representative` (which refuses a key naming no class)
    # build through the full check
    name = "_from_checked_parts"
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "indexing.py":
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef) and cls.name == "GroupIndexer":
                    for fn in cls.body:
                        if isinstance(fn, ast.FunctionDef) and fn.name == "__iter__":
                            allowed.update(map(id, ast.walk(fn)))
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (
                isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.Constant) and node.value == name  # getattr
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_level_dataclasses_import():
    # dataclasses pulls in inspect, ast and dis at import: values derive from
    # groups._Frozen, and only an assignment to one imports dataclasses
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


def test_no_value_class_writes_out_a_storing_constructor():
    # `_Frozen.__init__` sets the fields by position or by name: a value
    # class defines its own only to validate or derive
    def stores_its_argument(stmt):
        """Whether `stmt` is `_set(self, "<f>", <f>)`."""
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        return (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "_set"
            and len(call.args) == 3 and not call.keywords
            and isinstance(call.args[0], ast.Name) and call.args[0].id == "self"
            and isinstance(call.args[1], ast.Constant)
            and isinstance(call.args[2], ast.Name) and call.args[2].id == call.args[1].value
        )

    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or not any(
                isinstance(base, ast.Name) and base.id == "_Frozen" for base in node.bases
            ):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name != "__init__":
                    continue
                body = item.body
                if ast.get_docstring(item) is not None:
                    body = body[1:]
                if body and all(stores_its_argument(stmt) for stmt in body):
                    found.append(f"{path.name}:{item.lineno} {node.name}.__init__")
    assert found == []


def test_traced_names_resolve():
    # the benchmark's tracer wraps these names by getattr and raises when
    # one is missing, so a kernel or entry point that moves breaks
    # `--trace 1`; the tracer is loaded by path and not edited
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing, absent = [], []
    for modnames, names in tracing.TARGETS.values():
        for modname in modnames:
            try:
                module = importlib.import_module(modname)
            except ModuleNotFoundError:
                absent.append(modname)
                continue
            for target in names:
                owner, _, method = target.partition(".")
                obj = getattr(module, owner, None)
                if obj is None or method and not hasattr(obj, method):
                    missing.append(f"{modname}.{target}")
    assert missing == []
    assert absent == ["reflfact._ckernels"]  # no compiled kernels exist


def _imported(node):
    """(dotted name within the package, local name) per name an import binds."""
    if isinstance(node, ast.Import):
        return [(a.name.removeprefix("reflfact."), a.asname or a.name) for a in node.names]
    if node.level == 0 and not (node.module or "").startswith("reflfact"):
        return []
    module = (node.module or "").removeprefix("reflfact").strip(".")
    return [(f"{module}.{a.name}".strip("."), a.asname or a.name) for a in node.names]


def test_only_groups_holds_the_set_partitions():
    # no route counts over set partitions: they serve the tests' references,
    # and stay a leaf of `groups` that no other module imports or reads
    names = {
        "partitions",
        "_set_partitions",
        "restrict_to_block",
        "relabel_to_dense",
        "ElementPartition",
    }
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "groups.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()  # local names of the groups module
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for dotted, local in _imported(node):
                    if dotted == "groups":
                        aliases.add(local)
                    elif dotted.split(".")[-1] in names:
                        found.append(f"{path.name}:{node.lineno} imports {dotted}")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr in names
            ):
                found.append(f"{path.name}:{node.lineno} reads groups.{node.attr}")
    assert found == []


def test_only_counting_reaches_into_the_kernels():
    # `counting` owns the kernels, their cache and the budget checks: no
    # other module imports `_kernels_pure` or reads a private name of
    # `counting`
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "counting.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()  # local names of the counting module
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for dotted, local in _imported(node):
                    parts = dotted.split(".")
                    if "_kernels_pure" in parts or parts[0] == "counting" and parts[-1][0] == "_":
                        found.append(f"{path.name}:{node.lineno} imports {dotted}")
                    if dotted == "counting":
                        aliases.add(local)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr.startswith("_")
            ):
                found.append(f"{path.name}:{node.lineno} reads counting.{node.attr}")
    assert found == []


def test_each_fit_input_has_one_reader():
    # (r, s) is read by `GroupParams`, which derives q = r // s; the genus
    # by `polyfit.parse_genus`; the entry-product class by one helper
    # that holds its refusal
    def named(node, name):
        return (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
        )

    def nodes_outside(tree, kind, name):
        """The nodes of `tree` outside the definitions of that kind and name."""
        inside = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, kind) and node.name == name
            for sub in ast.walk(node)
        }
        return [node for node in ast.walk(tree) if id(node) not in inside]

    found = []
    refusals = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        refusals += text.count("nontrivial entry product impossible")
        tree = ast.parse(text)
        for node in nodes_outside(tree, ast.ClassDef, "GroupParams"):
            if (
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                and named(node.left, "r") and named(node.right, "s")
            ):
                found.append(f"{path.name}:{node.lineno} r // s")
        if path.name == "polyfit.py":
            for node in nodes_outside(tree, ast.FunctionDef, "parse_genus"):
                if (
                    isinstance(node, ast.Call) and named(node.func, "Fraction")
                    and len(node.args) == 1 and named(node.args[0], "g")
                ):
                    found.append(f"{path.name}:{node.lineno} Fraction(g)")
    assert found == []
    assert refusals == 1


def test_count_routes_and_group_json_have_one_owner():
    # `cli._ROUTES` names the function each count route calls, so
    # `cli._cmd_count` names no counting or series function; a group's
    # (r, s, n) is written to JSON by `GroupParams.to_json` alone
    def top_level_functions(name):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}

    counters = {"counting", "series", *top_level_functions("counting")}
    counters |= top_level_functions("series")
    found = []
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    (cmd_count,) = [
        node for node in cli.body
        if isinstance(node, ast.FunctionDef) and node.name == "_cmd_count"
    ]
    for node in ast.walk(cmd_count):
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {getattr(node, "module", None), *(alias.name for alias in node.names)}
        found += [f"cli.py:{node.lineno} _cmd_count names {name}" for name in names & counters]
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(sub)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "GroupParams"
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "to_json"
            for sub in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and id(node) not in owner:
                keys = {getattr(key, "value", None) for key in node.keys}
                if keys >= {"r", "s", "n"}:
                    found.append(f"{path.name}:{node.lineno} writes r, s and n")
    assert found == []


def _outside_function(tree, name):
    """The nodes of `tree` outside the function definitions named `name`."""
    inside = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
        for sub in ast.walk(node)
    }
    return [node for node in ast.walk(tree) if id(node) not in inside]


def test_connected_rows_own_their_width():
    # `counting.connected_rows` pads each row to m+1 entries in every group,
    # so its readers index row[m2]; only `count_refined` tests the width of
    # a kernel's row, which is 1 in a group without diagonal reflections
    found = []
    for path in [*sorted(SRC.glob("*.py")), ROOT / "tests" / "conftest.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = "count_refined" if path.name == "counting.py" else ""
        for node in _outside_function(tree, allowed):
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name) and node.left.id == "m2"
                and isinstance(node.ops[0], ast.Lt)
                and isinstance(node.comparators[0], ast.Call)
                and isinstance(node.comparators[0].func, ast.Name)
                and node.comparators[0].func.id == "len"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_basis_values_have_one_owner():
    # a fit's rows and a polynomial's evaluation both read basis values
    # from `polyfit._basis_value`
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in _outside_function(ast.parse(path.read_text(encoding="utf-8")), "_basis_value")
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "_monomial_value"
    ]
    assert found == []


def test_the_count_cache_is_append_only():
    # a rename over an existing file makes ext4 flush it, about 30 ms a
    # save: `CountTable.save` appends to the file in place, so counttable
    # renames nothing and opens files only to read or append
    tree = ast.parse((SRC / "counttable.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("replace", "rename", "renames"):
            found.append(f"os.{node.attr}:{node.lineno}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else []
            names += [a.name for a in node.names]
            found += [f"import {name}:{node.lineno}" for name in names
                      if name in ("tempfile", "shutil", "replace", "rename")]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            if any(not isinstance(m, ast.Constant) or set(m.value) & set("wx") for m in modes):
                found.append(f"open to write:{node.lineno}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.endswith(".tmp"):
            found.append(f"temporary file:{node.lineno}")
    assert found == []


def test_the_budget_has_one_reader():
    # the cell budget is a plain int, max_dp_cells=None at every entry
    # point that counts: no options object wraps it, and only
    # `groups.cell_budget` maps None to DEFAULT_MAX_DP_CELLS and reads any
    # other value by `json_count(..., "max_dp_cells")`
    gone = {"Options", "DEFAULT_OPTIONS", "opts", "TYPE_CHECKING", "_options"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = "cell_budget" if path.name == "groups.py" else ""
        for node in ast.walk(tree):
            names = [
                getattr(node, field, None) for field in ("id", "attr", "arg", "name", "asname")
            ]
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in gone]
        for node in _outside_function(tree, inside):
            if (
                isinstance(node, ast.Name) and node.id == "DEFAULT_MAX_DP_CELLS"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == "DEFAULT_MAX_DP_CELLS"
                or isinstance(node, ast.Constant) and node.value == "max_dp_cells"
            ):
                found.append(f"{path.name}:{node.lineno} reads the budget")
    assert found == []


def test_counts_read_the_class_key_from_the_element():
    # `groups.class_key` is the one rule, and `GroupElement.class_key` keeps
    # its result, which the whole-group sweep fills: `counting` and
    # `series` read the key from the element and never compute one from
    # an element's permutation and exponents
    found = []
    for name in ("counting.py", "series.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("perm", "exps"):
                found.append(f"{name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.alias) and node.name == "class_key":
                found.append(f"{name}:{node.lineno} imports class_key")
            elif isinstance(node, ast.Call) and "class_key" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                found.append(f"{name}:{node.lineno} calls class_key")
    assert found == []


def test_counting_cache_has_one_owner():
    # `counting._keep` alone inserts a record or empties the cache, and
    # `_invert` replaces a memo list rather than extend it: a count holds
    # only what `_rounds` handed it, so threads share the cache with no lock
    tree = ast.parse((SRC / "counting.py").read_text(encoding="utf-8"))
    owners = {"_keep", "clear_caches"}
    inside = {}  # id(node) -> the top-level function that holds it
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            inside.update((id(sub), fn.name) for sub in ast.walk(fn))
    found = []
    for node in ast.walk(tree):
        owner = inside.get(id(node))
        if owner in owners:
            continue
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "_cache":
            found.append(f"counting.py:{node.lineno} _cache[...]")
        elif (
            isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_cache"
            and node.attr in ("move_to_end", "pop", "popitem", "clear", "setdefault", "update")
        ):
            found.append(f"counting.py:{node.lineno} _cache.{node.attr}")
        elif owner == "_invert" and isinstance(node, ast.Attribute) and node.attr in (
            "extend", "append"
        ):
            found.append(f"counting.py:{node.lineno} _invert .{node.attr}")
    assert found == []


def test_group_state_lives_in_one_cache():
    # counting's records hold every group's state and `clear_caches` empties
    # them alone: `functools.lru_cache` and `functools.cache` memoize only
    # two small pure functions of values, and `_kernels_pure` keeps nothing
    memos = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, modules = set(), set()  # local names of the memoizers, of functools
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                memoizers = [a for a in node.names if a.name in ("lru_cache", "cache")]
                names |= {a.asname or a.name for a in memoizers}
            elif isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        decorated = {
            id(getattr(d, "func", d)): f"{path.stem}.{fn.name}"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for d in fn.decorator_list
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                and getattr(node.value, "id", None) in modules
            ):
                memos.append(decorated.get(id(node), f"{path.name}:{node.lineno}"))
    assert sorted(memos) == ["groups._vertices", "polyfit._arrangements"]

    kernels = ast.parse((SRC / "_kernels_pure.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(kernels):
        if isinstance(node, ast.Import) and any(a.name == "functools" for a in node.names) \
                or isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.append(f"_kernels_pure.py:{node.lineno} imports functools")
        elif isinstance(node, ast.Global):
            found.append(f"_kernels_pure.py:{node.lineno} rebinds {', '.join(node.names)}")
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    for node in kernels.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(value, containers)
            or isinstance(value, ast.Call) and getattr(value.func, "id", None) in (
                "dict", "list", "set", "OrderedDict", "defaultdict"
            )
        ):
            found.append(f"_kernels_pure.py:{node.lineno} binds a module-level container")
    assert found == []

    counting = ast.parse((SRC / "counting.py").read_text(encoding="utf-8"))
    (clear,) = [
        fn for fn in counting.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "clear_caches"
    ]
    calls = [ast.unparse(node) for node in ast.walk(clear) if isinstance(node, ast.Call)]
    assert calls == ["_cache.clear()"]
