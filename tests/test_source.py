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
