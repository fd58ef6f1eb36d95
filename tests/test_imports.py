"""Import hygiene of the rblkit modules (the package __init__ re-exports and
is left out): no module imports a private name of another rblkit module,
none imports a name it never uses, no function or class is left without a
caller, every re-export has a caller beyond the unit tests, and every class
of errors.py is raised or warned somewhere."""

import ast
import importlib
import re
from functools import reduce
from pathlib import Path

import pytest

from rblkit import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rblkit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


# The only private names of other packages that src/rblkit may import, each
# with its reason.
ALLOWED_PRIVATE = {
    "numpy.linalg._umath_linalg": (
        "the LAPACK gufuncs behind np.linalg's cholesky, solve, svd, eigh and det: called"
        " on a whole stack without np.linalg's exception, they give LAPACK's decision per"
        " item, and without its wrapper's per-call checks, the same bits"
    ),
}


def imports(tree):
    """(bound name, imported name, its dotted path, from an rblkit module,
    line) of each import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name, alias.name, alias.name.startswith("rblkit"), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            internal = node.level > 0 or (node.module or "").startswith("rblkit")
            for alias in node.names:
                path = f"{node.module}.{alias.name}" if node.module else alias.name
                yield alias.asname or alias.name, alias.name, path, internal, node.lineno


def test_every_module_is_checked():
    assert {"harness.py", "cli.py", "measurement.py", "estimators.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_public_and_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for bound, name, path, internal, line in imports(tree):
        assert not (internal and name.startswith("_")), f"{module}:{line} imports private {name}"
        private = any(part.startswith("_") for part in path.split("."))
        assert internal or not private or path in ALLOWED_PRIVATE, (
            f"{module}:{line} imports private {path}, which ALLOWED_PRIVATE does not name"
        )
        assert bound in used, f"{module}:{line} imports {bound} and never uses it"


def test_allowed_private_imports_are_imported():
    # An allowance no module uses any more is dropped with its use.
    trees = [ast.parse((PACKAGE / module).read_text()) for module in MODULES]
    paths = {path for tree in trees for _, _, path, _, _ in imports(tree)}
    assert set(ALLOWED_PRIVATE) <= paths


def references(path):
    """(name, line) of every name, attribute and imported name in a file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno


def references_in(files):
    """name -> [(file, line)] of the references in `files`; the package
    __init__'s re-exports do not count."""
    used = {}
    for path in files:
        if path != PACKAGE / "__init__.py":
            for name, line in references(path):
                used.setdefault(name, []).append((path, line))
    return used


def used_outside(uses, path, node) -> bool:
    """Whether some use (file, line) lies outside `node`'s definition in `path`."""
    inside = range(node.lineno, node.end_lineno + 1)
    return any(p != path or line not in inside for p, line in uses)


def test_every_definition_is_referenced():
    # A function or class counts as used when some name, attribute or import
    # in src/rblkit, tests/ or bench/ refers to it from outside its own
    # definition.
    files = [p for d in ("src/rblkit", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    used = references_in(files)
    orphans = []
    for module in MODULES:
        path = PACKAGE / module
        for node in ast.walk(ast.parse(path.read_text())):
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if not isinstance(node, kinds) or node.name.startswith("__"):
                continue
            if not used_outside(used.get(node.name, []), path, node):
                orphans.append(f"{module}:{node.lineno} {node.name}")
    assert not orphans, "defined but never referenced: " + ", ".join(orphans)


# Re-exports that neither the program, the acceptance suite nor bench/ calls,
# each kept as a README capability of its own, with its reason.
EXPORTS_WITHOUT_CALLER = {
    "placement_score": "README's anchor-placement scoring: a design aid, not a program path",
    "semantic_error": "README's semantic heading comparison: the error of a carried heading",
}


def test_every_export_has_a_caller():
    # Every name the package re-exports is referenced, outside its own
    # definition, from src/rblkit, the acceptance criteria or bench/, so API
    # that only unit tests call cannot build up again. An exception whose
    # name gained such a caller, or is no longer exported, is stale.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    files = [*PACKAGE.glob("*.py"), ROOT / "tests" / "test_acceptance.py", *ROOT.glob("bench/*.py")]
    used = references_in(files)
    called = {
        node.name
        for module in MODULES
        for node in ast.parse((PACKAGE / module).read_text()).body
        if getattr(node, "name", None) in exported
        and used_outside(used.get(node.name, []), PACKAGE / module, node)
    }
    uncalled = sorted(exported - called - set(EXPORTS_WITHOUT_CALLER))
    stale = sorted(set(EXPORTS_WITHOUT_CALLER) - (exported - called))
    assert not uncalled, "re-exported, but only unit tests call: " + ", ".join(uncalled)
    assert not stale, "stale EXPORTS_WITHOUT_CALLER entries: " + ", ".join(stale)


def called_name(call):
    """The name a Call node calls, as `f(...)` or `module.f(...)`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def callers(name):
    """(module, top-level definition) of every call of `name` in src/rblkit."""
    found = set()
    for module in MODULES:
        for top in ast.parse((PACKAGE / module).read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and called_name(node) == name:
                    found.add((module, getattr(top, "name", None)))
    return found


def test_one_range_fit():
    # geometry alone knows the links layout and the kernel's callback
    # protocol: fit_ranges is the kernel's one caller, and no other module
    # indexes a grid_links tuple.
    assert callers("pose_gauss_newton") == {("geometry.py", "fit_ranges")}
    indexing = {
        module
        for module in MODULES
        for node in ast.walk(ast.parse((PACKAGE / module).read_text()))
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
        and node.value.id == "links"
    }
    assert indexing == {"geometry.py"}


def test_one_stacked_draw():
    # The draw builds no NoiseModel per trial or per frame: harness._noise is
    # gone, the only NoiseModel call is ScenarioConfig's default, and one
    # simulate_batch (fed by one splitmix64) draws B = 1 and stacks alike.
    from rblkit import harness

    assert not hasattr(harness, "_noise")
    assert callers("NoiseModel") == {("harness.py", "ScenarioConfig")}
    assert callers("simulate_batch") == {
        ("measurement.py", "simulate_measurements"), ("harness.py", "_observe"),
    }
    definitions = [
        (module, node.name)
        for module in MODULES
        for node in ast.walk(ast.parse((PACKAGE / module).read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("splitmix64", "simulate_batch")
    ]
    expect = [("harness.py", "splitmix64"), ("measurement.py", "simulate_batch")]
    assert sorted(definitions) == expect


# np.linalg's LAPACK wrappers, which geometry.svd, geometry.eigh and the kernel's stacked
# solve replace: only geometry.py may name them. np.linalg.norm is no LAPACK call.
LAPACK_WRAPPERS = {"eigh", "svd", "pinv", "solve", "det"}


def test_lapack_only_through_geometry():
    # geometry calls np.linalg's gufuncs under np.linalg's error state, with the same bits and
    # the same LinAlgError and without the wrappers' per-call checks; every other module goes
    # through it, so that no B = 1 call pays for the wrappers.
    found = []
    for module in MODULES:
        if module == "geometry.py":
            continue
        for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
            if isinstance(node, ast.Attribute) and node.attr in LAPACK_WRAPPERS:
                named = "linalg" in ast.unparse(node.value)
            elif isinstance(node, ast.ImportFrom):
                named = "linalg" in (node.module or "") and any(
                    a.name in LAPACK_WRAPPERS for a in node.names
                )
            else:
                continue
            if named:
                found.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    assert not found, "np.linalg LAPACK wrappers outside geometry.py: " + ", ".join(found)


def test_one_seeding_definition():
    # Every generator in src/rblkit is seeded by measurement.streams, the one
    # copy of numpy's SeedSequence recipe: nothing else hashes or builds one.
    assert callers("default_rng") == callers("SeedSequence") == set()
    assert callers("PCG64") == callers("Generator") == {("measurement.py", "streams")}


def test_every_error_class_is_raised():
    # Each exception class of errors.py is constructed, and each warning
    # class is the category of a warnings.warn call, in some other module.
    # A test that imports a class no program path raises does not count.
    constructed, warned = set(), set()
    for module in MODULES:
        if module == "errors.py":
            continue
        for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
            if not isinstance(node, ast.Call):
                continue
            constructed.add(called_name(node))
            if called_name(node) == "warn":
                category = node.args[1:2] + [k.value for k in node.keywords if k.arg == "category"]
                warned.update(c.id for c in category if isinstance(c, ast.Name))
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    unused = [
        name for name in classes
        if name not in (warned if issubclass(getattr(errors, name), Warning) else constructed)
    ]
    assert classes and not unused, "never raised or warned: " + ", ".join(unused)


# Backticked names of README's "Library layout" table that are no attribute
# of an rblkit module: the package, the CLI's `crlb` command and a field.
NOT_API = {"rblkit", "crlb", "angle_sigma"}


def resolves(name, namespaces):
    """Whether a dotted name is an attribute path of one of the namespaces."""
    head, *rest = name.split(".")
    for namespace in namespaces:
        try:
            reduce(getattr, rest, getattr(namespace, head))
            return True
        except AttributeError:
            pass
    return False


def test_library_layout_names_exist():
    # Every name the table quotes, `Class.method` and `rblkit.module` too, is
    # an attribute of rblkit or one of its modules, so deleted API cannot
    # linger in the docs.
    text = (ROOT / "README.md").read_text()
    table = text.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    names = ["rblkit"] + [f"rblkit.{m.removesuffix('.py')}" for m in MODULES]
    namespaces = [importlib.import_module(name) for name in names]
    words = re.findall(r"\w+(?:\.\w+)*", " ".join(re.findall(r"`([^`]+)`", table)))
    quoted = {w.removeprefix("rblkit.") for w in words}
    missing = sorted(w for w in quoted - NOT_API if not resolves(w, namespaces))
    assert quoted and not missing, "README names missing API: " + ", ".join(missing)


def test_readme_document_keys_match_the_written_documents():
    # README's serialized-document formats list the keys each to_json_dict
    # writes, in its order, so a dropped or added key cannot leave the docs stale.
    import rblkit

    scenario, _ = rblkit.preset("fig5")
    _, meas = rblkit.draw_trial(scenario, 0.01, 3)
    edm = rblkit.assemble_edm(scenario.anchors, scenario.conformation, meas)
    documents = {
        "MeasurementSet": meas,
        "Edm": edm,
        "CompletionReport": rblkit.complete_edm(edm),
        "PoseEstimate": rblkit.estimate_pose_nls(meas, scenario.anchors, scenario.conformation),
    }
    text = (ROOT / "README.md").read_text().split("## Serialized documents", 1)[1]
    for name, document in documents.items():
        listed = re.search(rf"- \*\*{name}\*\*: `([^`]+)`", text).group(1)
        assert re.findall(r'"(\w+)"', listed) == list(document.to_json_dict()), name
