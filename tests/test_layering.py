"""Production modules build no dense d**N-sized arrays: only `states` and
`oracle` do, and the package's top-level names are the production API.  The
dense layer defines a pinned set of public names, and its cached arrays are
read-only.  `witnesses` imports nothing from `moment`, which owns the moment
Hankels.  Every PSD decision of `ppt` and `moment` goes through one
eigensolve site, `ppt.psd_checks`."""

import ast
import importlib
import importlib.util
import inspect

import numpy as np
import pytest

import dsym

PRODUCTION = ("dsym.ppt", "dsym.moment", "dsym.witnesses", "dsym.decompose")
DENSE_KERNELS = (
    "check_dense_cap",
    "digit_table",
    "digit_sum_core",
    "digit_sum_operator",
    "product_powers",
)
STATES_BUILDERS = ("build_state", "digit_sum_core", "digit_sum_operator", "product_powers")
# the public names of the dense layer: the paper's verification-only objects
# are built from these in tests/paper_objects.py
DENSE_LAYER = {
    "dsym.states": {
        "DEFAULT_DENSE_CAP",
        "DenseCapExceeded",
        "StateSpec",
        "build_state",
        "check_dense_cap",
        "composition_counts",
        "dense_cap",
        "digit_sum_core",
        "digit_sum_operator",
        "digit_sums",
        "digit_table",
        "product_powers",
    },
    "dsym.oracle": {
        "dense_ppt_check",
        "ensemble_matrix",
        "partial_transpose",
        "witness_matrix",
    },
}


def _imported_modules(module) -> set[str]:
    """Every module named by an import statement anywhere in the module's
    source, function bodies included, as an absolute dotted name."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), "dsym")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_modules_hold_no_dense_code(name):
    module = importlib.import_module(name)
    assert not [k for k in DENSE_KERNELS if k in vars(module)]
    assert "dsym.oracle" not in _imported_modules(module)


def test_witnesses_import_nothing_from_moment():
    # moment builds the moment Hankels and hands the failing one in; an
    # import back, even one for annotations only, would make two owners
    imported = _imported_modules(importlib.import_module("dsym.witnesses"))
    assert not {n for n in imported if n == "dsym.moment" or n.startswith("dsym.moment.")}


def test_top_level_names_hold_no_dense_builder():
    assert not set(dsym.__all__) & set(STATES_BUILDERS)
    from_oracle = [n for n in dsym.__all__ if getattr(dsym, n).__module__ == "dsym.oracle"]
    assert not from_oracle


@pytest.mark.parametrize("name", DENSE_LAYER)
def test_dense_layer_defines_only_its_public_names(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}
    assert {k for k in defined if not k.startswith("_")} == DENSE_LAYER[name]


def test_combinatorics_module_is_gone():
    assert importlib.util.find_spec("dsym.combinatorics") is None


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("name", ["dsym.states", "dsym.oracle"])
def test_cached_arrays_are_read_only(name):
    # a cached array is shared by every later call: one write through it
    # would corrupt every state built after
    module = importlib.import_module(name)
    cached = {k: f for k, f in vars(module).items() if hasattr(f, "cache_info")}
    expected, calls = {
        "dsym.states": ({"digit_table", "digit_sums", "composition_counts"}, [(3, 2), (2, 4)]),
        "dsym.oracle": ({"_probe"}, [(8,), (16,)]),  # one argument: the row count
    }[name]
    assert expected <= set(cached)
    for key, f in cached.items():
        if f.__module__ != name:
            continue  # imported from another module and checked there
        for args in calls:
            for array in _arrays(f(*args)):
                assert not array.flags.writeable, key
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0


def _eigensolves(module) -> set[tuple[str, str]]:
    """(enclosing function, name) of every reference to eigh or eigvalsh in
    the module's source, however it is reached (np.linalg.eigh, an imported
    alias, scipy's)."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, ast.alias):  # an import, whatever it is bound to
            name = node.name.rpartition(".")[2]
        if name in ("eigh", "eigvalsh"):
            found.add((function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(inspect.getsource(module)), None)
    return found


def test_one_eigensolve_site_decides_psd():
    # the kernel is the only place a ppt or moment Hankel is eigensolved; the
    # Jacobi matrix of a quadrature rule is not a PSD decision
    assert _eigensolves(importlib.import_module("dsym.ppt")) == {
        ("psd_checks", "eigh"),
        ("psd_checks", "eigvalsh"),
    }
    assert _eigensolves(importlib.import_module("dsym.moment")) == {("_gauss_rule", "eigh")}
