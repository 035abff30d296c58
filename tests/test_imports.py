"""What a cold start loads, the public names the package binds lazily, and
the names each module imports."""
import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import permstat

# The public API of the package, by home module.
API = {
    "perm": "Perm adjacent_transposition compose format_one_line hat identity inverse "
            "iter_alternating iter_symmetric nu parse_one_line rho sign support",
    "words": "AWord SWord a_canonical a_word_to_perm epsilon_a epsilon_s occurrences_a "
             "occurrences_s s_canonical s_word_to_perm t_vector",
    "stats": "StatProfile del_a del_s del_set_a del_set_s des_a des_s des_set_a des_set_s "
             "genfun h_map hat_ell hat_maj length_a length_s ltr_minima maj_a maj_s rmaj_a "
             "rmaj_s stat_profile",
    "cover": "f_map fiber",
    "qpoly": "MultiPoly q_binomial q_factorial q_multinomial",
    "shuffles": "decompose enumerate_b_shuffles g_map is_b_shuffle shuffle_sum",
    "identities": "IdentityReport list_identities verify",
}
NAMES = sorted(name for names in API.values() for name in names.split())


def _fresh(code: str) -> dict:
    """Run `code` in a fresh interpreter and return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(permstat.__file__)), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_by_main(argv: list[str]) -> tuple[set[str], int]:
    """The permstat modules loaded after main(argv) in a fresh interpreter, and its exit code."""
    got = _fresh(
        "import contextlib, io, json, sys\n"
        "from permstat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('permstat')), code]))\n"
    )
    return set(got[0]), got[1]


def test_import_loads_no_module():
    loaded = _fresh("import json, sys, permstat\n"
                    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('permstat'))))")
    assert loaded == ["permstat"]


def test_list_loads_only_the_catalog():
    assert _loaded_by_main(["list"]) == ({"permstat", "permstat.cli", "permstat.catalog"}, 0)


@pytest.mark.parametrize("argv", [
    ["stat", "--group", "A", "[3,5,4,2,1]"],
    ["canon", "--group", "S", "--from-word", "s1 s2 s1"],
    ["fiber", "[2,5,4,1,3]"],
])
def test_element_queries_load_no_check_polynomial_or_shuffle_code(argv):
    loaded, code = _loaded_by_main(argv)
    assert code == 0
    assert not loaded & {"permstat.identities", "permstat.qpoly", "permstat.shuffles"}


def test_verify_pool_forks_after_the_checks_are_compiled():
    # The recorder stands in for the pool and maps serially; it notes whether
    # the checks were imported when the pool was made.
    got = _fresh(
        "import concurrent.futures, contextlib, io, json, os, sys\n"
        "seen = []\n"
        "class Recorder:\n"
        "    def __init__(self, max_workers):\n"
        "        seen.append('permstat.identities' in sys.modules)\n"
        "    def __enter__(self):\n"
        "        return self\n"
        "    def __exit__(self, *exc):\n"
        "        return False\n"
        "    def map(self, fn, tasks):\n"
        "        return map(fn, tasks)\n"
        "concurrent.futures.ProcessPoolExecutor = Recorder\n"
        "os.cpu_count = lambda: 2\n"
        "from permstat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '--all', '--n-max', '2', '--jobs', '2'])\n"
        "print(json.dumps([code, seen]))\n"
    )
    assert got == [0, [True]]


def test_public_api_is_bound_from_home_modules():
    assert sorted(permstat.__all__) == NAMES and len(NAMES) == 60
    for home, names in API.items():
        module = importlib.import_module(f"permstat.{home}")
        for name in names.split():
            assert getattr(permstat, name) is getattr(module, name), name
    assert set(NAMES) <= set(dir(permstat))
    star: dict = {}
    exec("from permstat import *", star)
    assert all(star[name] is getattr(permstat, name) for name in NAMES)
    assert not hasattr(permstat, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        permstat.no_such_name


def test_package_reads_the_home_modules_current_binding(monkeypatch):
    # A tracer that patches and later restores a home module's function is
    # seen through the package, and so is the restored original.
    from permstat import stats

    original = stats.stat_profile
    assert permstat.stat_profile is original
    monkeypatch.setattr(stats, "stat_profile", lambda *args: "patched")
    assert permstat.stat_profile() == "patched"
    monkeypatch.undo()
    assert permstat.stat_profile is original
    assert "stat_profile" not in vars(permstat)


def _unused_imports(source: str, exempt: str | None = None) -> list[str]:
    """The names a module imports and never reads, skipping `exempt`'s names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module not in ("__future__", exempt):
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


# identities re-exports the catalog's names, so that callers import the
# registry and its errors from the module that verifies it.
_REEXPORTS = {"identities": "catalog"}


@pytest.mark.parametrize("path", sorted(pathlib.Path(permstat.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_each_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text(), _REEXPORTS.get(path.stem)) == []


def _imports(path: pathlib.Path) -> list[tuple[str, str]]:
    """(module, name) for each name a module imports; a package-relative module gets
    its leading dots, and a plain import has the name ""."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(a.name, "") for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [(module, a.name) for a in node.names]
    return found


_PACKAGE = pathlib.Path(permstat.__file__).parent


def test_the_starts_import_only_the_standard_library_and_the_chunk_size():
    # The closed forms' recurrence reads no kernel of the package, by
    # construction: past the standard library it imports ``words._CHUNK``.
    imports = _imports(_PACKAGE / "_starts.py")
    assert (".words", "_CHUNK") in imports
    for module, name in imports:
        assert (module, name) == (".words", "_CHUNK") or (
            not module.startswith(".") and module.partition(".")[0] in sys.stdlib_module_names
        ), (module, name)


def test_identities_alone_imports_the_starts():
    readers = {path.stem for path in _PACKAGE.glob("*.py")
               for module, name in _imports(path)
               if module in ("._starts", "permstat._starts") or (module, name) in (
                   (".", "_starts"), ("permstat", "_starts"))}
    assert readers == {"identities"}
