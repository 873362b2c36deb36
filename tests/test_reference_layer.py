"""The reference layer stays a leaf of the import graph.

mvvol.wick and mvvol.f_expansion define the volumes as a Wick sum over
the power-sum expansion; the tests check c_value against them.  No
shipped module may import them, so neither is loaded by `import mvvol`
or by any CLI verb, checked both on the source and in fresh interpreters
(this process has them loaded through the tests).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvvol
from mvvol import bracket

PACKAGE = Path(mvvol.__file__).resolve().parent
REFERENCE = ("mvvol.wick", "mvvol.f_expansion")

PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
{body}
print(json.dumps(sorted(m for m in {reference} if m in sys.modules)))
"""


def reference_modules_loaded(*lines):
    """The reference modules loaded after running lines of Python, stdout
    discarded, in a fresh interpreter that imports mvvol from this tree."""
    body = "\n".join("    " + line for line in lines)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", PROBE.format(body=body, reference=REFERENCE)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def imported_modules(path):
    """Absolute names of the mvvol modules that a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "mvvol" if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return {name for name in found if name.startswith("mvvol")}


def test_no_shipped_module_imports_the_reference_layer():
    files = {f"mvvol.{p.stem}": p for p in PACKAGE.glob("*.py")}
    assert set(REFERENCE) < set(files)
    for name, path in files.items():
        if name not in REFERENCE:
            assert not imported_modules(path) & set(REFERENCE), name
    # the walk does see relative imports: the reference layer reads the shipped modules
    assert "mvvol.bracket" in imported_modules(PACKAGE / "wick.py")


def test_import_leaves_reference_layer_unloaded():
    assert reference_modules_loaded("import mvvol") == []
    assert reference_modules_loaded("import mvvol.cli") == []
    # the probe does see a module it loads
    assert reference_modules_loaded("import mvvol.wick") == ["mvvol.wick"]


@pytest.mark.parametrize("argv", [
    ["volume", "3,1,1,1"],
    ["sv", "3,1", "--kind", "cyl", "--zeros", "1,2"],
    ["table", "--max-size", "6"],
    ["principal", "4", "--verify"],
    ["selftest"],
], ids=lambda argv: argv[0])
def test_cold_cli_verb_leaves_reference_layer_unloaded(argv):
    assert reference_modules_loaded(
        "from mvvol import cli",
        f"assert cli.main({argv!r}) == 0",
    ) == []


def test_warm_cache_run_leaves_reference_layer_unloaded(tmp_path):
    run = f"assert cli.main(['table', '--max-size', '6', '--cache', {str(tmp_path / 'c.json')!r}]) == 0"
    for _ in range(2):  # the first run writes the cache, the second loads it
        assert reference_modules_loaded("from mvvol import cli", run) == []


def test_public_names_are_pinned():
    # a name leaves or joins mvvol.__all__ only on purpose
    assert mvvol.__all__ == [
        "PiValue", "bernoulli", "zeta_even", "frak_z", "partitions_of_size",
        "single_bracket", "error_term", "Stratum", "VolumeResult", "c_value", "volume",
        "principal_volume", "prediction", "clear_caches", "InvalidStratumError",
        "InfeasibleSizeError", "SVResult", "sc_constant", "sc2_principal", "loop_per_angle",
        "loop_constant", "cyl_constant", "handle_constant", "cyl1_total", "area1_constant",
    ]
    assert all(hasattr(mvvol, name) for name in mvvol.__all__)
    for name in ("capital_f", "multi_bracket", "partitions_of_weight"):
        assert not hasattr(mvvol, name), name


def test_bracket_names_are_pinned():
    # single_bracket is the checked entry, its .q the rational view; the
    # unchecked memo read _coefficient stays private
    assert bracket.__all__ == ["single_bracket", "error_term", "clear_cache"]
    assert all(hasattr(bracket, name) for name in bracket.__all__)
    assert not hasattr(bracket, "coefficient")
