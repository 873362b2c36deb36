"""CLI stdout and cache bytes frozen as fixtures.

Each cli_*.txt fixture in tests/fixtures/ is a transcript: per invocation,
a "$ mvvol ..." line, its stdout and its exit code.  cache_table6.json is
the cache file `mvvol table --max-size 6` writes from an empty memo.
Values are exact, so every byte of these fixtures is a contract.  To
rewrite them from the mvvol on the path (only when an output change is
intended):

    PYTHONPATH=src python tests/test_cli_stdout.py
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from mvvol import cli, siegel_veech
from mvvol.volumes import Stratum, clear_caches

FIXTURES = Path(__file__).resolve().parent / "fixtures"
FORMATS = ("exact", "decimal", "json")


def sv_invocations():
    """Every kind on three genus-3 strata, over all zero indices and every
    angle in 1..m_i-1, in each format; stderr-only refusals keep their exit
    code (sc2 off the principal stratum)."""
    for text in ("3,1", "2,2", "1,1,1,1"):
        degrees = Stratum(map(int, text.split(","))).degrees
        n = len(degrees)
        for kind, spec in siegel_veech.KINDS.items():
            if spec.zeros == 0:
                extras = [[]]
            elif spec.zeros == 2:
                extras = [["--zeros", f"{i},{j}"]
                          for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
            elif spec.angle:
                extras = [["--zeros", str(i), "--angle", str(j)]
                          for i in range(1, n + 1) for j in range(1, degrees[i - 1])]
            else:
                extras = [["--zeros", str(i)] for i in range(1, n + 1)]
            for extra in extras:
                for fmt in FORMATS:
                    yield ["sv", text, "--kind", kind, *extra, "--format", fmt]


def volume_invocations():
    """Strata from the torus to genus 8, marked points among them, in each
    format and at a short --digits."""
    for text, extra in (("2", []), ("H(1,1)", []), ("3,1", []), ("2,0", []), ("", []),
                        ("0,0", []), ("6,4,2,1,1", ["--max-weight", "20"])):
        for fmt in FORMATS:
            yield ["volume", text, *extra, "--format", fmt]
        yield ["volume", text, *extra, "--format", "decimal", "--digits", "10"]


INVOCATIONS = {
    "volume": list(volume_invocations()),
    "table": [["table", "--max-size", "8", "--max-weight", "20", "--format", fmt]
              for fmt in FORMATS],
    "principal": [["principal", "8", "--verify", "--max-weight", "28", "--format", fmt]
                  for fmt in FORMATS],
    "sv": list(sv_invocations()),
}


def transcript(name):
    out = []
    for argv in INVOCATIONS[name]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out.append(f"$ mvvol {' '.join(argv)}\n{buf.getvalue()}[exit {code}]\n")
    return "".join(out)


def table_cache_bytes(directory):
    """The bytes of the cache file `mvvol table --max-size 6` writes into
    directory from an empty memo."""
    path = Path(directory) / "cache.json"
    clear_caches()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["table", "--max-size", "6", "--cache", str(path)])
    assert code == 0
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_stdout_matches_fixture(name):
    want = (FIXTURES / f"cli_{name}.txt").read_text(encoding="utf-8")
    assert transcript(name) == want


def test_cache_bytes_match_fixture(tmp_path):
    assert table_cache_bytes(tmp_path) == (FIXTURES / "cache_table6.json").read_bytes()


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    for name in INVOCATIONS:
        (FIXTURES / f"cli_{name}.txt").write_text(transcript(name), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        (FIXTURES / "cache_table6.json").write_bytes(table_cache_bytes(tmp))
