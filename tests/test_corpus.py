"""Exactness corpus: fixed strata whose values are frozen as hashes.

tests/fixtures/corpus.json holds, per entry, the sha256 of the value's
canonical text str(PiValue) and its relative error to 15 digits, under
five sections keyed by stratum ("3^2,1^2" is H(3,3,1,1); "" is H()):

* volume: every stratum with 2g - 2 <= 14, the torus included;
* family: each family at a middle genus, about 5 s in all;
* heavy_volume: each family at large genus, about 25 s in all;
* area1, cyl1: area1_constant and cyl1_total of a few strata, the
  relative error taken against each result's predictor.

Every entry is a contract: a later change to one needs a CHANGES.md entry
of its own that gives the reason.  Tier-1 checks every section but
heavy_volume, in about 5 s; the heavy one is a CI step:

    PYTHONPATH=src python tests/test_corpus.py heavy

To rewrite the fixture from the mvvol on the path (only when a value
change is intended):

    PYTHONPATH=src python tests/test_corpus.py write
"""

import hashlib
import json
import sys
from itertools import groupby
from pathlib import Path

from mvvol.combinatorics import partitions_of_size
from mvvol.siegel_veech import area1_constant, cyl1_total
from mvvol.volumes import _relative_error, clear_caches, volume

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "corpus.json"
UNBOUNDED = 10**6

FAMILY = ("1^158", "598", "119^2", "81,37", "2^30", "3^16", "4^10", "10^6", "2^8,1^8",
          "2^10,1^10", "5^6,3^4,1^2", "60^2,58", "30^4")
HEAVY = ("1^218", "898", "239^2", "2^46", "3^24", "20^6", "10^10", "2^14,1^14",
         "3^6,2^6,1^6")
AREA1 = ("2", "1^2", "3,1", "2^2", "1^4", "4,2", "2^5", "3^4", "6^4", "1^10", "1^20", "2^12")
CYL1 = ("4", "2,1^2", "5,1", "6,4,2", "5,3,1^2", "7^2", "4^3")
SV = {"area1": area1_constant, "cyl1": cyl1_total}


def key_text(degrees):
    return ",".join(f"{d}^{len(run)}" if len(run) > 1 else str(d)
                    for d, run in ((d, list(g)) for d, g in groupby(degrees)))


def degrees_of(text):
    out = []
    for token in filter(None, text.split(",")):
        d, _, r = token.partition("^")
        out += [int(d)] * int(r or 1)
    return out


def entry(value, predictor):
    return [hashlib.sha256(str(value).encode()).hexdigest(),
            str(_relative_error(value, predictor))]


def volume_entry(text):
    res = volume(degrees_of(text), max_weight=UNBOUNDED)
    return entry(res.value, res.prediction)


def sv_entry(kind, text):
    res = SV[kind](degrees_of(text), max_weight=UNBOUNDED)
    return entry(res.value, res.predictor)


def small_strata():
    """Every stratum with 2g - 2 <= 14 as key text, H() first."""
    return [key_text(p) for n in range(0, 15, 2) for p in partitions_of_size(n)]


SECTIONS = {"volume": small_strata(), "family": FAMILY, "heavy_volume": HEAVY,
            "area1": AREA1, "cyl1": CYL1}


def compute(section, keys):
    clear_caches()
    if section in SV:
        return {k: sv_entry(section, k) for k in keys}
    return {k: volume_entry(k) for k in keys}


def fixture():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def check(section):
    want = fixture()[section]
    got = compute(section, want)
    return [f"{section} {k}: {got[k]} != {want[k]}" for k in want if got[k] != want[k]]


def test_corpus_covers_every_small_stratum():
    assert {name: list(keys) for name, keys in fixture().items()} == \
        {name: list(keys) for name, keys in SECTIONS.items()}
    assert len(SECTIONS["volume"]) == 295


def test_corpus_small_volumes():
    assert check("volume") == []


def test_corpus_family_volumes():
    assert check("family") == []


def test_corpus_siegel_veech():
    assert check("area1") + check("cyl1") == []


def write():
    lines = []
    for section, keys in SECTIONS.items():
        rows = [f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in compute(section, keys).items()]
        lines.append(f"  {json.dumps(section)}: {{\n" + ",\n".join(rows) + "\n  }")
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["write"]:
        write()
    elif sys.argv[1:] == ["heavy"]:
        failures = check("heavy_volume")
        print("\n".join(failures) or f"corpus: {len(HEAVY)} heavy strata match")
        sys.exit(1 if failures else 0)
    else:
        sys.exit(__doc__)
