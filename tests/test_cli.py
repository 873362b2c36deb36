import binascii
import fcntl
import itertools
import json
import os
import sys
import threading
import time
from fractions import Fraction

import pytest

import mvvol.cli as cli
from mvvol import siegel_veech, volumes
from mvvol.cli import main, parse_stratum
from mvvol.combinatorics import partitions_of_size
from mvvol.exact_arith import PiValue
from mvvol.volumes import InvalidStratumError, Stratum, clear_caches, volume, volume_cache


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- stratum parsing -------------------------------------------------------------


def test_parse_stratum_variants():
    assert parse_stratum("2,1,1") == Stratum([2, 1, 1])
    assert parse_stratum("H(2,1,1)") == Stratum([2, 1, 1])
    assert parse_stratum("h(3,1)") == Stratum([3, 1])
    assert parse_stratum("  H(2)  ") == Stratum([2])
    assert parse_stratum("") == Stratum([])
    assert parse_stratum("H()") == Stratum([])
    assert parse_stratum(" 2 ,\t2 ") == Stratum([2, 2])
    # int() would read each of these as some other stratum
    for text in ("2,x", "1_1,1", "+2", "\u0662", "2,-0", "2,-2", "2,,2", "H(2,)"):
        with pytest.raises(InvalidStratumError, match=r"^cannot parse stratum "):
            parse_stratum(text)


# every integer of argv through one reader: ASCII digits, blanks around commas
@pytest.mark.parametrize("argv", [
    ["volume", "1_1,1"],
    ["volume", "+2"],
    ["volume", "\u0662"],
    ["volume", "2,-0"],
    ["sv", "2,2", "--kind", "sc", "--zeros", "\u0662,1"],
    ["sv", "3,1", "--kind", "loop_per_angle", "--zeros", "1", "--angle", "\u0662"],
    ["principal", "1_0"],
    ["volume", "2", "--max-weight", "4_0"],
    ["volume", "2", "--digits", "\u0665"],
    ["table", "--max-size", "0_8"],
])
def test_argv_integer_spellings_refused(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("argv, plain", [
    (["volume", " 2 , 2 "], ["volume", "2,2"]),
    (["volume", "H(3,1)"], ["volume", "3,1"]),
    (["volume", "h(3,1)"], ["volume", "3,1"]),
    (["volume", "0,1,1"], ["volume", "1,1"]),
    (["volume", ""], ["volume", "0"]),
    (["volume", "H()"], ["volume", "0"]),
    (["sv", "3,1", "--kind", "cyl", "--zeros", " 1 ,\t2"],
     ["sv", "3,1", "--kind", "cyl", "--zeros", "1,2"]),
])
def test_argv_spellings_accepted(argv, plain, capsys):
    result = run(argv, capsys)
    assert result[0] == 0
    assert result == run(plain, capsys)


# -- volume verb ------------------------------------------------------------------


def test_volume_exact_output(capsys):
    code, out, _ = run(["volume", "2"], capsys)
    assert code == 0
    assert out == "1/120 * pi^4\n"


def test_volume_decimal_output(capsys):
    code, out, _ = run(["volume", "1,1", "--format", "decimal", "--digits", "10"], capsys)
    assert code == 0
    assert out == "0.7215488225\n"


def test_volume_json_output(capsys):
    code, out, _ = run(["volume", "H(1,1)", "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec == {
        "stratum": "1,1",
        "num": "1",
        "den": "135",
        "pi_exp": 4,
        "prediction": "1",
        "relative_error": "-0.278451177525908",
    }


def test_volume_torus(capsys):
    code, out, _ = run(["volume", ""], capsys)
    assert code == 0
    assert out == "1/3 * pi^2\n"


def test_volume_marked_points_share_key(capsys):
    code, out, _ = run(["volume", "0,1,1", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["stratum"] == "1,1"


def test_exit_code_invalid(capsys):
    code, out, err = run(["volume", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_exit_code_infeasible(capsys):
    code, _, err = run(["volume", "16"], capsys)
    assert code == 3
    assert "feasibility bound" in err


def test_exit_code_bad_token(capsys):
    code, _, err = run(["volume", "2,zz"], capsys)
    assert code == 2


def test_removed_flags_rejected(capsys):
    # --threads is gone from every verb; --verify belongs to principal only;
    # selftest takes no options at all
    for argv in (["volume", "2", "--threads", "4"], ["volume", "2", "--verify"],
                 ["table", "--verify"], ["sv", "1,1", "--kind", "cyl1", "--verify"],
                 ["selftest", "--threads", "1"], ["principal", "2", "--threads", "1"],
                 ["selftest", "--format", "json"], ["selftest", "--digits", "3"],
                 ["selftest", "--cache", "X"], ["selftest", "--max-weight", "20"]):
        code, out, _ = run(argv, capsys)
        assert code == 2, argv
        assert out == ""


# -- principal verb ----------------------------------------------------------------


def test_principal_exact(capsys):
    code, out, _ = run(["principal", "2"], capsys)
    assert code == 0
    assert out == "1/135 * pi^4\n"


def test_principal_verify(capsys):
    code, out, _ = run(["principal", "3", "--verify"], capsys)
    assert code == 0
    assert out.splitlines() == ["1/4860 * pi^6", "matches general pipeline: yes"]


def test_principal_verify_json(capsys):
    code, out, _ = run(["principal", "2", "--verify", "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["matches_general_pipeline"] is True
    assert (rec["num"], rec["den"], rec["pi_exp"]) == ("1", "135", 4)


def test_principal_verify_genus_eight(capsys):
    code, out, _ = run(["principal", "8", "--verify", "--max-weight", "30"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["matches general pipeline: yes"]


@pytest.mark.parametrize("fmt, shown", [
    ("exact", "1/7 * pi^4"),
    ("decimal", "13.915584433428919605205761812672158749961083667526"),
], ids=["exact", "decimal"])
def test_principal_verify_mismatch_text(fmt, shown, capsys, monkeypatch):
    # a closed form that disagrees with the general pipeline exits 1
    monkeypatch.setattr(cli, "principal_volume", lambda g: PiValue(Fraction(1, 7), 2 * g))
    code, out, _ = run(["principal", "2", "--verify", "--format", fmt], capsys)
    assert code == 1
    assert out.splitlines() == [shown, "matches general pipeline: no"]


def test_principal_verify_mismatch_json(capsys, monkeypatch):
    monkeypatch.setattr(cli, "principal_volume", lambda g: PiValue(Fraction(1, 7), 2 * g))
    code, out, _ = run(["principal", "2", "--verify", "--format", "json"], capsys)
    assert code == 1
    assert json.loads(out) == {"genus": 2, "num": "1", "den": "7", "pi_exp": 4,
                               "matches_general_pipeline": False}


def test_principal_bad_genus(capsys):
    code, _, err = run(["principal", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, weight", [
    (["principal", "80"], 316),
    (["principal", "80", "--verify", "--format", "json"], 316),
    (["principal", "5"], 16),
    (["principal", "25", "--verify", "--max-weight", "95"], 96),
])
def test_principal_refused_above_weight_bound(argv, weight, capsys, monkeypatch):
    # the bound of H(1^(2G-2)), weight 4G - 4, holds before the closed form
    # is summed, with or without --verify
    for name in ("volume", "principal_volume"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert f"sum of (m_i + 1) is {weight}, above the feasibility bound" in err


def test_principal_at_raised_bound(capsys):
    # H(1^8) has weight 16, above the default bound of 14
    code, out, _ = run(["principal", "5", "--max-weight", "16"], capsys)
    assert code == 0
    assert out == f"{volume(Stratum([1] * 8), max_weight=16).value}\n"


# -- table verb ---------------------------------------------------------------------


def test_table_text(capsys):
    code, out, _ = run(["table", "--max-size", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    data = [l for l in lines if not l.startswith("#")]
    notes = [l for l in lines if l.startswith("#")]
    assert len(data) == 2 + 5  # partitions of 2 and of 4
    assert len(notes) == 2
    assert data[0].startswith("H(2)\t1/120 * pi^4\tprediction 4/3")
    for note in notes:
        assert note.endswith("(principal..minimal ordering: yes)")
    assert "# g=3: smallest |rel.err| at H(1,1,1,1), largest at H(4)" in notes[1]


def test_table_json(capsys):
    code, out, _ = run(["table", "--max-size", "4", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 7
    by_key = {r["stratum"]: r for r in rows}
    assert by_key["4"]["num"] == "61"
    assert by_key["4"]["den"] == "108864"


# -- sv verb -----------------------------------------------------------------------


def test_sv_sc_text(capsys):
    code, out, _ = run(["sv", "1,1", "--kind", "sc", "--zeros", "1,2"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "value: 27/8",
        "pi exponent: 0",
        "predictor: 4",
        "relative deviation: -0.15625",
    ]


def test_sv_zero_value_text(capsys):
    code, out, _ = run(["sv", "1,1", "--kind", "handle", "--zeros", "1"], capsys)
    assert code == 0
    assert "pi exponent: none (zero value)" in out
    assert "relative deviation: n/a" in out


def test_sv_warning_line(capsys):
    code, out, _ = run(["sv", "2,2", "--kind", "cyl", "--zeros", "1,2"], capsys)
    assert code == 0
    assert "warning: stratum may be disconnected" in out


def test_sv_json_record(capsys):
    code, out, _ = run(
        ["sv", "3,1", "--kind", "loop_per_angle", "--zeros", "1", "--angle", "2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "315/8 * pi^-2"
    assert rec["pi_exp"] == -2
    assert rec["zeros"] == [1]
    assert rec["angle"] == 2
    assert rec["multiple_components_possible"] is False


def test_sv_sc2_requires_principal(capsys):
    code, _, err = run(["sv", "2,2", "--kind", "sc2"], capsys)
    assert code == 2
    code, out, _ = run(["sv", "1,1", "--kind", "sc2"], capsys)
    assert code == 0
    assert "value: 5/8" in out


def refuse(*args, **kwargs):
    raise AssertionError("computed a volume for a refused request")


@pytest.mark.parametrize("kind", [k for k, spec in siegel_veech.KINDS.items() if spec.zeros])
def test_sv_missing_zeros(kind, capsys, monkeypatch):
    # one zero index too few and one too many, both refused before any volume
    monkeypatch.setattr(cli.siegel_veech, "volume", refuse)
    spec = siegel_veech.KINDS[kind]
    angle = ["--angle", "1"] if spec.angle else []
    for n in (spec.zeros - 1, spec.zeros + 1):
        zeros = ["--zeros", ",".join("123"[:n])] if n else []
        code, out, err = run(["sv", "2,1,1", "--kind", kind, *zeros, *angle], capsys)
        assert code == 2
        assert out == ""
        assert f"error: --kind {kind} needs --zeros" in err


def test_sv_kind_choices_are_the_kinds_table():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "verb")
    kind = next(a for a in sub.choices["sv"]._actions if a.dest == "kind")
    assert list(kind.choices) == list(siegel_veech.KINDS)


# each kind with a flag it does not use; loop_per_angle uses both
SV_IGNORED_FLAGS = {
    "sc": ["3,1", "--zeros", "1,2", "--angle", "1"],
    "sc2": ["1,1", "--zeros", "1,2"],
    "loop": ["3,1", "--zeros", "1", "--angle", "1"],
    "cyl": ["3,1", "--zeros", "1,2", "--angle", "1"],
    "handle": ["3,1", "--zeros", "1", "--angle", "1"],
    "cyl1": ["1,1", "--zeros", "1,2"],
    "area1": ["1,1", "--zeros", "1"],
}


@pytest.mark.parametrize("kind", sorted(SV_IGNORED_FLAGS))
def test_sv_rejects_flags_its_kind_ignores(kind, capsys, monkeypatch):
    monkeypatch.setattr(cli.siegel_veech, "volume", refuse)
    stratum, *flags = SV_IGNORED_FLAGS[kind]
    code, out, err = run(["sv", stratum, "--kind", kind, *flags], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and kind in err


def test_sv_loop_per_angle_takes_zeros_and_angle(capsys):
    code, _, _ = run(["sv", "3,1", "--kind", "loop_per_angle", "--zeros", "1",
                      "--angle", "1"], capsys)
    assert code == 0
    code, _, err = run(["sv", "3,1", "--kind", "cyl1", "--angle", "1"], capsys)
    assert code == 2
    assert "--angle" in err


@pytest.mark.parametrize("stratum, zero, angle", [
    ("1,1", "1", "1"), ("1,1", "1", "99"), ("2,0", "2", "1"), ("3,1", "2", "1"),
])
def test_sv_loop_per_angle_refuses_zero_of_degree_below_two(stratum, zero, angle, capsys):
    code, out, err = run(["sv", stratum, "--kind", "loop_per_angle", "--zeros", zero,
                          "--angle", angle, "--format", "json"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: angle index") and "out of range" in err


# -- volume reads -------------------------------------------------------------------


# bench/tracer.py spans volumes.volume at these names, so every volume the
# CLI prints and every ratio the SV layer forms must be read through them
@pytest.mark.parametrize("argv, module, expected", [
    (["volume", "3,1"], cli, "16/42525 * pi^6\n"),
    (["volume", "3,1", "--format", "decimal"], cli,
     "0.36172197759447080523182859725899396547620177423390\n"),
    (["principal", "3", "--verify"], cli, "1/4860 * pi^6\nmatches general pipeline: yes\n"),
    (["sv", "3,1", "--kind", "cyl1"], siegel_veech,
     "value: 2709/128 * pi^-2\npi exponent: -2\npredictor: 12/5\n"
     "relative deviation: -0.106513390341494\n"),
    (["sv", "1,1", "--kind", "sc2"], siegel_veech,
     "value: 5/8\npi exponent: 0\npredictor: 0\nrelative deviation: n/a\n"),
], ids=["volume-exact", "volume-decimal", "principal-verify", "sv-cyl1", "sv-sc2"])
def test_volume_reads_go_through_the_traced_names(argv, module, expected, capsys, monkeypatch):
    seen_by = {cli: [], siegel_veech: []}
    for mod, seen in seen_by.items():
        def counted(s, *args, read=mod.volume, seen=seen, **kwargs):
            res = read(s, *args, **kwargs)
            seen.append(res.stratum.stripped)
            return res
        monkeypatch.setattr(mod, "volume", counted)
    clear_caches()
    assert run(argv, capsys)[:2] == (0, expected)
    assert seen_by[module]
    # from a cold memo, no stratum reaches the memo by another way
    assert set(volume_cache()) == set(seen_by[cli] + seen_by[siegel_veech])


# -- parse-time bounds on numeric flags -------------------------------------------


@pytest.mark.parametrize("argv", [
    ["volume", "1,1", "--format", "decimal", "--digits", "0"],
    ["volume", "1,1", "--digits", "101"],
    ["table", "--digits", "0"],
    ["sv", "1,1", "--kind", "cyl1", "--format", "decimal", "--digits", "-3"],
    ["volume", "2", "--max-weight", "-1"],
    ["table", "--max-weight", "0"],
    ["table", "--max-size", "-3"],
    ["table", "--max-size", "1", "--format", "json"],
    ["principal", "2", "--verify", "--max-weight", "-5"],
    ["sv", "3,1", "--kind", "loop_per_angle", "--zeros", "1", "--angle", "0"],
])
def test_numeric_flags_checked_before_any_computation(argv, capsys, monkeypatch):
    for name in ("volume", "principal_volume"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli.siegel_veech, "volume", refuse)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "error: argument --" in err


def test_numeric_flag_bounds_are_inclusive(capsys):
    code, out, _ = run(["volume", "2", "--format", "decimal", "--digits", "1"], capsys)
    assert (code, out) == (0, "0.8\n")
    code, out, _ = run(["volume", "2", "--format", "decimal", "--digits", "100"], capsys)
    assert code == 0 and len(out.strip()) == 102
    clear_caches()  # the weight bound applies to fresh computations only
    code, _, _ = run(["volume", "1,1", "--max-weight", "1"], capsys)
    assert code == 3
    code, _, _ = run(["volume", "1,1", "--max-weight", "4"], capsys)
    assert code == 0


# -- cache file ---------------------------------------------------------------------


def cache_entry(key, num, den, pi_exp):
    """A cache record in the layout save_cache writes, checksum included."""
    crc = binascii.crc32(f"{key}|{num}|{den}|{pi_exp}".encode())
    return {"num": num, "den": den, "pi_exp": pi_exp, "crc32": crc}


def write_cache(path, entries, version=2):
    path.write_text(json.dumps({"version": version, "entries": entries}))


def test_cache_round_trip(tmp_path, capsys):
    path = tmp_path / "vols.json"
    clear_caches()
    code, _, _ = run(["volume", "2", "--cache", str(path)], capsys)
    assert code == 0
    first = path.read_bytes()
    data = json.loads(first)
    assert data["version"] == 2
    assert data["entries"]["2"] == cache_entry("2", "1", "120", 4)
    assert first.endswith(b"\n")

    clear_caches()
    code, _, _ = run(["volume", "2", "--cache", str(path)], capsys)
    assert code == 0
    assert path.read_bytes() == first


def test_warm_run_leaves_cache_untouched(tmp_path, capsys):
    path = tmp_path / "c.json"
    clear_caches()
    code, _, _ = run(["volume", "1,1", "--cache", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text())["entries"]["1,1"]["den"] == "135"
    # backdate the file so any rewrite shows in its mtime
    os.utime(path, ns=(10**18, 10**18))
    before = path.read_bytes()
    clear_caches()
    code, out, _ = run(["volume", "1,1", "--cache", str(path)], capsys)
    assert code == 0
    assert out == "1/135 * pi^4\n"
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == 10**18


def test_failed_save_keeps_old_cache(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.json"
    clear_caches()
    code, _, _ = run(["volume", "2", "--cache", str(path)], capsys)
    assert code == 0
    before = path.read_bytes()
    run(["volume", "1,1"], capsys)  # the memo now holds an entry the file lacks

    def boom(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(cli.json, "dump", boom)
    with pytest.raises(RuntimeError):
        cli.save_cache(str(path))
    assert path.read_bytes() == before
    # no temporary file is left; the lock sidecar stays by design
    assert sorted(os.listdir(tmp_path)) == ["c.json", "c.json.lock"]
    monkeypatch.undo()
    cli.save_cache(str(path))
    assert set(json.loads(path.read_text())["entries"]) == {"1,1", "2"}
    assert sorted(os.listdir(tmp_path)) == ["c.json", "c.json.lock"]


def test_unwritable_cache_path_exits_2(tmp_path, capsys):
    # the value is printed, then the save fails on the missing directory
    path = tmp_path / "missing" / "c.json"
    clear_caches()
    code, out, err = run(["volume", "1,1", "--cache", str(path)], capsys)
    assert (code, out) == (2, "1/135 * pi^4\n")
    assert f"cannot write cache {path}" in err
    code, _, err = run(["table", "--max-size", "4", "--cache", str(path)], capsys)
    assert code == 2
    assert str(path) in err
    assert not (tmp_path / "missing").exists()


def test_failed_replace_raises_cache_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.json"
    clear_caches()
    run(["volume", "1,1"], capsys)

    def refuse(*args):
        raise PermissionError("read-only")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(cli.CacheError, match="cannot write cache"):
        cli.save_cache(str(path))
    assert sorted(os.listdir(tmp_path)) == ["c.json.lock"]


def test_save_merges_disjoint_memos(tmp_path, capsys):
    # two runs with disjoint new entries, saving to one path: both stay
    path = tmp_path / "c.json"
    clear_caches()
    volume(Stratum([2]))
    cli.save_cache(str(path))
    clear_caches()
    volume(Stratum([1, 1]))
    cli.save_cache(str(path))
    assert (2,) not in volume_cache()  # the file's entries are not published
    assert set(json.loads(path.read_text())["entries"]) == {"1,1", "2"}
    clear_caches()
    assert cli.load_cache(str(path)) == {(1, 1), (2,)}
    code, out, _ = run(["volume", "4", "--cache", str(path)], capsys)
    assert (code, out) == (0, "61/108864 * pi^6\n")
    assert set(json.loads(path.read_text())["entries"]) == {"1,1", "2", "4"}


def test_save_waits_for_the_lock_and_merges(tmp_path):
    # a save that starts while another run holds the lock reads the file
    # that run leaves, so neither run drops the other's entry
    path = tmp_path / "c.json"
    clear_caches()
    volume(Stratum([1, 1]))
    with open(f"{path}.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        saver = threading.Thread(target=cli.save_cache, args=(str(path),))
        saver.start()
        saver.join(0.3)
        assert saver.is_alive()
        assert not path.exists()
        write_cache(path, {"2": cache_entry("2", "1", "120", 4)})
    saver.join(60)
    assert not saver.is_alive()
    assert set(json.loads(path.read_text())["entries"]) == {"1,1", "2"}


def test_warm_volume_builds_only_the_value_it_reads(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.json"
    clear_caches()
    code, _, _ = run(["table", "--max-size", "8", "--max-weight", "16", "--cache", str(path)],
                     capsys)
    assert code == 0
    assert len(json.loads(path.read_text())["entries"]) == 40
    built = []
    build = cli._cache_value

    def spy(*rec):
        built.append(rec)
        return build(*rec)

    monkeypatch.setattr(cli, "_cache_value", spy)
    monkeypatch.setattr(volumes, "c_value", refuse)
    clear_caches()
    code, out, _ = run(["volume", "1,1", "--cache", str(path)], capsys)
    assert (code, out) == (0, "1/135 * pi^4\n")
    assert built == [("1", "135", 4)]
    assert set(volume_cache()) == {(1, 1)}
    volume(Stratum([1, 1]))  # the memo holds the value: nothing is built again
    assert built == [("1", "135", 4)]
    assert len(volumes.held_volumes()) == 40  # calls the 39 unread builders
    assert len(built) == 40
    assert set(volume_cache()) == {(1, 1)}  # without publishing their values
    clear_caches()  # the unread builders go with the memo
    assert volumes.held_volumes() == {}


def test_load_replaces_a_value_the_memo_held(tmp_path):
    # the file's value wins over the memo's, as when load published it all
    path = tmp_path / "c.json"
    write_cache(path, {"2": cache_entry("2", "1", "7", 4)})
    clear_caches()
    assert volume(Stratum([2])).value == PiValue(Fraction(1, 120), 4)
    assert cli.load_cache(str(path)) == {(2,)}
    assert (2,) not in volume_cache()
    assert volume(Stratum([2])).value == PiValue(Fraction(1, 7), 4)


def test_entry_out_of_lowest_terms_reads_and_saves_reduced(tmp_path, capsys):
    path = tmp_path / "c.json"
    write_cache(path, {"1,1": cache_entry("1,1", "2", "270", 4)})
    reduced = {"1,1": cache_entry("1,1", "1", "135", 4)}
    clear_caches()
    cli.load_cache(str(path))
    cli.save_cache(str(path))  # the entry unread: saving builds it
    assert json.loads(path.read_text())["entries"] == reduced
    write_cache(path, {"1,1": cache_entry("1,1", "2", "270", 4)})
    clear_caches()
    code, out, _ = run(["volume", "1,1", "--cache", str(path)], capsys)
    assert (code, out) == (0, "1/135 * pi^4\n")
    cli.save_cache(str(path))
    assert json.loads(path.read_text())["entries"] == reduced


def test_save_keeps_loaded_entries_not_read(tmp_path):
    # a save to another path writes the entries loaded from the first one,
    # read or not, without publishing the unread ones
    src, dst = tmp_path / "a.json", tmp_path / "b.json"
    write_cache(src, {"2": cache_entry("2", "1", "120", 4),
                      "4": cache_entry("4", "61", "108864", 6)})
    clear_caches()
    cli.load_cache(str(src))
    volume(Stratum([4]))
    volume(Stratum([1, 1]))
    cli.save_cache(str(dst))
    assert set(json.loads(dst.read_text())["entries"]) == {"1,1", "2", "4"}
    assert set(volume_cache()) == {(1, 1), (4,)}


def test_first_read_of_a_loaded_entry_from_threads(tmp_path):
    # every thread gets the file's value: max_weight=1 refuses to compute
    # it, so a thread that found neither the builder nor the value raises
    path = tmp_path / "c.json"
    write_cache(path, {"3,1": cache_entry("3,1", "16", "42525", 6)})
    expected = PiValue(Fraction(16, 42525), 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            clear_caches()
            cli.load_cache(str(path))
            barrier = threading.Barrier(8)
            values, errors = [], []

            def read():
                barrier.wait()
                try:
                    values.append(volume(Stratum([3, 1]), max_weight=1).value)
                except Exception as exc:  # collected, so the test reports it
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert values == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def test_save_rechecks_the_file(tmp_path, capsys, monkeypatch):
    # a file that turns bad between load and save exits 2 and is kept
    path = tmp_path / "c.json"
    clear_caches()
    load = cli.load_cache

    def load_then_tamper(p):
        keys = load(p)
        write_cache(path, {"2": cache_entry("2", "1", "120", 6)})
        return keys

    monkeypatch.setattr(cli, "load_cache", load_then_tamper)
    code, out, err = run(["volume", "1,1", "--cache", str(path)], capsys)
    assert code == 2
    assert "pi-exponent" in err
    assert json.loads(path.read_text())["entries"]["2"]["pi_exp"] == 6


def test_cache_keys_sorted(tmp_path, capsys):
    path = tmp_path / "vols.json"
    clear_caches()
    run(["volume", "2", "--cache", str(path)], capsys)
    run(["volume", "1,1", "--cache", str(path)], capsys)
    text = path.read_text()
    assert text.index('"1,1"') < text.index('"2"')


def test_cache_corrupt_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(["volume", "2", "--cache", str(path)], capsys)
    assert code == 2
    assert "cache" in err


def test_cache_bad_exponent_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    write_cache(path, {"2": cache_entry("2", "1", "120", 6)})
    code, _, err = run(["volume", "2", "--cache", str(path)], capsys)
    assert code == 2
    assert "pi-exponent" in err


@pytest.mark.parametrize("key, num, fmt", [
    ("4000000", "1", "decimal"),
    ("4000000", "1", "json"),
    # the value is in range, its quotient by the prediction 4/2000001 is not
    ("2000000", "1" + "0" * 5698, "json"),
], ids=["decimal", "json", "json-quotient"])
def test_value_out_of_decimal_range_exits_2(key, num, fmt, tmp_path, capsys):
    # a hand-made entry with a recomputed checksum; exact output still prints
    path = tmp_path / "c.json"
    pi_exp = int(key) + 2
    write_cache(path, {key: cache_entry(key, num, "3", pi_exp)})
    clear_caches()
    code, out, err = run(["volume", key, "--cache", str(path), "--format", fmt], capsys)
    assert (code, out) == (2, "")
    assert "out of decimal range" in err
    code, out, _ = run(["volume", key, "--cache", str(path)], capsys)
    assert (code, out) == (0, f"{num}/3 * pi^{pi_exp}\n")


def test_cache_rejected_late_leaves_memo_unchanged(tmp_path):
    # a valid "1,1" before a mis-graded "2": the file is refused as a whole
    path = tmp_path / "late.json"
    write_cache(path, {"1,1": cache_entry("1,1", "1", "135", 4),
                       "2": cache_entry("2", "1", "120", 6)})
    clear_caches()
    volume(Stratum([4]))
    before = dict(volume_cache())
    with pytest.raises(cli.CacheError, match="pi-exponent"):
        cli.load_cache(str(path))
    assert volume_cache() == before
    assert (1, 1) not in volume_cache()
    assert volumes.held_volumes() == before  # no builder was handed over


@pytest.mark.parametrize("key, rec", [
    # odd degree sum: formerly a bare ValueError from the pi-exponent check
    ("1", ("1", "3", 3)),
    # valid stratum, but not the canonical spelling "3,1" of its key
    ("1,3", ("16", "42525", 6)),
    ("0,1,1", ("1", "135", 4)),
    (" 2", ("1", "120", 4)),
    ("2,-2", ("1", "120", 4)),
    # int() reads these as 2 and 11
    ("+2", ("1", "120", 4)),
    ("1_1", ("1", "1", 13)),
])
def test_cache_non_canonical_key_rejected(key, rec, tmp_path, capsys):
    path = tmp_path / "keys.json"
    write_cache(path, {key: cache_entry(key, *rec)})
    before = path.read_bytes()
    clear_caches()
    with pytest.raises(cli.CacheError):
        cli.load_cache(str(path))
    clear_caches()
    code, out, err = run(["volume", "3,1", "--cache", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cache" in err
    assert path.read_bytes() == before  # no second entry appended under "3,1"


def test_cache_bad_version_rejected(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": 99, "entries": {}}))
    code, _, err = run(["volume", "2", "--cache", str(path)], capsys)
    assert code == 2


def test_cache_version_one_rejected(tmp_path, capsys):
    # a file as format 1 wrote it, without checksums: rejected, not rewritten
    path = tmp_path / "v1.json"
    write_cache(path, {"2": {"num": "1", "den": "120", "pi_exp": 4}}, version=1)
    before = path.read_bytes()
    clear_caches()
    code, out, err = run(["volume", "2", "--cache", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "unsupported version 1" in err and "delete it" in err
    assert path.read_bytes() == before


VALID_2 = cache_entry("2", "1", "120", 4)


MALFORMED, BAD_CRC = "malformed cache entry", "fails its checksum"


def entries(rec):
    return {"version": 2, "entries": {"2": rec}}


# Each payload breaks one rule of the layout save_cache writes; where a
# record carries a checksum, it is the right one for the record's fields.
@pytest.mark.parametrize("payload, reason", [
    pytest.param([], "not a JSON object", id="top-level-array"),
    pytest.param({"version": 2, "entries": []}, "no entries object", id="entries-array"),
    pytest.param({"version": 2}, "no entries object", id="entries-missing"),
    pytest.param(entries(["1", "120", 4]), MALFORMED, id="record-array"),
    pytest.param(entries("1/120"), MALFORMED, id="record-string"),
    pytest.param(entries(cache_entry("2", 1.5, "120", 4)), MALFORMED, id="num-float"),
    pytest.param(entries(cache_entry("2", 1, "120", 4)), MALFORMED, id="num-int"),
    pytest.param(entries(cache_entry("2", "-1", "120", 4)), MALFORMED, id="num-negative"),
    pytest.param(entries(cache_entry("2", "0", "120", 4)), MALFORMED, id="num-zero"),
    pytest.param(entries(cache_entry("2", "1", "0", 4)), MALFORMED, id="den-zero"),
    # Arabic-Indic digits, which int() reads as 1 and 120
    pytest.param(entries(cache_entry("2", "\u0661", "\u0661\u0662\u0660", 4)), MALFORMED,
                 id="num-den-non-ascii-digits"),
    pytest.param(entries(cache_entry("2", "1", "120", 4.9)), MALFORMED, id="pi-exp-float"),
    pytest.param(entries(cache_entry("2", "1", "120", "4")), MALFORMED, id="pi-exp-string"),
    pytest.param(entries(cache_entry("2", "1", "120", True)), MALFORMED, id="pi-exp-bool"),
    pytest.param(entries({k: v for k, v in VALID_2.items() if k != "crc32"}), BAD_CRC,
                 id="checksum-missing"),
    pytest.param(entries(dict(VALID_2, crc32=VALID_2["crc32"] ^ 1)), BAD_CRC, id="checksum-wrong"),
    pytest.param(entries(dict(VALID_2, crc32=str(VALID_2["crc32"]))), BAD_CRC,
                 id="checksum-string"),
    # a hand edit that keeps the grading: H(2) = 1/7 * pi^4 under the old checksum
    pytest.param(entries(dict(VALID_2, den="7")), BAD_CRC, id="value-edited"),
])
def test_cache_malformed_layout_rejected(payload, reason, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    before = path.read_bytes()
    clear_caches()
    with pytest.raises(cli.CacheError, match=reason):
        cli.load_cache(str(path))
    clear_caches()
    code, out, err = run(["volume", "2", "--cache", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and reason in err
    assert path.read_bytes() == before


def stratum_key_oracle(key):
    """The key check load_cache made before it validated keys itself."""
    try:
        degrees = tuple(int(t) for t in key.split(",")) if key else ()
        return Stratum(degrees).key == key
    except ValueError:  # InvalidStratumError is a ValueError
        return False


def candidate_keys():
    keys = {"01", "+2", "2,", ",2", "1_1", " 2", "2,-2", "1,3", "0,1,1", "", ",", "2,,2",
            "-0", "0", "2 ", "\u0662", "1,1,", "4,2,2", "3,1,0"}
    for n in range(9):
        for m in partitions_of_size(n):
            canonical = ",".join(map(str, m))
            keys.add(canonical)
            keys.update(" " + canonical, canonical + ",", "0" + canonical, "+" + canonical,
                        canonical + ",0", canonical.replace(",", ", "))
            if len(m) <= 4:
                keys.update(",".join(map(str, p)) for p in itertools.permutations(m))
    return sorted(keys)


def test_key_check_matches_stratum_key_oracle():
    accepted = 0
    for key in candidate_keys():
        try:
            degrees = cli._key_degrees(key)
        except ValueError:
            degrees = None
        assert (degrees is not None) == stratum_key_oracle(key), key
        if degrees is not None:
            assert degrees == Stratum(degrees).degrees
            accepted += 1
    # the canonical keys with even total degree <= 8, the torus "" among them
    assert accepted == sum(len(partitions_of_size(n)) for n in range(0, 9, 2))


def test_cache_flag_alone_names_the_cache(tmp_path, capsys, monkeypatch):
    # MV_CACHE is not read: its corrupt file neither stops the run nor is
    # rewritten, and the flag's file is written
    env_path = tmp_path / "env.json"
    env_path.write_text("{not json")
    flag_path = tmp_path / "flag.json"
    monkeypatch.setenv("MV_CACHE", str(env_path))
    clear_caches()
    code, out, err = run(["volume", "2", "--cache", str(flag_path)], capsys)
    assert (code, out, err) == (0, "1/120 * pi^4\n", "")
    assert env_path.read_text() == "{not json"
    assert set(json.loads(flag_path.read_text())["entries"]) == {"2"}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int-to-str digits")
def test_large_values_under_a_low_int_digit_limit(tmp_path, capsys, monkeypatch):
    # H(298) has a 1,062-digit numerator and a 1,213-digit denominator,
    # which str() and int() refuse at a limit of 640 digits: exact and json
    # output, the cache file and its reload must not depend on that limit
    argv = ["volume", "298", "--max-weight", "300"]
    expected, written = {}, {}
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 640):
            sys.set_int_max_str_digits(digits)
            for fmt in ("exact", "json"):
                clear_caches()
                expected[digits, fmt] = run([*argv, "--format", fmt], capsys)[:2]
            path = tmp_path / f"cache{digits}.json"
            clear_caches()
            assert run([*argv, "--cache", str(path)], capsys)[:2] == expected[digits, "exact"]
            written[digits] = path.read_bytes()
        assert expected[limit, "exact"][0] == 0 and expected[limit, "json"][0] == 0
        assert {fmt: expected[640, fmt] for fmt in ("exact", "json")} == {
            fmt: expected[limit, fmt] for fmt in ("exact", "json")}
        assert written[640] == written[limit]
        # the reload at the low limit serves the volume: nothing is computed
        monkeypatch.setattr(volumes, "c_value", refuse)
        clear_caches()
        code, out = run([*argv, "--format", "json", "--cache", str(path)], capsys)[:2]
        assert (code, out) == expected[limit, "json"]
        assert path.read_bytes() == written[limit]
        # a million digits are refused by their length, before any conversion
        huge = tmp_path / "huge.json"
        write_cache(huge, {"2": cache_entry("2", "9" * 10**6, "1", 4)})
        clear_caches()
        start = time.perf_counter()
        code, out, err = run(["volume", "2", "--cache", str(huge)], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "has too many digits" in err
        # json.load reads an int literal with int(): past the limit it is a
        # cache error as well
        text = json.dumps(entries(VALID_2))
        huge.write_text(text.replace('"pi_exp": 4', '"pi_exp": ' + "9" * 700))
        with pytest.raises(cli.CacheError, match="cannot read cache"):
            cli.load_cache(str(huge))
    finally:
        sys.set_int_max_str_digits(limit)


def test_cache_digit_budget_spans_the_file(tmp_path, capsys):
    # the digit bound holds for the whole file, not for each entry: twenty
    # entries of 99,999 digits each would take seconds to convert, but the
    # second one already passes the budget and nothing past it is converted
    near = "9" * (cli.CACHE_MAX_DIGITS - 1)
    path = tmp_path / "many.json"
    write_cache(path, {str(d): cache_entry(str(d), near, "1", d + 2) for d in range(2, 42, 2)})
    clear_caches()
    start = time.perf_counter()
    code, out, err = run(["volume", "2", "--cache", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "has too many digits" in err and "at entry '4'" in err


# -- selftest verb -----------------------------------------------------------------


def test_selftest_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_selftest",
        lambda: (False, ["FAIL criterion  1 (stub): boom"]),
    )
    code, out, _ = run(["selftest"], capsys)
    assert code == 4
    assert "FAILURES present" in out


def test_selftest_pass_output_shape(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_selftest",
        lambda: (True, ["PASS criterion  1 (stub): fine"]),
    )
    code, out, _ = run(["selftest"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "selftest: all criteria passed"


def test_selftest_opens_no_cache(tmp_path, capsys, monkeypatch):
    # a corrupt MV_CACHE neither stops selftest nor is rewritten by it
    monkeypatch.setattr(cli, "run_selftest", lambda: (True, ["PASS criterion  1 (stub): fine"]))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    before = bad.read_bytes()
    monkeypatch.setenv("MV_CACHE", str(bad))
    code, out, err = run(["selftest"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "selftest: all criteria passed"
    assert bad.read_bytes() == before
    # nor does it create a cache where none exists, though it leaves volumes in the memo
    volume(Stratum([2]))
    missing = tmp_path / "missing.json"
    monkeypatch.setenv("MV_CACHE", str(missing))
    assert run(["selftest"], capsys)[0] == 0
    assert sorted(os.listdir(tmp_path)) == ["bad.json"]


# -- parser reuse -------------------------------------------------------------------


def test_parser_reused_after_parse_error(capsys):
    code, out, err = run(["volume"], capsys)  # missing stratum
    assert code == 2
    assert out == ""
    assert "usage: mvvol volume" in err
    parser = cli._PARSER
    code, out, _ = run(["volume", "2"], capsys)
    assert code == 0
    assert out == "1/120 * pi^4\n"
    code, out, _ = run(["principal", "3", "--verify"], capsys)
    assert code == 0
    assert out.splitlines() == ["1/4860 * pi^6", "matches general pipeline: yes"]
    assert cli._PARSER is parser


# -- entry point --------------------------------------------------------------------


def test_entry_raises_system_exit(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["mvvol", "volume", "2"])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == 0
    capsys.readouterr()
