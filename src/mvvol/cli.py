r"""Command line front end.

Verbs:
  volume STRATUM     exact volume of one stratum
  principal G        closed-form principal-stratum volume at genus G
                     (--verify: compare with the general pipeline);
                     --max-weight bounds 4G - 4, the weight of H(1^(2G-2))
  table              volumes/predictions for all strata up to a total degree
                     (--max-size)
  sv STRATUM         Siegel-Veech style constants from volume ratios
                     (--kind, --zeros, --angle)
  selftest           run the built-in oracle suite

Every verb but selftest takes --format exact|decimal|json, --digits,
--max-weight and --cache.  selftest takes no options and opens no cache,
whatever MV_CACHE says.  STRATUM is comma-separated nonnegative zero
degrees, optionally wrapped as H(...), e.g. "2,1,1" or "H(3,1)".  Exit
codes: 0 success, 1 principal --verify mismatch, 2 invalid input,
3 infeasible size (raise --max-weight to force), 4 selftest failure.

A JSON volume cache can be kept across runs with --cache PATH; the
MV_CACHE environment variable overrides the flag.  The file is format 2:
{"version": 2, "entries": {key: {"num", "den", "pi_exp", "crc32"}}}, with
the canonical stratum key, num and den as digit strings, and crc32 the
binascii.crc32 of "key|num|den|pi_exp".  On load every key, field, checksum
and the pi^(2g) grading are checked on the text, and the squared digit
counts of all num and den may sum to at most CACHE_MAX_DIGITS**2; a file
that fails any check, or of another version, exits 2 and publishes
nothing.  An entry's digits are converted to its value only when the run
reads it.  The checksum catches corruption and hand edits, not an edit
that recomputes it.  A run that computed new volumes merges them into the
file under an exclusive lock on PATH.lock, so concurrent runs keep each
other's entries; the file is checked again then, and one that fails or
cannot be written (a missing directory, say) exits 2 as well.
"""

from __future__ import annotations

import argparse
import binascii
import fcntl
import json
import operator
import os
import re
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from functools import partial
from typing import Optional

from . import siegel_veech, volumes
from .combinatorics import partitions_of_size
from .exact_arith import PiValue, int_str
from .selftest import run_selftest
from .volumes import (
    InfeasibleSizeError,
    InvalidStratumError,
    Stratum,
    _relative_error,
    _volume_value,
    principal_volume,
    volume,
)

__all__ = ["main", "entry", "parse_stratum", "load_cache", "save_cache", "CacheError"]

CACHE_VERSION = 2
# Converting n digits costs time quadratic in n: the num and den strings of
# one cache file may have squared lengths summing to at most
# CACHE_MAX_DIGITS**2, so a save, which converts every entry, spends under
# half a second on it (H(598) has 2,959 digits).
CACHE_MAX_DIGITS = 100_000


class CacheError(ValueError):
    """Cache file is unreadable or inconsistent with the pi^(2g) grading."""


def parse_stratum(text: str) -> Stratum:
    s = text.strip()
    if s.upper().startswith("H(") and s.endswith(")"):
        s = s[2:-1]
    s = s.strip()
    if not s:
        return Stratum([])
    try:
        degrees = [int(tok) for tok in s.split(",")]
    except ValueError as exc:
        raise InvalidStratumError(f"cannot parse stratum {text!r}") from exc
    return Stratum(degrees)


# -- cache file ------------------------------------------------------------


# positive ASCII integers without sign or leading zero, joined by commas;
# the empty key is the torus
_KEY = re.compile(r"(?:[1-9][0-9]*(?:,[1-9][0-9]*)*)?")


def _key_degrees(key: str) -> tuple[int, ...]:
    """Degrees of a cache key spelled as Stratum.key spells it: the key
    pattern, decreasing degrees and an even sum; ValueError otherwise."""
    if not _KEY.fullmatch(key):
        raise ValueError(f"not a canonical stratum key: {key!r}")
    degrees = tuple(map(int, key.split(","))) if key else ()
    if sum(degrees) % 2 or not all(map(operator.ge, degrees, degrees[1:])):
        raise ValueError(f"not a canonical stratum key: {key!r}")
    return degrees


def _is_digits(text: object) -> bool:
    return isinstance(text, str) and text.isascii() and text.isdigit()


def _checksum(key: str, num: str, den: str, pi_exp: int) -> int:
    return binascii.crc32(f"{key}|{num}|{den}|{pi_exp}".encode())


def _read_cache(path: str) -> dict[tuple[int, ...], tuple[str, str, int]]:
    """The entries of a cache file written by save_cache, as checked
    (num, den, pi_exp) records, none converted and none published; empty if
    the file does not exist yet.  Anything save_cache would not have written
    raises CacheError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an int literal too long
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CacheError(f"cache {path} is not a JSON object")
    if data.get("version") != CACHE_VERSION:
        raise CacheError(f"cache {path} has unsupported version {data.get('version')!r}; "
                         "delete it to rebuild")
    entries = data.get("entries")
    if not isinstance(entries, dict):
        raise CacheError(f"cache {path} has no entries object")
    records: dict[tuple[int, ...], tuple[str, str, int]] = {}
    budget = CACHE_MAX_DIGITS**2
    for key, rec in entries.items():
        try:
            degrees = _key_degrees(key)
        except ValueError as exc:
            raise CacheError(
                f"cache entry {key!r} in {path} is not a canonical stratum key"
            ) from exc
        if not isinstance(rec, dict):
            raise CacheError(f"malformed cache entry {key!r} in {path}")
        num, den, exp = rec.get("num"), rec.get("den"), rec.get("pi_exp")
        if not (_is_digits(num) and _is_digits(den) and type(exp) is int):
            raise CacheError(f"malformed cache entry {key!r} in {path}")
        budget -= len(num) ** 2 + len(den) ** 2
        if budget < 0:
            raise CacheError(f"cache {path} has too many digits, at entry {key!r}")
        crc = rec.get("crc32")
        if type(crc) is not int or crc != _checksum(key, num, den, exp):
            raise CacheError(f"cache entry {key!r} in {path} fails its checksum")
        if not (num.strip("0") and den.strip("0")):
            raise CacheError(f"malformed cache entry {key!r} in {path}")
        if exp != sum(degrees) + 2:
            raise CacheError(
                f"cache entry {key!r} claims pi-exponent {exp}, expected {sum(degrees) + 2}"
            )
        records[degrees] = (num, den, exp)
    return records


def _cache_value(num: str, den: str, pi_exp: int) -> PiValue:
    """The volume a checked cache record spells."""
    # int() refuses more digits than sys.get_int_max_str_digits(); Decimal does not
    return PiValue(Fraction(int(Decimal(num)), int(Decimal(den))), pi_exp)


def load_cache(path: str) -> set[tuple[int, ...]]:
    """Hand the entries of a cache file written by save_cache to the volume
    memo, each converted to its PiValue on its first read (volumes.preload).

    Returns the keys the file holds (none if it does not exist yet).
    Anything save_cache would not have written raises CacheError, and then
    the memo is left as it was: entries are published only once all pass.
    """
    records = _read_cache(path)
    volumes.preload({degrees: partial(_cache_value, *rec) for degrees, rec in records.items()})
    return set(records)


def save_cache(path: str) -> None:
    """Merge the volumes the memo holds into the cache file at path.

    Under an exclusive fcntl lock on the sidecar PATH.lock, the file is read
    again with load_cache's checks (CacheError if it fails them), without
    publishing it to the memo, and the union of its entries and the memo's,
    preloaded ones included, is written atomically (temp file, then
    os.replace).  So concurrent runs keep each other's new entries.  Every
    value is converted and written in lowest terms, which bounds the
    conversion by the file's digit budget.  An OSError raises CacheError.
    """
    try:
        with open(f"{path}.lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            merged = {degrees: _cache_value(*rec) for degrees, rec in _read_cache(path).items()}
            merged.update(volumes.held_volumes())
            entries = {}
            for degrees, value in merged.items():
                key = ",".join(str(d) for d in degrees)
                fields = _exact_fields(value)
                entries[key] = dict(fields, crc32=_checksum(key, **fields))
            payload = {"version": CACHE_VERSION, "entries": entries}
            # write beside the target and rename over it, so a failed dump leaves
            # the old file whole; plain open keeps the umask permissions
            tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.remove(tmp)
                raise
    except OSError as exc:
        raise CacheError(f"cannot write cache {path}: {exc}") from exc


# -- rendering ---------------------------------------------------------------


def _exact_fields(value: PiValue) -> dict:
    """The value q * pi^e as JSON output and the cache file spell it."""
    q, e = value.monomial()
    return {"num": int_str(q.numerator), "den": int_str(q.denominator), "pi_exp": e}


def _shown(value: PiValue, args) -> str:
    """The value as --format exact or decimal renders it."""
    return str(value.to_decimal(args.digits)) if args.format == "decimal" else str(value)


def _volume_record(res) -> dict:
    return {"stratum": res.stratum.key, **_exact_fields(res.value),
            "prediction": str(res.prediction), "relative_error": str(res.relative_error)}


# -- verbs -------------------------------------------------------------------


def _cmd_volume(args) -> int:
    st = parse_stratum(args.stratum)
    if args.format == "json":
        print(json.dumps(_volume_record(volume(st, max_weight=args.max_weight)), sort_keys=True))
    else:
        print(_shown(_volume_value(st, args.max_weight), args))
    return 0


def _cmd_principal(args) -> int:
    if args.genus < 2:
        raise InvalidStratumError("principal stratum needs genus >= 2")
    # the bound of volume on H(1^(2G-2)), also without --verify: the closed
    # form sums over all p(G) partitions of G
    weight = 4 * args.genus - 4
    if weight > args.max_weight:
        raise InfeasibleSizeError(weight, args.max_weight)
    val = principal_volume(args.genus)
    matches: Optional[bool] = None
    if args.verify:
        general = _volume_value(Stratum([1] * (2 * args.genus - 2)), args.max_weight)
        matches = general == val
    if args.format == "json":
        record = {"genus": args.genus, **_exact_fields(val)}
        if matches is not None:
            record["matches_general_pipeline"] = matches
        print(json.dumps(record, sort_keys=True))
    else:
        print(_shown(val, args))
        if matches is not None:
            print(f"matches general pipeline: {'yes' if matches else 'no'}")
    return 0 if matches in (None, True) else 1


def _cmd_table(args) -> int:
    rows = []
    for total in range(2, args.max_size + 1, 2):
        genus_rows = [volume(Stratum(m), max_weight=args.max_weight)
                      for m in partitions_of_size(total)]
        rows.append((total, genus_rows))
    if args.format == "json":
        payload = [_volume_record(res) for _, genus_rows in rows for res in genus_rows]
        print(json.dumps(payload, sort_keys=True))
        return 0
    for total, genus_rows in rows:
        g = total // 2 + 1
        for res in genus_rows:
            print(f"{res.stratum!r}\t{_shown(res.value, args)}\t"
                  f"prediction {res.prediction}\trel.err {res.relative_error}")
        smallest = min(genus_rows, key=lambda r: abs(r.relative_error))
        largest = max(genus_rows, key=lambda r: abs(r.relative_error))
        expected = (
            smallest.stratum.stripped == tuple([1] * total)
            and largest.stratum.stripped == (total,)
        )
        print(
            f"# g={g}: smallest |rel.err| at {smallest.stratum}, largest at "
            f"{largest.stratum} (principal..minimal ordering: {'yes' if expected else 'no'})"
        )
    return 0


def _parse_zeros(text: Optional[str]) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise InvalidStratumError(f"cannot parse zero indices {text!r}") from exc


def _cmd_sv(args) -> int:
    st = parse_stratum(args.stratum)
    kind = args.kind
    spec = siegel_veech.KINDS[kind]
    if args.zeros is not None and not spec.zeros:
        raise InvalidStratumError(f"--kind {kind} takes no --zeros")
    if args.angle is not None and not spec.angle:
        raise InvalidStratumError(f"--kind {kind} takes no --angle")
    zeros = _parse_zeros(args.zeros)
    if len(zeros) != spec.zeros or (spec.angle and args.angle is None):
        wanted = "--zeros " + ",".join("ij"[:spec.zeros])
        if spec.angle:
            wanted += " and --angle j"
        raise InvalidStratumError(f"--kind {kind} needs {wanted}")
    target = st
    if kind == "sc2":  # sc2_principal takes the genus of a principal stratum
        if st.stripped != tuple([1] * (2 * st.genus - 2)):
            raise InvalidStratumError("--kind sc2 needs a principal stratum 1,...,1")
        target = st.genus
    angle = (args.angle,) if spec.angle else ()
    res = getattr(siegel_veech, spec.func)(target, *zeros, *angle, max_weight=args.max_weight)

    exp = res.pi_exponent
    deviation = (
        "n/a"
        if res.predictor == 0 or res.value.is_zero()
        else str(_relative_error(res.value, res.predictor))
    )
    if args.format == "json":
        record = {
            "kind": res.kind,
            "stratum": ",".join(map(str, res.stratum.degrees)),
            "value": str(res.value),
            "pi_exp": exp,
            "predictor": str(res.predictor),
            "relative_deviation": deviation,
            "multiple_components_possible": res.multiple_components_possible,
        }
        if res.zeros:
            record["zeros"] = list(res.zeros)
        if res.angle is not None:
            record["angle"] = res.angle
        print(json.dumps(record, sort_keys=True))
        return 0
    print(f"value: {_shown(res.value, args)}")
    print(f"pi exponent: {'none (zero value)' if exp is None else exp}")
    print(f"predictor: {res.predictor}")
    print(f"relative deviation: {deviation}")
    if res.multiple_components_possible:
        print("warning: stratum may be disconnected; volumes span all components")
    return 0


def _cmd_selftest(args) -> int:
    ok, lines = run_selftest()
    for line in lines:
        print(line)
    print("selftest: " + ("all criteria passed" if ok else "FAILURES present"))
    return 0 if ok else 4


# -- argument plumbing -------------------------------------------------------


def _int_in(lo: int, hi: Optional[int] = None):
    """argparse type: an int in [lo, hi], checked before any computation."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            bounds = f"between {lo} and {hi}" if hi is not None else f"at least {lo}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvvol",
        description="Exact Masur-Veech volumes of strata of abelian differentials.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("exact", "decimal", "json"), default="exact")
        p.add_argument("--digits", type=_int_in(1, 100), default=50, help="decimal digits (1..100)")
        p.add_argument("--cache", default=None, help="JSON volume cache path")
        p.add_argument("--max-weight", type=_int_in(1), default=volumes.DEFAULT_MAX_WEIGHT,
                       help="feasibility bound on sum of (m_i + 1)")

    p_volume = sub.add_parser("volume", help="volume of one stratum")
    p_volume.add_argument("stratum")
    common(p_volume)
    p_volume.set_defaults(func=_cmd_volume)

    p_principal = sub.add_parser("principal", help="principal-stratum volume by closed form")
    p_principal.add_argument("genus", type=int)
    common(p_principal)
    p_principal.add_argument("--verify", action="store_true",
                             help="cross-check the closed form against the general pipeline")
    p_principal.set_defaults(func=_cmd_principal)

    p_table = sub.add_parser("table", help="volumes for all strata with 2g-2 <= max-size")
    p_table.add_argument("--max-size", type=_int_in(2), default=6,
                         help="largest 2g-2 in the table (at least 2)")
    common(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_sv = sub.add_parser("sv", help="Siegel-Veech constants from volume ratios")
    p_sv.add_argument("stratum")
    p_sv.add_argument(
        "--kind",
        required=True,
        choices=tuple(siegel_veech.KINDS),
    )
    p_sv.add_argument("--zeros", default=None, help="1-based zero indices i or i,j")
    p_sv.add_argument("--angle", type=_int_in(1), default=None)
    common(p_sv)
    p_sv.set_defaults(func=_cmd_sv)

    p_self = sub.add_parser("selftest", help="run the built-in oracle suite")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:  # built on the first call, then reused
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # selftest clears the memo and checks its own strata: no cache is opened
    cache_path = None if args.verb == "selftest" else os.environ.get("MV_CACHE") or args.cache
    try:
        loaded = load_cache(cache_path) if cache_path else set()
        code = args.func(args)
        # rewrite the file only when this run computed a volume it lacks
        if cache_path and not loaded.issuperset(volumes.volume_cache()):
            save_cache(cache_path)
        return code
    except InfeasibleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # InvalidStratumError and CacheError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
