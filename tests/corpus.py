"""The output corpus: the sha256 of what each of a fixed list of `wpir`
command lines writes, kept in `corpus.json` beside this file.

Every command runs in process through `wpir.cli.main` with standard output
captured, and must exit 0. Its output is everything it writes to standard
output, as UTF-8. A `curve` given `--baseline-out -` writes its baseline
there too, after the curve.

    python3 tests/corpus.py              # regenerate corpus.json, diff against HEAD
    python3 tests/corpus.py --base REV   # the same, diffing against revision REV

For each command whose hash changed, the script prints how many points
(JSON list items or CSV rows) or lines changed, and the largest |Δ| of each
numeric field. The old outputs come from `src/` of the base revision, run in
a fresh interpreter. A hash that moves is updated in the same change that
moves it, with this summary in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"

GRID = range(2, 21)
#: sizes of the CSV, baseline and --points samples: the grid's corners,
#: N = 11 (two-place digits) and a few sizes between
SAMPLE = [(N, K) for N in (2, 3, 5, 11, 20) for K in (2, 3, 7, 20)]
SIM = "simulate --metric {metric} --rho {rho} -N {N} -K {K} --trials 300 --seed 7"


def commands() -> list[str]:
    """Every command line of the corpus, in corpus order."""
    out = [
        f"curve --metric {metric} -N {N} -K {K} --format json"
        for metric in ("maxl", "mi")
        for N in GRID
        for K in GRID
    ]
    for metric in ("maxl", "mi"):
        for N, K in SAMPLE:
            size = f"curve --metric {metric} -N {N} -K {K}"
            out += [
                size,
                f"{size} --baseline-out -",
                f"{size} --format json --baseline-out -",
                f"{size} --points 2 --format json",
                f"{size} --points 20 --format json",
            ]
    for N, K in ((3, 2), (4, 3), (11, 2)):
        out += [f"dump-table -N {N} -K {K} -k {k}" for k in range(1, K + 1)]
    out += [f"verify -N {N} -K {K}" for N, K in ((3, 2), (4, 3))]
    out += [
        SIM.format(metric="maxl", rho=0.2, N=3, K=2),
        SIM.format(metric="maxl", rho=0.2, N=4, K=3),
        SIM.format(metric="maxl", rho=0.2, N=11, K=2),
        SIM.format(metric="maxl", rho=1, N=4, K=3),
        SIM.format(metric="mi", rho=0.3, N=3, K=2),
    ]
    return out


def output(argv: str) -> bytes:
    """What `wpir <argv>` writes to standard output; AssertionError unless it exits 0."""
    from wpir.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split())
    assert code == 0, f"wpir {argv} exited {code}"
    return buf.getvalue().encode()


def digest(argv: str) -> str:
    return hashlib.sha256(output(argv)).hexdigest()


def load() -> dict[str, str]:
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the diff summary


def _leaves(obj, field: str, out: dict) -> None:
    """Collect obj's numbers by field: the dict keys on the path to each,
    joined by '.', with list indices left out."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _leaves(value, f"{field}.{key}" if field else key, out)
    elif isinstance(obj, list):
        for value in obj:
            _leaves(value, field, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out.setdefault(field, []).append(float(obj))
    else:
        out.setdefault(field, []).append(obj)


def _points(text: str) -> list:
    """The output's points: JSON list items or dict fields, CSV rows as
    dicts, or lines. A curve with its baseline is the two curves' points."""
    chunks = []
    decoder = json.JSONDecoder()
    rest = text.lstrip()
    try:
        while rest:
            obj, end = decoder.raw_decode(rest)
            chunks.append(obj)
            rest = rest[end:].lstrip()
    except ValueError:
        chunks = None
    if chunks is not None:
        return [
            item
            for obj in chunks
            for item in (obj if isinstance(obj, list) else [{k: v} for k, v in obj.items()])
        ]
    lines = text.splitlines()
    if not (lines and lines[0].startswith("rho_bits,")):
        return lines
    # CSV rows under the JSON field names, the p_w columns as p_weights
    rows = []
    for row in csv.reader(lines):
        if row[0] != "rho_bits":
            rho, download, p_direct, *p_weights = map(float, row)
            rows.append(
                {"rho_bits": rho, "download_cost": download, "p_direct": p_direct,
                 "p_weights": p_weights}
            )
    return rows


def summary(argv: str, old: str, new: str) -> str:
    """One line: how many points changed and the largest |Δ| per field."""
    a, b = _points(old), _points(new)
    changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    line = f"{argv}: {changed} of {len(b)} points changed"
    if len(a) != len(b):
        line += f" (was {len(a)} points)"
    fields_a: dict = {}
    fields_b: dict = {}
    for x, y in zip(a, b):
        _leaves(x, "", fields_a)
        _leaves(y, "", fields_b)
    deltas = []
    for field in sorted(set(fields_a) | set(fields_b)):
        va, vb = fields_a.get(field, []), fields_b.get(field, [])
        if len(va) != len(vb):
            deltas.append(f"{field or 'line'} reshaped")
        elif any(x != y for x, y in zip(va, vb)):
            nums = [(x, y) for x, y in zip(va, vb) if type(x) is float and type(y) is float]
            if len(nums) == len(va):
                deltas.append(f"{field} {max(abs(x - y) for x, y in nums):.3g}")
            else:
                deltas.append(f"{field or 'line'} text")
    if deltas:
        line += "; max |Δ|: " + ", ".join(deltas)
    return line


def _base_outputs(rev: str, argvs: list[str]) -> dict[str, str]:
    """The outputs of `argvs` under `src/` of git revision `rev`."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", rev, "src"], cwd=HERE.parent, capture_output=True, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([f"{tmp}/src", str(HERE)])}
        proc = subprocess.run(
            [sys.executable, "-c", _PRINT_OUTPUTS],
            input=json.dumps(argvs), capture_output=True, text=True, env=env, check=True,
        )
    return json.loads(proc.stdout)


#: reads a JSON list of command lines, writes a JSON map of their outputs
_PRINT_OUTPUTS = """
import json, sys
from corpus import output
json.dump({argv: output(argv).decode() for argv in json.load(sys.stdin)}, sys.stdout)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate tests/corpus.json.")
    parser.add_argument("--base", default="HEAD", help="git revision to diff against")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    old = load() if CORPUS.exists() else {}
    new = {argv: digest(argv) for argv in commands()}
    changed = [a for a in new if a in old and old[a] != new[a]]
    if old:
        for a in new.keys() - old.keys():
            print(f"{a}: added")
        for a in old.keys() - new.keys():
            print(f"{a}: dropped")
    if changed:
        before = _base_outputs(args.base, changed)
        for a in changed:
            if hashlib.sha256(before[a].encode()).hexdigest() != old[a]:
                print(f"{a}: the corpus does not hold {args.base}'s output", file=sys.stderr)
            print(summary(a, before[a], output(a).decode()))
    print(f"{len(changed)} of {len(new)} commands changed")
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
