#!/usr/bin/env python3
"""The golden table: every registered preset and every shipped spec, pinned.

    tools/golden.py check <build-dir> [name ...]   # exit 1 on any mismatch
    tools/golden.py regen <build-dir>              # rewrite the table

tests/golden/scenarios.tsv holds one row per preset of
`nexit_run --list-scenarios=tsv` and one per `scenarios/*.spec`. A row runs
`<build-dir>/nexit_run` from the repository root with `--scenario=<name>`
(kind `preset`) or `--spec=scenarios/<name>.spec` (kind `spec`) plus the
row's flags, and pins three values of that run:

  digest      the printed outcome digest
  stdout      sha256 of stdout without its `wall-clock` lines and the
              `json record written to` line (the only run-dependent text)
  record      sha256 of the --json record without its `wall_ms` entries

(both hashes as their first 16 hex digits).

The digest alone is not enough: several presets fold only part of what they
print into it, so equal digests can hide different figures. `check` also
fails when a preset or spec has no row, or a row names neither. `regen`
recomputes every hash and keeps each row's flags and objective; a new
preset or spec gets the default flags and its description as a placeholder
objective. Rows change only through `regen`.
"""

import hashlib
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "golden" / "scenarios.tsv"
COLUMNS = ["kind", "name", "flags", "digest", "stdout", "record", "objective"]
DEFAULT_FLAGS = {"preset": "--isps=12 --pairs=4 --threads=1", "spec": "-"}

# A wall_ms entry on a line of its own (top-level metrics) or inline in a
# one-line sweep point, where it is never the last key.
WALL_MS = re.compile(r'^[ ]*"wall_ms": [-+0-9.eE]+,?\n|"wall_ms": [-+0-9.eE]+, ',
                     re.M)


def sha(data):
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def stdout_text(out):
    keep = [line for line in out.splitlines(keepends=True)
            if "wall-clock" not in line
            and not line.startswith("json record written to ")]
    return "".join(keep)


def record_text(text):
    json.loads(text)  # a record that does not parse is a failure, not a hash
    stripped = WALL_MS.sub("", text)
    if '"wall_ms"' in stripped:
        raise ValueError("a wall_ms entry in an unexpected layout")
    return stripped


def registered(build):
    """{(kind, name): description} of every preset and shipped spec."""
    out = subprocess.run([str(Path(build) / "nexit_run"),
                          "--list-scenarios=tsv"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    found = {}
    for line in out.splitlines():
        name, _record, desc = line.split("\t")
        found[("preset", name)] = desc
    for path in sorted((ROOT / "scenarios").glob("*.spec")):
        first = path.read_text().splitlines()[0].lstrip("# ")
        found[("spec", path.stem)] = first
    return found


def read_table(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != len(COLUMNS):
            raise ValueError(f"{path}: {len(fields)} columns, want "
                             f"{len(COLUMNS)}: {line!r}")
        rows.append(dict(zip(COLUMNS, fields)))
    return rows


def write_table(path, rows):
    lines = ["# Golden outcomes of every preset and shipped spec. Edit "
             "flags/objective by hand; the hash columns only via "
             "`tools/golden.py regen <build-dir>`.",
             "# " + "\t".join(COLUMNS)]
    lines += ["\t".join(row[c] for c in COLUMNS) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def run_row(build, row):
    """The row's digest/stdout/record values measured from `build`."""
    selector = (f"--scenario={row['name']}" if row["kind"] == "preset"
                else f"--spec=scenarios/{row['name']}.spec")
    flags = [] if row["flags"] == "-" else row["flags"].split()
    with tempfile.TemporaryDirectory() as tmp:
        record = Path(tmp) / "record.json"
        proc = subprocess.run([str(Path(build) / "nexit_run"), selector,
                               *flags, f"--json={record}"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        digest = re.findall(r"^outcome digest: ([0-9a-f]{16})$", proc.stdout,
                            re.M)
        if len(digest) != 1:
            raise RuntimeError("no single `outcome digest:` line in stdout")
        return {"digest": digest[0], "stdout": sha(stdout_text(proc.stdout)),
                "record": sha(record_text(record.read_text()))}


def check(build, table=TABLE, names=()):
    """Every failure as one line; empty when the table holds."""
    rows = read_table(table)
    errors = []
    found = registered(build)
    have = {(r["kind"], r["name"]) for r in rows}
    for key in sorted(found.keys() - have):
        errors.append(f"{key[0]} {key[1]}: no row in {table}")
    for key in sorted(have - found.keys()):
        errors.append(f"{key[0]} {key[1]}: row names no registered "
                      f"{'preset' if key[0] == 'preset' else 'scenarios/*.spec'}")
    if len(have) != len(rows):
        errors.append(f"{table}: duplicate rows")
    for name in sorted(set(names) - {r["name"] for r in rows}):
        errors.append(f"{name}: no row of that name")
    for row in rows:
        if names and row["name"] not in names:
            continue
        if (row["kind"], row["name"]) not in found:
            continue
        label = f"{row['kind']} {row['name']} {row['flags']}"
        try:
            got = run_row(build, row)
        except (OSError, RuntimeError, ValueError) as e:
            errors.append(f"{label}: {e}")
            continue
        for column in ("digest", "stdout", "record"):
            if got[column] != row[column]:
                errors.append(f"{label}: {column} {got[column]}, "
                              f"table pins {row[column]}")
    return errors


def regen(build, table=TABLE):
    found = registered(build)
    old = {}
    if Path(table).exists():
        old = {(r["kind"], r["name"]): r for r in read_table(table)}
    rows = []
    for key, desc in found.items():
        row = old.get(key) or {"kind": key[0], "name": key[1],
                               "flags": DEFAULT_FLAGS[key[0]],
                               "objective": desc}
        before = {c: row.get(c) for c in ("digest", "stdout", "record")}
        row.update(run_row(build, row))
        if key in old and before != {c: row[c] for c in before}:
            print(f"moved: {key[0]} {key[1]}")
        rows.append(row)
    for key in old.keys() - found.keys():
        print(f"dropped: {key[0]} {key[1]}")
    write_table(table, rows)
    print(f"wrote {len(rows)} rows to {table}")


def main(argv):
    if len(argv) < 3 or argv[1] not in ("check", "regen"):
        sys.exit(__doc__.split("\n\n")[1])
    build = Path(argv[2]).resolve()
    if argv[1] == "regen":
        regen(build)
        return 0
    errors = check(build, names=argv[3:])
    for e in errors:
        print(f"FAIL {e}")
    print(f"{TABLE.relative_to(ROOT)}: "
          f"{'OK' if not errors else f'{len(errors)} failure(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
