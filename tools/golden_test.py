#!/usr/bin/env python3
"""Tests of tools/golden.py: the golden check must fail when a preset or
spec has no row, when a row names neither, and when one byte of a run's
stdout or JSON record changes.

    tools/golden_test.py <build-dir>

The byte cases run the real nexit_run behind a wrapper that changes one
byte of its output, and check only the cheap table3 row.
"""

import stat
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import golden  # noqa: E402

BUILD = None  # set from argv in __main__
ROW = ("table3",)

# Runs the real nexit_run, then changes one byte of stdout (the first
# "[OK]" becomes "[OJ]") or of the record (the first digit after
# "metrics" moves by one) before the caller sees it.
WRAPPER = """\
    #!{python}
    import re, subprocess, sys
    proc = subprocess.run([{real!r}, *sys.argv[1:]], capture_output=True,
                          text=True)
    out = proc.stdout
    if {mode!r} == "stdout" and "--list-scenarios=tsv" not in sys.argv:
        out = out.replace("[OK]", "[OJ]", 1)
    if {mode!r} == "record":
        for arg in sys.argv:
            if arg.startswith("--json="):
                path = arg[len("--json="):]
                text = open(path).read()
                at = re.compile(r"[0-9]").search(text, text.index('"metrics"'))
                digit = str((int(at.group()) + 1) % 10)
                open(path, "w").write(text[:at.start()] + digit + text[at.end():])
    sys.stdout.write(out)
    sys.stderr.write(proc.stderr)
    sys.exit(proc.returncode)
"""


class GoldenCheck(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.rows = golden.read_table(golden.TABLE)

    def tearDown(self):
        self.tmp.cleanup()

    def table(self, rows):
        path = self.dir / "scenarios.tsv"
        golden.write_table(path, rows)
        return path

    def wrapped_build(self, mode):
        build = self.dir / mode
        build.mkdir()
        script = build / "nexit_run"
        script.write_text(textwrap.dedent(WRAPPER).format(
            python=sys.executable, real=str(Path(BUILD) / "nexit_run"),
            mode=mode))
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        return build

    def test_the_table_holds_also_behind_an_unchanged_wrapper(self):
        self.assertEqual(golden.check(BUILD, names=ROW), [])
        self.assertEqual(golden.check(self.wrapped_build("none"), names=ROW),
                         [])

    def test_a_preset_or_spec_without_a_row_fails(self):
        gone = {("preset", "fig8"), ("spec", "runtime_failure")}
        rows = [r for r in self.rows if (r["kind"], r["name"]) not in gone]
        errors = golden.check(BUILD, self.table(rows), names=ROW)
        self.assertEqual(len(errors), 2, errors)
        self.assertIn("preset fig8: no row", errors[0])
        self.assertIn("spec runtime_failure: no row", errors[1])

    def test_a_row_naming_no_preset_or_spec_fails(self):
        ghosts = [dict(self.rows[0], name="fig99"),
                  dict(self.rows[-1], name="no_such_file")]
        errors = golden.check(BUILD, self.table(self.rows + ghosts), names=ROW)
        self.assertEqual(len(errors), 2, errors)
        self.assertIn("preset fig99: row names no registered preset",
                      errors[0])
        self.assertIn("spec no_such_file: row names no registered "
                      "scenarios/*.spec", errors[1])

    def test_one_changed_byte_of_stdout_or_record_fails(self):
        for mode in ("stdout", "record"):
            with self.subTest(mode=mode):
                errors = golden.check(self.wrapped_build(mode), names=ROW)
                self.assertEqual(len(errors), 1, errors)
                self.assertIn(f"preset table3 --seed=5: {mode} ", errors[0])


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__.split("\n\n")[1])
    BUILD = Path(sys.argv.pop(1)).resolve()
    unittest.main()
