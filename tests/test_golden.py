"""Behaviour lock: the CLI command matrix against its recorded transcript.

Every command of `checks.cli_command_matrix` runs through `cli.run` in one
fresh interpreter under a fixed PYTHONHASHSEED.  Its exit code and the
sha256 of its output, with the fixture directory replaced by "<fixtures>",
must equal the entry in perfbench/cli_reference.json, which this test only
reads.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "cli_reference.json")

TRANSCRIPT = """
import hashlib, json, sys
from feyncomb import checks, cli, fixtures

fixture_dir = sys.argv[1]
fixtures.write_all(fixture_dir)
out = {}
for argv in checks.cli_command_matrix(fixture_dir):
    code, text = cli.run(argv)
    normalized = text.replace(fixture_dir, "<fixtures>").encode("utf-8")
    out[" ".join(argv).replace(fixture_dir, "<fixtures>")] = [code, hashlib.sha256(normalized).hexdigest()]
json.dump(out, sys.stdout)
"""


def test_cli_matrix_matches_recorded_transcript(tmp_path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONHASHSEED="7")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", TRANSCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    with open(REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)
    assert sorted(got) == sorted(want)
    assert sorted(k for k in want if got[k] != want[k]) == []
