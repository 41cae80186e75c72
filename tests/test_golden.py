"""Behaviour locks: the CLI command matrix and the fixed-input Hopf outputs
against their recorded transcripts.

Every command of `checks.cli_command_matrix` runs through `cli.run` in one
fresh interpreter under a fixed PYTHONHASHSEED.  Its exit code and the
sha256 of its output, with the fixture directory replaced by "<fixtures>",
must equal the entry in perfbench/cli_reference.json, which this test only
reads.

The coproduct, antipode, Rbar and renormalization of fig4, fig5,
nestedchain and twobubble (phi4 and core) and of the cut circulants C5 and
C6 (phi4), each on a fresh `HopfAlgebra`, must render to the sha256 recorded
in perfbench/hopf_reference.json under "<op>:<model>:<name>", which the test
only reads.
"""

import hashlib
import json
import os
import subprocess
import sys

from feyncomb import fixtures
from feyncomb.hopf import HopfAlgebra
from test_canonical import cut_circulant

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "cli_reference.json")
HOPF_REFERENCE = os.path.join(ROOT, "perfbench", "hopf_reference.json")

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


HOPF_OPS = {
    "coproduct": HopfAlgebra.coproduct,
    "antipode": HopfAlgebra.antipode,
    "rbar": HopfAlgebra.bogoliubov_hopf,
    "renorm": HopfAlgebra.renormalized,
}


def test_hopf_outputs_match_recorded_digests():
    inputs = [(n, model, fixtures.build(n)) for n in ("fig4", "fig5", "nestedchain", "twobubble") for model in ("phi4", "core")]
    inputs += [("C5cut", "phi4", cut_circulant(5)), ("C6cut", "phi4", cut_circulant(6))]
    got = {}
    for name, model, g in inputs:
        for op, run in HOPF_OPS.items():
            text = run(HopfAlgebra(model), g).render()
            got[f"{op}:{model}:{name}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    with open(HOPF_REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)
    assert len(got) == 40
    assert sorted(got) == sorted(want)
    assert sorted(k for k in want if got[k] != want[k]) == []
