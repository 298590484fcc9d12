"""The benchmark's traced mode still finds and sees every name it wraps.

``perfbench/tracing.py`` wraps library functions by name and raises
``TraceError`` when one is missing or never called on a workload that must
call it.  A change that renames, drops or stops calling such a name would
otherwise break ``perfbench/run.py --trace 1`` without failing a test.  The
tracer patches modules in place, so it runs in a fresh interpreter.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
import tracing
from bipratio import game, maxcut, oracle
from bipratio.generators import complete, gnp, planted_bipartite

tracer = tracing.Tracer()
tracer.install()
# A sweep that finds witnesses, then certifies.
res = game.approx_bipartiteness(gnp(20, 0.3, 3, seed=8), game.GameParams(seed=6))
assert [g.outcome for g in res.games] == ["witness", "witness", "certificate"]
G, _ = planted_bipartite(12, 0.4, 0.1, seed=5)
maxcut.recursive_bipart(G, game.GameParams(seed=1))
oracle.brute_beta(complete(4))
oracle.brute_maxcut(complete(4))
oracle.brute_well_linked(complete(4), k=2)
for workload in ("sweep-dense", "sweep-sparse", "maxcut-small", "oracle-exact"):
    tracer.require_calls(workload)
print("traced", len(tracer.spans), "spans")
"""


def test_traced_names_are_present_and_called():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("traced ")
