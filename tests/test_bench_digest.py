"""The benchmark's exact answers stay byte-identical.

``perfbench/run.py`` digests every item's record of a workload, and a change
that alters one exact answer, or the random stream behind it, shows there.
These guards load ``perfbench/workloads.py`` read-only, solve the first 100
seed-7 ``maxcut-small`` items (recursive max-cut on G(7, 14) graphs, whose
sweeps take the desk-scale route) and all 25 seed-7 ``oracle-exact`` items
(the exhaustive oracles, on both arithmetic routes), and hash their records
as ``run.py`` does, so such a change fails the tests, not only the benchmark.
"""

import hashlib
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 over repr((index, record)) of items 0..99, as run.py digests them.
MAXCUT_SMALL_SEED7_FIRST_100 = "bfdad3d54a74d0f20ee8f1c1c8f664ed75e6ec4519076c7a959f428086acb60e"
# The same over every item, which is run.py's own oracle-exact digest.
ORACLE_EXACT_SEED7 = "e40d1f9280e25ea6329bbe620d24d4210491963f5af3b6c142f353a75f77c892"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:  # dataclasses look their module up by name
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _digest(workload, count=None):
    wl = _workloads().WORKLOADS[workload]()
    digest = hashlib.sha256()
    for index, item in enumerate(wl.items(7)[:count]):
        digest.update(repr((index, wl.record(item, wl.solve(item)))).encode())
    return digest.hexdigest()


def test_maxcut_small_records_are_unchanged():
    assert _digest("maxcut-small", 100) == MAXCUT_SMALL_SEED7_FIRST_100


def test_oracle_exact_records_are_unchanged():
    assert len(_workloads().WORKLOADS["oracle-exact"]().items(7)) == 25
    assert _digest("oracle-exact") == ORACLE_EXACT_SEED7
