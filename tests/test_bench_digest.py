"""The benchmark's exact answers stay byte-identical.

``perfbench/run.py`` digests every item's record of a workload, and a change
that alters one exact answer, or the random stream behind it, shows there.
This guard loads ``perfbench/workloads.py`` read-only, solves the first 100
seed-7 ``maxcut-small`` items (recursive max-cut on G(7, 14) graphs, whose
sweeps take the desk-scale route) and hashes their records as ``run.py``
does, so such a change fails the tests, not only the benchmark.
"""

import hashlib
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 over repr((index, record)) of items 0..99, as run.py digests them.
MAXCUT_SMALL_SEED7_FIRST_100 = "bfdad3d54a74d0f20ee8f1c1c8f664ed75e6ec4519076c7a959f428086acb60e"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:  # dataclasses look their module up by name
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_maxcut_small_records_are_unchanged():
    wl = _workloads().WORKLOADS["maxcut-small"]()
    digest = hashlib.sha256()
    for index, item in enumerate(wl.items(7)[:100]):
        digest.update(repr((index, wl.record(item, wl.solve(item)))).encode())
    assert digest.hexdigest() == MAXCUT_SMALL_SEED7_FIRST_100
