"""The front door loads only the lane it runs.

Package ``__init__`` modules re-export lazily (:mod:`repro._lazy`): every
``__all__`` name still resolves, to the object its own module defines,
but a module is imported only when one of its names is first asked
for.  A fresh interpreter that builds a service and runs a stream must
therefore hold only the modules of that service's lane.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = (
    "repro",
    "repro.core",
    "repro.model",
    "repro.engine",
    "repro.engine.pipeline",
    "repro.storage",
    "repro.classes",
    "repro.distributed",
    "repro.check",
)

#: What a default one-shard MT(k) run never needs: the class census, the
#: oracle, the analysis harnesses, DMT(k)'s message simulation, the
#: windowed plane, the 2PC data nodes and their transports, the
#: multiversion scheduler, the storage-backend protocol (an annotation
#: only), process spawning and numpy.
DENY = frozenset(
    {
        "repro.classes",
        "repro.check",
        "repro.analysis",
        "repro.distributed.simulation",
        "repro.engine.pipeline.parallel",
        "repro.engine.pipeline.recovery",
        "repro.engine.pipeline.transport",
        "repro.core.multiversion",
        "repro.storage.backend",
        "multiprocessing",
        "numpy",
    }
)

_RUN = """
import json, sys
from repro import TransactionService

service = TransactionService(k=3, **json.loads(sys.argv[1]))
for txn in range(1, 13):
    with service.open() as session:
        session.read(f"x{txn % 5}").write(f"x{(txn * 7) % 5}")
if sys.argv[2] == "open":
    report = service.run(arrivals={txn: txn for txn in range(1, 13)})
else:
    report = service.run(seed=1)
service.close()
assert report.committed, report
print(json.dumps(sorted(sys.modules)))
"""


def loaded_after(config: dict, loop: str = "closed") -> frozenset[str]:
    """Modules a fresh interpreter holds after it built
    ``TransactionService(k=3, **config)`` and ran a 12-transaction
    stream through it: interleaved from a seed (``"closed"``) or
    arriving one per tick (``"open"``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(config), loop],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return frozenset(json.loads(out))


# ----------------------------------------------------------------------
# Every export still resolves
# ----------------------------------------------------------------------
def _modules(package: ModuleType) -> dict[str, ModuleType]:
    """The package and every module under it, by name."""
    found = {package.__name__: package}
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        if info.name != "repro.__main__":
            found[info.name] = importlib.import_module(info.name)
    return found


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_to_its_defining_module(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(set(exported)) == len(exported), exported
    modules = _modules(package)
    for export in exported:
        value = getattr(package, export)
        if isinstance(value, ModuleType):
            assert value.__name__ == f"{name}.{export}"
        elif isinstance(value, (type, FunctionType)) and value.__module__ in modules:
            home = modules[value.__module__]
            assert getattr(home, value.__qualname__) is value, export
        else:  # constants and type aliases: defined in one of its modules
            assert any(
                vars(module).get(export) is value for module in modules.values()
            ), export
    star: dict = {}
    exec(f"from {name} import *", star)
    assert set(exported) <= set(star)
    assert set(exported) <= set(dir(package))


def test_a_submodule_is_an_attribute_of_its_package():
    import repro.engine.pipeline

    assert repro.engine.pipeline.parallel.ParallelShardSet is (
        repro.engine.pipeline.ParallelShardSet
    )
    with pytest.raises(AttributeError):
        repro.engine.pipeline.no_such_module  # noqa: B018


# ----------------------------------------------------------------------
# A run loads its lane and nothing else
# ----------------------------------------------------------------------
def test_one_shard_mtk_lane_loads_nothing_it_never_runs():
    assert not DENY & loaded_after({})


def test_open_loop_run_loads_no_interleaver_and_no_dependency_graph():
    """Only a seeded closed-loop run interleaves a schedule, and only a
    serializability check or a serialization order builds a dependency
    graph: an open-loop stream does neither."""
    for config in ({}, {"protocol": "mvmt"}, {"n_shards": 4, "parallel": 0}):
        loaded = loaded_after(config, "open")
        assert not {"repro.model.generator", "repro.model.dependency"} & loaded


def test_one_shard_mvmt_lane_loads_no_dmt():
    loaded = loaded_after({"protocol": "mvmt"})
    assert {"repro.core.multiversion", "repro.core.mvcc"} <= loaded
    never = {
        "repro.core.distributed",
        "repro.distributed.network",
        "repro.storage.locks",
    }
    assert not (DENY - {"repro.core.multiversion"} | never) & loaded


def test_windowed_lane_loads_the_plane_but_no_data_node():
    loaded = loaded_after({"n_shards": 4, "parallel": 0})
    assert "repro.engine.pipeline.parallel" in loaded
    allowed = {"repro.engine.pipeline.parallel"}
    assert not (DENY - allowed) & loaded


def test_loopback_lane_loads_the_data_nodes_but_spawns_nothing():
    loaded = loaded_after({"n_shards": 4, "parallel": 1, "transport": "loopback"})
    plane = {
        "repro.engine.pipeline.parallel",
        "repro.engine.pipeline.recovery",
        "repro.engine.pipeline.transport",
    }
    assert plane <= loaded
    assert not (DENY - plane) & loaded
