"""Every concept has one execution path, so no option selects another.

The run lifecycle, cache admission, key search, block format, recovery
validation and evolve path each have a single implementation.  The
options that used to choose between implementations must be rejected at
construction, not silently accepted and ignored.
"""

import pytest

from repro.core.definition import i1_definition
from repro.core.epoch import RunLifecycle
from repro.core.index import UmziConfig
from repro.core.query import QueryExecutor
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.metrics import EpochStats
from repro.wildfire.engine import ShardConfig

REMOVED = [
    (UmziConfig, "use_raw_keys", False),
    (UmziConfig, "maintenance_read_mode", "legacy"),
    (UmziConfig, "run_lifecycle", "epoch"),
    (ShardConfig, "streaming_evolve", False),
    (ShardConfig, "maintenance_read_mode", "legacy"),
    (ShardConfig, "run_lifecycle", "legacy"),
    (StorageHierarchy, "maintenance_read_mode", "legacy"),
    (lambda **kw: RunLifecycle(EpochStats(), **kw), "mode", "epoch"),
    (lambda **kw: QueryExecutor(i1_definition(), **kw), "use_raw_keys", False),
]


@pytest.mark.parametrize(
    "factory, option, value",
    REMOVED,
    ids=[
        "UmziConfig-use_raw_keys",
        "UmziConfig-maintenance_read_mode",
        "UmziConfig-run_lifecycle",
        "ShardConfig-streaming_evolve",
        "ShardConfig-maintenance_read_mode",
        "ShardConfig-run_lifecycle",
        "StorageHierarchy-maintenance_read_mode",
        "RunLifecycle-mode",
        "QueryExecutor-use_raw_keys",
    ],
)
def test_removed_option_is_rejected(factory, option, value):
    factory()  # the defaults construct
    with pytest.raises(TypeError):
        factory(**{option: value})
