"""Every config dataclass round-trips through the one inherited pair.

The three config modules are scanned, so a new config class is under
test the moment it is written: it must inherit
:class:`repro.configbase.ConfigBase`, define neither ``as_dict`` nor
``from_dict`` itself, and have a sample below that sets *every* field to
a non-default value -- a round-trip that only ever sees defaults cannot
tell a restored field from a dropped one.
"""

import dataclasses
import inspect
import json

import pytest

from repro.api import config as api_config
from repro.api.config import ClusterConfig, DurabilityConfig, WorkerConfig
from repro.configbase import ConfigBase
from repro.exceptions import ConfigurationError
from repro.runtime import faults
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.serve import config as serve_config
from repro.serve.config import ServeConfig, TenantConfig

CONFIG_MODULES = (api_config, serve_config, faults)

CONFIG_CLASSES = [
    cls
    for module in CONFIG_MODULES
    for _, cls in inspect.getmembers(module, dataclasses.is_dataclass)
    if cls.__module__ == module.__name__
]

_FAULT = dict(worker_id=1, kind="slow", at_message=2, delay=0.5, generation=1)
_PLAN = dict(faults=(WorkerFault(**_FAULT),))
_DURABILITY = dict(
    mode="wal",
    wal_dir="/var/tmp/wal",
    sync="fsync",
    checkpoint_interval=7,
    segment_bytes=8192,
)
_WORKER = dict(
    count=3,
    start_method="fork",
    request_timeout=5.0,
    fallback_serial=False,
    max_delta_events=16,
    max_retries=5,
    retry_backoff=0.25,
    fault_plan=FaultPlan(**_PLAN),
)
_CLUSTER = dict(
    partitions=8,
    method="offline",
    capacity=40,
    slack=1.5,
    window_size=32,
    motif_threshold=0.4,
    batch_size=64,
    ordering="bfs",
    local_cost=2.0,
    remote_cost=50.0,
    replication_budget=3,
    seed=9,
    method_options={"coarsen_to": 50},
    worker=WorkerConfig(**_WORKER),
    durability=DurabilityConfig(**_DURABILITY),
)
_TENANT = dict(
    name="alpha",
    cluster=ClusterConfig(**_CLUSTER),
    max_inflight=2,
    default_deadline=1.5,
    workload_dataset="fraud",
)

#: class -> constructor kwargs naming every field, none at its default.
SAMPLES = {
    WorkerFault: _FAULT,
    FaultPlan: _PLAN,
    DurabilityConfig: _DURABILITY,
    WorkerConfig: _WORKER,
    ClusterConfig: _CLUSTER,
    TenantConfig: _TENANT,
    ServeConfig: dict(
        host="0.0.0.0",
        port=0,
        tenants=(TenantConfig(**_TENANT),),
        max_frame_bytes=4096,
    ),
}


def _default(field):
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default  # MISSING for a required field: equals nothing


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_config_round_trip(cls):
    # The pair is inherited, never written per class.
    assert issubclass(cls, ConfigBase)
    assert not {"as_dict", "from_dict"} & set(vars(cls))

    # The sample names every field and leaves none at its default, so
    # adding a field forces a sample for it.
    sample = SAMPLES[cls]
    fields = dataclasses.fields(cls)
    assert set(sample) == {field.name for field in fields}
    at_default = [
        field.name for field in fields if sample[field.name] == _default(field)
    ]
    assert not at_default, f"sample leaves {at_default} at the default"

    config = cls(**sample)
    payload = config.as_dict()
    assert set(payload) == set(sample)
    assert cls.from_dict(json.loads(json.dumps(payload))) == config

    with pytest.raises(ConfigurationError, match=cls.__name__):
        cls.from_dict({**payload, "bogus": 1})

    retired = dict.fromkeys(cls.retired_keys, "anything")
    rebuilt = cls.from_dict({**payload, **retired})
    assert rebuilt == config
    assert not set(retired) & set(rebuilt.as_dict())


def test_every_config_class_has_a_sample():
    assert set(CONFIG_CLASSES) == set(SAMPLES)
