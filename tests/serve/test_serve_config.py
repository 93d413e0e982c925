"""Validation and round-trip tests for the serving configuration."""

import json

import pytest

from repro.api import ClusterConfig
from repro.exceptions import ConfigurationError
from repro.serve import ServeConfig, TenantConfig
from repro.serve.protocol import MAX_FRAME_BYTES


class TestTenantConfig:
    def test_defaults(self):
        tenant = TenantConfig(name="alpha")
        assert tenant.cluster == ClusterConfig()
        assert tenant.max_inflight == 8
        assert tenant.default_deadline == 60.0
        assert tenant.workload_dataset is None

    def test_cluster_coerced_from_dict(self):
        tenant = TenantConfig(
            name="alpha", cluster={"partitions": 8, "method": "fennel"}
        )
        assert tenant.cluster == ClusterConfig(partitions=8, method="fennel")

    def test_dict_round_trip(self):
        tenant = TenantConfig(
            name="alpha",
            cluster=ClusterConfig(partitions=2),
            max_inflight=3,
            workload_dataset="social",
        )
        assert TenantConfig.from_dict(tenant.as_dict()) == tenant

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "a", "cluster": 7},
            {"name": "a", "max_inflight": 0},
            {"name": 7},
            {"name": "a", "default_deadline": 0.0},
            {"name": "a", "workload_dataset": "enron"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TenantConfig(**kwargs)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            TenantConfig.from_dict({"name": "a", "max_infligt": 2})

    def test_retired_max_pending_still_loads(self):
        tenant = TenantConfig.from_dict({"name": "a", "max_pending": 64})
        assert tenant == TenantConfig(name="a")
        assert "max_pending" not in tenant.as_dict()


class TestServeConfig:
    def test_defaults(self):
        config = ServeConfig()
        assert config.host == "127.0.0.1"
        assert config.port == 7466
        assert config.tenants == ()
        assert config.max_frame_bytes == MAX_FRAME_BYTES

    def test_tenants_coerced_from_dicts(self):
        config = ServeConfig(tenants=({"name": "a"}, {"name": "b"}))
        assert [t.name for t in config.tenants] == ["a", "b"]
        assert all(isinstance(t, TenantConfig) for t in config.tenants)

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ServeConfig(tenants=({"name": "a"}, {"name": "a"}))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"host": ""},
            {"port": -1},
            {"port": 70000},
            {"max_frame_bytes": 16},
            {"max_frame_bytes": MAX_FRAME_BYTES + 1},
            {"tenants": (7,)},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServeConfig(**kwargs)

    def test_file_round_trip(self, tmp_path):
        config = ServeConfig(
            port=0,
            tenants=(
                TenantConfig(
                    name="alpha",
                    cluster=ClusterConfig(partitions=2, seed=9),
                    workload_dataset="fraud",
                ),
            ),
        )
        path = tmp_path / "serve.json"
        path.write_text(json.dumps(config.as_dict()), encoding="utf-8")
        assert ServeConfig.from_file(path) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ServeConfig.from_dict({"prot": 1})
