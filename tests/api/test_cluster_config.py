"""ClusterConfig validation and round-trip."""

import pytest

from repro.api import ClusterConfig
from repro.exceptions import ConfigurationError


class TestValidation:
    def test_defaults_are_valid(self):
        config = ClusterConfig()
        assert config.partitions == 4
        assert config.method == "loom"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"partitions": 0},
            {"capacity": 0},
            {"slack": 0.9},
            {"window_size": 0},
            {"motif_threshold": 0.0},
            {"batch_size": 0},
            {"ordering": "sideways"},
            {"replication_budget": -1},
            {"method": "definitely-not-registered"},
            {"remote_cost": 0.5, "local_cost": 1.0},
            {"local_cost": -1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClusterConfig(**kwargs)

    def test_unknown_method_message_lists_known_methods(self):
        with pytest.raises(ConfigurationError, match="loom"):
            ClusterConfig(method="nope")

    @pytest.mark.parametrize(
        "method, options",
        [
            ("loom", {"bogus": 1}),
            ("loom", {"oversize_strategy": "split"}),  # a retired knob
            ("offline", {"coarsen_too": 50}),
            ("ldg", {"window": 5}),
        ],
    )
    def test_unknown_method_options_rejected(self, method, options):
        """Every option name is checked against what the method
        registered, at construction -- not at the first ingest."""
        (name,) = options
        with pytest.raises(ConfigurationError, match=name):
            ClusterConfig(method=method, method_options=options)

    def test_configs_are_immutable(self):
        config = ClusterConfig()
        with pytest.raises(AttributeError):
            config.partitions = 8


class TestRoundTrip:
    def test_as_dict_from_dict(self):
        config = ClusterConfig(
            partitions=8,
            method="offline",
            capacity=40,
            window_size=32,
            ordering="bfs",
            seed=9,
            method_options={"coarsen_to": 50},
        )
        rebuilt = ClusterConfig.from_dict(config.as_dict())
        assert rebuilt == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown ClusterConfig"):
            ClusterConfig.from_dict({"partitions": 2, "bogus": True})

    def test_latency_model_reflects_costs(self):
        config = ClusterConfig(local_cost=2.0, remote_cost=50.0)
        model = config.latency_model()
        assert model.cost(1, 1) == 52.0


class TestWorkerConfig:
    def test_defaults_are_serial(self):
        from repro.api import WorkerConfig

        config = ClusterConfig()
        assert config.worker == WorkerConfig()
        assert config.worker.count == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"count": 0},
            {"start_method": "teleport"},
            {"request_timeout": 0.0},
        ],
    )
    def test_bad_worker_values_rejected(self, kwargs):
        from repro.api import WorkerConfig

        with pytest.raises(ConfigurationError):
            WorkerConfig(**kwargs)

    def test_round_trips_through_cluster_config(self):
        from repro.api import WorkerConfig

        config = ClusterConfig(
            partitions=8,
            worker=WorkerConfig(count=4, start_method="fork",
                                request_timeout=5.0, fallback_serial=False),
        )
        payload = config.as_dict()
        assert payload["worker"] == {
            "count": 4,
            "start_method": "fork",
            "request_timeout": 5.0,
            "fallback_serial": False,
            "max_delta_events": 8192,
            "max_retries": 2,
            "retry_backoff": 0.05,
            "fault_plan": None,
        }
        rebuilt = ClusterConfig.from_dict(payload)
        assert rebuilt == config
        assert isinstance(rebuilt.worker, WorkerConfig)

    def test_retired_worker_keys_dropped_on_load(self):
        """``refresh_mode``/``shared_memory`` were persisted by earlier
        versions: they load (ignored) and are never written again."""
        from repro.api import WorkerConfig

        rebuilt = WorkerConfig.from_dict(
            {"count": 2, "refresh_mode": "full", "shared_memory": False}
        )
        assert rebuilt == WorkerConfig(count=2)
        assert not {"refresh_mode", "shared_memory"} & set(rebuilt.as_dict())
        with pytest.raises(ConfigurationError, match="unknown WorkerConfig"):
            WorkerConfig.from_dict({"refresh_mode": "full", "threads": 8})

    def test_dict_spelling_coerced(self):
        config = ClusterConfig(worker={"count": 2})
        assert config.worker.count == 2

    def test_unknown_worker_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown WorkerConfig"):
            ClusterConfig(worker={"count": 2, "threads": 8})

    def test_non_config_worker_rejected(self):
        with pytest.raises(ConfigurationError, match="WorkerConfig"):
            ClusterConfig(worker=4)
