"""The ``loom-repro serve`` / ``loom-repro connect`` CLI pair.

``connect`` is exercised against an in-process background server; the
full daemon lifecycle (spawn as a subprocess, resolve the ephemeral
port from its banner, drive it over TCP, SIGTERM it down gracefully)
runs the same code path an operator does.
"""

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_USAGE, _serve_config, main
from repro.serve import ServeClient, ServeConfig, TenantConfig
from repro.stream.events import EdgeArrival, VertexArrival


def _serve_args(**overrides):
    defaults = dict(
        config=None,
        host=None,
        port=None,
        tenant="default",
        method="ldg",
        k=4,
        workers=1,
        seed=0,
        wal_dir=None,
        workload_dataset=None,
        max_inflight=8,
        deadline=60.0,
    )
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


class TestServeConfigFlags:
    def test_single_tenant_flags(self, tmp_path):
        config = _serve_config(
            _serve_args(
                tenant="demo",
                k=3,
                seed=9,
                wal_dir=str(tmp_path / "wal"),
                workload_dataset="social",
                port=0,
            )
        )
        (tenant,) = config.tenants
        assert tenant.name == "demo"
        assert tenant.cluster.partitions == 3
        assert tenant.cluster.seed == 9
        assert tenant.cluster.durability.enabled
        assert tenant.cluster.durability.wal_dir == str(tmp_path / "wal")
        assert tenant.workload_dataset == "social"
        assert config.port == 0

    def test_config_file(self, tmp_path):
        deployment = ServeConfig(
            port=0, tenants=(TenantConfig(name="alpha"),)
        )
        path = tmp_path / "deploy.json"
        path.write_text(json.dumps(deployment.as_dict()), encoding="utf-8")
        config = _serve_config(_serve_args(config=str(path)))
        assert config == deployment

    def test_config_file_with_endpoint_overrides(self, tmp_path):
        deployment = ServeConfig(tenants=(TenantConfig(name="alpha"),))
        path = tmp_path / "deploy.json"
        path.write_text(json.dumps(deployment.as_dict()), encoding="utf-8")
        config = _serve_config(
            _serve_args(config=str(path), host="0.0.0.0", port=0)
        )
        assert config.host == "0.0.0.0"
        assert config.port == 0
        assert config.tenants == deployment.tenants

    def test_config_excludes_single_tenant_flags(self, tmp_path):
        from repro.exceptions import ConfigurationError

        path = tmp_path / "deploy.json"
        path.write_text(json.dumps(ServeConfig().as_dict()))
        with pytest.raises(ConfigurationError, match="exclusive"):
            _serve_config(_serve_args(config=str(path), tenant="demo"))

    def test_missing_config_file_fails_usage(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["serve", "--config", missing]) == EXIT_USAGE
        assert "cannot read config" in capsys.readouterr().err

    def test_config_refuses_every_single_tenant_flag(self, tmp_path, capsys):
        path = tmp_path / "deploy.json"
        path.write_text(json.dumps(ServeConfig().as_dict()))
        for flags in (
            ["-k", "8"], ["--workers", "3"], ["--method", "hash"],
            ["--seed", "1"], ["--max-inflight", "2"],
            ["--deadline", "5"], ["--wal-dir", str(tmp_path / "wal")],
        ):
            argv = ["serve", "--config", str(path), "--port", "0", *flags]
            assert main(argv) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "exclusive" in err and flags[0] in err

    def test_max_inflight_is_the_only_quota_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        usage = capsys.readouterr().out
        assert "--max-inflight" in usage
        assert "--max-pending" not in usage

    def test_wal_dir_with_other_partition_count_fails_usage(
        self, tmp_path, capsys
    ):
        from repro.api import Cluster, ClusterConfig, DurabilityConfig

        wal = tmp_path / "wal"
        with Cluster.open(
            ClusterConfig(
                partitions=3,
                method="ldg",
                durability=DurabilityConfig(mode="wal", wal_dir=str(wal)),
            )
        ) as session:
            session.ingest("social", size=40)
        argv = ["serve", "--wal-dir", str(wal), "--port", "0"]
        assert main(argv) == EXIT_USAGE
        assert "asks for 4 partitions" in capsys.readouterr().err


class TestConnect:
    def test_payload_must_be_json_object(self, capsys):
        assert (
            main(["connect", "stats", "--payload", "[1"]) == EXIT_USAGE
        )
        assert "not valid JSON" in capsys.readouterr().err
        assert (
            main(["connect", "stats", "--payload", "[1, 2]"]) == EXIT_USAGE
        )
        assert "JSON object" in capsys.readouterr().err

    def test_unreachable_daemon_fails_usage(self, capsys):
        assert (
            main(["connect", "ping", "--port", "1"]) == EXIT_USAGE
        )
        assert "cannot reach" in capsys.readouterr().err

    def test_round_trip_against_background_server(
        self, serve_factory, make_tenant, capsys
    ):
        server = serve_factory(make_tenant("demo"))
        port = str(server.port)
        assert main(["connect", "ping", "--port", port]) == 0
        assert json.loads(capsys.readouterr().out)["tenants"] == ["demo"]

        assert main(
            [
                "connect",
                "ingest",
                "--port",
                port,
                "--tenant",
                "demo",
                "--payload",
                '{"dataset": "social", "size": 30, "seed": 1}',
            ]
        ) == 0
        ingested = json.loads(capsys.readouterr().out)["vertices"]
        assert ingested > 0

        assert main(
            ["connect", "stats", "--port", port, "--tenant", "demo"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["vertices"] == ingested

    def test_remote_errors_map_to_usage_exit(
        self, serve_factory, make_tenant, capsys
    ):
        server = serve_factory(make_tenant("demo"))
        assert main(
            [
                "connect",
                "stats",
                "--port",
                str(server.port),
                "--tenant",
                "ghost",
            ]
        ) == EXIT_USAGE
        assert "unknown-tenant" in capsys.readouterr().err


def _spawn_serve(*flags):
    """Start ``loom-repro serve --port 0 --tenant demo -k 2 [flags]`` as
    a subprocess; returns it with the port read off its banner."""
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "import sys; from repro.cli import main; "
        "raise SystemExit(main(sys.argv[1:]))"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "serve", "--port", "0",
         "--tenant", "demo", "-k", "2", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.stdout is not None
    banner = proc.stdout.readline().strip()
    if not banner.startswith("serving tenants [demo] on "):
        proc.kill()
        raise AssertionError(f"{banner!r}\n{proc.communicate()[1]}")
    return proc, banner.rsplit(":", 1)[1]


class TestServeDaemonLifecycle:
    def test_serve_banner_connect_sigterm(self, capsys):
        """Spawn the real daemon, read its banner for the ephemeral
        port, drive it via ``connect``, and SIGTERM it down."""
        proc, port = _spawn_serve()
        try:
            assert main(
                ["connect", "ping", "--port", port, "--tenant", "demo"]
            ) == 0
            assert json.loads(capsys.readouterr().out)["tenant"] == "demo"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "shutdown complete" in out

    def test_sigkilled_daemon_restarts_over_its_wal_dir(self, tmp_path):
        """``kill -9`` a durable daemon after an ingest and a retract;
        a fresh daemon over the same ``--wal-dir`` recovers the tenant
        and serves the snapshot the dead one last served."""
        events = [VertexArrival(v, "a", v) for v in range(12)]
        events += [EdgeArrival(v - 1, v, 12 + v) for v in range(1, 12)]
        wal_dir = str(tmp_path / "wal")
        proc, port = _spawn_serve("--wal-dir", wal_dir)
        try:
            with ServeClient(port=int(port), tenant="demo") as client:
                client.ingest(events)
                client.retract(vertices=[3, 7])
                truth = client.snapshot()
        finally:
            proc.kill()
        proc.communicate(timeout=60)
        assert proc.returncode == -signal.SIGKILL

        proc, port = _spawn_serve("--wal-dir", wal_dir)
        try:
            with ServeClient(port=int(port), tenant="demo") as client:
                assert client.snapshot() == truth
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "shutdown complete" in out
