"""Tests for the command-line interface."""

import json
import random
from contextlib import contextmanager

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.cli import EXIT_USAGE, main
from repro.graph.generators import erdos_renyi
from repro.graph.io import save_edge_list


def test_importing_the_cli_builds_no_graph(run_python):
    """``serve`` is ``python -m repro.cli``, and the CLI imports the
    experiment specs: they must be plain data -- no graph (so no trie, no
    session) exists until an experiment runs."""
    code = (
        "from repro.graph.labelled import LabelledGraph\n"
        "built = []\n"
        "init = LabelledGraph.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "LabelledGraph.__init__ = counting\n"
        "import repro.cli, repro.bench.experiments\n"
        "print(len(built))\n"
    )
    assert run_python(code).strip() == "0"


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in ("E1", "E10", "A4"):
            assert eid in out


class TestDemo:
    def test_demo_shows_square_colocation(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "loom" in out
        assert "q1-square-colocated=yes" in out


class TestExperiment:
    def test_single_experiment_prints_table(self, capsys):
        assert main(["experiment", "E7", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "E7a" in out
        assert "collision" in out

    def test_csv_output(self, tmp_path, capsys):
        assert main(
            ["experiment", "A2", "--fast", "--out", str(tmp_path)]
        ) == 0
        csvs = list(tmp_path.glob("a2_*.csv"))
        assert csvs
        assert "group_matches" in csvs[0].read_text()

    def test_unknown_experiment_exits_nonzero(self, capsys):
        assert main(["experiment", "E99", "--fast"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "E99" in err

    def test_all_is_case_insensitive_and_runs_each_id_once(self, monkeypatch):
        ran = []
        monkeypatch.setattr(
            "repro.cli.run_experiment", lambda eid, **_: ran.append(eid) or []
        )
        assert main(["experiment", "ALL", "--fast"]) == 0
        assert ran == list(EXPERIMENTS)
        ran.clear()
        assert main(["experiment", "e2", "All", "A1", "--fast"]) == 0
        assert ran == list(EXPERIMENTS)

    def test_json_output(self, capsys):
        assert main(["experiment", "A2", "--fast", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (experiment,) = payload["experiments"]
        assert experiment["id"] == "A2"
        table = experiment["tables"][0]
        assert "group_matches" in table["columns"]
        assert table["rows"]


class TestPartition:
    def test_partition_edge_list_file(self, tmp_path, capsys):
        graph = erdos_renyi(40, 0.15, rng=random.Random(3))
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        assert main(
            ["partition", "--graph", str(path), "--method", "ldg", "-k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "cut_fraction=" in out
        assert "sizes=" in out

    def test_loom_partition_samples_workload(self, tmp_path, capsys):
        graph = erdos_renyi(40, 0.15, rng=random.Random(4))
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        assert main(
            [
                "partition", "--graph", str(path), "--method", "loom",
                "-k", "2", "--window", "16", "--queries", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "p_remote=" in out

    def test_partition_json_output(self, tmp_path, capsys):
        graph = erdos_renyi(30, 0.15, rng=random.Random(5))
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        assert main(
            [
                "partition", "--graph", str(path), "--method", "ldg",
                "-k", "2", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "ldg"
        assert payload["k"] == 2
        assert sum(payload["sizes"]) == 30
        assert 0.0 <= payload["cut_fraction"] <= 1.0

    def test_unknown_method_exits_nonzero(self, tmp_path, capsys):
        graph = erdos_renyi(10, 0.3, rng=random.Random(6))
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        assert main(
            ["partition", "--graph", str(path), "--method", "nope"]
        ) == EXIT_USAGE
        assert "unknown method" in capsys.readouterr().err

    def test_missing_graph_file_exits_nonzero(self, tmp_path, capsys):
        assert main(
            ["partition", "--graph", str(tmp_path / "absent.txt")]
        ) == EXIT_USAGE
        assert "cannot read graph file" in capsys.readouterr().err


def wal_dir(tmp_path):
    """A directory written by ``partition --wal-dir`` (30 vertices)."""
    graph = erdos_renyi(30, 0.2, rng=random.Random(9))
    path = tmp_path / "graph.txt"
    save_edge_list(graph, path)
    directory = tmp_path / "wal"
    assert main(
        ["partition", "--graph", str(path), "--method", "ldg", "-k", "2",
         "--wal-dir", str(directory), "--json"]
    ) == 0
    return directory, graph


class TestRecoverVerb:
    def test_human_output(self, tmp_path, capsys):
        directory, graph = wal_dir(tmp_path)
        capsys.readouterr()
        assert main(["recover", "--wal-dir", str(directory)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(
            f"recovered {graph.num_vertices} vertices / "
            f"{graph.num_edges} edges (ldg, k=2) at tick "
        )
        # partition checkpoints before exit: nothing is left to replay.
        assert lines[1].endswith(
            "0 ops replayed, 0 skipped, torn_tail=no"
        )

    def test_json_output(self, tmp_path, capsys):
        directory, graph = wal_dir(tmp_path)
        capsys.readouterr()
        assert main(["recover", "--wal-dir", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "wal_dir": str(directory),
            "method": "ldg",
            "partitions": 2,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "checkpoint_ticks": payload["recovered_ticks"],
            "replayed_ops": 0,
            "skipped_ops": 0,
            "segments_read": payload["segments_read"],
            "torn_tail": False,
            "recovered_ticks": payload["recovered_ticks"],
        }
        assert payload["recovered_ticks"] > 0

    def test_directory_without_state_exits_usage(self, tmp_path, capsys):
        assert main(["recover", "--wal-dir", str(tmp_path)]) == EXIT_USAGE
        assert "cannot recover" in capsys.readouterr().err


@contextmanager
def served_cluster(tmp_path):
    """A small cluster persisted in a WAL directory and served from it:
    the churn verbs reach it through ``connect``."""
    from repro.api import Cluster, ClusterConfig, DurabilityConfig
    from repro.graph.generators import planted_partition
    from repro.serve import ServeConfig, TenantConfig
    from repro.serve.daemon import BackgroundServer

    graph = planted_partition(30, 2, 0.3, 0.05, rng=random.Random(9))
    config = ClusterConfig(
        partitions=2,
        method="hash",
        seed=9,
        durability=DurabilityConfig(mode="wal", wal_dir=str(tmp_path)),
    )
    with Cluster.open(config) as session:
        session.ingest(graph)
    deployment = ServeConfig(
        port=0, tenants=(TenantConfig(name="default", cluster=config),)
    )
    with BackgroundServer(deployment) as server:
        yield server, session


def connect(server, verb, payload=None):
    argv = ["connect", verb, "--port", str(server.port), "--tenant", "default"]
    if payload is not None:
        argv += ["--payload", json.dumps(payload)]
    return main(argv)


class TestRetractVerb:
    def test_retract_vertex_writes_updated_snapshot(self, tmp_path, capsys):
        from repro.api import Cluster

        with served_cluster(tmp_path) as (server, _):
            assert connect(server, "retract", {"vertices": [0]}) == 0
            assert json.loads(capsys.readouterr().out)["vertices_removed"] == 1
            assert connect(server, "snapshot") == 0
            payload = json.loads(capsys.readouterr().out)
            assert 0 not in [v for v, _ in payload["graph"]["vertices"]]
        # The change landed in the WAL directory the daemon served.
        with Cluster.recover(tmp_path) as recovered:
            assert recovered.snapshot() == payload

    def test_retract_edge_json_report(self, tmp_path, capsys):
        with served_cluster(tmp_path) as (server, session):
            u, v = next(iter(session.graph.edges()))
            assert connect(server, "retract", {"edges": [[u, v]]}) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["edges_removed"] == 1
            assert payload["vertices_removed"] == 0

    def test_retract_unknown_vertex_exits_nonzero(self, tmp_path, capsys):
        with served_cluster(tmp_path) as (server, _):
            assert connect(server, "retract", {"vertices": [999]}) == EXIT_USAGE
            assert "not resident" in capsys.readouterr().err


class TestRebalanceVerb:
    def test_rebalance_reports_delta(self, tmp_path, capsys):
        with served_cluster(tmp_path) as (server, _):
            assert connect(server, "rebalance") == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["cut_after"] <= payload["cut_before"]
            assert payload["moved_vertices"] >= 0

    def test_rebalance_respects_budget_and_writes_out(self, tmp_path, capsys):
        from repro.api import Cluster

        with served_cluster(tmp_path) as (server, _):
            assert connect(server, "rebalance", {"max_moves": 2}) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["moved_vertices"] <= 2
            assert connect(server, "snapshot") == 0
            served = json.loads(capsys.readouterr().out)
        with Cluster.recover(tmp_path) as recovered:
            assert recovered.snapshot() == served


def test_snapshot_file_verbs_are_gone(capsys):
    """State is read back from a WAL directory only; a served cluster is
    churned through ``connect retract`` / ``connect rebalance``."""
    for verb in ("retract", "rebalance"):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--snapshot", "cluster.json"])
        assert exit_info.value.code == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err
