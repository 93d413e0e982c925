"""Every store mutation is journalled, logged and replayable.

Delta refresh and WAL recovery assume that each effective change of
shard state announces itself as one op and that ``apply_op`` replays
every op it can be handed.  ``DistributedGraphStore.REPLAY`` is the one
table both sides read; these tests hold the class to it:

* every public member is either a ``REPLAY`` mutator or named below as
  read-only, journal control or rebuild-only -- a new method has to be
  classified before it can ship;
* driving every mutator with the journal on emits exactly the table's
  tags, and replaying what the WAL hook saw into the starting image
  reproduces the store byte for byte;
* no mutator leaves the query caches stale: after each one, a query on
  the mutated store equals the same query on a fresh decode of it.
"""

from repro.cluster.executor import DistributedQueryExecutor
from repro.cluster.store import DistributedGraphStore
from repro.graph.labelled import LabelledGraph
from repro.workload.query import PatternQuery

REPLAY = DistributedGraphStore.REPLAY

#: Change no shard state.
READ_ONLY = {
    "mutation_ticks", "journal_enabled", "drain_journal", "is_complete",
    "k", "partition_of", "is_remote", "is_remote_from", "replicas_of",
    "replica_items", "total_replicas", "replication_factor",
    "export_columns", "seeds", "expansions",
}

#: Drive the journal itself (``apply_op`` dispatches through ``REPLAY``).
JOURNAL_CONTROL = {
    "enable_journal", "disable_journal", "restart_journal", "apply_op",
}

#: Build a store from state that is already journalled.  adopt_replica is
#: rebuild-only: column decode reconstructs an already-journalled store,
#: so announcing each entry again would log it twice.
REBUILD_ONLY = {"incremental", "import_columns", "adopt_replica"}


def test_every_public_method_is_classified():
    targets = {mutator.__name__ for mutator in REPLAY.values()}
    for mutator in REPLAY.values():
        assert vars(DistributedGraphStore)[mutator.__name__] is mutator
    sets = (targets, READ_ONLY, JOURNAL_CONTROL, REBUILD_ONLY)
    assert sum(map(len, sets)) == len(set().union(*sets)), "overlap"
    public = {
        name for name in vars(DistributedGraphStore)
        if not name.startswith("_") and name != "REPLAY"
    }
    assert public == set().union(*sets), (
        f"unclassified: {sorted(public - set().union(*sets))}, "
        f"stale: {sorted(set().union(*sets) - public)}"
    )


QUERIES = [
    PatternQuery(name, LabelledGraph.path(labels))
    for name, labels in (("ab", "ab"), ("bac", "bac"), ("cb", "cb"))
]


def run_queries(store):
    executor = DistributedQueryExecutor(store, track_edges=True)
    out = []
    for query in QUERIES:
        answers, ledger = executor.execute_partial(query, None)
        out.append((answers, ledger.local, ledger.remote,
                    list(ledger.edge_counts.items())))
    return out


def assert_queries_fresh(store):
    """A query on ``store`` (its caches warm from the previous step)
    equals the same query on a cold decode of it."""
    if store.is_complete:
        fresh = DistributedGraphStore.import_columns(store.export_columns())
        assert run_queries(store) == run_queries(fresh)


def test_every_replay_entry_is_emitted_and_replays_exactly():
    store = DistributedGraphStore.incremental(3, 2)
    for vertex, label in ((1, "a"), (2, "b"), (3, "a"), (4, "c")):
        store.add_vertex(vertex, label)
    for u, v in ((1, 2), (2, 3), (3, 4)):
        store.add_edge(u, v)
    for vertex, partition in ((1, 0), (2, 1), (3, 2), (4, 0)):
        store.assign_vertex(vertex, partition)
    image_before = store.export_columns()

    logged = []
    store.wal_hook = lambda op, tick: logged.append(op)
    store.enable_journal(64)
    assert_queries_fresh(store)
    for name, *args in (
        ("grow_capacity", 4),
        ("add_vertex", 5, "b"),
        ("add_edge", 4, 5),
        ("assign_vertex", 5, 1),
        ("add_replica", 1, 2),
        ("add_replica", 2, 0),
        ("move_vertex", 1, 2),
        ("remove_edge", 2, 3),
        ("retract_assignment", 4),
        ("remove_vertex", 4),
        ("clear_replicas",),
    ):
        getattr(store, name)(*args)
        assert_queries_fresh(store)

    assert {op[0] for op in logged} == set(REPLAY)
    # Capacity grows reach the WAL only: they are not a versioned op.
    assert store.drain_journal() == tuple(op for op in logged if op[0] != "c")

    replica = DistributedGraphStore.import_columns(image_before)
    for op in logged:
        replica.apply_op(op)
    assert replica.export_columns() == store.export_columns()
    assert replica.assignment.capacity == store.assignment.capacity == 4
