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
  reproduces the store byte for byte.
"""

from repro.cluster.store import DistributedGraphStore

REPLAY = DistributedGraphStore.REPLAY

#: Change no shard state.
READ_ONLY = {
    "mutation_ticks", "journal_enabled", "drain_journal", "is_complete",
    "k", "partition_of", "label", "neighbours", "sorted_neighbours",
    "vertices_with_label", "is_remote", "is_remote_from", "replicas_of",
    "replica_items", "total_replicas", "replication_factor",
    "export_columns",
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
    store.grow_capacity(4)
    store.add_vertex(5, "b")
    store.add_edge(4, 5)
    store.assign_vertex(5, 1)
    store.add_replica(1, 2)
    store.add_replica(2, 0)
    store.move_vertex(1, 2)
    store.remove_edge(2, 3)
    store.retract_assignment(4)
    store.remove_vertex(4)
    store.clear_replicas()

    assert {op[0] for op in logged} == set(REPLAY)
    # Capacity grows reach the WAL only: they are not a versioned op.
    assert store.drain_journal() == tuple(op for op in logged if op[0] != "c")

    replica = DistributedGraphStore.import_columns(image_before)
    for op in logged:
        replica.apply_op(op)
    assert replica.export_columns() == store.export_columns()
    assert replica.assignment.capacity == store.assignment.capacity == 4
