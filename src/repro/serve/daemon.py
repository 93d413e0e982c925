"""The serving daemon: asyncio front-end over per-tenant session hosts.

Architecture: one asyncio event loop accepts every client connection
and does *no* cluster work itself.  Each tenant owns a
:class:`ClusterHost` -- a one-thread
:class:`~concurrent.futures.ThreadPoolExecutor` in front of that
tenant's :class:`~repro.api.Session` -- so concurrent connections
multiplex onto a single-writer command stream per cluster (the façade's
command lock is the second line of defence, never the scheduler).  The
loop-side :meth:`ClusterHost.submit` enforces the tenant's quotas before
anything is handed to the executor:

* **admission control** -- more than ``max_inflight`` admitted-but-
  unanswered requests for one tenant answer ``busy``, so at most
  ``max_inflight - 1`` commands ever wait behind the running one;
* **deadlines** -- every request carries one (the tenant default when
  the client names none, generalising the pool's ``request_timeout``);
  a command still unstarted when its deadline passes is answered
  ``deadline`` without ever touching the session.  A command already
  *executing* runs to completion -- the session is not preemptible --
  and its result is still returned.

Shutdown is graceful on SIGTERM/SIGINT: the listener closes, each
host's executor finishes every admitted command and shuts down, and
sessions close (reaping worker processes and releasing WALs); a request
arriving after that answers ``shutdown``.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.api import Cluster, Session
from repro.datasets import DATASETS
from repro.exceptions import ReproError, SessionError
from repro.obs import build_registry, render_prom
from repro.runtime.wal import has_state
from repro.serve.config import ServeConfig, TenantConfig
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    VERBS,
    ProtocolError,
    edges_from_wire,
    encode_frame,
    error_response,
    events_from_wire,
    ok_response,
    pattern_from_wire,
    read_frame,
    vertices_from_wire,
)

#: A command whose handler ran at least this long lands in the host's
#: bounded slow-command journal (and bumps ``serve.slow_commands``).
SLOW_COMMAND_SECONDS = 1.0

#: Journal ring size: enough recent offenders to diagnose a stall
#: without the journal itself becoming a memory liability.
SLOW_JOURNAL_LIMIT = 64

#: ``_field`` default marking a key the verb cannot run without.
_REQUIRED = object()


def _field(
    payload: dict[str, Any], key: str, kind: type, default: Any = _REQUIRED
) -> Any:
    """``payload[key]`` as a ``kind``, or ``default`` when absent (a
    ``None`` default also admits an explicit null).  A missing or
    ill-typed value is the client's fault -- ``bad-request`` -- where
    letting it reach the session would answer ``internal``."""
    value = payload.get(key, default)
    if value is _REQUIRED:
        raise ProtocolError(f"payload is missing {key!r}")
    if value is not default and type(value) is not kind:
        raise ProtocolError(
            f"payload {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


class ClusterHost:
    """One tenant: a session behind a one-thread executor."""

    def __init__(self, tenant: TenantConfig) -> None:
        self.tenant = tenant
        self.session: Session | None = None
        self.inflight = 0
        #: When set to a list, the executor thread appends ``(verb,
        #: payload)`` in *execution* order -- the serialised history the
        #: differential tests replay through an in-process session.
        self.command_journal: list[tuple[str, dict]] | None = None
        #: Daemon-side serve telemetry (``serve.*`` series, labelled by
        #: tenant).  Thread-safe: the event loop emits admission-control
        #: series, the executor thread emits execution series, and the
        #: ``metrics`` verb merges this with the session's own snapshot.
        self.registry = build_registry()
        #: Bounded ring of recent slow commands (dicts with ``verb``,
        #: ``seconds``, ``outcome``), newest last.
        self.slow_journal: deque[dict[str, Any]] = deque(
            maxlen=SLOW_JOURNAL_LIMIT
        )
        self._executor: ThreadPoolExecutor | None = None
        self._stopping = False
        # Commands handed to the executor (loop thread) and commands it
        # has started (executor thread): one writer each, so their
        # difference -- the queue depth -- needs no lock.
        self._admitted = 0
        self._started = 0

    # ------------------------------------------------------------------
    # Lifecycle (called from the event loop / server thread)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open (or recover) the tenant's session and its executor."""
        workload = None
        if self.tenant.workload_dataset is not None:
            _, make_workload = DATASETS[self.tenant.workload_dataset]
            workload = make_workload()
        config = self.tenant.cluster
        if config.durability.enabled:
            wal_dir = Path(config.durability.wal_dir)
            if has_state(wal_dir):
                # A previous daemon's state survives under the WAL dir
                # (clean shutdown or kill -9 alike): recover it rather
                # than refuse the directory.
                self.session = Cluster.recover(
                    wal_dir, workload=workload, config=config
                )
            else:
                self.session = Cluster.open(config, workload=workload)
        else:
            self.session = Cluster.open(config, workload=workload)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-serve-{self.tenant.name}"
        )

    def stop(self) -> None:
        """Finish every admitted command, then close the session.

        Commands submitted after the stop flag flips -- or racing it
        into an executor already shut down -- answer ``shutdown``.
        """
        self._stopping = True
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        session, self.session = self.session, None
        if session is not None:
            session.close()

    # ------------------------------------------------------------------
    # Event-loop side: admission and deadlines
    # ------------------------------------------------------------------
    def submit(
        self,
        verb: str,
        payload: dict[str, Any],
        deadline_seconds: float,
        loop: asyncio.AbstractEventLoop,
    ):
        """Admit one request; returns an outcome future, or an outcome
        tuple when the request is rejected without queuing.

        Must run on the event loop thread: ``inflight`` is only ever
        touched there, so the quota check is race-free without a lock.
        """
        executor = self._executor
        if not self._stopping and executor is not None:
            if self.inflight >= self.tenant.max_inflight:
                self.registry.inc(
                    "serve.rejections", tenant=self.tenant.name, reason="busy"
                )
                return (
                    "error",
                    "busy",
                    f"tenant {self.tenant.name!r} has "
                    f"{self.inflight} requests in flight "
                    f"(max_inflight={self.tenant.max_inflight})",
                )
            try:
                future = loop.run_in_executor(
                    executor, self._run, verb, payload,
                    time.monotonic() + deadline_seconds,
                )
            except RuntimeError:  # the executor shut down after the check
                pass
            else:
                self.inflight += 1
                self._admitted += 1
                self._observe_admission()
                future.add_done_callback(self._admit_done)
                return future
        self.registry.inc(
            "serve.rejections", tenant=self.tenant.name, reason="shutdown"
        )
        return ("error", "shutdown", "server is shutting down")

    def _admit_done(self, _future) -> None:
        self.inflight -= 1
        self._observe_admission()

    def _observe_admission(self) -> None:
        """Point-in-time admission gauges (loop thread only, like
        ``inflight`` itself)."""
        self.registry.set(
            "serve.inflight", self.inflight, tenant=self.tenant.name
        )
        self.registry.set(
            "serve.queue_depth",
            self._admitted - self._started,
            tenant=self.tenant.name,
        )

    # ------------------------------------------------------------------
    # Executor thread: the single writer
    # ------------------------------------------------------------------
    def _run(self, verb: str, payload: dict[str, Any], deadline: float):
        self._started += 1
        if time.monotonic() > deadline:
            self.registry.inc("serve.deadline_misses", tenant=self.tenant.name)
            self.registry.inc(
                "serve.requests",
                tenant=self.tenant.name,
                verb=verb,
                outcome="deadline",
            )
            return (
                "error",
                "deadline",
                f"request spent its deadline queued behind "
                f"{self.tenant.name!r} commands",
            )
        began = time.perf_counter()
        outcome = self._execute(verb, payload)
        self._observe_command(verb, outcome, time.perf_counter() - began)
        return outcome

    def _execute(self, verb: str, payload: dict[str, Any]):
        handler = getattr(self, f"_verb_{verb}", None)
        if handler is None:
            return ("error", "unknown-verb", f"unknown verb {verb!r}")
        if self.command_journal is not None:
            self.command_journal.append((verb, payload))
        try:
            return ("ok", handler(payload))
        except ProtocolError as error:
            return ("error", "bad-request", str(error))
        except (SessionError, ReproError) as error:
            return ("error", "session", str(error))
        except Exception as error:  # noqa: BLE001 - the daemon must
            # survive any handler failure; the client gets the message.
            return (
                "error",
                "internal",
                f"{type(error).__name__}: {error}",
            )

    def _observe_command(self, verb: str, outcome, seconds: float) -> None:
        """Per-command execution telemetry (executor thread only)."""
        kind = "ok" if outcome[0] == "ok" else outcome[1]
        tenant = self.tenant.name
        self.registry.inc(
            "serve.requests", tenant=tenant, verb=verb, outcome=kind
        )
        self.registry.observe(
            "serve.verb_seconds", seconds, tenant=tenant, verb=verb
        )
        if seconds >= SLOW_COMMAND_SECONDS:
            self.registry.inc(
                "serve.slow_commands", tenant=tenant, verb=verb
            )
            self.slow_journal.append(
                {
                    "verb": verb,
                    "seconds": round(seconds, 6),
                    "outcome": kind,
                }
            )

    def _session(self) -> Session:
        session = self.session
        if session is None:
            raise SessionError("tenant session is closed")
        return session

    # ------------------------------------------------------------------
    # Verb handlers: one ``_verb_<name>`` per ``VERBS`` key, both ways
    # (tests/serve/test_serve_protocol.py holds the correspondence)
    # ------------------------------------------------------------------
    def _verb_ping(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "tenant": self.tenant.name,
            "inflight": self.inflight,
        }

    def _verb_ingest(self, payload: dict[str, Any]) -> dict[str, Any]:
        session = self._session()
        dataset = _field(payload, "dataset", str, None)
        events = _field(payload, "events", list, None)
        if (dataset is None) == (events is None):
            raise ProtocolError(
                "ingest payload must carry exactly one of "
                "'dataset' or 'events'"
            )
        source = (
            dataset if dataset is not None else events_from_wire(events)
        )
        report = session.ingest(
            source,
            size=_field(payload, "size", int, None),
            seed=_field(payload, "seed", int, None),
            workers=_field(payload, "workers", int, None),
        )
        return report.as_dict()

    def _verb_query(self, payload: dict[str, Any]) -> dict[str, Any]:
        pattern = pattern_from_wire(_field(payload, "pattern", dict))
        result = self._session().query(
            pattern,
            track_edges=_field(payload, "track_edges", bool, False),
            workers=_field(payload, "workers", int, None),
        )
        return result.as_dict()

    def _verb_workload(self, payload: dict[str, Any]) -> dict[str, Any]:
        report = self._session().run_workload(
            executions=_field(payload, "executions", int, 200),
            seed=_field(payload, "seed", int, None),
            track_edges=_field(payload, "track_edges", bool, False),
            workers=_field(payload, "workers", int, None),
        )
        return report.as_dict()

    def _verb_retract(self, payload: dict[str, Any]) -> dict[str, Any]:
        report = self._session().retract(
            vertices=vertices_from_wire(_field(payload, "vertices", list, ())),
            edges=edges_from_wire(_field(payload, "edges", list, ())),
        )
        return report.as_dict()

    def _verb_rebalance(self, payload: dict[str, Any]) -> dict[str, Any]:
        report = self._session().rebalance(
            max_moves=_field(payload, "max_moves", int, None),
            min_gain=_field(payload, "min_gain", int, 1),
        )
        return report.as_dict()

    def _verb_stats(self, payload: dict[str, Any]) -> dict[str, Any]:
        return self._session().stats().as_dict()

    def _verb_snapshot(self, payload: dict[str, Any]) -> dict[str, Any]:
        return self._session().snapshot()

    def _verb_metrics(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One consistent merged snapshot: the daemon's ``serve.*``
        series folded together with the tenant session's own metrics
        (engine, matcher, executor, pool, worker, WAL ...).

        ``{"format": "prom"}`` answers ``{"text": ...}`` in the
        Prometheus text exposition instead of the JSON snapshot; both
        carry the bounded slow-command journal.
        """
        fmt = payload.get("format", "json")
        if fmt not in ("json", "prom"):
            raise ProtocolError(
                f"metrics format must be 'json' or 'prom', got {fmt!r}"
            )
        merged = build_registry()
        merged.merge_snapshot(self.registry.snapshot())
        merged.merge_snapshot(self._session().metrics())
        snapshot = merged.snapshot()
        slow = list(self.slow_journal)
        if fmt == "prom":
            return {"text": render_prom(snapshot), "slow_commands": slow}
        return {"snapshot": snapshot, "slow_commands": slow}


class ReproServer:
    """The asyncio front-end multiplexing connections onto the hosts."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.hosts = {
            tenant.name: ClusterHost(tenant) for tenant in config.tenants
        }
        self._server: asyncio.Server | None = None
        self._stop = asyncio.Event()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start every tenant host, then listen."""
        started: list[ClusterHost] = []
        try:
            for host in self.hosts.values():
                await asyncio.to_thread(host.start)
                started.append(host)
        except BaseException:
            for host in started:
                await asyncio.to_thread(host.stop)
            raise
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT request a graceful stop (drain, close, exit)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_stop)

    def request_stop(self) -> None:
        self._stop.set()

    async def serve_until_stopped(self) -> None:
        await self._stop.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop accepting, then drain and close every tenant host."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for host in self.hosts.values():
            await asyncio.to_thread(host.stop)

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Serve one client connection until EOF or a framing error.

        Requests on one connection are answered in order (no
        pipelining); concurrency comes from concurrent connections.  A
        framing error is answered (best-effort) and the connection
        dropped -- resynchronising an out-of-frame byte stream is not
        possible.
        """
        limit = self.config.max_frame_bytes
        try:
            while True:
                try:
                    request = await read_frame(
                        reader, max_frame_bytes=limit
                    )
                except ProtocolError as error:
                    writer.write(
                        encode_frame(
                            error_response(None, "bad-request", str(error))
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                writer.write(encode_frame(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            # Mid-run client disconnect: any in-flight command still
            # completes on its host executor; only the reply is dropped.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        request_id = request.get("id")
        verb = request.get("verb")
        if not isinstance(verb, str) or verb not in VERBS:
            return error_response(
                request_id, "unknown-verb", f"unknown verb {verb!r}"
            )
        payload = request.get("payload") or {}
        if not isinstance(payload, dict):
            return error_response(
                request_id, "bad-request", "payload must be an object"
            )
        tenant = request.get("tenant")
        if verb == "ping" and tenant is None:
            return ok_response(
                request_id,
                {
                    "protocol": PROTOCOL_VERSION,
                    "tenants": sorted(self.hosts),
                },
            )
        host = self.hosts.get(tenant)
        if host is None:
            return error_response(
                request_id,
                "unknown-tenant",
                f"unknown tenant {tenant!r} "
                f"(serving {sorted(self.hosts)})",
            )
        deadline = request.get("deadline")
        if deadline is None:
            deadline = host.tenant.default_deadline
        elif not isinstance(deadline, (int, float)) or deadline <= 0:
            return error_response(
                request_id, "bad-request", "deadline must be > 0 seconds"
            )
        outcome = host.submit(
            verb, payload, float(deadline), asyncio.get_running_loop()
        )
        if isinstance(outcome, tuple):
            _, kind, message = outcome
            return error_response(request_id, kind, message)
        outcome = await outcome
        if outcome[0] == "ok":
            return ok_response(request_id, outcome[1])
        _, kind, message = outcome
        return error_response(request_id, kind, message)


class BackgroundServer:
    """A :class:`ReproServer` on its own thread (tests, notebooks).

    >>> with BackgroundServer(config) as server:      # doctest: +SKIP
    ...     client = ServeClient(port=server.port)
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.server: ReproServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._boot_error: BaseException | None = None

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve-background",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._boot_error is not None:
            self._thread.join()
            raise self._boot_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = ReproServer(self.config)
        try:
            await self.server.start()
        except BaseException as error:
            self._boot_error = error
            self._ready.set()
            return
        self._ready.set()
        await self.server.serve_until_stopped()

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:  # pragma: no cover - already down
                pass
        if thread is not None:
            thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def _serve_main(config: ServeConfig) -> None:
    server = ReproServer(config)
    await server.start()
    server.install_signal_handlers()
    tenants = ", ".join(sorted(server.hosts)) or "(none)"
    print(
        f"serving tenants [{tenants}] on "
        f"{config.host}:{server.port}",
        flush=True,
    )
    await server.serve_until_stopped()
    print("shutdown complete", flush=True)


def run_server(config: ServeConfig) -> None:
    """Blocking entry point for ``loom-repro serve``: serve until a
    SIGTERM/SIGINT drains the daemon gracefully."""
    asyncio.run(_serve_main(config))
