"""The photo-sharing application of §2.2 and the Table 1 scenarios.

The module has two halves:

1. :func:`table1_scenarios` constructs the invariant-violation and anomaly
   histories of Table 1 (I1, I2, A1, A2, A3) against the composite
   key-value-store + messaging-service specification, together with the
   verdict each consistency model should give.  The Table 1 benchmark and the
   unit tests replay them through the checkers.

2. :class:`PhotoSharingApp` is a runnable version of the application on top
   of a simulated Spanner / Spanner-RSS cluster and the messaging service,
   with libRSS inserting real-time fences when a process switches services
   (§4.1).  Web servers add photos (a read-write transaction followed by an
   enqueue); workers dequeue photo ids and fetch the photo data; users view
   albums with read-only transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.api import Store, UnsupportedOperationError
from repro.core.events import Operation
from repro.core.history import History
from repro.core.librss import LibRSS
from repro.core.specification import (
    CompositeSpec,
    FifoQueueSpec,
    SequentialSpec,
    TransactionalKVSpec,
)
from repro.apps.messaging import MessageQueueClient, MessageQueueServer

__all__ = ["Table1Scenario", "table1_scenarios", "PhotoSharingApp", "WebServer"]


# --------------------------------------------------------------------------- #
# Table 1 scenarios
# --------------------------------------------------------------------------- #
@dataclass
class Table1Scenario:
    """A candidate execution for one cell group of Table 1.

    ``admitted_by`` maps model name → whether the model admits the execution.
    For invariant rows (I1, I2), a model under which the execution is
    *rejected* preserves the invariant; for anomaly rows (A1-A3), a model that
    admits the execution exposes the anomaly.
    """

    name: str
    column: str
    description: str
    history: History
    spec: SequentialSpec
    admitted_by: Dict[str, bool]


def _composite_spec() -> CompositeSpec:
    return CompositeSpec({"kv": TransactionalKVSpec(), "queue": FifoQueueSpec()})


def _i1_violation() -> Table1Scenario:
    history = History()
    history.add(Operation.rw_txn(
        "web1", read_set={"album:alice": None},
        write_set={"album:alice": ("p1",), "photo:p1": "data1"},
        invoked_at=0, responded_at=10, service="kv"))
    history.add(Operation.ro_txn(
        "web2", read_set={"album:alice": ("p1",), "photo:p1": None},
        invoked_at=20, responded_at=30, service="kv"))
    return Table1Scenario(
        name="i1_violation", column="I1",
        description="an album references a photo whose data reads as null",
        history=history, spec=_composite_spec(),
        admitted_by={"strict_serializability": False, "rss": False,
                     "po_serializability": False},
    )


def _i2_violation() -> Table1Scenario:
    history = History()
    history.add(Operation.rw_txn(
        "web1", read_set={}, write_set={"photo:p1": "data1"},
        invoked_at=0, responded_at=10, service="kv"))
    history.add(Operation.enqueue(
        "web1", "thumbnail-jobs", "p1",
        invoked_at=12, responded_at=14, service="queue"))
    history.add(Operation.dequeue(
        "worker1", "thumbnail-jobs", "p1",
        invoked_at=20, responded_at=22, service="queue"))
    history.add(Operation.ro_txn(
        "worker1", read_set={"photo:p1": None},
        invoked_at=24, responded_at=30, service="kv"))
    return Table1Scenario(
        name="i2_violation", column="I2",
        description="a worker dequeues a photo id but reads null photo data",
        history=history, spec=_composite_spec(),
        admitted_by={"strict_serializability": False, "rss": False,
                     "po_serializability": True},
    )


def _a1_lost_photo() -> Table1Scenario:
    history = History()
    history.add(Operation.rw_txn(
        "web1", read_set={"album:alice": None},
        write_set={"album:alice": ("p1",), "photo:p1": "data1"},
        invoked_at=0, responded_at=10, service="kv"))
    # The second add fails to observe the first, losing photo p1.
    history.add(Operation.rw_txn(
        "web1", read_set={"album:alice": None},
        write_set={"album:alice": ("p2",), "photo:p2": "data2"},
        invoked_at=20, responded_at=30, service="kv"))
    history.add(Operation.ro_txn(
        "web2", read_set={"album:alice": ("p2",)},
        invoked_at=40, responded_at=50, service="kv"))
    return Table1Scenario(
        name="a1_lost_photo", column="A1",
        description="Alice adds two photos; later only one is in her album",
        history=history, spec=_composite_spec(),
        admitted_by={"strict_serializability": False, "rss": False,
                     "po_serializability": False},
    )


def _a2_completed_write_invisible() -> Table1Scenario:
    history = History()
    history.add(Operation.rw_txn(
        "web1", read_set={"album:alice": None},
        write_set={"album:alice": ("p1",), "photo:p1": "data1"},
        invoked_at=0, responded_at=10, service="kv"))
    # Alice calls Bob on the phone (not captured by the application), and
    # Bob's Web server still reads the old album afterwards.
    history.add(Operation.ro_txn(
        "web2", read_set={"album:alice": None},
        invoked_at=20, responded_at=30, service="kv"))
    return Table1Scenario(
        name="a2_completed_write_invisible", column="A2",
        description="Alice adds a photo and calls Bob; Bob does not see it",
        history=history, spec=_composite_spec(),
        admitted_by={"strict_serializability": False, "rss": False,
                     "po_serializability": True},
    )


def _a3_concurrent_write_invisible(after_completion: bool) -> Table1Scenario:
    history = History()
    charlie_end = 25 if after_completion else 100
    history.add(Operation.rw_txn(
        "web3", read_set={"album:charlie": None},
        write_set={"album:charlie": ("p9",), "photo:p9": "data9"},
        invoked_at=0, responded_at=charlie_end, service="kv"))
    history.add(Operation.ro_txn(
        "web1", read_set={"album:charlie": ("p9",), "photo:p9": "data9"},
        invoked_at=5, responded_at=15, service="kv"))
    # Alice calls Bob (uncaptured); Bob reads afterwards and misses the photo.
    history.add(Operation.ro_txn(
        "web2", read_set={"album:charlie": None, "photo:p9": None},
        invoked_at=30, responded_at=40, service="kv"))
    if after_completion:
        name = "a3_after_write_completes"
        description = ("Alice saw Charlie's photo; Bob reads after Charlie's "
                       "add finished and misses it")
        admitted = {"strict_serializability": False, "rss": False,
                    "po_serializability": True}
    else:
        name = "a3_during_write"
        description = ("Alice saw Charlie's in-flight photo; Bob reads while "
                       "the add is still running and misses it")
        admitted = {"strict_serializability": False, "rss": True,
                    "po_serializability": True}
    return Table1Scenario(
        name=name, column="A3", description=description,
        history=history, spec=_composite_spec(), admitted_by=admitted,
    )


def table1_scenarios() -> List[Table1Scenario]:
    """All Table 1 scenario executions."""
    return [
        _i1_violation(),
        _i2_violation(),
        _a1_lost_photo(),
        _a2_completed_write_invisible(),
        _a3_concurrent_write_invisible(after_completion=False),
        _a3_concurrent_write_invisible(after_completion=True),
    ]


# --------------------------------------------------------------------------- #
# Runnable application
# --------------------------------------------------------------------------- #
JOB_QUEUE = "thumbnail-jobs"


@dataclass
class WebServer:
    """One application server: a kv session plus a queue session."""

    name: str
    kv: Any
    queue: Any


class PhotoSharingApp:
    """The photo-sharing application running on Spanner(-RSS) + messaging.

    The application is written against the unified client API: it takes a
    :class:`repro.api.Store` (e.g. ``open_store("sim-spanner")``) and its
    web servers hold :class:`repro.api.Session` objects — the application
    logic itself only speaks the unified vocabulary (``txn``, ``read_only``,
    ``fence``).  It needs a *simulated transactional* store: the messaging
    service is an in-simulator node, so the store must expose the sim
    environment/network, and ``add_photo`` uses multi-key transactions.

    All methods that perform service operations are generators intended to be
    driven by the simulation (``yield from app.add_photo(...)``).
    """

    def __init__(self, store: Store, queue_site: str = "CA"):
        if not store.supports("multi_key_txn"):
            raise UnsupportedOperationError(
                "PhotoSharingApp needs a transactional backend "
                "(multi_key_txn); open a sim-spanner store")
        if not hasattr(store, "network"):
            raise TypeError(
                "PhotoSharingApp runs inside the simulator (its messaging "
                "service is a sim node); open a simulated store, not "
                f"{type(store).__name__}")
        self.store = store
        self.cluster = store.cluster
        self.librss = LibRSS()
        self.mq_server = MessageQueueServer(store.env, store.network,
                                            name="mq", site=queue_site)
        self._servers: List[WebServer] = []
        self.librss.register_service("kv", self._kv_fence)
        self.librss.register_service("queue", lambda process: None)
        self.job_results: List[Tuple[str, Any]] = []
        self.album_views: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------ #
    def _kv_fence(self, process: str):
        """Real-time fence for the Spanner-RSS service (§5.1)."""
        server = self._server_by_name(process)
        yield from server.kv.fence()

    def _server_by_name(self, name: str) -> WebServer:
        for server in self._servers:
            if server.name == name:
                return server
        raise KeyError(name)

    def new_web_server(self, site: str, name: Optional[str] = None) -> WebServer:
        """Create an application server (or worker) located at ``site``."""
        name = name or f"web{len(self._servers) + 1}@{site}"
        kv_session = self.store.session(site, name=f"{name}-kv")
        queue_client = MessageQueueClient(
            self.store.env, self.store.network, name=f"{name}-mq", site=site,
            server="mq", history=self.store.history,
            recorder=self.store.recorder,
        )
        server = WebServer(name=name, kv=kv_session, queue=queue_client)
        self._servers.append(server)
        return server

    # ------------------------------------------------------------------ #
    # Application operations
    # ------------------------------------------------------------------ #
    @staticmethod
    def album_key(user: str) -> str:
        return f"album:{user}"

    @staticmethod
    def photo_key(photo_id: str) -> str:
        return f"photo:{photo_id}"

    def add_photo(self, server: WebServer, user: str, photo_id: str, data: str):
        """Add a photo: one read-write transaction, then an async job enqueue."""
        album_key = self.album_key(user)
        photo_key = self.photo_key(photo_id)

        def update(reads: Dict[str, Any]) -> Dict[str, Any]:
            album = tuple(reads.get(album_key) or ())
            return {album_key: album + (photo_id,), photo_key: data}

        yield from self.librss.start_transaction(server.name, "kv")
        yield from server.kv.txn([album_key], update)
        yield from self.librss.start_transaction(server.name, "queue")
        yield from server.queue.enqueue(JOB_QUEUE, photo_id)
        return photo_id

    def process_next_job(self, worker: WebServer):
        """Worker loop body: dequeue a photo id and fetch its data (I2)."""
        yield from self.librss.start_transaction(worker.name, "queue")
        photo_id = yield from worker.queue.dequeue(JOB_QUEUE)
        if photo_id is None:
            return None
        yield from self.librss.start_transaction(worker.name, "kv")
        values = yield from worker.kv.read_only([self.photo_key(photo_id)])
        data = values[self.photo_key(photo_id)]
        self.job_results.append((photo_id, data))
        return photo_id, data

    def view_album(self, server: WebServer, user: str):
        """Read an album and all its photos (I1)."""
        album_key = self.album_key(user)
        yield from self.librss.start_transaction(server.name, "kv")
        album_values = yield from server.kv.read_only([album_key])
        photo_ids = tuple(album_values.get(album_key) or ())
        if not photo_ids:
            self.album_views.append({})
            return {}
        photo_keys = [self.photo_key(photo_id) for photo_id in photo_ids]
        photo_values = yield from server.kv.read_only(photo_keys)
        view = {photo_id: photo_values[self.photo_key(photo_id)]
                for photo_id in photo_ids}
        self.album_views.append(view)
        return view
