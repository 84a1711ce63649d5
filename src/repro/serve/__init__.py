"""The long-lived query service: load once, serve prepared queries.

Everything here is standard library only (``http.server``, ``socket``
and ``json``) — the service must run wherever the engine runs, with no
web framework in the dependency set.  The layers:

* :mod:`repro.serve.cache` — :class:`PreparedQueryCache`, a locked LRU
  of :class:`repro.core.prepare.PreparedQuery` objects keyed by dataset
  version and :func:`repro.core.prepare.prepared_cache_key`.  A hit
  skips parse/adorn/transform/compile entirely (``serve.prepared.hits``
  vs flat ``transform.*`` / ``prepare.compiles`` counters — the serve
  smoke CI job asserts exactly this).
* :mod:`repro.serve.service` — :class:`QueryService`, the HTTP-free
  core: named, versioned datasets, per-request budgets with
  sound-partial degradation, direct-execution fallback for the
  unpreparable strategies.
* :mod:`repro.serve.server` — the :class:`~http.server.ThreadingHTTPServer`
  wiring (``/health``, ``/metrics``, ``/load``, ``/prepare``,
  ``/query``), exposed to the CLI as ``repro serve``.
* :mod:`repro.serve.http11` — :func:`~repro.serve.http11.read_headers`,
  the one header-block reader both ends share (the HTTP/1.1 subset the
  service speaks; no MIME feed parser per message).
* :mod:`repro.serve.client` — :class:`ServeClient`, a thin HTTP/1.1
  socket client the tests, benchmarks, and smoke job share: one
  persistent connection per calling thread, with bounded retry across
  worker-restart windows.
* :mod:`repro.serve.pool` — :class:`WorkerPool` / :class:`PooledService`,
  the multiprocess backend (``repro serve --processes N``): pre-forked
  workers, shared-memory dataset snapshots, crash-restart, merged
  ``/metrics``.

See ``docs/SERVING.md`` for the endpoint reference and operational notes.
"""

from .cache import PreparedQueryCache
from .client import ServeClient
from .pool import PooledService, WorkerPool, WorkerPoolError
from .server import ReproServer, create_server, run_server
from .service import Dataset, QueryService

__all__ = [
    "PreparedQueryCache",
    "ServeClient",
    "PooledService",
    "WorkerPool",
    "WorkerPoolError",
    "ReproServer",
    "create_server",
    "run_server",
    "Dataset",
    "QueryService",
]
