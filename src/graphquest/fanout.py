"""Overlapping a batch of independent backend calls.

A stage that needs several answers from one backend, none of which
depends on another, makes them all in one `gather`. A backend whose
calls wait on the network says so with the class attribute
`waits_on_network = True` (`SparqlKG`, `RemoteEmbeddingScorer` and
`ChatCompletionsBackend`); a batch of its calls then runs on the calling
thread's own pool of WORKERS threads, so their round trips overlap.
Every other backend is called inline, one item at a time, as a plain
loop would call it. Either way the results come back in input order, up
to the first item to fail, in input order, whose error comes back with
them. So a caller that makes its calls first and records its trace
events after, in input order, raising that error where the failed
item's events begin, records what a plain loop records.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")

# Requests in flight per calling thread. On perfbench's remote-latency
# workload (2-vCPU VM) 16 workers were no faster than 8, with label
# batches of 7 ids on average (one per hop) and of 18 (one per
# expansion).
WORKERS = 8

# One pool per calling thread, not one for the process: each of the N
# threads of `run_eval(parallelism=N)` gets up to WORKERS requests in
# flight for its own batch. One shared pool would cap all N threads'
# batches at WORKERS together, fewer than the N requests they had in
# flight one call at a time.
_local = threading.local()


def waits_on_network(backend: object) -> bool:
    return getattr(backend, "waits_on_network", False)


def gather(backend: object, call: Callable[[Item], Result],
           items: Sequence[Item]) -> tuple[list[Result], Exception | None]:
    """`call(item)` for each item, in input order, up to the first that
    fails, and that failure (None when every call succeeds).

    `backend` is the object `call` talks to; only its marker is read. A
    batch of one item runs inline too, and inline no call follows a
    failed one; on the pool, the calls not started are cancelled.
    """
    futures = []
    if len(items) > 1 and waits_on_network(backend):
        pool = _pool()
        futures = [pool.submit(call, item) for item in items]
        outcomes = (future.result() for future in futures)
    else:
        outcomes = map(call, items)
    results: list[Result] = []
    try:
        for result in outcomes:
            results.append(result)
    except Exception as exc:
        return results, exc
    finally:
        for future in futures:
            future.cancel()
    return results, None


def _pool() -> ThreadPoolExecutor:
    # Created on a thread's first batch, so importing the package starts
    # no thread. When the calling thread ends, its pool is collected and
    # the pool's idle workers exit.
    pool = getattr(_local, "pool", None)
    if pool is None:
        pool = _local.pool = ThreadPoolExecutor(
            WORKERS, thread_name_prefix="graphquest-io")
    return pool
