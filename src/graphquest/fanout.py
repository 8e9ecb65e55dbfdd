"""Overlapping a batch of independent backend calls.

A stage that needs several answers from one backend, none of which
depends on another, asks for them through `results`. A backend whose
calls wait on the network says so with the class attribute
`waits_on_network = True` (`SparqlKG`, `RemoteEmbeddingScorer` and
`ChatCompletionsBackend`); a batch of its calls then runs on the calling
thread's own pool of WORKERS threads, so their round trips overlap.
Every other backend is called inline, one item at a time, as a plain
loop would call it. Either way the results come back in input order,
and the first item to fail, in input order, raises its own error at the
same point. So a caller that makes its calls first and records its
trace events after, in input order, records what a plain loop records,
up to the same failure.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from types import GeneratorType
from typing import Callable, Iterable, Iterator, TypeVar

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


def results(backend: object, call: Callable[[Item], Result],
            items: Iterable[Item]) -> Iterator[Result]:
    """`call(item)` for each item, yielded in input order.

    `backend` is the object `call` talks to; only its marker is read.
    Inline, `items` is read lazily, one item per result; for the pool it
    is read whole first. A batch of one item runs inline too. On the
    calling thread's pool, once an item fails, the items not yet started
    are cancelled.
    """
    if not waits_on_network(backend):
        return map(call, items)
    items = list(items)
    if len(items) < 2:
        return map(call, items)
    pool = _pool()
    return _in_order([pool.submit(call, item) for item in items])


def close(batch: Iterator) -> None:
    """Give up the rest of a `results` batch. On the pool, the calls not
    started are cancelled and those running still finish; an inline
    batch makes no call until it is read, so nothing is left to stop."""
    if isinstance(batch, GeneratorType):
        batch.close()


def _in_order(futures: list[Future]) -> Iterator:
    try:
        for future in futures:
            yield future.result()
    finally:
        for future in futures:
            future.cancel()


def _pool() -> ThreadPoolExecutor:
    # Created on a thread's first batch, so importing the package starts
    # no thread. When the calling thread ends, its pool is collected and
    # the pool's idle workers exit.
    pool = getattr(_local, "pool", None)
    if pool is None:
        pool = _local.pool = ThreadPoolExecutor(
            WORKERS, thread_name_prefix="graphquest-io")
    return pool
