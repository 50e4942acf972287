"""Request coalescing: the prices of one event-loop tick -> one evaluation.

``/v1/price`` handlers resumed in the same event-loop iteration join one
:func:`price_batch` pass: the first :meth:`PriceBatcher.submit` of a
tick schedules a flush with ``loop.call_soon``, every later submit of
that tick appends to it, and the flush prices up to
``REPRO_SERVER_MAX_BATCH`` members in a single batch evaluation per
distinct hot profile.  A remainder rides the next tick,
so one tick never prices more than that many rows.  No request waits
for others to join: an idle server prices a lone request on the tick
after it arrives, while requests that arrived as the loop was busy are
read in one iteration and share a batch.  Each request still receives
exactly the bits a solo evaluation would produce -- the batch engine is
bit-identical per row regardless of batch composition -- so coalescing
changes throughput, never results.  A batch that fails to price is
priced again member by member, so one unpriceable request fails alone.

Everything runs on the event-loop thread, pricing included: pricing a
few rows holds the interpreter lock either way, so a worker-thread hop
would add a hand-off per batch and no parallelism.
"""

from __future__ import annotations

import asyncio

from repro.server.settings import ServerSettings
from repro.server.stats import ServerStats


def price_batch(entries: list[tuple]) -> list:
    """Price ``[(hw, vectors), ...]`` -- one engine, one pass per profile.

    The configurations lower into one :class:`~repro.nfp.linear.BatchNfpEngine`
    (rows deduplicated across the whole batch); each distinct profile in
    the batch is then evaluated once and every entry picks its own row.
    Pure function of its arguments, safe to run in any thread.
    """
    from repro.nfp.linear import BatchNfpEngine
    engine = BatchNfpEngine([hw for hw, _ in entries])
    # keyed by id: every vectors object is alive in ``entries`` for the
    # whole call, so ids are unique per distinct profile here
    groups: dict[int, tuple[object, list[int]]] = {}
    for i, (_, vectors) in enumerate(entries):
        groups.setdefault(id(vectors), (vectors, []))[1].append(i)
    out: list = [None] * len(entries)
    for vectors, indices in groups.values():
        priced = engine.evaluate(vectors)
        for i in indices:
            out[i] = priced[i]
    return out


class PriceBatcher:
    """Per-tick coalescing in front of the batch evaluator."""

    def __init__(self, settings: ServerSettings, stats: ServerStats):
        self._max_batch = max(1, settings.max_batch)
        self._stats = stats
        #: (hw, vectors, future); a flush is scheduled while non-empty
        self._pending: list[tuple] = []

    async def submit(self, hw, vectors):
        """Price one configuration in this tick's batch.

        Returns the entry's :class:`~repro.nfp.linear.LinearNfp`.  When
        the batch fails to price, every member is priced alone, so only
        a member whose own pricing fails receives the exception.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if not self._pending:
            loop.call_soon(self._flush)
        self._pending.append((hw, vectors, future))
        return await future

    def _flush(self) -> None:
        chunk = self._pending[:self._max_batch]
        del self._pending[:self._max_batch]
        if self._pending:
            asyncio.get_running_loop().call_soon(self._flush)
        # a cancelled submitter's future is already done: skip its row
        chunk = [entry for entry in chunk if not entry[2].done()]
        if not chunk:
            return
        self._stats.record_batch(len(chunk))
        try:
            priced = price_batch([(hw, vectors) for hw, vectors, _ in chunk])
        except Exception:
            # price each member alone, so a failure stays with its member
            for hw, vectors, future in chunk:
                try:
                    nfp = price_batch([(hw, vectors)])[0]
                except Exception as exc:
                    future.set_exception(exc)
                else:
                    future.set_result(nfp)
            return
        for (_, _, future), nfp in zip(chunk, priced):
            future.set_result(nfp)
