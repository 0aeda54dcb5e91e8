"""The JSON-lines store, ordered fan-out and CSV writer every record type
shares.  A record is a frozen dataclass with a `key` tuple, `to_json()`, a
`from_json(line)` classmethod, `row()` and a `CSV_HEADER`.

The fan-out keeps one pool slot per process, so a range of p starts the
workers and imports numpy in them once, not once per p.  The slot fills at
the first task a store misses with jobs > 1, is replaced when a stream asks
for another worker count, and ends on an error or an interrupt and at exit.
A stream the caller stops early leaves its unread results in flight and the
pool in the slot (see ordered_map).
"""

from __future__ import annotations

import atexit
import csv
import weakref
from collections import deque
from functools import partial
from itertools import chain
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Iterable, Iterator


class JsonlStore:
    """Append-only JSON-lines file of records keyed by each record's key.

    Subclasses set `record` to the record class.  Bytes after the last
    newline are an append cut short by a kill: they are dropped on load
    and truncated away before the first append, so that row is recomputed.
    The first put opens the one append handle of the store, closed with
    the store or at exit, and each put flushes its line, so a kill leaves
    at most one torn line.  A complete line that does not decode is an
    error naming path:line.
    """

    record: type

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._mem: dict[tuple, object] = {}
        self._keep: int | None = None  # file length to cut a torn tail back to
        self._fh = None  # the append handle, opened by the first put
        if not self.path.exists():
            return
        end = 0
        with open(self.path, "rb") as fh:
            for n, line in enumerate(fh, 1):
                if not line.endswith(b"\n"):
                    self._keep = end
                    break
                end += len(line)
                if not line.strip():
                    continue
                try:
                    rec = self.record.from_json(line)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{self.path}:{n}: bad record: {exc!r}") from None
                self._mem[rec.key] = rec

    def __len__(self) -> int:
        return len(self._mem)

    def get(self, *key):
        return self._mem.get(key)

    def put(self, rec) -> None:
        """Append rec unless a record with its key is stored already."""
        if rec.key in self._mem:
            return
        self._mem[rec.key] = rec
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="ascii")
            weakref.finalize(self, self._fh.close)
            if self._keep is not None:
                self._fh.truncate(self._keep)
        self._fh.write(rec.to_json() + "\n")
        self._fh.flush()


_pool = None  # (jobs, pool): this process's worker pool, started at the first store miss


def _pool_for(jobs: int):
    """The slot's pool if it has `jobs` workers, else a new one in its place."""
    global _pool
    if _pool is None or _pool[0] != jobs:
        _end_pool()
        _pool = (jobs, get_context("spawn").Pool(jobs))
    return _pool[1]


@atexit.register
def _end_pool() -> None:
    global _pool
    slot, _pool = _pool, None
    if slot is not None:
        slot[1].terminate()
        slot[1].join()


def ordered_map(fn: Callable[[tuple], object], tasks: Iterable[tuple], jobs: int = 1,
                store: JsonlStore | None = None) -> Iterator:
    """Yield fn(task) for each task, in task order.

    Each task is the key of the record fn returns: records in store are
    replayed verbatim and fresh ones appended to it in task order.  With
    jobs = 1 a record is computed in this process when it is asked for;
    more jobs keep at most `jobs` tasks in flight in the slot's pool, which
    starts at the first task the store misses, so a fully replayed stream
    starts none.  When the caller stops early, the results in flight are
    dropped unread: they reach neither the store nor the caller, and the
    pool stays for the next stream.  Anything raised, an interrupt included,
    ends the pool.  Interleaved streams share the slot, so they must ask for
    the same jobs, and an error in one ends the pool the others read from.
    """
    window: deque = deque()  # (replayed record, None) or (None, reader of a fresh one)
    try:
        for task in tasks:
            rec = store.get(*task) if store is not None else None
            read = None if rec is not None else (
                _pool_for(jobs).apply_async(fn, (task,)).get if jobs > 1 else partial(fn, task))
            window.append((rec, read))
            while window and (len(window) >= jobs or window[0][1] is None):
                yield _settle(store, *window.popleft())
        while window:
            yield _settle(store, *window.popleft())
    except GeneratorExit:
        raise
    except BaseException:
        _end_pool()
        raise


def _settle(store, rec, read):
    if read is not None:
        rec = read()
        if store is not None:
            store.put(rec)
    return rec


def write_csv(fh, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """A header line, then one line per row, in the csv module's default dialect."""
    csv.writer(fh).writerows(chain([header], rows))
