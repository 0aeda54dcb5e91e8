"""The JSON-lines store, ordered fan-out and CSV writer every record type
shares.  A record is a frozen dataclass with a `key` tuple, `to_json()`, a
`from_json(line)` classmethod, `row()` and a `CSV_HEADER`.

The fan-out reuses one spawn pool per process, so a range of p starts the
workers and imports numpy in them once, not once per p.  A stream with
jobs > 1 checks the idle pool out and returns it when it ends or the
caller stops early; an error or an interrupt terminates it instead (see
ordered_map).  A stream that wants another worker count, or finds the pool
checked out, starts its own.  At most one pool stays idle, and that one is
terminated at exit.
"""

from __future__ import annotations

import atexit
import csv
from collections import deque
from itertools import chain
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Iterable, Iterator


class JsonlStore:
    """Append-only JSON-lines file of records keyed by each record's key.

    Subclasses set `record` to the record class.  Bytes after the last
    newline are an append cut short by a kill: they are dropped on load
    and truncated away before the next append, so that row is recomputed.
    A complete line that does not decode is an error naming path:line.
    """

    record: type

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._mem: dict[tuple, object] = {}
        self._keep: int | None = None  # file length to cut a torn tail back to
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
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="ascii") as fh:
            if self._keep is not None:
                fh.truncate(self._keep)
                self._keep = None
            fh.write(rec.to_json() + "\n")


_idle = None  # (jobs, pool): this process's idle worker pool, if any


def _take_pool(jobs: int):
    """The idle pool if it has `jobs` workers, else a new one; an idle pool
    of another size is terminated."""
    global _idle
    idle, _idle = _idle, None
    if idle is not None:
        if idle[0] == jobs:
            return idle[1]
        idle[1].terminate()
    return get_context("spawn").Pool(jobs)


def _give_back(jobs: int, pool) -> None:
    """Make pool the idle one, ending one that is idle already: a stream that
    found the pool checked out has started its own."""
    global _idle
    _end_idle_pool()
    _idle = (jobs, pool)


@atexit.register
def _end_idle_pool() -> None:
    global _idle
    if _idle is not None:
        pool = _idle[1]
        _idle = None
        pool.terminate()
        pool.join()


def ordered_map(fn: Callable[[tuple], object], tasks: Iterable[tuple], jobs: int = 1,
                store: JsonlStore | None = None) -> Iterator:
    """Yield fn(task) for each task, in task order.

    Each task is the key of the record fn returns: records in store are
    replayed verbatim and fresh ones appended to it.  With jobs = 1 a record
    is computed when it is asked for.  More jobs keep at most `jobs` tasks
    in flight in the process's reusable pool.  When the stream runs out the
    pool goes back to idle.  When the caller stops early, the tasks still
    in flight are waited for and their results dropped, so none reaches the
    store or raises, and the pool goes back to idle too.  Anything raised,
    an interrupt included, terminates the pool.
    """

    def stored(task):
        return store.get(*task) if store is not None else None

    def fresh(rec):
        if store is not None:
            store.put(rec)
        return rec

    if jobs <= 1:
        for task in tasks:
            rec = stored(task)
            yield fresh(fn(task)) if rec is None else rec
        return

    def settle(rec, pending):
        return rec if pending is None else fresh(pending.get())

    pool = _take_pool(jobs)
    window: deque = deque()  # (replayed record, None) or (None, pending result)
    try:
        try:
            for task in tasks:
                rec = stored(task)
                window.append((rec, None if rec is not None else pool.apply_async(fn, (task,))))
                while window and (len(window) >= jobs or window[0][1] is None):
                    yield settle(*window.popleft())
            while window:
                yield settle(*window.popleft())
        except GeneratorExit:
            for _, pending in window:
                if pending is not None:
                    pending.wait()  # never raises; the result is dropped
    except BaseException:
        pool.terminate()
        raise
    _give_back(jobs, pool)


def write_csv(fh, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """A header line, then one line per row, in the csv module's default dialect."""
    csv.writer(fh).writerows(chain([header], rows))
