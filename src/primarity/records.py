"""The JSON-lines store, ordered fan-out and CSV writer every record type
shares.  A record is a frozen dataclass with a `key` tuple, `to_json()`, a
`from_json(line)` classmethod, `row()` and a `CSV_HEADER`.
"""

from __future__ import annotations

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


def ordered_map(fn: Callable[[tuple], object], tasks: Iterable[tuple], jobs: int = 1,
                store: JsonlStore | None = None) -> Iterator:
    """Yield fn(task) for each task, in task order.

    Each task is the key of the record fn returns: records in store are
    replayed verbatim and fresh ones appended to it.  With jobs = 1 a record
    is computed when it is asked for; more jobs keep at most `jobs` tasks in
    flight in a process pool, which is terminated when the caller stops
    early or anything raises and closed only when the stream runs out.
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

    pool = get_context("spawn").Pool(jobs)
    try:
        window: deque = deque()  # (replayed record, None) or (None, pending result)
        for task in tasks:
            rec = stored(task)
            window.append((rec, None if rec is not None else pool.apply_async(fn, (task,))))
            while window and (len(window) >= jobs or window[0][1] is None):
                yield settle(*window.popleft())
        for entry in window:
            yield settle(*entry)
    except BaseException:
        pool.terminate()
        raise
    pool.close()
    pool.join()


def write_csv(fh, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """A header line, then one line per row, in the csv module's default dialect."""
    csv.writer(fh).writerows(chain([header], rows))
