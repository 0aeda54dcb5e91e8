"""The JSON-lines store and the ordered fan-out every record type shares."""

import json
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from primarity import records
from primarity.records import JsonlStore, ordered_map


@dataclass(frozen=True)
class Square:
    n: int
    sq: int

    @property
    def key(self):
        return (self.n,)

    def to_json(self):
        return json.dumps({"n": self.n, "sq": self.sq})

    @classmethod
    def from_json(cls, line):
        d = json.loads(line)
        return cls(d["n"], d["sq"])


class SquareStore(JsonlStore):
    record = Square


def square(task):
    if task == (13,):
        raise ValueError("unlucky")
    return Square(task[0], task[0] ** 2)


class FakePool:
    """Runs each task when its result is read; records what the fan-out asks."""

    def __init__(self, jobs):
        self.calls = []
        self.in_flight = 0
        self.peak = 0
        FakePool.last = self

    def apply_async(self, fn, args):
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)

        def get():
            self.in_flight -= 1
            return fn(*args)

        return SimpleNamespace(get=get)

    def close(self):
        self.calls.append("close")

    def join(self):
        self.calls.append("join")

    def terminate(self):
        self.calls.append("terminate")


@pytest.fixture
def fake_pool(monkeypatch):
    monkeypatch.setattr(records, "get_context", lambda method: SimpleNamespace(Pool=FakePool))


def test_store_drops_a_torn_tail_and_cuts_it_before_the_next_append(tmp_path):
    path = tmp_path / "sq.jsonl"
    path.write_text('{"n": 2, "sq": 4}\n{"n": 3, "s')
    store = SquareStore(path)
    assert len(store) == 1
    assert store.get(3) is None
    assert path.read_text().endswith('"s')  # loading alone leaves the file as it is
    store.put(Square(3, 9))
    assert path.read_text() == '{"n": 2, "sq": 4}\n{"n": 3, "sq": 9}\n'


def test_store_names_the_line_that_does_not_decode(tmp_path):
    path = tmp_path / "sq.jsonl"
    path.write_text('{"n": 2, "sq": 4}\n{"n": 3}\n')
    with pytest.raises(ValueError, match=r"sq\.jsonl:2: bad record: KeyError\('sq'\)"):
        SquareStore(path)


def test_serial_map_computes_on_demand_and_replays_the_store(tmp_path):
    store = SquareStore(tmp_path / "sq.jsonl")
    store.put(Square(2, -1))  # replayed verbatim, never recomputed
    seen = []

    def counted(task):
        seen.append(task)
        return square(task)

    stream = ordered_map(counted, ((n,) for n in range(1, 100)), store=store)
    assert [next(stream).sq for _ in range(3)] == [1, -1, 9]
    assert seen == [(1,), (3,)]
    assert len(store) == 3


def test_pooled_map_keeps_order_and_bounds_work_in_flight(fake_pool, tmp_path):
    store = SquareStore(tmp_path / "sq.jsonl")
    store.put(Square(4, -1))
    got = [r.sq for r in ordered_map(square, [(n,) for n in range(1, 9)], 3, store)]
    assert got == [1, 4, 9, -1, 25, 36, 49, 64]
    assert FakePool.last.peak == 3
    assert FakePool.last.calls == ["close", "join"]
    assert len(store) == 8


def test_pooled_map_terminates_on_early_close_and_on_error(fake_pool):
    stream = ordered_map(square, [(n,) for n in range(1, 9)], 2)
    assert next(stream).sq == 1
    stream.close()
    assert FakePool.last.calls == ["terminate"]
    with pytest.raises(ValueError, match="unlucky"):
        list(ordered_map(square, [(n,) for n in range(10, 20)], 2))
    assert FakePool.last.calls == ["terminate"]
