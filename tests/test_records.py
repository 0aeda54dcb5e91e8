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

    made = 0

    def __init__(self, jobs):
        self.calls = []
        self.in_flight = 0
        self.peak = 0
        FakePool.last = self
        FakePool.made += 1

    def apply_async(self, fn, args):
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        done = []

        def get():
            if not done:
                self.in_flight -= 1
                done.append(fn(*args))
            return done[0]

        return SimpleNamespace(get=get)

    def join(self):
        self.calls.append("join")

    def terminate(self):
        self.calls.append("terminate")


@pytest.fixture
def fake_pool(monkeypatch):
    # an empty slot: no real pool is reused here and no fake outlives the test
    monkeypatch.setattr(records, "_pool", None)
    monkeypatch.setattr(records, "get_context", lambda method: SimpleNamespace(Pool=FakePool))
    FakePool.made = 0


def test_store_drops_a_torn_tail_and_cuts_it_before_the_next_append(tmp_path):
    path = tmp_path / "sq.jsonl"
    path.write_text('{"n": 2, "sq": 4}\n{"n": 3, "s')
    store = SquareStore(path)
    assert len(store) == 1
    assert store.get(3) is None
    assert path.read_text().endswith('"s')  # loading alone leaves the file as it is
    store.put(Square(3, 9))
    assert path.read_text() == '{"n": 2, "sq": 4}\n{"n": 3, "sq": 9}\n'
    store.put(Square(4, 16))  # through the same handle, after the cut
    assert path.read_text() == '{"n": 2, "sq": 4}\n{"n": 3, "sq": 9}\n{"n": 4, "sq": 16}\n'
    assert len(SquareStore(path)) == 3


def test_store_that_never_puts_creates_nothing(tmp_path):
    store = SquareStore(tmp_path / "cache" / "sq.jsonl")
    assert store.get(2) is None and len(store) == 0
    del store
    assert list(tmp_path.iterdir()) == []


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
    assert len(store) == 8


def test_pooled_map_reuses_one_pool_across_streams(fake_pool):
    for _ in range(3):
        assert [r.sq for r in ordered_map(square, [(n,) for n in range(1, 6)], 2)] == \
            [1, 4, 9, 16, 25]
    assert FakePool.made == 1
    assert FakePool.last.calls == []
    assert records._pool == (2, FakePool.last)


def test_pooled_map_drops_results_in_flight_on_early_close(fake_pool, tmp_path):
    store = SquareStore(tmp_path / "sq.jsonl")
    # 13 is in flight when the caller stops: never read, so its error never comes up
    stream = ordered_map(square, [(n,) for n in range(11, 20)], 3, store)
    assert next(stream).sq == 121
    pool = FakePool.last
    assert pool.in_flight == 2
    stream.close()
    assert pool.in_flight == 2  # nothing waited for or read
    assert pool.calls == []
    assert len(store) == 1
    assert records._pool == (3, pool)
    assert [r.sq for r in ordered_map(square, [(2,)], 3)] == [4]
    assert FakePool.made == 1


def test_pooled_map_replays_a_full_store_without_a_pool(fake_pool, tmp_path):
    store = SquareStore(tmp_path / "sq.jsonl")
    for n in range(1, 6):
        store.put(Square(n, -n))
    got = [r.sq for r in ordered_map(square, [(n,) for n in range(1, 6)], 2, store)]
    assert got == [-1, -2, -3, -4, -5]
    assert FakePool.made == 0
    assert records._pool is None
    # a replayed record is handed over before the task after it is sent
    stream = ordered_map(square, [(5,), (6,)], 2, store)
    assert next(stream).sq == -5
    assert FakePool.made == 0
    assert [r.sq for r in stream] == [36]
    assert FakePool.made == 1


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_pooled_map_terminates_and_drops_the_pool_on_error(fake_pool, error):
    def failing(task):
        if task == (3,):
            raise error("stop")
        return square(task)

    with pytest.raises(error, match="stop"):
        list(ordered_map(failing, [(n,) for n in range(1, 9)], 2))
    broken = FakePool.last
    assert broken.calls == ["terminate", "join"]
    assert records._pool is None
    assert [r.sq for r in ordered_map(square, [(5,), (6,)], 2)] == [25, 36]
    assert FakePool.made == 2
    assert records._pool == (2, FakePool.last)


def test_pooled_map_replaces_an_idle_pool_of_another_size(fake_pool):
    assert [r.sq for r in ordered_map(square, [(1,), (2,)], 2)] == [1, 4]
    two = FakePool.last
    assert [r.sq for r in ordered_map(square, [(1,), (2,)], 3)] == [1, 4]
    assert FakePool.made == 2
    assert two.calls == ["terminate", "join"]
    assert records._pool == (3, FakePool.last)


def test_interleaved_streams_share_one_pool_and_keep_their_order(fake_pool):
    outer = ordered_map(square, [(n,) for n in range(1, 6)], 2)
    inner = ordered_map(square, [(n,) for n in range(6, 11)], 2)
    assert next(outer).sq == 1
    assert [r.sq for r in inner] == [36, 49, 64, 81, 100]
    assert [r.sq for r in outer] == [4, 9, 16, 25]
    assert FakePool.made == 1
    assert FakePool.last.calls == []
    assert records._pool == (2, FakePool.last)
