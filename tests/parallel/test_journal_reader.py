"""The outcome journal's incremental reader.

A long-lived :class:`OutcomeJournal` parses only what was appended since
its last read, so an executor that runs one batch per job (the service
daemon) does work per job that does not grow with the journal.  The
property below holds that reader to the from-scratch answer after every
kind of change a journal file sees: appends from this and another
writer, torn tails, truncation and replacement.
"""

import json
import os
import tempfile
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.types import CollectiveOp
from repro.parallel import supervisor
from repro.parallel.executor import ParallelExecutor, RunPoint
from repro.parallel.supervisor import JOURNAL_SCHEMA, OutcomeJournal

from _supervision_helpers import small_torus

KEYS = ("k0", "k1", "k2", "k3")


def readlines_outcomes(path: str) -> dict:
    """Key → last outcome record, read the way the journal was read
    before it read incrementally: every line of the file, every time."""
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError:
        return {}
    index = {}
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if (isinstance(record, dict) and record.get("schema") == JOURNAL_SCHEMA
                and record.get("type", "outcome") == "outcome" and record.get("key")):
            index[record["key"]] = record
    return index


def line(record: dict) -> bytes:
    return (json.dumps({"schema": JOURNAL_SCHEMA, **record}, sort_keys=True)
            + "\n").encode()


records = st.builds(
    lambda kind, key, status: ({"type": "job", "key": key, "job_id": key}
                               if kind == "job" else
                               {"type": "outcome", "key": key, "status": status}),
    st.sampled_from(("outcome", "outcome", "job")),
    st.sampled_from(KEYS),
    st.sampled_from(("ok", "failed", "quarantined")))

steps = st.one_of(
    st.tuples(st.just("append"), records),        # this journal appends
    st.tuples(st.just("other"), records),         # a second writer appends
    st.tuples(st.just("torn"), records, st.floats(0.0, 1.0)),
    st.tuples(st.just("unterminated"), records),  # whole record, no newline
    st.tuples(st.just("newline")),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("replace"), st.lists(records, max_size=4)),
    st.tuples(st.just("delete")),
)


def apply(step, path: str, journal: OutcomeJournal, other: OutcomeJournal) -> None:
    kind = step[0]
    if kind == "append":
        journal.append(step[1])
    elif kind == "other":
        other.append(step[1])
    elif kind in ("torn", "unterminated", "newline"):
        data = (b"\n" if kind == "newline" else line(step[1])[:-1])
        if kind == "torn":
            data = data[:int(len(data) * step[2])]
        with open(path, "ab") as f:
            f.write(data)
    elif kind == "truncate":
        if os.path.exists(path):
            os.truncate(path, int(os.path.getsize(path) * step[1]))
    elif kind == "replace":
        with open(path + ".tmp", "wb") as f:
            f.write(b"".join(line(r) for r in step[1]))
        os.replace(path + ".tmp", path)
    elif kind == "delete":
        if os.path.exists(path):
            os.unlink(path)


class TestIncrementalReader:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(steps, max_size=25))
    def test_index_equals_a_full_reload_after_every_step(self, script):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "journal.jsonl")
            journal = OutcomeJournal(path)
            other = OutcomeJournal(path)
            for step in script:
                apply(step, path, journal, other)
                journal.read()
                expected = OutcomeJournal.load(path)
                assert journal.outcomes == expected
                assert expected == readlines_outcomes(path)

    def test_read_returns_only_new_complete_lines(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = OutcomeJournal(path)
        journal.append({"type": "outcome", "key": "a", "status": "ok"})
        assert [r["key"] for r in journal.read()] == ["a"]
        assert journal.read() == []
        journal.append({"type": "job", "key": "b", "job_id": "j1"})
        assert [r["key"] for r in journal.read()] == ["b"]
        assert set(journal.outcomes) == {"a"}

    def test_unterminated_tail_counts_until_it_is_torn(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = OutcomeJournal(path)
        with open(path, "ab") as f:
            f.write(line({"type": "outcome", "key": "t", "status": "ok"})[:-1])
        journal.read()
        assert set(journal.outcomes) == {"t"}
        # The next append lands on the same line: both records are lost,
        # exactly as a full reload reads the file.
        journal.append({"type": "outcome", "key": "u", "status": "ok"})
        journal.read()
        assert journal.outcomes == OutcomeJournal.load(path) == {}


def _one_point(size: float) -> list[RunPoint]:
    # A lambda does not pickle, so the supervised point runs in the parent.
    return [RunPoint(builder=lambda: small_torus(), op=CollectiveOp.ALL_REDUCE,
                     size_bytes=size)]


class TestBatchesParseEachLineOnce:
    def test_one_point_batches_parse_journal_lines_a_bounded_number_of_times(
            self, tmp_path, monkeypatch):
        """200 one-point batches (the daemon's shape, a quarter of them
        repeats served from the journal) parse journal lines at most
        twice each in total, not once per batch."""
        calls = []

        def loads(text, *args, **kwargs):
            calls.append(text)
            return json.loads(text, *args, **kwargs)

        monkeypatch.setattr(supervisor, "json", types.SimpleNamespace(
            loads=loads, dumps=json.dumps, dump=json.dump))
        path = str(tmp_path / "journal.jsonl")
        sizes = [1024.0 * (1 + i % 150) for i in range(200)]
        with ParallelExecutor(jobs=1, journal_path=path) as executor:
            outcomes = [executor.run_outcomes(_one_point(size))[0]
                        for size in sizes]
        assert all(o.ok for o in outcomes)
        assert sum(o.from_journal for o in outcomes) == 50
        assert executor.simulations_run == 150
        with open(path) as f:
            lines = len(f.readlines())
        assert lines == 150
        assert len(calls) <= 2 * lines
