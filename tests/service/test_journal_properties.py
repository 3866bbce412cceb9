"""Property suite for the durable job journal.

The journal's contract is blunt: **whatever made it to disk replays to
a consistent job table** -- no accepted job lost, none duplicated, and
no event history fabricated past a corruption hole.  Hypothesis drives
arbitrary admit/event interleavings (with duplicated records, as
compaction overlap produces), torn final records (what a ``kill -9``
mid-append leaves), and CRC-corrupted lines anywhere in the stream;
the replayed table must stay exactly derivable from the intact prefix
of each job's history.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.journal import (
    JobJournal,
    decode_record,
    encode_record,
)


def _spec(job):
    return {"kind": "analytic", "params": {"n": 8, "r": 2, "p": 2},
            "seed": job}


def _write(journal, ops):
    """Apply one op stream: ("admit", j) and ("event", j, seq, name)."""
    for op in ops:
        if op[0] == "admit":
            job = op[1]
            journal.log_admit(
                f"j{job:08d}", f"tenant-{job % 3}", _spec(job),
                key=f"key-{job}", decision={"mode": "as_declared"},
                deadline_at=None,
            )
        else:
            _, job, seq, name = op
            journal.log_event(f"j{job:08d}", seq, name, {"seq": seq})


@st.composite
def op_streams(draw):
    """Admit-then-events per job, plus a few duplicated records."""
    n_jobs = draw(st.integers(min_value=1, max_value=6))
    ops = []
    per_job_events = {}
    for job in range(n_jobs):
        ops.append(("admit", job))
        n_events = draw(st.integers(min_value=0, max_value=5))
        per_job_events[job] = n_events
        for seq in range(n_events):
            name = "completed" if (
                seq == n_events - 1 and draw(st.booleans())
            ) else "progress"
            ops.append(("event", job, seq, name))
    n_dups = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_dups):
        ops.append(ops[draw(st.integers(0, len(ops) - 1))])
    return ops, per_job_events, n_dups


class TestRecordCodec:
    @given(st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.text(max_size=16), st.none()),
        max_size=6,
    ))
    def test_encode_decode_round_trip(self, record):
        assert decode_record(encode_record(record)) == record

    @given(st.binary(max_size=64))
    def test_decode_never_raises_on_garbage(self, blob):
        decode_record(blob)  # None or a dict; never an exception

    @given(st.dictionaries(st.text(min_size=1, max_size=4),
                           st.integers(), max_size=4),
           st.integers(min_value=0, max_value=200))
    def test_any_single_byte_flip_is_detected_or_equal(self, record, pos):
        line = encode_record(record)
        pos %= len(line) - 1  # keep the trailing newline intact
        flipped = bytes(
            b ^ 0x01 if i == pos else b for i, b in enumerate(line)
        )
        decoded = decode_record(flipped)
        assert decoded is None or decoded == record


class TestReplayProperties:
    @settings(max_examples=40, deadline=None)
    @given(op_streams(), st.integers(min_value=2_000, max_value=20_000))
    def test_round_trip_no_loss_no_duplication(self, tmp_path_factory,
                                               stream, segment_bytes):
        ops, per_job_events, n_dups = stream
        directory = tmp_path_factory.mktemp("journal")
        journal = JobJournal(directory, segment_bytes=segment_bytes,
                             fsync=False)
        _write(journal, ops)
        journal.close()

        report = JobJournal(directory, fsync=False).replay()
        assert set(report.jobs) == {
            f"j{job:08d}" for job in per_job_events
        }
        for job, n_events in per_job_events.items():
            replayed = report.jobs[f"j{job:08d}"]
            assert [seq for seq, _, _ in replayed.events] == \
                list(range(n_events))
            assert replayed.spec == _spec(job)
        assert report.n_duplicate == n_dups
        assert report.n_corrupt == 0 and report.n_torn == 0

    @settings(max_examples=25, deadline=None)
    @given(op_streams(), st.integers(min_value=1, max_value=120))
    def test_torn_final_record_is_tolerated(self, tmp_path_factory,
                                            stream, cut):
        """A kill mid-append tears the last line; everything before
        replays intact and the tear is counted, not fatal."""
        ops, per_job_events, _ = stream
        directory = tmp_path_factory.mktemp("journal")
        journal = JobJournal(directory, fsync=False)
        _write(journal, ops)
        # One more admission, torn mid-line by the "crash".
        journal.log_admit("jtorn", "t", _spec(0), key="k",
                          decision={}, deadline_at=None)
        journal.abandon()
        segment = journal.segments()[-1]
        raw = segment.read_bytes()
        last_line_at = raw.rstrip(b"\n").rfind(b"\n") + 1
        cut_at = min(last_line_at + cut, len(raw) - 1)
        segment.write_bytes(raw[:cut_at])

        report = JobJournal(directory, fsync=False).replay()
        survivors = {f"j{job:08d}" for job in per_job_events}
        assert survivors <= set(report.jobs) <= survivors | {"jtorn"}
        assert report.n_corrupt == 0  # a torn tail is not "corruption"

    @settings(max_examples=25, deadline=None)
    @given(op_streams(), st.data())
    def test_corrupt_lines_never_fabricate_history(self, tmp_path_factory,
                                                   stream, data):
        """Flip a byte in arbitrary mid-stream lines: replay drops the
        damaged records, trims each job's events to the contiguous
        prefix, and never raises or invents state."""
        ops, per_job_events, n_dups = stream
        directory = tmp_path_factory.mktemp("journal")
        journal = JobJournal(directory, fsync=False)
        _write(journal, ops)
        journal.close()
        segment = journal.segments()[0]
        lines = segment.read_bytes().split(b"\n")
        body = [line for line in lines if line]
        n_corrupt = data.draw(
            st.integers(min_value=1, max_value=min(3, len(body)))
        )
        victims = data.draw(st.lists(
            st.integers(0, len(body) - 1), min_size=n_corrupt,
            max_size=n_corrupt, unique=True,
        ))
        for index in victims:
            # First CRC nibble becomes non-hex: an unambiguous bad line.
            body[index] = b"!" + body[index][1:]
        segment.write_bytes(b"\n".join(body) + b"\n")

        report = JobJournal(directory, fsync=False).replay()
        for job_id, replayed in report.jobs.items():
            seqs = [seq for seq, _, _ in replayed.events]
            assert seqs == list(range(len(seqs))), \
                f"{job_id}: non-contiguous events {seqs}"
        assert len(report.jobs) <= len(per_job_events)

    @settings(max_examples=20, deadline=None)
    @given(op_streams())
    def test_compaction_preserves_the_replayed_table(self, tmp_path_factory,
                                                     stream):
        ops, _, _ = stream
        directory = tmp_path_factory.mktemp("journal")
        journal = JobJournal(directory, segment_bytes=2048, fsync=False)
        _write(journal, ops)
        journal.close()

        journal = JobJournal(directory, fsync=False)
        before = journal.replay()
        journal.compact(before.jobs.values())
        journal.close()
        after = JobJournal(directory, fsync=False).replay()

        assert set(after.jobs) == set(before.jobs)
        for job_id in before.jobs:
            assert after.jobs[job_id].events == before.jobs[job_id].events
            assert after.jobs[job_id].spec == before.jobs[job_id].spec
        assert len(JobJournal(directory, fsync=False).segments()) == 1


class TestSegmentRollover:
    def test_many_records_roll_segments_and_replay_whole(self, tmp_path):
        journal = JobJournal(tmp_path, segment_bytes=1024, fsync=False)
        for job in range(50):
            journal.log_admit(f"j{job:08d}", "t", _spec(job),
                              key=f"k{job}", decision={}, deadline_at=None)
            journal.log_event(f"j{job:08d}", 0, "queued", {})
        journal.close()
        assert len(journal.segments()) > 1

        report = JobJournal(tmp_path, fsync=False).replay()
        assert len(report.jobs) == 50
        assert report.n_records == 100


class TestSegmentCount:
    """``should_compact`` reads an in-memory segment count; it must
    always equal what a directory scan finds."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["append", "compact", "reopen"]),
                  st.integers(min_value=1, max_value=40)),
        min_size=1, max_size=12,
    ))
    def test_count_matches_the_directory(self, tmp_path_factory, plan):
        directory = tmp_path_factory.mktemp("journal")

        def reopen():
            return JobJournal(directory, segment_bytes=1024, fsync=False,
                              compact_segments=3)

        journal = reopen()
        job = 0
        for action, n in plan:
            if action == "append":
                for _ in range(n):
                    _write(journal, [("admit", job), ("event", job, 0, "q")])
                    job += 1
            elif action == "compact":
                journal.compact(journal.replay().jobs.values())
            else:
                journal.close()
                journal = reopen()
            on_disk = len(journal.segments())
            assert journal.to_record()["segments"] == on_disk
            assert journal.should_compact() == (on_disk > 3)
        journal.close()
