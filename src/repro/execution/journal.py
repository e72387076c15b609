"""Write-ahead run journal: durable unit outcomes for checkpoint/resume.

A :class:`RunJournal` is an append-only JSONL file recording what every
work unit of a campaign actually did — success, cache hit, failure or
quarantine — keyed by the unit's content-address (``cache_key``).

Durability is group-committed: a record is written when it is appended,
and a *commit* (flush + ``fsync``) makes every record written since the
last one durable.  Outside a :meth:`RunJournal.group_commit` block each
append commits on its own; inside one, the block's records share a
single commit when it exits.  The engine groups the cache-hit records of
one batch's lookup phase and the raw outcomes of one arriving pool
chunk, and commits every other record (serial executions, breaker
transitions, quarantines) individually.  Nothing about a record is
reported before its commit: the observer, and through the engine every
progress tick and callback, runs only after it.  A campaign killed at
any instant (SIGKILL included) therefore leaves a journal that
reconstructs at least everything already reported:

* ``ok`` records replay from the result cache with their recorded
  attempt counts, so a resumed run re-earns the health accounting of
  the interrupted one without re-burning retry budgets;
* ``hit`` records replay as cache hits;
* ``fail`` and ``quarantined`` records replay as the same
  :class:`~repro.execution.engine.UnitFailure`\\ s (and exclusions)
  without re-executing doomed units;
* a unit with *no* record re-executes from scratch — even if a worker
  managed to cache its payload before the crash — because an
  unjournaled outcome was never acknowledged by the parent.

The file format is self-describing: a header line followed by one JSON
object per record.  A torn trailing line (the crash happened mid-write)
is truncated away on resume, never parsed.  When the same key appears
more than once the *last* record wins — the engine re-journals a unit
when a circuit breaker converts its raw outcome into a quarantine, so
replay self-heals to the canonical decision.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
from typing import Any, Iterator, TextIO

JOURNAL_FORMAT = "repro.journal"
JOURNAL_VERSION = 1

#: Statuses a unit record may carry.
UNIT_STATUSES = ("ok", "hit", "fail", "quarantined")


class RunJournal:
    """Append-only, group-committed JSONL record of work-unit outcomes.

    Parameters
    ----------
    path:
        The journal file (``journal.jsonl`` under the campaign
        directory).
    resume:
        ``False`` (a fresh run) truncates any existing journal and
        writes a new header.  ``True`` replays the existing journal
        into memory — :attr:`resuming` reports whether there was
        anything valid to replay — and appends to it.
    observer:
        Optional callback invoked with each record dict *after* the
        commit (flush + fsync) that made it durable, in append order.
        The live event bus subscribes here so streamed unit records
        never report a completion the journal could still lose.
        Observe-only: an observer error is swallowed, and replayed
        records are not re-announced.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        resume: bool = False,
        observer: Any = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.observer = observer
        self._handle: TextIO | None = None
        #: Last-wins unit records from a replayed journal, by unit key.
        self._records: dict[str, dict[str, Any]] = {}
        #: Whether this journal replayed prior records (resume mode with
        #: a valid pre-existing journal).
        self.resuming = False
        #: Records appended by this process (observability, tests).
        self.appends = 0
        #: Records written but not yet committed, while a
        #: :meth:`group_commit` block is open (``None`` outside one).
        self._uncommitted: list[dict[str, Any]] | None = None
        if resume and self.path.exists():
            self._replay()
        else:
            self._start_fresh()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _start_fresh(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._write_line(
            {"format": JOURNAL_FORMAT, "version": JOURNAL_VERSION}
        )
        self._commit()

    def _replay(self) -> None:
        """Load prior records, truncating any torn trailing line."""
        raw = self.path.read_bytes()
        valid_end = 0
        header_ok = False
        offset = 0
        for line in raw.splitlines(keepends=True):
            end = offset + len(line)
            if not line.endswith(b"\n"):
                break  # torn trailing write: drop it
            try:
                record = json.loads(line)
            except ValueError:
                break  # corrupt line: drop it and everything after
            if not isinstance(record, dict):
                break
            if offset == 0:
                if record.get("format") != JOURNAL_FORMAT:
                    break  # not a journal: start over
                header_ok = True
            elif record.get("type") == "unit" and "key" in record:
                self._records[record["key"]] = record
            offset = valid_end = end
        if not header_ok:
            self._records.clear()
            self._start_fresh()
            return
        if valid_end < len(raw):
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_end)
        self.resuming = True
        self._handle = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        """Flush and close the append handle (idempotent)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def _write_line(self, record: dict[str, Any]) -> None:
        assert self._handle is not None, "journal is closed"
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def _commit(self) -> None:
        assert self._handle is not None, "journal is closed"
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _append(self, record: dict[str, Any]) -> None:
        """Write one record; commit and announce it unless grouped."""
        self._write_line(record)
        self.appends += 1
        if self._uncommitted is not None:
            self._uncommitted.append(record)
            return
        self._commit()
        self._notify(record)

    def _notify(self, record: dict[str, Any]) -> None:
        if self.observer is None:
            return
        try:
            self.observer(record)
        except Exception:
            # Observe-only: a broken observer must not fail the append
            # (the record is already durable at this point).
            pass

    @contextlib.contextmanager
    def group_commit(self) -> Iterator[None]:
        """Commit every record appended inside the block at once.

        Records are written as they are appended, then flushed and
        fsynced together when the block exits (on an error too), and
        only then announced to the observer, in append order.  A block
        that appended nothing commits nothing.  Blocks do not nest.
        """
        assert self._uncommitted is None, "group commits do not nest"
        self._uncommitted = []
        try:
            yield
        finally:
            records, self._uncommitted = self._uncommitted, None
            if records:
                self._commit()
                for record in records:
                    self._notify(record)

    def record_unit(
        self,
        key: str,
        status: str,
        attempts: int = 0,
        error_type: str | None = None,
        message: str | None = None,
        permanent: bool = False,
    ) -> None:
        """Append one unit outcome (write-ahead of any artifact)."""
        if status not in UNIT_STATUSES:
            raise ValueError(f"unknown journal status {status!r}")
        record = {
            "type": "unit",
            "key": key,
            "status": status,
            "attempts": attempts,
            "error_type": error_type,
            "message": message,
            "permanent": permanent,
        }
        self._append(record)
        self._records[key] = record

    def record_breaker(self, cls: str, event: str, failures: int) -> None:
        """Append one circuit-breaker state transition."""
        record = {
            "type": "breaker",
            "class": cls,
            "event": event,
            "failures": failures,
        }
        self._append(record)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------

    def lookup(self, key: str) -> dict[str, Any] | None:
        """The last recorded outcome for a unit key, if any."""
        return self._records.get(key)

    def __len__(self) -> int:
        return len(self._records)
