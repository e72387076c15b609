"""Counter-classification registry and documentation export.

The paper's footnote: *"We do not show what counters are classified into
which group because of space limitations."*  This module publishes the
full classification for every architecture — queryable programmatically
(``docs/COUNTERS.md`` renders it) — closing that gap for downstream
users who want to audit or reuse the core-event/memory-event split of
Eqs. 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.counters import CounterDomain, counter_set


@dataclass(frozen=True)
class CounterGroupSummary:
    """Domain split of one architecture's counter set."""

    set_name: str
    total: int
    core_events: tuple[str, ...]
    memory_events: tuple[str, ...]

    @property
    def n_core(self) -> int:
        """Number of core-domain counters."""
        return len(self.core_events)

    @property
    def n_memory(self) -> int:
        """Number of memory-domain counters."""
        return len(self.memory_events)


def classify(set_name: str) -> CounterGroupSummary:
    """The full core/memory classification of one counter set."""
    counters = counter_set(set_name)
    core = tuple(
        c.name for c in counters if c.domain is CounterDomain.CORE
    )
    memory = tuple(
        c.name for c in counters if c.domain is CounterDomain.MEMORY
    )
    return CounterGroupSummary(
        set_name=set_name,
        total=len(counters),
        core_events=core,
        memory_events=memory,
    )
