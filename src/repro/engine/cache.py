"""Cache-hierarchy model.

Tesla has no L1/L2 data caches, so every requested global byte reaches
DRAM.  Fermi introduced a real hierarchy and Kepler enlarged it; the
generation's ``cache_factor`` bounds how much *perfectly local* traffic
the hierarchy can filter.  This single mechanism is behind one of the
paper's central observations: memory-frequency scaling becomes viable on
newer generations because caches decouple kernels from DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.kernels.profile import WorkProfile

#: DRAM sector granularity in bytes (what the frame-buffer counters count).
SECTOR_BYTES = 32.0
#: Cache-line / transaction granularity in bytes.
LINE_BYTES = 128.0


@dataclass(frozen=True)
class CacheOutcome:
    """Traffic decomposition of one run through the memory hierarchy."""

    #: Bytes requested by the kernel (loads + stores).
    requested_bytes: float
    #: Bytes served by the L1 caches.
    l1_hit_bytes: float
    #: Bytes served by the L2 cache.
    l2_hit_bytes: float
    #: Bytes that reached DRAM.
    dram_bytes: float
    #: DRAM read bytes (after hierarchy filtering).
    dram_read_bytes: float
    #: DRAM write bytes.
    dram_write_bytes: float
    #: L1 load transactions that hit / missed.
    l1_load_hits: float
    l1_load_misses: float
    #: L2 sector queries and misses.
    l2_queries: float
    l2_misses: float

    @property
    def dram_fraction(self) -> float:
        """Fraction of requested traffic that reached DRAM."""
        if self.requested_bytes == 0:
            return 0.0
        return self.dram_bytes / self.requested_bytes


def simulate_cache(work: WorkProfile, spec: GPUSpec) -> CacheOutcome:
    """Propagate a work profile through the generation's hierarchy.

    The filterable fraction is ``cache_factor * locality``; of the
    filtered traffic, L1 captures about 60% and L2 the rest (Fermi's L1
    is small and write-evict, so L2 does much of the work).  Poorly
    coalesced access patterns additionally over-fetch DRAM sectors.
    """
    requested = work.global_bytes
    filtered_fraction = spec.traits.cache_factor * work.locality
    filtered = requested * filtered_fraction
    l1_bytes = filtered * 0.60
    l2_bytes = filtered - l1_bytes
    to_dram = requested - filtered
    # Uncoalesced accesses waste sector bandwidth: a fully-scattered
    # pattern touches a whole 32B sector per useful word.
    overfetch = 1.0 / max(work.coalescing, 0.125)
    dram_bytes = to_dram * overfetch
    read_share = work.gld_bytes / requested if requested else 0.0
    load_transactions = work.gld_bytes / LINE_BYTES
    l1_load_hits = load_transactions * filtered_fraction * 0.60
    l1_load_misses = load_transactions - l1_load_hits
    l2_queries = (requested - l1_bytes) / SECTOR_BYTES
    l2_misses = dram_bytes / SECTOR_BYTES
    return CacheOutcome(
        requested_bytes=requested,
        l1_hit_bytes=l1_bytes,
        l2_hit_bytes=l2_bytes,
        dram_bytes=dram_bytes,
        dram_read_bytes=dram_bytes * read_share,
        dram_write_bytes=dram_bytes * (1.0 - read_share),
        l1_load_hits=l1_load_hits,
        l1_load_misses=l1_load_misses,
        l2_queries=l2_queries,
        l2_misses=l2_misses,
    )
