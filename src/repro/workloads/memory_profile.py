"""Synthetic memory-access generation for services and batch jobs.

Converts a footprint description (shared/private/instruction page counts)
into sampled cache-model accesses. Sampling is hot-skewed (a power law over
pages) so the model reproduces the locality that makes microservice working
sets effectively small (Section 3, "microservice invocations have relatively
small working sets").

Each sampled access is a *token* representing ``weight`` real references;
the hierarchy's measured latency per token is scaled by the weight to
produce execution time (see :mod:`repro.cluster.server`).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.mem.address import AddressSpace, Region
from repro.workloads.microservices import ServiceProfile

#: Cache lines per 4 KB page at 64 B lines.
LINES_PER_PAGE = 64
#: Services touch a hot subset of lines within each page (object headers,
#: hot fields): sampling only these keeps the modeled line working set in
#: the realistic few-thousand-line range that makes microservice working
#: sets effectively small (Section 3).
HOT_LINES_PER_PAGE = 8
#: Exponent of the page-popularity skew: page = N * u**SKEW.
PAGE_SKEW = 2.5
#: How many private-region generations are kept before page reuse: models
#: the allocator recycling freed invocation pages.
PRIVATE_POOL = 4

#: Fraction of data references that are stores.
WRITE_FRACTION = 0.3


class AccessBatch:
    """A segment's sampled accesses as parallel NumPy arrays.

    :meth:`repro.mem.hierarchy.CoreMemory.access_batch` consumes the
    arrays wholesale; iterating yields the classic
    ``(addr, shared, instr, write)`` tuples (Python scalars) for per-access
    consumers such as the traced walk and the tests.
    """

    __slots__ = ("addr", "shared", "instr", "write")

    def __init__(
        self,
        addr: np.ndarray,
        shared: np.ndarray,
        instr: np.ndarray,
        write: np.ndarray,
    ):
        self.addr = addr
        self.shared = shared
        self.instr = instr
        self.write = write

    def __len__(self) -> int:
        return len(self.addr)

    def __iter__(self):
        return iter(
            zip(
                self.addr.tolist(),
                self.shared.tolist(),
                self.instr.tolist(),
                self.write.tolist(),
            )
        )


_EMPTY_BATCH = AccessBatch(
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=bool),
    np.empty(0, dtype=bool),
    np.empty(0, dtype=bool),
)


#: Page / line geometry of ``Region.addr`` at 64 B lines.
_PAGE_BYTES = 4096
_LINE_BYTES = 64


class ServiceMemory:
    """Address regions and access sampling for one service instance."""

    def __init__(self, space: AddressSpace, profile: ServiceProfile):
        self.profile = profile
        self.instr = space.alloc(profile.instruction_pages, shared=True)
        self.shared = space.alloc(profile.shared_pages, shared=True)
        self.private_pool: List[Region] = [
            space.alloc(profile.private_pages, shared=False) for _ in range(PRIVATE_POOL)
        ]
        self._next_private = 0
        self._base_instr = self.instr.addr(0)
        self._base_shared = self.shared.addr(0)

    def new_invocation(self) -> Region:
        """Private region for a fresh invocation (cycled from the pool)."""
        region = self.private_pool[self._next_private]
        self._next_private = (self._next_private + 1) % len(self.private_pool)
        return region

    def sample(
        self, rng: np.random.Generator, n: int, private: Region
    ) -> AccessBatch:
        """Sample ``n`` accesses for one compute segment.

        Mix: ~30% instruction fetches (always shared), the rest data split
        between shared and private pages per the profile. Fully vectorized;
        the draw order is pinned by the hot-path golden digests.
        """
        if n <= 0:
            return _EMPTY_BATCH
        kind = rng.random(n)
        page_u = rng.random(n) ** PAGE_SKEW
        line = rng.integers(0, HOT_LINES_PER_PAGE, n)
        is_write = rng.random(n) < WRITE_FRACTION

        instr_m = kind < 0.30
        shared_m = ~instr_m & (kind < 0.30 + 0.70 * self.profile.shared_ref_fraction)
        shared_page = instr_m | shared_m

        npages = np.where(
            instr_m,
            float(self.instr.num_pages),
            np.where(shared_m, float(self.shared.num_pages), float(private.num_pages)),
        )
        page = (page_u * npages).astype(np.int64)
        np.minimum(page, npages.astype(np.int64) - 1, out=page)

        addr = np.where(
            instr_m,
            self._base_instr,
            np.where(shared_m, self._base_shared, private.addr(0)),
        )
        page *= _PAGE_BYTES
        addr += page
        addr += line * _LINE_BYTES
        # Instruction fetches and shared read-mostly pages don't write.
        write = is_write & ~shared_page
        return AccessBatch(addr, shared_page, instr_m, write)


class BatchMemory:
    """Address regions and access sampling for a batch job.

    Batch jobs have larger footprints and weaker locality than services;
    ``skew`` close to 1.0 means near-uniform page access (graph workloads),
    larger values mean a hot core (training loops).
    """

    def __init__(self, space: AddressSpace, code_pages: int, data_pages: int, skew: float):
        if skew < 1.0:
            raise ValueError(f"skew must be >= 1.0, got {skew}")
        self.code = space.alloc(code_pages, shared=True)
        self.data = space.alloc(data_pages, shared=False)
        self.skew = skew
        self._base_code = self.code.addr(0)
        self._base_data = self.data.addr(0)

    def sample(self, rng: np.random.Generator, n: int) -> AccessBatch:
        if n <= 0:
            return _EMPTY_BATCH
        kind = rng.random(n)
        page_u = rng.random(n) ** self.skew
        line = rng.integers(0, 2 * HOT_LINES_PER_PAGE, n)
        is_write = rng.random(n) < WRITE_FRACTION

        code_m = kind < 0.2
        npages = np.where(
            code_m, float(self.code.num_pages), float(self.data.num_pages)
        )
        page = (page_u * npages).astype(np.int64)
        np.minimum(page, npages.astype(np.int64) - 1, out=page)
        base = np.where(code_m, self._base_code, self._base_data)
        addr = base + page * _PAGE_BYTES + line * _LINE_BYTES
        write = is_write & ~code_m
        return AccessBatch(addr, code_m, code_m, write)
