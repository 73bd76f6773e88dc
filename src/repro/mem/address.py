"""Address-space modeling: pages, the Shared bit, and per-VM namespaces.

The paper classifies pages as *shared* (allocated before the service starts
serving — code, libraries, read-only inputs) or *private* (allocated by an
individual invocation), records the classification as a Shared bit in the
page table, and copies it into TLB/cache entries (Section 4.2.2).

We model a VM's address space as regions of 4 KB pages. VM ids are folded
into the high address bits so entries of different VMs can never produce
false hits in the cache model.
"""

from __future__ import annotations

from dataclasses import dataclass

PAGE_BYTES = 4096
#: Bits reserved for the per-VM offset; VM id occupies bits above this.
_VM_SHIFT = 44


@dataclass(frozen=True)
class Region:
    """A contiguous run of pages with one Shared-bit classification."""

    vm_id: int
    start_page: int
    num_pages: int
    shared: bool

    def __post_init__(self) -> None:
        if self.num_pages <= 0:
            raise ValueError(f"num_pages must be positive, got {self.num_pages}")

    def addr(self, page_index: int, offset: int = 0) -> int:
        """Byte address of ``offset`` within the region's ``page_index`` page."""
        if not 0 <= page_index < self.num_pages:
            raise IndexError(
                f"page_index {page_index} outside region of {self.num_pages} pages"
            )
        if not 0 <= offset < PAGE_BYTES:
            raise IndexError(f"offset {offset} outside page")
        page = self.start_page + page_index
        return (self.vm_id << _VM_SHIFT) | (page * PAGE_BYTES) | offset


class AddressSpace:
    """Allocates non-overlapping page regions within one VM."""

    def __init__(self, vm_id: int):
        if vm_id < 0:
            raise ValueError(f"vm_id must be non-negative, got {vm_id}")
        self.vm_id = vm_id
        self._next_page = 1  # page 0 reserved (null page)

    def alloc(self, num_pages: int, shared: bool) -> Region:
        """Allocate ``num_pages`` fresh pages with the given Shared bit."""
        region = Region(self.vm_id, self._next_page, num_pages, shared)
        self._next_page += num_pages
        return region
