"""Block splits placed by the combinatorial rank, against the subset-listing oracle.

`entanglement._split_indices` ranks the inside and the outside part of every
configuration straight from its occupation mask.  `loop_oracle` lists every
subset of either side and looks each part up; both must give the same bytes,
and the rank must do it without memory that grows with 2^|outside|.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loop_oracle import split_indices_loop

from droplet_lab.configspace import Lattice
from droplet_lab.entanglement import _split_indices, centered_block


@settings(max_examples=80, deadline=None)
@given(data=st.data(), L=st.integers(1, 4))
def test_split_matches_the_subset_lists_bytewise(data, L):
    lattice = Lattice(L)
    # Any site set: blocks, their complements (as a complement-side
    # matricization passes them), the empty set and the whole lattice.
    row_sites = tuple(sorted(data.draw(st.sets(st.sampled_from(lattice.sites)))))
    _split_indices.cache_clear()
    for n in range(lattice.size + 1):
        rows, cols = _split_indices(lattice, row_sites, n)
        expected_rows, expected_cols = split_indices_loop(lattice, row_sites, n)
        assert rows.dtype == expected_rows.dtype and cols.dtype == expected_cols.dtype
        assert rows.tobytes() == expected_rows.tobytes()
        assert cols.tobytes() == expected_cols.tobytes()


@pytest.mark.parametrize("L, n_max", [(10, 3), (12, 2)])
def test_split_memory_does_not_grow_with_the_complement_subsets(L, n_max):
    # Listing the 2^19 (L=10) or 2^23 (L=12) subsets of the complement of a
    # two-site block took over 100 MB; ranking the sector's parts takes a few.
    _split_indices.cache_clear()
    lattice = Lattice(L)
    sites = centered_block(lattice, 2).sites
    tracemalloc.start()
    try:
        for n in range(n_max + 1):
            _split_indices(lattice, sites, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"
