"""The cached, vectorized fast paths against their configuration-loop oracles.

`assemble_sector` and `assemble_sector_sparse` scatter a cached field-free
template, `window_floors` reads its single-cluster diagonals off a small
template, and `_window_stack` caches its row/column layout.  Each must give
the bytes of the loop versions in `loop_oracle`, cold and from the cache.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from loop_oracle import assemble_sector_loop, window_floors_loop, window_stack_uncached

from droplet_lab import entanglement, hamiltonian
from droplet_lab.configspace import Lattice, enumerate_sector
from droplet_lab.entanglement import Bipartition, _window_stack
from droplet_lab.hamiltonian import (
    BOUNDARY_MODES,
    LANCZOS_MIN_DIM,
    ModelParams,
    assemble_sector,
    assemble_sector_sparse,
)
from droplet_lab.spectral import window_floors

FIELDS = st.one_of(st.none(), st.lists(st.floats(0.0, 10.0), min_size=9, max_size=9))


def _params(lattice, delta_inv, mode, values):
    field = None if values is None else dict(zip(lattice.sites, values))
    return ModelParams(delta_inv, mode, field)


def _assert_sparse_bytes(sparse, expected):
    """Stored entries carry the bytes of the dense oracle there, and every other entry is +0.

    Compared entry by entry because `toarray` adds the stored values to a zero
    array, which turns the -0.0 hops of delta_inv = 0 into +0.0.
    """
    assert sparse.shape == expected.shape
    coo = sparse.tocoo()
    assert coo.data.tobytes() == expected[coo.row, coo.col].tobytes()
    unstored = np.ones(expected.shape, dtype=bool)
    unstored[coo.row, coo.col] = False
    assert expected[unstored].tobytes() == bytes(8 * int(unstored.sum()))


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 4),
    delta_inv=st.floats(0.0, 0.99),
    mode=st.sampled_from(BOUNDARY_MODES),
    values=FIELDS,
    cold=st.booleans(),
)
def test_template_assemblers_match_the_loop_bytewise(L, delta_inv, mode, values, cold):
    lattice = Lattice(L)
    params = _params(lattice, delta_inv, mode, values)
    if cold:
        hamiltonian._template_cache.clear()
    for n in range(lattice.size + 1):
        basis = enumerate_sector(lattice, n)
        expected = assemble_sector_loop(params, basis).entries
        for _ in range(2):  # built (or read from the cache), then read from the cache
            dense = assemble_sector(params, basis).entries
            assert dense.shape == expected.shape
            assert dense.tobytes() == expected.tobytes()
            _assert_sparse_bytes(assemble_sector_sparse(params, basis).entries, expected)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 4),
    delta_inv=st.floats(0.0, 0.99),
    mode=st.sampled_from(BOUNDARY_MODES),
    values=FIELDS,
    e_max=st.floats(0.0, 3.0),
)
def test_window_floors_match_the_loop_bytewise(L, delta_inv, mode, values, e_max):
    lattice = Lattice(L)
    params = _params(lattice, delta_inv, mode, values)
    floors = window_floors(params, lattice, e_max)
    assert floors.tobytes() == window_floors_loop(params, lattice, e_max).tobytes()


def test_templates_are_cached_only_up_to_the_lanczos_dimension():
    lattice = Lattice(6)
    params = ModelParams(0.1)
    hamiltonian._template_cache.clear()
    small, large = enumerate_sector(lattice, 4), enumerate_sector(lattice, 6)
    assert len(small) <= LANCZOS_MIN_DIM < len(large)
    assemble_sector(params, small)
    assemble_sector_sparse(params, large)
    assert set(hamiltonian._template_cache) == {(6, 4)}


def _assert_stack_matches(lattice, part, vectors):
    expected, expected_layout = window_stack_uncached(lattice, part, vectors)
    for _ in range(2):  # the layout is built (or read from the cache), then read from it
        stack, layout = _window_stack(lattice, part, vectors)
        assert layout == expected_layout
        assert stack.shape == expected.shape
        assert stack.tobytes() == expected.tobytes()


def _blocks(lattice):
    L = lattice.L
    return [
        Bipartition(lattice, lo, hi)
        for lo in range(-L, L + 1)
        for hi in range(lo, L + 1)
        if (lo, hi) != (-L, L)
    ]


def test_window_stack_matches_uncached_for_every_present_sector_set():
    rng = np.random.default_rng(0)
    for L in (1, 2, 3):
        lattice = Lattice(L)
        sectors = range(lattice.size + 1)
        dims = {n: len(enumerate_sector(lattice, n)) for n in sectors}
        for part in _blocks(lattice) if L < 3 else [_blocks(lattice)[i] for i in (0, 9, 20)]:
            entanglement._stack_layout_cache.clear()
            for present in itertools.product((0, 1), repeat=len(sectors)):
                vectors = {n: rng.standard_normal((dims[n], m)) for n, m in zip(sectors, present)}
                _assert_stack_matches(lattice, part, vectors)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), L=st.integers(1, 4))
def test_window_stack_matches_uncached_property(data, L):
    lattice = Lattice(L)
    part = data.draw(st.sampled_from(_blocks(lattice)))
    counts = data.draw(st.lists(st.integers(0, 3), min_size=lattice.size + 1, max_size=lattice.size + 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vectors = {
        n: rng.standard_normal((len(enumerate_sector(lattice, n)), m)) for n, m in enumerate(counts)
    }
    # Sectors may also be missing from the map, not just empty.
    dropped = data.draw(st.sets(st.sampled_from(sorted(vectors))))
    _assert_stack_matches(lattice, part, {n: v for n, v in vectors.items() if n not in dropped})
