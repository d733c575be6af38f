"""Shared generators for randomized tests.

Everything is seeded; tests state their seed explicitly so failures
reproduce.
"""

import numpy as np
import pytest

from macpolar import DiscreteMac, FieldMatrix, LinearComboMac, mat_rank
from macpolar.linear_mac import binary2_subspaces, lattice_levels, subspace_lattice
from macpolar.subspace import enumerate_subspaces


def random_mac(rng, q, m, n_out):
    table = rng.random((q ** m, n_out))
    table /= table.sum(axis=1, keepdims=True)
    return DiscreteMac(q, m, table)


def identity_mac(q, m):
    """Perfect channel: the output reveals the input vector."""
    return DiscreteMac(q, m, np.eye(q ** m))


def useless_mac(q, m, n_outputs=1):
    """Channel whose output is independent of the input."""
    return DiscreteMac(q, m, np.full((q ** m, n_outputs), 1.0 / n_outputs))


def channel_dict(channel):
    """The JSON form of a channel that `jsonio.channel_from_dict` reads."""
    if isinstance(channel, LinearComboMac):
        return {"q": channel.q, "m": channel.m,
                "terms": [{"p": w, "basis": s.basis.data.tolist()}
                          for w, s in channel.terms]}
    return {"q": channel.q, "m": channel.m, "outputs": channel.output_size,
            "rows": channel.table.tolist()}


def random_matrix(rng, rows, cols, q):
    return FieldMatrix(rng.integers(0, q, size=(rows, cols)), q)


def random_full_column_rank(rng, rows, cols, q):
    """Rejection-sample a rows x cols matrix of rank cols."""
    assert cols <= rows
    while True:
        mat = random_matrix(rng, rows, cols, q)
        if mat_rank(mat) == cols:
            return mat


def random_combo(rng, q, m, max_terms=3, max_dim=None):
    subs = []
    for d in range(m + 1):
        if max_dim is not None and d > max_dim:
            continue
        subs.extend(enumerate_subspaces(m, d, q))
    n = int(rng.integers(1, max_terms + 1))
    picks = rng.choice(len(subs), size=n, replace=False)
    weights = rng.dirichlet(np.ones(n))
    return LinearComboMac(q, m, [(float(weights[i]), subs[p])
                                 for i, p in enumerate(picks)])


def binary2_levels(p, depth):
    """The lattice engine's states of levels 0..depth from the 5-state p,
    each an (n, 5) array in component order, branches in decoding order."""
    lat = subspace_lattice(2, 2)
    order = [lat.index[s] for s in binary2_subspaces()]
    root = np.zeros(5)
    root[order] = p
    levels = [[] for _ in range(depth + 1)]
    for level, block in lattice_levels(lat, root, depth):
        levels[level].append(block[order].T)
    return [np.concatenate(blocks) for blocks in levels]


def subsets_of(m):
    """All non-empty 1-based user subsets."""
    return [tuple(k for k in range(1, m + 1) if mask >> (k - 1) & 1)
            for mask in range(1, 2 ** m)]


def sorted_columns(table, decimals=10):
    """Channel table with output columns in a canonical order, for
    comparing channels that agree up to an output relabeling."""
    arr = np.asarray(table)
    keys = np.round(arr, decimals)
    order = np.lexsort(keys[::-1])
    return arr[:, order]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
