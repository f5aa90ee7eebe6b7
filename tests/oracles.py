"""Rank oracles for ``OvicStratum``: the sorted rank view the digit tables
replaced, and the digit tables read back as the same shape."""

from __future__ import annotations

from vicbench import noether
from vicbench.ovic import split_rows
from vicbench.rings import RMatrix


def sorted_ranks(stratum):
    """The rank view by sorting, the oracle of the digit tables:
    f''.entries -> {f'.entries -> rank}, each record's slice of the store
    sorted by the rows of Phi(f') at the free positions."""
    emb, d, n = stratum._emb, stratum._d, stratum._n
    out, start = {}, 0
    for f_dprime, s_sets, _, count, offset in stratum._records:
        free, _ = split_rows(emb, n, s_sets)
        f_primes = list(zip(*[c[offset:offset + count] for c in stratum._columns])) or [()]

        def free_rows(e):
            big = emb.phi_on_matrices(RMatrix(emb.ring, n, d, e))
            return tuple(big.row(s - 1) for s in free)

        out[f_dprime.entries] = dict(zip(sorted(f_primes, key=free_rows),
                                         range(start, start + count)))
        start += count
    return out


def digit_ranks(stratum):
    """f''.entries -> {f'.entries -> rank} read off the digit tables, each
    record's slice of the store in store order."""
    d, n, out = stratum._d, stratum._n, {}
    for k, rec in enumerate(stratum._records):
        count, offset = rec[3], rec[4]
        cols = [column[offset:offset + count] for column in stratum._columns]
        ranks = noether._digit_sums(stratum._table(k), noether._f_rows(cols, d, n, count),
                                    count, stratum._starts[k])
        out[rec[0].entries] = dict(zip(list(zip(*cols)) or [()], ranks))
    return out
