"""Oracles for fast paths: the sorted rank view the digit tables of
``OvicStratum`` replaced, the digit tables read back as the same shape, the
Phi_bar-matrix elimination that ``ovic.s_function`` replaced, the
closure over R itself that the lifts of ``noether._general_linear``
replaced, the depth-first column search that the per-rank successor
lists of ``noether._column_adapted_dprimes`` replaced, and the per-record
store build that ``noether._splittings`` replaced with columns built once
per pivot pattern."""

from __future__ import annotations

import itertools
from math import prod
from operator import itemgetter

from vicbench import noether
from vicbench.errors import NotSurjective
from vicbench.ovic import DistinguishedIndexer, canonical_splitting, split_rows
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


def _block_rows(emb, big, k, row_size, col_size):
    """Block k of a Phi-image matrix: rows/cols restricted to block-k labels."""
    rows = DistinguishedIndexer(emb.mu, row_size).block_positions(k)
    cols = DistinguishedIndexer(emb.mu, col_size).block_positions(k)
    return [[big.get(r - 1, c - 1) for c in cols] for r in rows]


def _greedy_pivots(rows, field):
    """Left-to-right pivot columns (1-based) of a matrix over a corner field,
    by ``CornerField`` calls: a column is a pivot iff it does not reduce to
    zero against the echelon basis kept so far."""
    zero, sub, mul = field.zero, field.sub, field.mul
    basis = []
    pivots = []
    for c, vec in enumerate(zip(*rows), start=1):
        if len(pivots) == len(rows):
            break
        for piv, row in basis:
            x = vec[piv]
            if x != zero:
                vec = [sub(v, mul(x, y)) for v, y in zip(vec, row)]
        lead = next((i for i, x in enumerate(vec) if x != zero), None)
        if lead is not None:
            inv = field.inv(vec[lead])
            basis.append((lead, [mul(inv, x) for x in vec]))
            pivots.append(c)
    return pivots


def s_function_by_matrix(h, emb):
    """``s_function`` through the whole Phi_bar matrix: reduce h, embed it
    with ``phi_bar_on_matrices``, cut out each block by distinguished labels
    and eliminate it with ``CornerField`` calls.  Returns the pivot sets, or
    the message of the NotSurjective raised."""
    big = emb.phi_bar_on_matrices(h.reduce(emb.qdata))
    out = []
    for k in range(1, emb.q + 1):
        pivots = _greedy_pivots(_block_rows(emb, big, k, h.rows, h.cols),
                                emb.corner_fields[k - 1])
        need = emb.mu[k - 1] * h.rows
        if len(pivots) != need:
            return str(NotSurjective(f"block {k} has rank {len(pivots)}, needs {need}"))
        out.append(tuple(pivots))
    return tuple(out)


def general_linear_by_closure(emb, d):
    """GL_d(R) as (g, g^-1) entry-tuple pairs, by the closure over R itself
    that ``noether._general_linear`` replaced with a closure over R/J and
    lifts through the fibres: from I, every element times every generator
    (``noether._gl_generators`` of R) on the right, g s adding column a of
    g times y to column b and s^-1 g^-1 adding z times row b of g^-1 to row
    a, |GL_d(R)| |generators| products."""
    ring = emb.ring
    add, mul = ring._add, ring._mul
    ident = RMatrix.identity(ring, d).entries
    seen = {ident}
    pairs = [(ident, ident)]
    for g, g_inv in pairs:  # grows while it is walked
        for a, b, y, z in noether._gl_generators(ring, d):
            h = list(g)
            for r in range(0, d * d, d):
                h[r + b] = add[g[r + b]][mul[g[r + a]][y]]
            h = tuple(h)
            if h not in seen:
                seen.add(h)
                h_inv = list(g_inv)
                for c in range(d):
                    h_inv[a * d + c] = add[g_inv[a * d + c]][mul[z][g_inv[b * d + c]]]
                pairs.append((h, tuple(h_inv)))
    return pairs


def column_search(width: int, n: int, step, state, budget: int, what: str
                  ) -> tuple[list, int]:
    """Every n-tuple (n >= 1) of candidate indices 0..width-1 whose prefixes
    all pass ``step``, with its final state, in lexicographic order, plus the
    search nodes visited.  ``step(state, c, idx)`` is the state once
    candidate ``idx`` is put in column c, or None to cut the prefix there.

    The prefixes still to extend sit on an explicit stack, smallest on top,
    so a search leaves no reference cycle for the collector to free."""
    found = []
    nodes = 0
    stack = [((), state)]
    while stack:
        chosen, state = stack.pop()
        c = len(chosen)
        full = c + 1 == n
        children = []
        for idx in range(width):
            nodes += 1
            noether._check_budget(nodes, budget, what)
            grown = step(state, c, idx)
            if grown is None:
                continue
            if full:
                found.append((chosen + (idx,), grown))
            else:
                children.append((chosen + (idx,), grown))
        stack.extend(reversed(children))
    return found, nodes


def column_adapted_dprimes_by_search(emb, d: int, n: int, budget: int
                                     ) -> tuple[list, int]:
    """Every column-adapted d x n matrix f'' as (f'', s_sets, the columns of
    Phi(f'')), plus the number of search nodes visited.

    f'' is built one column at a time.  The pivots of block k of
    Phi_bar(f'') are chosen left to right, and each pivot column found so far
    is an exact block-identity indicator, so the echelon state of block k is
    just its rank r: a new block-k column is a pivot iff it is nonzero mod J
    at some block row >= r, and it must then be the indicator of row r.  A
    prefix is cut at the first pivot that is not, and as soon as the columns
    left cannot bring every block to rank mu_k * d.

    The search visits all |R|^d candidates at its first level, so a budget
    below that is refused before the candidate table is built, with the
    verdict the search itself would reach.

    The depth-first search through a ``step`` callback that
    ``noether._column_adapted_dprimes`` replaced with per-rank successor
    lists, kept as it was: it re-tests every candidate at every node.
    """
    ring = emb.ring
    noether._check_budget(ring.size ** d, budget, f"OVIC({d}, {n})")
    mu, q, mus = emb.mu_total, emb.q, emb.mu
    proj = emb.qdata.projection
    zero_bar = emb.qdata.quotient.zero
    ridx = DistinguishedIndexer(mus, d)
    # 0-based row of Phi(f'') carrying block row i of block k
    block_rows = [[r - 1 for r in ridx.block_positions(k + 1)] for k in range(q)]
    phi_cols = [[emb.phi(x).col(s) for s in range(mu)] for x in ring.elements()]
    vectors = list(itertools.product(ring.elements(), repeat=d))
    # per candidate column v and standard position s:
    # (block, Phi column, last block row nonzero mod J, that row if the
    #  column is exactly its indicator else -1, position within the block)
    table = []
    for v in vectors:
        entries = []
        for s in range(mu):
            k = emb.block_of[s]
            col = tuple(e for x in v for e in phi_cols[x][s])
            rows = block_rows[k]
            last = max((i for i, r in enumerate(rows) if proj[col[r]] != zero_bar),
                       default=-1)
            exact = last if last >= 0 and col == tuple(
                emb.idempotents[k][0] if r == rows[last] else ring.zero
                for r in range(mu * d)) else -1
            entries.append((k, col, last, exact, s - ridx.prefix[k]))
        table.append(entries)

    need = [m * d for m in mus]

    def step(state, c: int, idx: int):
        ranks, pivots = state
        ranks = list(ranks)
        added = [[] for _ in range(q)]
        for k, _, last, exact, r in table[idx]:
            if last < ranks[k]:
                continue
            if exact != ranks[k]:
                return None
            ranks[k] += 1
            added[k].append(c * mus[k] + r + 1)
        left = n - c - 1
        if any(ranks[k] + mus[k] * left < need[k] for k in range(q)):
            return None
        return ranks, tuple(p + tuple(a) for p, a in zip(pivots, added))

    found, nodes = column_search(len(vectors), n, step, ([0] * q, ((),) * q),
                                 budget, f"OVIC({d}, {n})")
    out = []
    for cols, (_, pivots) in found:
        f_dprime = RMatrix(ring, d, n, [vectors[i][rho] for rho in range(d) for i in cols])
        out.append((f_dprime, pivots,
                    tuple(table[i][s][1] for i in cols for s in range(mu))))
    return out, nodes


def store_by_record(emb, d: int, n: int) -> tuple[list, list]:
    """The records and entry columns of OVIC(d, n) as ``noether._splittings``
    built them before it shared work between the records of a pivot
    pattern: per record, P = I - psi f'' through ``RMatrix.sub`` and every
    entry column of its splittings built afresh, the row spaces and each
    record's parts checked against the record.  The f'' come from
    ``noether._column_adapted_dprimes`` (its own oracle is above)."""
    ring = emb.ring
    pack, _, through = noether._packing(ring)
    plus, mul, zero = noether._translations(emb), ring._mul, ring.zero
    if d == 0:
        found = [(RMatrix(ring, 0, n, ()), ((),) * emb.q, ())]
    elif n < d:
        found = []
    else:
        found = sorted(noether._column_adapted_dprimes(emb, d, n, 10 ** 9)[0],
                       key=itemgetter(1, 2))
    records, parts, offset = [], [[] for _ in range(n * d)], 0
    ident = RMatrix.identity(ring, n)
    for f_dprime, s_sets, _ in found:
        spaces = [values for _, values in noether._row_spaces(emb, d, n, s_sets)]
        count = prod(map(len, spaces))
        assert count == ring.size ** (d * (n - d))
        assert all(len(set(v)) == len(v) for v in spaces)
        psi = canonical_splitting(s_sets, emb, m=n, n=d)
        assert (f_dprime.ring, f_dprime.rows, f_dprime.cols) == (ring, d, n)
        assert len(psi.entries) == n * d and len(spaces) == n
        assert all(len(y) == d for v in spaces for y in v)
        p = ident.sub(psi.mul(f_dprime)).entries
        records.append((f_dprime, s_sets, psi, count, offset))
        offset += count
        for i, (part, a) in enumerate(zip(parts, psi.entries)):
            r, c = divmod(i, d)
            column = pack((a,))
            for x, values in zip(reversed(p[r * n:(r + 1) * n]), reversed(spaces)):
                if x == zero:
                    column *= len(values)
                elif len(column) == 1:
                    column = through(pack([mul[x][y[c]] for y in values]), plus[column[0]])
                else:
                    column = pack(b"".join([through(column, plus[mul[x][y[c]]])
                                            for y in values]))
            part.append(column)
    return records, [pack(b"".join(part)) for part in parts]
