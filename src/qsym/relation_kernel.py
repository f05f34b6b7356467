"""The batched array kernel of the twisted relation checks in ``so_twist``.

Every twisted vanishing lemma and the quantum determinant reduce to
per-sample sums of signed entry products r(J) u_{j_1 i_1} ... u_{j_l i_l}
over row tuples J, grouped into buckets, for every column tuple I of a
check.  ``_product_sums`` forms them for all column tuples in one call,
and adds each bucket in the order of its tuples, so the reports built on
it are byte-stable.  (The abelian checks read their one non-zero product
per column tuple directly, in ``so_twist._support_terms``; (7.2) is a
running sum over k in ``so_twist._relation_defects``.)
"""

from __future__ import annotations

import numpy as np

#: float64 elements that the temporaries of one block of ``_product_sums``
#: hold together (512 KB); blocks of column tuples and samples are cut to it
_BLOCK = 1 << 16


def _slot_table(buckets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slot table of a bucketing of P row tuples, and its bucket ids.

    ``ids`` lists the buckets that hold a tuple, in increasing order; tuples
    with bucket -1 are left out.  ``table`` has shape (width, len(ids)):
    column k lists, in increasing order, the tuples p with ``buckets[p] ==
    ids[k]``, then the padding index P (the zero row of ``_product_sums``)
    up to the width of the fullest bucket.  An empty bucket sums to zero,
    so it gets no column.
    """
    order = np.argsort(buckets, kind="stable")
    order = order[buckets[order] >= 0]
    counts = np.bincount(buckets[order])
    ids = np.flatnonzero(counts)
    counts = counts[ids]
    table = np.full((counts.max(initial=1), len(ids)), len(buckets), dtype=np.intp)
    column = np.repeat(np.arange(len(ids)), counts)
    table[np.arange(len(order)) - (np.cumsum(counts) - counts)[column], column] = order
    return table, ids


def _product_sums(stack, rows, cols, tables, signs):
    """Per-sample bucket sums of entry products, over a stack of column tuples.

    ``stack`` holds S matrices, shape (S, n, n); ``rows`` is (P, l) and
    ``cols`` is (C, l).  Term (p, c) of sample s is

        signs[p] * stack[s, rows[p, 0], cols[c, 0]] * ... * stack[s, rows[p, l-1], cols[c, l-1]],

    with factors multiplied left to right (a sign +-1 only flips the sign
    bit, so it commutes with the rounding).  Each
    slot table of ``tables`` (``_slot_table``) sums these terms per bucket.

    Yields ``(cblk, sblk, sums)`` per block of column tuples and samples:
    ``sums[t]`` is the (K, Cb, Sb) array of the sums over table t's K
    buckets for ``cols[cblk]`` and samples ``sblk``.  A block holds the
    (P + 1, Cb, Sb) terms, padded with one zero row, built by l axis-0
    takes from the (n, Cb, Sb) slabs of entries (j, cols[c, a], s).  Each
    table gathers its (width, K + 1, Cb, Sb) slots from that block, one
    more column of padding included, and ``np.add.reduce`` sums them along
    the slot axis.  Along an axis that is not the fastest in memory numpy
    adds one slot after another, ((s_0 + s_1) + s_2) + ...; it sums
    pairwise only along the fastest axis, and the padding column keeps the
    slot axis from being the only one.  So a bucket sum is the float
    result of a plain loop over its tuples (the padding adds only zeros).
    A block's terms, one factor and its slots hold at most about _BLOCK
    elements together.
    """
    count, depth = rows.shape
    tables = [np.column_stack([table, np.full(len(table), count)]) for table in tables]
    per_pair = 2 * count + 1 + sum(table.size for table in tables)
    pairs = max(1, _BLOCK // per_pair)
    step_s = min(len(stack), pairs)
    step_c = max(1, pairs // step_s)
    for c in range(0, len(cols), step_c):
        cblk = slice(c, c + step_c)
        block_cols = cols[cblk]
        for s in range(0, len(stack), step_s):
            sblk = slice(s, s + step_s)
            block = stack[sblk]
            terms = np.zeros((count + 1, len(block_cols), len(block)))
            products = terms[:count]
            products[...] = signs[:, None, None]
            for a in range(depth):
                slab = block[:, :, block_cols[:, a]].transpose(1, 2, 0)
                products *= slab.take(rows[:, a], axis=0)
            yield cblk, sblk, [np.add.reduce(terms[table], axis=0)[:-1] for table in tables]


def _bucket_sums(stack, rows, cols, signs) -> np.ndarray:
    """The (C, S) sums of ``_product_sums`` over all row tuples in one
    bucket, added in the order of ``rows``."""
    out = np.empty((len(cols), len(stack)))
    for cblk, sblk, (sums,) in _product_sums(stack, rows, cols, [np.arange(len(rows))[:, None]], signs):
        out[cblk, sblk] = sums[0]
    return out
