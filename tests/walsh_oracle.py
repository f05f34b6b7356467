"""The Fourier pair of Z_2^w as a butterfly, for the tests.

phi (point -> group) and psi (group -> point) are both the +-1 Walsh
matrix along the word axis, phi divided by 2^w.  ``walsh_transform``
applies that matrix by a butterfly instead of a product, so it is an
independent reference for ``qsym.boolean_group.walsh_matrix``, and it
takes a whole basis in one batch: ``walsh_transform(identity)`` is the
Walsh matrix, column g being psi(T_g).
"""

from __future__ import annotations

import numpy as np

from qsym import DimensionError


def walsh_transform(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along ``axis``:
    y[..., i, ...] = sum_j (-1)^{i.j} x[..., j, ...].

    A butterfly on a copy of dtype ``np.result_type(values, float)``.  At
    each stage the copy is viewed as (before, pairs, 2, h, after) around
    the axis, so no axis is moved; the copy is in C order whatever the
    input's layout, so that view is never a copy.  The length along the
    axis must be a power of two.  Self-inverse up to that length.
    """
    a = np.array(values, dtype=np.result_type(values, float), order="C")
    axis = range(a.ndim)[axis]
    size = a.shape[axis]
    if size & (size - 1):
        raise DimensionError(f"length {size} is not a power of two")
    before, after = int(np.prod(a.shape[:axis])), int(np.prod(a.shape[axis + 1 :]))
    h = 1
    while h < size:
        pairs = a.reshape(before, size // (2 * h), 2, h, after)
        top, bot = pairs[:, :, 0], pairs[:, :, 1]
        total = top + bot
        np.subtract(top, bot, out=bot)
        top[...] = total
        h *= 2
    return a
