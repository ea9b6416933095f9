"""Test-side readers of a divergence set."""

import numpy as np


def good_rows(x, q):
    """(m, d) residues of the balls of q in x, in lex order."""
    return np.argwhere(x.mask(q))
