"""Per-offset reference for the lattice candidate scan, used as a test oracle.

`scan_ref` scores every candidate base + offset of every row with the exact
distance formula, one offset at a time, and keeps the first strict minimum.
The library ranks all offsets with one matrix product and rescores only the
near-ties; its results are compared with this loop.
"""

from rsuq.lattices import _sqnorm_rows


def scan_ref(lat, X, base, offsets):
    # Nearest of the candidates base + offset per row.  Offsets come in
    # lexicographic order; strict improvement keeps the first (lexicographically
    # smallest) minimizer on exact ties.
    best_j = best_d = None
    for off in offsets:
        j = base + off
        d = _sqnorm_rows(X - lat.embed_rows(j))
        if best_j is None:
            best_j, best_d = j, d
        else:
            better = d < best_d
            best_j[better] = j[better]
            best_d[better] = d[better]
    return best_j
