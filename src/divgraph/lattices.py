"""Subgroups of Z^d (+) Q generated by integer vectors, with decidable
membership.

Every generator has rational part 0 (an atom subgroup of the shipped models
lies in Z^d), so the subgroup is an integer lattice in Z^d (+) 0, handled
with a column echelon form by unimodular column operations (transform
tracked, so membership certificates are integer coefficients over the
original generators, each checked by one integer product with them).  A
target with a nonzero rational part is never a member; its coset
representative keeps it, and renders it on the ambient's grid.
"""

from __future__ import annotations

from operator import mul

from .values import Ambient, Vec


def column_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[tuple[int, int]]]:
    """Return (H, U, pivots) with H = A * U, U unimodular, H in column echelon
    form: pivots[k] = (row, col) in increasing row and column order, and every
    column right of a pivot has a zero entry in that pivot's row."""
    d = len(rows)
    n = len(rows[0]) if d else 0
    # the column operations act on [A; I], which ends as [H; U]
    M = [list(r) for r in rows] + [[int(i == j) for j in range(n)] for i in range(n)]
    pivots: list[tuple[int, int]] = []
    cur = 0
    for row in range(d):
        while True:
            live = [j for j in range(cur, n) if M[row][j] != 0]
            if len(live) <= 1:
                break
            j0 = min(live, key=lambda j: abs(M[row][j]))
            for j in live:
                if j != j0:
                    q = M[row][j] // M[row][j0]
                    for r in M:  # column_j -= q * column_j0
                        r[j] -= q * r[j0]
        if not live:
            continue
        k = live[0]
        sign = 1 if M[row][k] > 0 else -1
        for r in M:  # column k to column cur, with a positive pivot
            r[k], r[cur] = r[cur], sign * r[k]
        pivots.append((row, cur))
        cur += 1
    return M[:d], M[d:], pivots


class SubgroupDescriptor:
    """Subgroup of Z^dim (+) Q generated by `generators`, each with rational
    part 0, with normal form."""

    def __init__(self, ambient: Ambient, generators: tuple[Vec, ...]):
        for g in generators:
            if g.rat != 0:
                raise ValueError(f"generator {g} has a nonzero rational part")
        self.ambient, self.generators = ambient, generators
        self._A = [[g.ints[i] for g in generators] for i in range(ambient.dim)]
        self._H, self._U, self._pivots = column_echelon(self._A)

    @property
    def no_atoms(self) -> bool:
        return not self.generators

    # -- membership and coset representatives -------------------------------

    def _reduce(self, g: Vec) -> tuple[list[int], list[int]]:
        """The remainder of g's integer part after floor division by each
        pivot column in turn, and the multiple of each column taken off.
        Later columns are zero in earlier pivot rows, so g is a member
        exactly when the remainder is 0, and then the multiples are exact."""
        if len(g.ints) != self.ambient.dim:
            raise ValueError("ambient dimension mismatch")
        w, y = list(g.ints), [0] * len(self.generators)
        for row, col in self._pivots:
            t = y[col] = w[row] // self._H[row][col]
            for i in range(self.ambient.dim):
                w[i] -= t * self._H[i][col]
        return w, y

    def membership(self, g: Vec) -> list[int] | None:
        """Integer c with sum(c_i * generators_i) == g, or None when g is
        outside the subgroup (so test `is None`: {0} answers [] for 0)."""
        rest, y = self._reduce(g)
        if g.rat != 0 or any(rest):
            return None
        coeffs = [sum(map(mul, u, y)) for u in self._U]
        # exactness check against the original generators: A * coeffs == g
        if tuple(sum(map(mul, a, coeffs)) for a in self._A) != g.ints:
            raise AssertionError("membership certificate failed to reproduce the target")
        return coeffs

    def coset_rep(self, g: Vec) -> Vec:
        """Deterministic canonical representative of g + subgroup: the
        remainder; the rational part passes through, since the subgroup has none."""
        return Vec(tuple(self._reduce(g)[0]), g.rat)

    def coset_label(self, g: Vec) -> str:
        return self.coset_rep(g).render(self.ambient.grid)

    def to_jsonable(self) -> dict:
        return {
            "ambient_dim": self.ambient.dim,
            "ambient_rational": self.ambient.with_rat,
            "generators": sorted(g.render(self.ambient.grid) for g in self.generators),
            "no_atoms": self.no_atoms,
            # the generators have rational part 0, so the subgroup meets the
            # rational axis only in 0
            "rational_part_generator": "0",
        }
