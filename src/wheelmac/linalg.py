"""Exact rank and kernel computation for the constraint matrices.

Two elimination paths:

  * ``EchelonBasis`` -- incremental Gaussian elimination over a field,
    used where the entries are field elements anyway (rational matrices,
    and the numeric row selection below over Q(zeta_N)).
  * ``rank_kernel_poly`` -- the workhorse for tall matrices over
    Q(zeta_N)[u]: repeated rows are dropped after their first occurrence
    (the wheel matrix holds one row per relation and filler, and its
    callers pass one sigma per rotation class, so the rotation copies,
    unit multiples of their class's rows, never reach it), then a numeric
    evaluation of u picks out candidate independent rows
    (independence at a point implies exact independence),
    the candidates are triangularized exactly with row-content stripping,
    the kernel is read off by fraction-free back-substitution (UniPoly
    entries throughout, no rational functions), and every remaining row
    is certified against the kernel by polynomial dot products.  Any row
    failing the certificate joins the candidates and the loop repeats, so
    the output is exact regardless of the evaluation point.

UniRatFunc rows are cleared to UniPoly rows by one of two helpers:
``_clear_upower_row`` for the constraint rows, whose denominators are
powers of u (``corank_upower`` ranks such rows), and
``_clear_denominators`` (scaling by the lcm of the denominators) for
``wheel_ideal.laurent_clear``.

Rows are plain lists; callers choose the entry type.
"""

from fractions import Fraction

from .scalars import ExactDivisionError, UniPoly

__all__ = ["EchelonBasis", "rank_kernel_poly", "corank_upower"]


def _is_zero(x):
    return not x


class EchelonBasis:
    """Incremental row echelon form over a field.

    Feeding rows one by one keeps at most rank-many reduced rows around,
    which is what makes the tall constraint matrices cheap.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}  # column -> reduced row with 1 in that column

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        row = list(row)
        for col, prow in self.pivots.items():
            c = row[col]
            if not _is_zero(c):
                for j in range(self.ncols):
                    pj = prow[j]
                    if not _is_zero(pj):
                        row[j] = row[j] - c * pj
        return row

    def add(self, row):
        """Reduce a row against the basis; returns True if rank grew."""
        row = self.reduce(row)
        for col in range(self.ncols):
            if not _is_zero(row[col]):
                inv = 1 / row[col]
                row = [x if _is_zero(x) else x * inv for x in row]
                for prow in self.pivots.values():
                    c = prow[col]
                    if not _is_zero(c):
                        for j in range(self.ncols):
                            if not _is_zero(row[j]):
                                prow[j] = prow[j] - c * row[j]
                self.pivots[col] = row
                return True
        return False


# -- exact rank/kernel over Q(zeta_N)[u] with numeric row selection --------

_PROBE_POINT = Fraction(5, 2)


def _clear_upower_row(row, N):
    """UniRatFunc row -> UniPoly row, when every (monic) denominator is a
    u-power; any other raises ExactDivisionError, since shifting its
    numerator would drop the rest of the denominator."""
    for x in row:
        if x.den.trailing_order() != x.den.degree():
            raise ExactDivisionError("denominator %r is not a power of u"
                                     % (x.den,))
    shift = max((x.den.degree() for x in row), default=0)
    return [x.num.shift(shift - x.den.degree()) if x else UniPoly.zero(N)
            for x in row]


def _clear_denominators(row, N):
    """UniRatFunc row -> UniPoly row, scaled by the lcm of the denominators
    (each new denominator extends it by its cofactor against the gcd)."""
    den = UniPoly.one(N)
    for x in row:
        if x:
            den = den * den.gcd(x.den)[2]
    return [x.num * den.divexact(x.den) if x else UniPoly.zero(N) for x in row]


def _strip_row_gcd(row):
    """The row divided by the gcd of its entries (by the entry itself when
    there is one).  The gcd is tried first as gcd(x_1, x_2 + 2 x_3 + ...),
    a multiple of the true gcd that equals it exactly when it divides every
    entry; only that gcd is kept, not its cofactors, and the division of
    each entry is the check.  Otherwise it is reduced against each entry
    in turn."""
    nz = [x for x in row if x]
    if not nz:
        return row
    g = nz[0]
    if len(nz) > 1:
        g = g.gcd(sum((x.scale(k) for k, x in enumerate(nz[2:], 2)),
                      nz[1]))[0]
        if g.degree() == 0:
            return row
        try:
            return [x.divexact(g) if x else x for x in row]
        except ExactDivisionError:
            for x in nz[1:]:
                g = g.gcd(x)[0]
    if g.degree() == 0:
        return row
    return [x.divexact(g) if x else x for x in row]


def _triangularize_poly(rows, ncols):
    """Row echelon by cross-multiplication with content stripping.

    Returns [(pivot column, row)] in increasing pivot order.  Rank is
    preserved because rows are only rescaled and combined.
    """
    rows = [list(r) for r in rows if any(r)]
    tri = []
    for col in range(ncols):
        cands = [i for i, r in enumerate(rows) if r[col]]
        if not cands:
            continue
        piv = min(cands, key=lambda i: (rows[i][col].degree(),
                                        sum(1 for e in rows[i] if e)))
        prow = rows.pop(piv)
        pv = prow[col]
        nxt = []
        for row in rows:
            c = row[col]
            if c:
                row = [pv * row[j] - c * prow[j] for j in range(ncols)]
                row = _strip_row_gcd(row)
            if any(row):
                nxt.append(row)
        rows = nxt
        tri.append((col, prow))
        if not rows:
            break
    return tri


def _poly_kernel_from_triangular(tri, ncols, N):
    """Back-substitute the kernel fraction-free over Q(zeta_N)[u].

    A row fixes its pivot entry as -s/p (s: its later terms): p and s are
    replaced by the cofactors of their gcd, and the vector is scaled by
    what is left of p unless that is a constant.  So the entries never
    share a factor, and a monic free coordinate fixes the vector among its
    multiples.
    """
    one, zero = UniPoly.one(N), UniPoly.zero(N)
    pivset = {c for c, _ in tri}
    basis = []
    for fc in (c for c in range(ncols) if c not in pivset):
        vec = [zero] * ncols
        vec[fc] = one
        for col, row in reversed(tri):
            acc = zero
            for j in range(col + 1, ncols):
                if row[j] and vec[j]:
                    acc = acc + row[j] * vec[j]
            if not acc:
                continue
            piv = row[col]
            if piv.degree() > 0:
                _, piv, acc = piv.gcd(acc)
            if piv.degree() > 0:
                vec = [x * piv for x in vec]
                vec[col] = -acc
            else:
                vec[col] = (-acc).divexact(piv)
        lead = vec[fc].leading()
        if lead != 1:
            lead = 1 / lead
            vec = [x.scale(lead) for x in vec]
        basis.append(vec)
    return basis


def rank_kernel_poly(rows, ncols, N):
    """Exact (rank, kernel basis) of a matrix over Q(zeta_N)[u].

    rows: iterable of UniPoly rows.  Each kernel vector comes back as a
    UniPoly row with no common factor and a monic free coordinate (its
    last nonzero entry).  Only the first copy of a repeated row is kept: the
    copies add no constraint and would pass the certificate anyway.
    """
    rows = list(dict.fromkeys(tuple(r) for r in rows if any(r)))
    if not rows:
        one, zero = UniPoly.one(N), UniPoly.zero(N)
        return 0, [[one if j == fc else zero for j in range(ncols)]
                   for fc in range(ncols)]
    numeric = [[e.evaluate(_PROBE_POINT) for e in row] for row in rows]
    ech = EchelonBasis(ncols)
    chosen = [i for i, nrow in enumerate(numeric) if ech.add(nrow)]
    chosen_set = set(chosen)
    while True:
        tri = _triangularize_poly([rows[i] for i in chosen], ncols)
        rank = len(tri)
        kernel = _poly_kernel_from_triangular(tri, ncols, N)
        offender = None
        for i, row in enumerate(rows):
            if i in chosen_set:
                continue
            for vec in kernel:
                acc = None
                for a, b in zip(row, vec):
                    if a and b:
                        acc = a * b if acc is None else acc + a * b
                if acc is not None and not acc.is_zero():
                    offender = i
                    break
            if offender is not None:
                break
        if offender is None:
            return rank, kernel
        chosen.append(offender)
        chosen_set.add(offender)


def corank_upower(rows, ncols, N):
    """Corank of UniRatFunc rows whose denominators are powers of u: each
    row is cleared by ``_clear_upower_row`` and ranked by
    ``rank_kernel_poly``."""
    rank, _ = rank_kernel_poly((_clear_upower_row(row, N) for row in rows),
                               ncols, N)
    return ncols - rank
