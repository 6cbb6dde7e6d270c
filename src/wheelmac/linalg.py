"""Exact rank and kernel computation for the constraint matrices.

Two elimination paths:

  * ``EchelonBasis`` -- incremental Gaussian elimination over a field,
    used where the entries are field elements anyway (rational matrices,
    and the numeric row selection below over Q(zeta_N)).
  * ``rank_kernel_poly`` -- the workhorse for tall matrices over
    Q(zeta_N)(u) whose denominators are powers of u.  It reads its rows
    one at a time, as they are built: repeated rows are dropped after
    their first occurrence (the wheel matrix holds one row per relation
    and filler, and its callers pass one sigma per rotation class, so the
    rotation copies, unit multiples of their class's rows, never reach
    it), and each row is taken at a numeric point u0 to pick out
    candidate independent rows, every distinct entry evaluated once per
    call.  Evaluation at u0 is a ring map, so a nonzero minor at u0 is a
    nonzero minor over Q(zeta_N)(u): independence at a point implies
    exact independence.  When the candidates reach full column rank, that
    minor is the whole answer (rank ncols, no kernel): the rest of the
    rows is never drawn, so a generator never builds it, and nothing is
    cleared.
    Below full rank every row read is cleared to a polynomial row
    (``_clear_upower_row``), the candidates are triangularized exactly
    with row-content stripping (each row divided by the gcd of its
    entries, one gcd fold that stops at a constant), the kernel is read
    off by fraction-free back-substitution (UniPoly entries throughout,
    no rational functions), and every remaining row is certified against
    the kernel by polynomial dot products.  Any row failing the
    certificate joins the candidates and the loop repeats, so the output
    is exact regardless of the evaluation point.

Every denominator of a row that is read is checked to be a power of u
(``_upower``), since clearing shifts the numerators; ``corank_upower``
(for ``current_algebra.W_space_dim``) checks every row it is given before
ranking, also those after the full-rank exit.  ``_clear_denominators``
(scaling by the lcm of the denominators) clears rows with any
denominators, for ``wheel_ideal.laurent_clear``.

Rows are plain lists: of field elements for ``EchelonBasis``, of
UniRatFuncs for ``rank_kernel_poly``.
"""

from fractions import Fraction

from .scalars import ExactDivisionError, UniPoly

__all__ = ["EchelonBasis", "rank_kernel_poly", "corank_upower"]


class EchelonBasis:
    """Incremental row echelon form over a field.

    Feeding rows one by one keeps at most rank-many echelon rows around,
    which is what makes the tall constraint matrices cheap.  Each stored
    row was reduced against every earlier one, so it is 0 in their pivot
    columns, and clearing the pivots in insertion order reduces fully.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}  # column -> row with 1 there, 0 at earlier pivots

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        row = list(row)
        for col, prow in self.pivots.items():
            c = row[col]
            if c:
                for j in range(self.ncols):
                    pj = prow[j]
                    if pj:
                        row[j] = row[j] - c * pj
        return row

    def add(self, row):
        """Reduce a row against the basis; returns True if rank grew."""
        row = self.reduce(row)
        for col in range(self.ncols):
            if row[col]:
                inv = 1 / row[col]
                self.pivots[col] = [x * inv if x else x for x in row]
                return True
        return False


# -- exact rank/kernel over Q(zeta_N)[u] with numeric row selection --------

_PROBE_POINT = Fraction(5, 2)


def _upower(x):
    """The degree of the (monic) denominator of x, which must be a power
    of u; any other raises ExactDivisionError, since shifting the numerator
    would drop the rest of the denominator."""
    deg = x.den.degree()
    if x.den.trailing_order() != deg:
        raise ExactDivisionError("denominator %r is not a power of u"
                                 % (x.den,))
    return deg


def _clear_upower_row(row, N):
    """UniRatFunc row -> UniPoly row: u^shift times the row, shift the
    largest degree of a denominator, each checked by ``_upower``."""
    degs = [_upower(x) for x in row]
    shift = max(degs, default=0)
    return [x.num.shift(shift - s) if x else UniPoly.zero(N)
            for x, s in zip(row, degs)]


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
    there is one): one gcd fold over the nonzero entries, which stops once
    the gcd is a constant."""
    nz = [x for x in row if x]
    if not nz:
        return row
    g = nz[0]
    for x in nz[1:]:
        if g.degree() == 0:
            break
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
    """Exact (rank, kernel basis) of a matrix over Q(zeta_N)(u).

    rows: iterable of UniRatFunc rows whose denominators are powers of u,
    read one at a time.  Only the first copy of a repeated row is kept:
    the copies add no constraint and would pass the certificate anyway.
    Each entry is taken at u0 once per call, as num(u0) u0^-s once
    ``_upower`` has checked that its denominator is u^s; a row at u0 is
    then u0^-shift times its cleared form, so the rows chosen are those of
    the cleared matrix.  At full rank the rest of rows is never read;
    below it the kept rows are cleared by ``_clear_upower_row`` for the
    exact phase.  Each kernel vector comes back as a UniPoly row with no
    common factor and a monic free coordinate (its last nonzero entry).
    """
    # equal entries share a class, so rows are compared by their classes
    # and an entry object is hashed once; read keeps the entry it is keyed
    # by alive, so its id is not reused within the call
    read = {}  # id(entry) -> (entry, its class, its value at u0)
    classes = {}  # entry -> its class

    def entry(x):
        got = read.get(id(x))
        if got is None:
            s = _upower(x)
            v = x.num.evaluate(_PROBE_POINT)
            got = read[id(x)] = (x, classes.setdefault(x, len(classes)),
                                 v * _PROBE_POINT ** -s if s else v)
        return got

    kept = {}  # the classes of each distinct nonzero row -> the row
    ech = EchelonBasis(ncols)
    chosen = []
    for row in rows:
        if not any(row):
            continue
        got = [entry(x) for x in row]
        key = tuple(g[1] for g in got)
        if key in kept:
            continue
        kept[key] = row
        if ech.add([g[2] for g in got]):
            chosen.append(len(kept) - 1)
            if ech.rank == ncols:
                # the chosen rows have a nonzero ncols-minor at u0, hence
                # over Q(zeta_N)[u]: full column rank, no kernel
                return ncols, []
    rows = [_clear_upower_row(row, N) for row in kept.values()]
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
    """Corank of UniRatFunc rows whose denominators are powers of u.  Every
    row is checked by ``_upower`` before ``rank_kernel_poly`` ranks them, so
    a bad row is refused even where the rank is full before it."""
    rows = list(rows)
    for row in rows:
        for x in row:
            _upower(x)
    return ncols - rank_kernel_poly(rows, ncols, N)[0]
