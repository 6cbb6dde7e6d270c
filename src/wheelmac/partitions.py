"""Partition combinatorics.

Partitions are plain tuples of non-negative integers, weakly decreasing,
stored without trailing zeros; every operation that needs a fixed number
of slots takes an explicit context length n and pads on demand.  The
total order used for iteration is decreasing lexicographic on the padded
tuples, which refines the dominance order on each size class.
"""

from .scalars import ParameterSpec

__all__ = [
    "normalize", "pad", "size", "length", "conjugate", "dominance_leq",
    "addable_rows", "removable_rows", "add_node", "remove_node",
    "violating_window", "is_admissible", "enumerate_partitions",
    "enumerate_admissible", "count_admissible", "check_lemma21",
    "parse_partition", "format_partition",
]


def normalize(parts):
    """Canonical form: tuple, trailing zeros stripped; validates shape."""
    parts = tuple(parts)
    for i, p in enumerate(parts):
        if p < 0:
            raise ValueError("negative part in %r" % (parts,))
        if i and parts[i - 1] < p:
            raise ValueError("parts not weakly decreasing: %r" % (parts,))
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def pad(lam, n):
    lam = tuple(lam)
    if len(lam) > n:
        if any(lam[n:]):
            raise ValueError("partition %r has more than %d parts" % (lam, n))
        return lam[:n]
    return lam + (0,) * (n - len(lam))


def size(lam):
    return sum(lam)


def length(lam):
    return sum(1 for p in lam if p > 0)


def conjugate(lam):
    """Transpose of the Young diagram: lam'_j = #{i : lam_i >= j}."""
    lam = normalize(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def dominance_leq(mu, lam):
    """mu <= lam in dominance: every prefix sum of mu is <= that of lam."""
    mu, lam = normalize(mu), normalize(lam)
    if size(mu) != size(lam):
        raise ValueError("dominance order needs equal sizes: %r vs %r" % (mu, lam))
    n = max(len(mu), len(lam))
    mu, lam = pad(mu, n), pad(lam, n)
    sm = sl = 0
    for a, b in zip(mu, lam):
        sm += a
        sl += b
        if sm > sl:
            return False
    return True


def addable_rows(lam):
    """Rows j (1-based) that can take one more node: j = 1, or
    lam_{j-1} > lam_j (so j runs up to l(lam) + 1)."""
    lam = normalize(lam) + (0,)
    return [j for j in range(1, len(lam) + 1)
            if j == 1 or lam[j - 2] > lam[j - 1]]


def removable_rows(lam):
    """Rows j (1-based) that can lose a node: lam_j > lam_{j+1}."""
    lam = normalize(lam) + (0,)
    return [j for j in range(1, len(lam)) if lam[j - 1] > lam[j]]


def add_node(lam, j):
    """lam^(j): add one node to row j (1-based); error if not a partition."""
    lam = normalize(lam)
    if j not in addable_rows(lam):
        raise ValueError("undefined corner: cannot add a node to row %d of %r"
                         % (j, lam))
    parts = lam + (0,)
    return normalize(parts[:j - 1] + (parts[j - 1] + 1,) + parts[j:])


def remove_node(lam, j):
    """lam_(j): remove one node from row j (1-based)."""
    lam = normalize(lam)
    if j not in removable_rows(lam):
        raise ValueError("undefined corner: cannot remove a node from row %d "
                         "of %r" % (j, lam))
    return normalize(lam[:j - 1] + (lam[j - 1] - 1,) + lam[j:])


def violating_window(lam, k, r, n):
    """The first 0-based i with lam_i - lam_{i+k} < r, lam padded to length
    n (k+1 consecutive parts within a spread of r-1), or None."""
    lam = pad(normalize(lam), n)
    return next((i for i in range(n - k) if lam[i] - lam[i + k] < r), None)


def is_admissible(lam, k, r, n):
    """lam_i - lam_{i+k} >= r for all 1 <= i <= n-k, lam padded to length n."""
    return violating_window(lam, k, r, n) is None


def enumerate_partitions(n, d):
    """All partitions of d with at most n parts, decreasing lex order."""
    out = []
    _extend_partitions(out, [], d, n, d)
    return out


def _extend_partitions(out, prefix, remaining, slots, cap):
    """Append to out, in decreasing lex order, prefix followed by each
    partition of remaining into at most slots parts no larger than cap."""
    if remaining == 0:
        out.append(tuple(prefix))
        return
    if slots == 0:
        return
    top = min(cap, remaining)
    # smallest admissible first part so that the rest fits
    low = -(-remaining // slots)  # ceil
    for p in range(top, low - 1, -1):
        prefix.append(p)
        _extend_partitions(out, prefix, remaining - p, slots - 1, p)
        prefix.pop()


def enumerate_admissible(k, r, n, d):
    """The (k,r,n)-admissible partitions of d, decreasing lex order."""
    return [lam for lam in enumerate_partitions(n, d)
            if is_admissible(lam, k, r, n)]


def count_admissible(k, r, n, d):
    return len(enumerate_admissible(k, r, n, d))


def check_lemma21(lam, k, r, n):
    """Non-resonance of the exponent pairs behind the Pieri denominators.

    For every 1 <= i < j <= n, with g = lam_i - lam_j and h = j - i,
    checks that neither
        (g, h)   nor   (g + 1, h + 1)
    satisfies q^a t^b = 1 under the (k, r) resonance, and, when row j is
    a strict corner (lam_j < lam_{j-1}), neither do
        (g - 1, h)   and   (g, h - 1).

    All four families hold for every (k,r,n)-admissible lam: a resonant
    pair needs h ~ (k+1)s, and stacking s admissibility windows inside
    j - i forces g >= r s, one more than the resonance allows; the two
    guarded families fail only through a tight window ending in equal
    rows, which the corner guard excludes.  On non-admissible input the
    check may legitimately return False.
    """
    p = ParameterSpec(k, r)
    lam = pad(normalize(lam), n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g = lam[i - 1] - lam[j - 1]
            h = j - i
            if p.is_resonant(g, h) or p.is_resonant(g + 1, h + 1):
                return False
            if lam[j - 1] < lam[j - 2]:
                if p.is_resonant(g - 1, h) or p.is_resonant(g, h - 1):
                    return False
    return True


def parse_partition(text):
    """Parse the "3,1,0" wire format."""
    text = text.strip()
    if not text:
        return ()
    return normalize(int(p) for p in text.split(","))


def format_partition(lam, n=None):
    lam = normalize(lam)
    if n is not None:
        lam = pad(lam, n)
    return ",".join(str(p) for p in lam)
