"""Independent oracles for the test suite.

Everything here is deliberately naive: exhaustive coefficient searches, full monomial
expansion, O(n^3) hull scans.  Nothing imports the modules under test except for plain
data types (values, field elements), so a bug in the clever code cannot hide in its own
oracle.
"""

from fractions import Fraction
from itertools import product

from valforge.values import INF, Value


def brute_contains(gens, target, bound):
    """Is target an integer combination of gens with coefficients in [-bound, bound]?"""
    if not gens:
        return all(c == 0 for c in target.coords)
    rank = target.rank
    for coeffs in product(range(-bound, bound + 1), repeat=len(gens)):
        acc = [Fraction(0)] * rank
        for c, g in zip(coeffs, gens):
            for k in range(rank):
                acc[k] += c * g.coords[k]
        if tuple(acc) == target.coords:
            return True
    return False


def brute_coset_count(sub_gens, sup_gens, reach):
    """Count cosets of <sub_gens> among combinations of sup_gens with coefficients
    in [0, reach).  Saturates at the true index once reach covers the torsion."""
    points = []
    rank = sup_gens[0].rank
    for coeffs in product(range(reach), repeat=len(sup_gens)):
        acc = [Fraction(0)] * rank
        for c, g in zip(coeffs, sup_gens):
            for k in range(rank):
                acc[k] += c * g.coords[k]
        points.append(Value(acc))
    reps = []
    for p in points:
        if not any(brute_contains(sub_gens, p - r, 2 * reach) for r in reps):
            reps.append(p)
    return len(reps)


def brute_solve_unique(gens, target):
    """Solve sum c_i * gens[i] = target over Q by Gaussian elimination.  Returns the
    coefficient list when the system has a unique solution, None when inconsistent,
    and raises when the generators are dependent (no unique solution to check)."""
    rank = target.rank
    ncols = len(gens)
    aug = [[gens[i].coords[r] for i in range(ncols)] + [target.coords[r]] for r in range(rank)]
    row = 0
    pivots = []
    for col in range(ncols):
        p = next((r for r in range(row, rank) if aug[r][col] != 0), None)
        if p is None:
            raise ValueError("dependent generators")
        aug[row], aug[p] = aug[p], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(rank):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, rank):
        if aug[r][ncols] != 0:
            return None
    return [aug[i][ncols] for i in range(ncols)]


def brute_multiple_order(gens, v, cap, coeff_bound):
    """Least m >= 1 with m*v an integer combination of gens."""
    for m in range(1, cap + 1):
        if brute_contains(gens, v.scale(m), coeff_bound):
            return m
    raise AssertionError("no multiple of %s within cap %d lies in the group" % (v, cap))


def brute_lower_hull(points):
    """Lower convex hull vertices of (integer abscissa, Value ordinate) points, by the
    definition: keep the cheapest ordinate per abscissa, then drop every point lying on
    or above the segment between some pair that straddles it.  Infinite ordinates never
    constrain anything and are skipped."""
    best = {}
    for x, v in points:
        if v.is_infinite:
            continue
        if x not in best or v < best[x]:
            best[x] = v
    pts = sorted(best.items())
    if len(pts) <= 2:
        return pts
    vertices = []
    for i, (x, v) in enumerate(pts):
        dominated = False
        for j in range(len(pts)):
            for k in range(j + 1, len(pts)):
                xa, va = pts[j]
                xb, vb = pts[k]
                if xa < x < xb:
                    interp = va.scale(Fraction(xb - x, xb - xa)) + vb.scale(Fraction(x - xa, xb - xa))
                    if interp <= v:
                        dominated = True
        if not dominated:
            vertices.append((x, v))
    return vertices


def brute_flat_value(chain_polys, betas, field, f):
    """Stage value of f by full flat expansion: expand f in the top key, every
    coefficient in the next key down, and so on to the base, reconstruct the
    polynomial from the flat terms to certify the expansion, then take the
    plain minimum of sum a_k*beta_k + base value over all terms.  No recursion
    into partial minima, so a min-pushdown bug in the engine cannot hide here."""
    from valforge.polyring import Poly, standard_expansion

    terms = [((), f)]
    for lvl in range(len(chain_polys), 0, -1):
        q = chain_polys[lvl - 1]
        split = []
        for exps, c in terms:
            for m, cm in enumerate(standard_expansion(c, q)):
                if cm.is_zero:
                    continue
                split.append(((m,) + exps, cm))
        terms = split
    total = Poly.zero(field, f.var)
    for exps, c in terms:
        acc = c
        for lvl, m in enumerate(exps, start=1):
            if m:
                acc = acc * chain_polys[lvl - 1].pow(m)
        total = total + acc
    assert total.eq(f), "flat expansion failed to reconstruct its input"
    best = INF
    for exps, c in terms:
        elem = c.constant_term()
        if field.is_zero(elem):
            continue
        v = field.valuate(elem)
        for lvl, m in enumerate(exps, start=1):
            if m:
                v = v + betas[lvl - 1].scale(m)
        if v < best:
            best = v
    return best
