"""Extension-level bookkeeping over explored chains.

A finished branch decomposes into blocks separated by its limit entries.
Each completed block contributes one defect factor: the effective degree
of the key that closes it, read over the last stages of the block, where
it must have settled.  The final block contributes the effective degree
of the tracked polynomial at its last stage; a terminated branch
contributes one.  Along a block that degree never rises and stays at
least 1, so 1 is final; a larger one may still drop at a deeper or a
limit stage, and is refused.  Step invariants multiply into the
ramification index and residue degree, and the branch rows are summed
against the degree of the tracked polynomial.
"""

import math

from .fields import Refusal
from .keypoly import located
from .values import INF, format_value, group_index

__all__ = ["ReportError", "BlockReport", "BranchReport", "DegreeIdentity",
           "classify", "invariants_ef", "defect", "degree_identity",
           "completeness_sample", "chain_rows", "render_chain",
           "render_defect", "render_newton"]


class ReportError(Refusal):
    """A bookkeeping cross-check failed or a branch is not classifiable."""


class BlockReport:
    """One block of consecutive stages: the slice between limit entries."""

    __slots__ = ("kind", "d")

    def __init__(self, kind, d):
        self.kind = kind          # limit | terminated | stable
        self.d = d


class BranchReport:
    __slots__ = ("branch_id", "chain", "blocks", "e", "f", "status")

    def __init__(self, branch_id, chain, blocks, e, f, status):
        self.branch_id = branch_id
        self.chain = chain
        self.blocks = blocks
        self.e = e
        self.f = f
        self.status = status

    @property
    def d_blocks(self):
        return [blk.d for blk in self.blocks]

    @property
    def d(self):
        return math.prod(blk.d for blk in self.blocks)


def split_stages(ch):
    """Stage numbers grouped into blocks.  A limit entry opens its block
    and at the same time closes the previous one."""
    groups = []
    for k in range(1, ch.depth() + 1):
        b = ch.entry(k).index.limit
        while len(groups) <= b:
            groups.append([])
        groups[b].append(k)
    return [g for g in groups if g]


def invariants_ef(ch):
    """Products of the step invariants over the successor entries, checked
    against the degree of the last key: the degree must factor as e times f
    times the jumps taken at the limit entries."""
    if ch.depth() == 0:
        raise ReportError("empty chain has no invariants")
    e = f = jumps = 1
    for k in range(1, ch.depth() + 1):
        ent = ch.entry(k)
        if ent.index.is_limit:
            jumps *= ent.alpha
        else:
            e *= ent.e_step
            f *= ent.f_step
    lastdeg = ch.entry(ch.depth()).poly.degree
    if lastdeg != e * f * jumps:
        raise ReportError(
            "last key degree %d does not factor as e*f*jumps = %d*%d*%d"
            % (lastdeg, e, f, jumps))
    return e, f


def classify(ch, window, branch_id=1):
    """Block decomposition with one defect factor per block, the step
    invariant products, and a leaf status.  A limit block must have settled
    against its closing key over the last `window` stages.  The final block
    is read at its last stage: a target effective degree above 1 there is
    refused.  The ramification index e is checked against the index of the
    base value group in the group of the last stage; a mismatch, or a pair
    of groups that cannot be compared, is refused too.  A refusal names the
    branch, stage and key (`located`)."""
    if window < 1:
        raise ReportError("window must be at least 1")
    try:
        return BranchReport(branch_id, ch, *_classify_unlocated(ch, window))
    except Refusal as exc:
        raise located(exc, ch, (branch_id,)) from None


def _classify_unlocated(ch, window):
    """The blocks, e, f and status of `classify`, refused unlocated."""
    blocks = []
    groups = split_stages(ch)
    for j, stages in enumerate(groups):
        if j + 1 < len(groups):
            closer = ch.entry(groups[j + 1][0])
            deltas = [ch.effective_degree(closer.poly, k)
                      for k in stages[-window:]]
            if len(set(deltas)) != 1:
                raise ReportError("block %d has not settled against its "
                                  "closing key over the window" % j)
            blocks.append(BlockReport("limit", deltas[-1]))
            continue
        if ch.entry(stages[-1]).beta is INF:
            blocks.append(BlockReport("terminated", 1))
            status = "terminated"
        else:
            delta = ch.effective_degree(ch.target, stages[-1])
            if delta > 1:
                raise ReportError(
                    "effective degree %d has not dropped to 1; a deeper run "
                    "or a limit stage is needed" % delta)
            blocks.append(BlockReport("stable", delta))
            status = "stable delta %d" % delta
    e, f = invariants_ef(ch)
    try:
        direct = group_index(ch.base_group, ch.group(ch.depth()))
    except ValueError as exc:
        raise ReportError("group index not directly comparable: %s"
                          % exc) from None
    if direct != e:
        raise ReportError("direct group index %d differs from e = %d"
                          % (direct, e))
    return blocks, e, f, status


def defect(branches):
    """One defect per branch: the product of its block factors.  Each must
    be at least 1 and a power of the residue characteristic p, where p = 0
    admits only 1.  A refusal names the branch, stage and key."""
    out = []
    for br in branches:
        d, p = br.d, br.chain.field.char
        m = d
        while p and m > 1 and m % p == 0:
            m //= p
        if m == 1:
            out.append(d)
            continue
        if d < 1:
            reason = "a block factor is below 1: %s" % br.d_blocks
        elif not p:
            reason = "defect %d over a base of characteristic zero" % d
        else:
            reason = "defect %d is not a power of %d" % (d, p)
        raise located(ReportError(reason), br.chain, (br.branch_id,))
    return out


class DegreeIdentity:
    """Comparison of the target degree with the branch totals e*f*d."""

    __slots__ = ("lhs", "terms", "complete")

    def __init__(self, lhs, terms, complete):
        self.lhs = lhs
        self.terms = terms
        self.complete = complete

    @property
    def total(self):
        return sum(e * f * d for e, f, d in self.terms)

    @property
    def verdict(self):
        return self.complete and self.lhs == self.total

    def line(self):
        rhs = " + ".join("%d*%d*%d" % t for t in self.terms)
        op = "=" if self.lhs == self.total else "!="
        if self.lhs > self.total and not self.complete:
            op = ">"
        return "%d %s %s%s" % (self.lhs, op, rhs,
                               "" if self.complete else " (partial)")


def degree_identity(target, branches, complete=True):
    ds = defect(branches)
    terms = [(br.e, br.f, d) for br, d in zip(branches, ds)]
    return DegreeIdentity(target.degree, terms, complete)


def completeness_sample(ch, samples):
    """True when every (polynomial, expected value) pair is attained by
    some stage truncation of the chain.  A sample declared with an
    infinite value sits in the support, where the attainment condition
    does not speak; it is skipped rather than failed."""
    for f, want in samples:
        if want is None:
            raise ReportError("sample %s carries no expected value"
                              % f.format())
        if want is INF:
            continue
        if not any(ch.cval(f, k) == want
                   for k in range(1, ch.depth() + 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# serialization


def chain_rows(ch):
    rows = []
    for k in range(1, ch.depth() + 1):
        ent = ch.entry(k)
        if ent.beta is INF:
            delta = "-"
        else:
            delta = str(ch.effective_degree(ch.target, k))
        rows.append((str(ent.index), ent.poly.format(),
                     format_value(ent.beta), str(ent.alpha), delta,
                     ent.origin))
    return rows


def render_chain(chains, fmt="text"):
    """Stage table per branch; works on raw chains, settled or not."""
    lines = []
    for bid, ch in chains:
        rows = chain_rows(ch)
        if fmt == "tsv":
            for row in rows:
                lines.append("\t".join((str(bid),) + row))
            continue
        tag = ", terminated" if ch.entry(ch.depth()).beta is INF else ""
        lines.append("branch %d: depth %d%s" % (bid, ch.depth(), tag))
        for idx, key, beta, alpha, delta, origin in rows:
            lines.append("  %s: Q = %s, beta = %s, alpha %s, delta %s, %s"
                         % (idx, key, beta, alpha, delta, origin))
    return "\n".join(lines) + "\n"


def render_defect(branches, identity, skipped=(), fmt="text"):
    """Branch reports, a line per skipped first value and the identity
    line, in text or tsv; each branch's defect is read from its term of
    the identity, which `degree_identity` computed."""
    lines = []
    ds = [d for _, _, d in identity.terms]
    if fmt == "tsv":
        for br, d in zip(branches, ds):
            lines.append("\t".join(
                [str(br.branch_id), str(br.e), str(br.f),
                 ",".join(str(x) for x in br.d_blocks), str(d), br.status]))
        lines += ["skipped\t%s" % format_value(beta1) for beta1 in skipped]
        lines.append("identity\t%s" % identity.line())
        return "\n".join(lines) + "\n"
    for br, d in zip(branches, ds):
        lines.append("branch %d: e %d, f %d, d_blocks [%s], d %d, %s"
                     % (br.branch_id, br.e, br.f,
                        ", ".join(str(x) for x in br.d_blocks), d, br.status))
    for beta1 in skipped:
        lines.append("skipped branch at first value %s" % format_value(beta1))
    if len(branches) == 1:
        lines.append("d = %d" % ds[0])
    lines.append("identity: %s" % identity.line())
    return "\n".join(lines) + "\n"


def render_newton(ch, f, k, fmt="text"):
    pts, hull, sides = ch.polygon(f, ch.entry(k).poly, k - 1)
    if fmt == "tsv":
        lines = ["point\t%d\t%s" % (j, format_value(v)) for j, v in pts]
        lines += ["vertex\t%d\t%s" % (j, format_value(v)) for j, v in hull]
        lines += ["side\t%d\t%d\t%s" % (s.j_left, s.j_right,
                                        format_value(s.sigma))
                  for s in sides]
        return "\n".join(lines) + "\n"
    lines = ["stage %s polygon of %s" % (ch.entry(k).index, f.format())]
    lines.append("points: " + "  ".join(
        "(%d, %s)" % (j, format_value(v)) for j, v in pts))
    lines.append("hull:   " + "  ".join(
        "(%d, %s)" % (j, format_value(v)) for j, v in hull))
    for s in sides:
        lines.append("side %d..%d: slope %s"
                     % (s.j_left, s.j_right, format_value(s.sigma)))
    return "\n".join(lines) + "\n"
