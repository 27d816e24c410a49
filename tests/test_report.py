import pytest

from inputs import V, cubic_setup, grown_chains, quartic_setup, tower_chain
from valforge.keypoly import Chain, explore, replay
from valforge.polyring import Poly
from valforge.report import (BlockReport, BranchReport, DegreeIdentity,
                             ReportError, classify, completeness_sample,
                             defect, degree_identity, invariants_ef,
                             render_chain, render_defect, render_newton,
                             split_stages)
from valforge.values import INF, OrdinalIndex


IDX = [OrdinalIndex(0, n) for n in range(12)]

_CACHE = {}


def quartic_branches():
    if "quartic" not in _CACHE:
        F, x, Q, P = quartic_setup()
        chains, skipped = explore(F, "x", P, 12)
        assert skipped == []
        _CACHE["quartic"] = (P, chains,
                             [classify(ch, 5, i + 1)
                              for i, ch in enumerate(chains)])
    return _CACHE["quartic"]


def cubic_branches():
    if "cubic" not in _CACHE:
        F, w, z, y, P = cubic_setup()
        pre = Chain(F, "w", P, lump_sides=True)
        pre.append(IDX[1], w, V(3, 0), "derived")
        q2 = pre.derive_keys()[0][0]
        u = F.add(F.add(F.pow(y, 3), F.pow(y, 9)), F.pow(y, 27))
        a = F.mul(F.pow(z, 3), u)
        c = lambda e: Poly.const(F, "w", e)
        q3 = q2 + c(a) * Poly.variable(F, "w") + c(F.mul(a, a))
        script = [(IDX[1], w, V(3, 0)), (IDX[2], q2, V(6, 3)),
                  (IDX[3], q3, INF)]
        chains, skipped = explore(F, "w", P, 10, lump_sides=True,
                                  scripted={V(3, 0): script})
        assert skipped == []
        _CACHE["cubic"] = (P, chains,
                           [classify(ch, 4, i + 1)
                            for i, ch in enumerate(chains)])
    return _CACHE["cubic"]


def place(bid, ch):
    """Where a branch refusal of ch happened: the branch, then the stage and
    key of the chain's top entry."""
    top = ch.entries[-1]
    return "branch %d: stage %s, key Q = %s: " % (bid, top.index,
                                                   top.poly.format())


def check_block_degree_route(br):
    # the block route e*f*prod(d_blocks) must equal the degree route
    # deg(Q_last) * d_final; both express the branch term of the identity
    total = br.e * br.f
    for d in br.d_blocks:
        total *= d
    lastdeg = br.chain.entry(br.chain.depth()).poly.degree
    assert total == lastdeg * br.blocks[-1].d


# ---------------------------------------------------------------------------
# classification


def test_quartic_branch_reports():
    P, chains, branches = quartic_branches()
    assert len(branches) == 2
    for br in branches:
        assert (br.e, br.f) == (2, 1)
        assert br.d_blocks == [1]
        assert br.d == 1
        assert br.status == "stable delta 1"
        assert [blk.kind for blk in br.blocks] == ["stable"]
        check_block_degree_route(br)


def test_cubic_branch_reports():
    P, chains, branches = cubic_branches()
    assert len(branches) == 2
    lumped, ladder = branches
    assert (lumped.e, lumped.f) == (1, 2)
    assert lumped.status == "terminated"
    assert [blk.kind for blk in lumped.blocks] == ["terminated"]
    assert (ladder.e, ladder.f) == (1, 1)
    assert ladder.status == "stable delta 1"
    assert defect(branches) == [1, 1]
    for br in branches:
        check_block_degree_route(br)


def test_tower_branch_report():
    F, P, qw, qw2, script, ch = tower_chain()
    br = classify(ch, 5)
    assert [blk.kind for blk in br.blocks] == ["limit", "limit", "stable"]
    assert br.d_blocks == [2, 2, 1]
    assert br.d == 4
    assert (br.e, br.f) == (1, 1)
    assert br.status == "stable delta 1"
    assert split_stages(ch) == [list(range(1, 13)), list(range(13, 26)),
                                list(range(26, 39))]
    assert defect([br]) == [4]
    check_block_degree_route(br)


def test_classify_rejects_bad_window():
    # the window is no branch's; its refusal names no place
    P, chains, branches = quartic_branches()
    with pytest.raises(ReportError, match="^window must be at least 1$"):
        classify(chains[0], 0)


def test_group_index_cross_check_is_a_refusal(monkeypatch):
    import valforge.report as report
    P, chains, branches = quartic_branches()
    monkeypatch.setattr(report, "group_index", lambda base, group: 3)
    with pytest.raises(ReportError) as info:
        classify(chains[1], 5, 2)
    assert str(info.value) == (place(2, chains[1]) + "direct group index 3 "
                               "differs from e = 2")

    def incomparable(base, group):
        raise ValueError("groups of different rank")

    monkeypatch.setattr(report, "group_index", incomparable)
    with pytest.raises(ReportError) as info:
        classify(chains[0], 5, 1)
    assert str(info.value) == (place(1, chains[0]) + "group index not "
                               "directly comparable: groups of different rank")


def test_unsettled_limit_block_is_refused():
    # closed by the target at a limit stage, the quartic's first block reads
    # its effective degree 4 at stage 1 and 2 at stage 2
    F, x, Q, P = quartic_setup()
    ch = replay(F, "x", P, [(IDX[1], x, V("3/2")), (IDX[2], Q, V("7/2")),
                            (OrdinalIndex(1, 0), P, INF)])
    assert classify(ch, 1, 4).d_blocks == [2, 1]
    with pytest.raises(ReportError) as info:
        classify(ch, 2, 4)
    assert str(info.value) == (place(4, ch) + "block 0 has not settled "
                               "against its closing key over the window")


def test_invariant_refusals_name_the_branch():
    # x - y read with v(x) = 3/2 has effective degree 0, so the only block
    # passes, and the step spacing 2 cannot divide the key degree 1
    F, x, Q, P = quartic_setup()
    lin = x - Poly.const(F, "x", F.canonical_element(V(1)))
    ch = Chain(F, "x", lin)
    ch.append(IDX[1], x, V("3/2"), "scripted")
    with pytest.raises(ReportError) as info:
        classify(ch, 4, 3)
    assert str(info.value) == (place(3, ch) + "last key degree 1 does not "
                               "factor as e*f*jumps = 2*1*1")
    # an empty chain has no entry to name, only its branch
    with pytest.raises(ReportError,
                       match="^branch 3: empty chain has no invariants$"):
        classify(Chain(F, "x", lin), 4, 3)


def _classified(ch, window, bid):
    """The branch report as plain data, or the refusal's text."""
    try:
        br = classify(ch, window, bid)
    except ReportError as exc:
        return str(exc)
    return ([(blk.kind, blk.d) for blk in br.blocks], br.e, br.f, br.status)


def test_window_governs_limit_blocks_only():
    # a branch without a limit entry is read at its last stage, whatever the
    # window, on the packaged scenarios and the pinned benchmark corpus
    checked = 0
    for _, bid, _, ch in grown_chains():
        if any(ent.index.is_limit for ent in ch.entries):
            continue
        first = _classified(ch, 1, bid)
        assert _classified(ch, 3, bid) == first
        assert _classified(ch, 8, bid) == first
        checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# step invariants


def test_trivial_chain_invariants():
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    ch.append(IDX[1], x, V(1), "scripted")
    assert invariants_ef(ch) == (1, 1)


def test_truncated_ramified_chain_fails_consistency():
    # beta = 3/2 enlarges the group at stage 1; the matching degree jump
    # only happens at stage 2, so the one-entry chain cannot balance
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    ch.append(IDX[1], x, V("3/2"), "derived")
    with pytest.raises(ReportError):
        invariants_ef(ch)


def test_empty_chain_has_no_invariants():
    F, x, Q, P = quartic_setup()
    with pytest.raises(ReportError):
        invariants_ef(Chain(F, "x", P))


# ---------------------------------------------------------------------------
# defect and the degree identity


def test_quartic_identity():
    P, chains, branches = quartic_branches()
    ident = degree_identity(P, branches)
    assert ident.line() == "4 = 2*1*1 + 2*1*1"
    assert ident.verdict and ident.total == 4


def test_cubic_identity():
    P, chains, branches = cubic_branches()
    ident = degree_identity(P, branches)
    assert ident.line() == "3 = 1*2*1 + 1*1*1"
    assert ident.verdict


def test_tower_identity_is_partial():
    F, P, qw, qw2, script, ch = tower_chain()
    ident = degree_identity(P, [classify(ch, 5)], complete=False)
    assert ident.line() == "5 > 1*1*4 (partial)"
    assert not ident.verdict
    assert (ident.lhs, ident.total) == (5, 4)


def test_degree_one_target_identity():
    F, x, Q, P = quartic_setup()
    lin = x - Poly.const(F, "x", F.canonical_element(V(1)))
    chains, skipped = explore(F, "x", lin, 4)
    branches = [classify(ch, 4, i + 1) for i, ch in enumerate(chains)]
    ident = degree_identity(lin, branches)
    assert ident.line() == "1 = 1*1*1"
    assert ident.verdict


def test_identity_line_shapes():
    assert DegreeIdentity(4, [(1, 1, 1)], True).line() == "4 != 1*1*1"
    assert DegreeIdentity(2, [(1, 1, 4)], False).line() == \
        "2 != 1*1*4 (partial)"
    assert not DegreeIdentity(4, [(1, 1, 1)], True).verdict


def test_char_zero_defect_is_refused():
    P, chains, branches = quartic_branches()
    fake = BranchReport(1, chains[0],
                        [BlockReport("stable", 2)],
                        1, 1, "stable delta 2")
    with pytest.raises(ReportError) as info:
        defect([fake])
    assert str(info.value) == (place(1, chains[0]) + "defect 2 over a base "
                               "of characteristic zero")
    with pytest.raises(ReportError):
        degree_identity(P, [fake])


def test_defect_must_be_a_power_of_the_characteristic():
    P, chains, branches = cubic_branches()
    fake = BranchReport(2, chains[0],
                        [BlockReport("stable", 2)],
                        1, 1, "stable delta 2")
    with pytest.raises(ReportError) as info:
        defect([fake])
    assert str(info.value) == (place(2, chains[0])
                               + "defect 2 is not a power of 3")


@pytest.mark.parametrize("blocks", [[0], [2, 0], [-1]])
def test_block_factor_below_one_is_refused(blocks):
    P, chains, branches = cubic_branches()
    fake = BranchReport(1, chains[1],
                        [BlockReport("stable", d) for d in blocks],
                        1, 1, "stable delta 0")
    with pytest.raises(ReportError) as info:
        defect([fake])
    assert str(info.value) == (place(1, chains[1]) + "a block factor is below "
                               "1: %s" % blocks)


# ---------------------------------------------------------------------------
# completeness samples


def test_completeness_attained_samples():
    P, chains, branches = quartic_branches()
    F = P.field
    x = Poly.variable(F, "x")
    Q = x * x - Poly.const(F, "x", F.canonical_element(V(3)))
    samples = [(x, V("3/2")), (Q, V("7/2")), (P, V(7))]
    assert completeness_sample(chains[0], samples)
    # a sample pinned at infinity sits in the support and is skipped, not failed
    assert completeness_sample(chains[0], samples + [(P, INF)])


def test_completeness_fails_on_truncated_chain():
    F, x, Q, P = quartic_setup()
    ch = Chain(F, "x", P)
    ch.append(IDX[1], x, V("3/2"), "derived")
    assert ch.cval(P, 1) == V(6)
    assert not completeness_sample(ch, [(P, V(7))])
    ch.append(IDX[2], Q, V("7/2"), "derived")
    assert ch.cval(P, 2) == V(7)
    assert completeness_sample(ch, [(P, V(7))])


def test_completeness_requires_values():
    P, chains, branches = quartic_branches()
    with pytest.raises(ReportError):
        completeness_sample(chains[0], [(P, None)])


# ---------------------------------------------------------------------------
# rendering


def test_render_defect_quartic():
    P, chains, branches = quartic_branches()
    ident = degree_identity(P, branches)
    text = render_defect(branches, ident)
    assert text == (
        "branch 1: e 2, f 1, d_blocks [1], d 1, stable delta 1\n"
        "branch 2: e 2, f 1, d_blocks [1], d 1, stable delta 1\n"
        "identity: 4 = 2*1*1 + 2*1*1\n")


def test_render_defect_tower():
    F, P, qw, qw2, script, ch = tower_chain()
    chains, skipped = explore(F, "y", P, 12,
                              scripted={script[0][2]: script},
                              scripted_only=True)
    assert len(chains) == 1 and [str(b) for b in skipped] == ["0", "5/16"]
    branches = [classify(chains[0], 5)]
    ident = degree_identity(P, branches, complete=False)
    text = render_defect(branches, ident, skipped)
    assert text == (
        "branch 1: e 1, f 1, d_blocks [2, 2, 1], d 4, stable delta 1\n"
        "skipped branch at first value 0\n"
        "skipped branch at first value 5/16\n"
        "d = 4\n"
        "identity: 5 > 1*1*4 (partial)\n")


def test_render_defect_tsv():
    P, chains, branches = quartic_branches()
    ident = degree_identity(P, branches)
    text = render_defect(branches, ident, fmt="tsv")
    rows = text.strip().split("\n")
    assert rows[0] == "1\t2\t1\t1\t1\tstable delta 1"
    assert rows[2] == "identity\t4 = 2*1*1 + 2*1*1"


def test_render_chain_quartic():
    F, x, Q, P = quartic_setup()
    chains, _ = explore(F, "x", P, 2)
    text = render_chain(list(enumerate(chains, 1)))
    assert text == (
        "branch 1: depth 2\n"
        "  1: Q = x, beta = 3/2, alpha 1, delta 4, derived\n"
        "  2: Q = x^2 - y^3, beta = 7/2, alpha 2, delta 2, derived\n"
        "branch 2: depth 2\n"
        "  1: Q = x, beta = 3/2, alpha 1, delta 4, derived\n"
        "  2: Q = x^2 - y^3, beta = 9/2, alpha 2, delta 1, derived\n")
    tsv = render_chain(list(enumerate(chains, 1)), fmt="tsv")
    assert tsv.splitlines()[0] == "1\t1\tx\t3/2\t1\t4\tderived"


def test_render_chain_marks_termination():
    P, chains, branches = cubic_branches()
    text = render_chain([(1, chains[0])])
    assert text.startswith("branch 1: depth 3, terminated\n")
    assert "beta = inf" in text and "delta -" in text


def test_render_newton_quartic_stage_two():
    F, x, Q, P = quartic_setup()
    chains, _ = explore(F, "x", P, 2)
    text = render_newton(chains[0], P, 2)
    assert text == (
        "stage 2 polygon of x^4 + y^2*x^3 + (y^5 - 2*y^3)*x^2 - y^5*x"
        " + y^6\n"
        "points: (0, 8)  (1, 7/2)  (2, 0)\n"
        "hull:   (0, 8)  (1, 7/2)  (2, 0)\n"
        "side 0..1: slope 9/2\n"
        "side 1..2: slope 7/2\n")
