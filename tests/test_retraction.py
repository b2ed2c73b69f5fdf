"""Deformation retraction of strict chains inside pseudofunctor chains:
exhaustive verification on small crossed modules, structural bookkeeping of
the report, resource guards, and fault-injection checks that corrupted
connector and filler data, and a corrupted later chain slot, are located and
that restoring them cleans the verdict.  The batched verifier is checked
against the verifier that replayed one chain at a time over interned slots,
kept in ``oracles``, with and without the same faults."""

import json
import time
from itertools import combinations, product
from math import comb

import numpy as np
import oracles
import pytest

import xmodcoh.retraction as rt
from xmodcoh import cli, nerves
from oracles import xmod_abelian, xmod_identity
from xmodcoh.crossed import CrossedModule, validate_xmod
from xmodcoh.errors import ResourceLimit
from xmodcoh.groups import make_cyclic, make_symmetric

MODULES = [("(C2->1)", lambda: xmod_abelian(make_cyclic(2))),
           ("(C2->id)", lambda: xmod_identity(make_cyclic(2)))]


# ---------------------------------------------------------------------------
# the section/retraction pair on its own
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,make", MODULES, ids=[m[0] for m in MODULES])
def test_projection_retracts_the_inclusion_on_objects(label, make):
    x = make()
    t = rt._Tables(x)
    chains = np.array(list(product(x.ggroup.elements(), repeat=3)))
    s = rt.strict_include(t, chains)
    bad, names = rt.pseudofunctor_checks(t, s)
    assert len(names) == 4 + 1 and not bad.any()
    assert (rt.strict_project(s) == chains).all()
    # the rows are the simplex objects the per-simplex oracle builds
    for chain, row in zip(chains.tolist(), s.tolist()):
        want = oracles.strict_include(x, tuple(chain))
        assert tuple(row) == want.alpha + want.u


def test_strict_simplices_have_identity_retraction_components():
    # with all triangle labels trivial, the inductive eta never leaves e
    x = xmod_identity(make_cyclic(2))
    t = rt._Tables(x)
    chains = np.array(list(product(x.ggroup.elements(), repeat=3)))
    eta = rt.eta_table(t, rt.strict_include(t, chains))
    assert eta.shape == (8, 6) and (eta == x.hgroup.identity).all()


# ---------------------------------------------------------------------------
# exhaustive verification on small chain spaces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("label,make", MODULES, ids=[m[0] for m in MODULES])
def test_small_chain_spaces_verify_cleanly(label, make, n, m):
    x = make()
    rep = rt.verify_appendix_retraction(x, n, m)
    assert rep.passed and rep.failures == []
    assert (rep.label, rep.n, rep.m) == (x.label, n, m)

    g, h = x.ggroup, x.hgroup
    pairs = n * (n + 1) // 2
    assert rep.morphisms_per_object == h.order ** pairs
    assert rep.objects == g.order ** n * h.order ** comb(n + 1, 3)
    assert rep.heads_checked == rep.objects * rep.morphisms_per_object
    assert rep.chains_total == rep.objects * rep.morphisms_per_object ** m
    # replay is exhaustive whenever the chain space fits in the sample
    want = rep.chains_total if rep.chains_total <= 200 else 200
    assert rep.sampled_chains == want


def test_sampled_replay_is_seeded_and_deterministic():
    x = xmod_identity(make_cyclic(2))
    a = rt.verify_appendix_retraction(x, 2, 2, sample=50, seed=7)
    b = rt.verify_appendix_retraction(x, 2, 2, sample=50, seed=7)
    assert a == b
    assert a.sampled_chains == 50 < a.chains_total
    other = rt.verify_appendix_retraction(x, 2, 2, sample=50, seed=8)
    assert other.passed


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_degenerate_dimensions_are_rejected():
    x = xmod_abelian(make_cyclic(2))
    with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
        rt.verify_appendix_retraction(x, 0, 1)
    with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
        rt.verify_appendix_retraction(x, 1, 0)


def test_head_enumeration_budget_guard():
    x = xmod_identity(make_cyclic(2))
    with pytest.raises(ResourceLimit, match="retraction head enumeration"):
        rt.verify_appendix_retraction(x, 2, 1, budget=10)


def test_chain_replay_is_bounded_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the replay guard")

    monkeypatch.setattr(rt, "_head_suite", no_work)
    monkeypatch.setattr(rt, "_duskin_level_rows", no_work)
    x = xmod_identity(make_cyclic(2))
    # 22 identities per chain at n = 2, each over m + 1 = 3 objects
    with pytest.raises(ResourceLimit, match="retraction chain replay") as exc:
        rt.verify_appendix_retraction(x, 2, 2, sample=200, budget=13199)
    assert exc.value.needed == 200 * 3 * 22
    # a chain space smaller than the sample is replayed whole
    with pytest.raises(ResourceLimit, match="retraction chain replay") as exc:
        rt.verify_appendix_retraction(x, 1, 1, sample=10 ** 6, budget=32)
    assert exc.value.needed == 4 * 2 * 11
    # m alone can exceed the budget; the chain space is then never counted
    with pytest.raises(ResourceLimit, match="retraction chain replay") as exc:
        rt.verify_appendix_retraction(x, 2, 10 ** 12, sample=1)
    assert exc.value.needed == (10 ** 12 + 1) * 22

    bundles = [{"xmod": "C3->id", "n": 2, "m": 3, "sample": 10 ** 8},
               {"xmod": "C2->id", "n": 2, "m": 10 ** 9, "sample": 1},
               {"xmod": "C2->id", "n": 2, "m": 3000, "sample": 10 ** 5}]
    for extra in bundles:
        start = time.perf_counter()
        report = cli.run({"schema": 1, "task": "appendix-check", **extra})
        assert time.perf_counter() - start < 0.1
        assert report["status"] == "resource-error"
        assert report["result"]["bound"] == "retraction chain replay"


def test_counts_past_the_printable_digits_end_in_a_typed_status(
        monkeypatch):
    # a chain count of 2 * 2^15000 has 4,516 digits, and a count of
    # 10^4299 makes every guard estimate formed from it longer than the
    # 4,300 digits a report can print
    def no_work(*args):
        raise AssertionError("work started before the guards")

    monkeypatch.setattr(rt, "_head_suite", no_work)
    monkeypatch.setattr(rt, "_duskin_level_rows", no_work)
    big = 10 ** 4299
    cases = [({"n": 1, "m": 15000, "sample": 1}, "resource-error", None),
             ({"n": 2, "m": 5000, "sample": 1}, "resource-error", None),
             ({"n": 2, "m": big, "sample": 1}, "input-error", "/m"),
             ({"n": 2, "m": 5000, "sample": big}, "input-error", "/sample"),
             ({"n": 2, "m": 3, "sample": big}, "input-error", "/sample")]
    for extra, status, pointer in cases:
        report = cli.run({"schema": 1, "task": "appendix-check",
                          "xmod": "C2->id", **extra})
        assert report["status"] == status, extra
        if pointer is None:
            assert report["result"]["bound"] == \
                "retraction chain count digits"
            assert report["result"]["needed"] > report["result"]["allowed"]
        else:
            assert report["result"]["pointer"] == pointer
        assert json.loads(cli.serialize_report(report)) == report


def test_large_levels_are_refused_before_any_work(monkeypatch):
    # n = 10^6 once ran out of memory forming 2^comb(n+1, 3); over the
    # trivial crossed module every count is 1, and only the size of one
    # head bounds n
    def no_work(*args):
        raise AssertionError("work started before the guards")

    monkeypatch.setattr(rt, "_head_suite", no_work)
    monkeypatch.setattr(rt, "_duskin_level_rows", no_work)
    monkeypatch.setattr(rt, "_identity_pairs", no_work)
    cases = [("C2->id", 10 ** 6, "resource-error",
              "retraction head count digits"),
             ("1->1", 10 ** 6, "resource-error", "retraction head size"),
             ("1->1", 31, "resource-error", "retraction head size"),
             ("C2->id", 2 ** 63 - 1, "resource-error",
              "retraction head count digits"),
             ("C2->id", 2 ** 63, "input-error", None)]
    for xmod, n, status, bound in cases:
        start = time.perf_counter()
        report = cli.run({"schema": 1, "task": "appendix-check",
                          "xmod": xmod, "n": n, "m": 1})
        assert time.perf_counter() - start < 1
        assert report["status"] == status, (xmod, n)
        if bound is None:
            assert report["result"]["pointer"] == "/n"
        else:
            assert report["result"]["bound"] == bound
            assert report["result"]["needed"] > report["result"]["allowed"]
        assert json.loads(cli.serialize_report(report)) == report


def test_identity_count_is_the_number_of_identity_pairs():
    for n in range(1, 8):
        assert rt._identity_count(n) == len(rt._identity_pairs(n))


# ---------------------------------------------------------------------------
# one batch per verification
# ---------------------------------------------------------------------------

def test_filler_calls_do_not_grow_with_the_sample(monkeypatch):
    # the heads and the sampled chains are each checked as one batch, so
    # replaying nine chains builds no more filler batches than one chain
    x = xmod_abelian(make_cyclic(3))
    true_filler = rt.filler
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return true_filler(*args)

    monkeypatch.setattr(rt, "filler", counted)
    counts = []
    for sample in (1, 9):
        calls.clear()
        rep = rt.verify_appendix_retraction(x, 1, 2, sample=sample)
        assert rep.passed and rep.chains_total == 9
        assert rep.sampled_chains == sample
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# ---------------------------------------------------------------------------
# fault injection: a corrupted connector must be caught, and only it
# ---------------------------------------------------------------------------

def crooked_connector(true_connector):
    """The batched connector with its last entry moved by one."""
    def crooked(t, w0, k):
        out = true_connector(t, w0, k).copy()
        out[:, -1] = (out[:, -1] + 1) % len(t.hmul)
        return out
    return crooked


def crooked_filler(true_filler):
    """The batched filler with the first triangle label that straddles the
    prism's degree k (one that picks up a component of the first
    transformation) moved by one."""
    def crooked(t, x0, w0, x1, k):
        out = true_filler(t, x0, w0, x1, k).copy()
        n = rt._dim(x0.shape[1])
        triples = combinations(range(n + 2), 3)
        hit = next((i for i, (_, j, l) in enumerate(triples) if j <= k < l),
                   None)
        if hit is not None:
            col = comb(n + 2, 2) + hit
            out[:, col] = (out[:, col] + 1) % len(t.hmul)
        return out
    return crooked


def test_corrupted_connector_tables_are_located(monkeypatch):
    x = xmod_identity(make_cyclic(2))
    try:
        monkeypatch.setattr(rt, "connector", crooked_connector(rt.connector))
        rep = rt.verify_appendix_retraction(x, 1, 1)
        assert not rep.passed
        assert any("connector" in f for f in rep.failures)
    finally:
        monkeypatch.undo()

    clean = rt.verify_appendix_retraction(x, 1, 1)
    assert clean.passed


def test_corrupted_filler_labels_are_located(monkeypatch):
    # corrupt one triangle label that straddles the prism's degree k, i.e.
    # one that picks up a component of the first transformation
    x = xmod_identity(make_cyclic(2))
    try:
        monkeypatch.setattr(rt, "filler", crooked_filler(rt.filler))
        rep = rt.verify_appendix_retraction(x, 1, 1)
        assert not rep.passed
        assert any("filler" in f for f in rep.failures)
    finally:
        monkeypatch.undo()

    clean = rt.verify_appendix_retraction(x, 1, 1)
    assert clean.passed


# ---------------------------------------------------------------------------
# fault injection past the head: only the replay of long chains can see it
# ---------------------------------------------------------------------------

def test_corrupted_later_slots_are_located_by_the_replay(monkeypatch):
    # A chain is the id tuple (x0, w0, x1, w1, x2, ...); the crooked
    # pullback hands object 2 the pulled-back object 1.  One-step chains
    # (x0, w0, x1) have no object 2, so the head suite stays clean.
    x = xmod_identity(make_cyclic(2))
    true_chain_reindex = rt.chain_reindex
    true_head_suite = rt._head_suite
    heads = []

    def crooked(slots, c, theta):
        out = true_chain_reindex(slots, c, theta)
        return out[:4] + out[2:3] + out[5:] if len(out) > 4 else out

    def head_suite(*args):
        out = true_head_suite(*args)
        heads.append(list(out))
        return out

    try:
        monkeypatch.setattr(rt, "chain_reindex", crooked)
        monkeypatch.setattr(rt, "_head_suite", head_suite)
        rep = rt.verify_appendix_retraction(x, 2, 2)
        assert heads == [[]]
        assert not rep.passed
        assert all(": object 2 differs (" in f for f in rep.failures)
        assert any(f.startswith("d_0 H_0 is not the identity side")
                   for f in rep.failures)
    finally:
        monkeypatch.undo()

    clean = rt.verify_appendix_retraction(x, 2, 2)
    assert clean.passed


# ---------------------------------------------------------------------------
# the batched verifier against the one-chain-at-a-time oracle
# ---------------------------------------------------------------------------

def crooked_oracle_filler(true_mu_simplex):
    def crooked(xm, x0, w0, x1, k):
        s = true_mu_simplex(xm, x0, w0, x1, k)
        triples = combinations(range(s.n + 1), 3)
        hit = next((t for t, (_, j, l) in enumerate(triples) if j <= k < l),
                   None)
        if hit is None:
            return s
        u = list(s.u)
        u[hit] = (u[hit] + 1) % xm.hgroup.order
        return oracles.PseudofunctorSimplex(s.n, s.alpha, tuple(u))
    return crooked


def crooked_oracle_connector(true_h_table):
    def crooked(xm, w0, n, k):
        out = true_h_table(xm, w0, n, k)
        return out[:-1] + ((out[-1] + 1) % xm.hgroup.order,)
    return crooked


def crooked_reindex(true_chain_reindex):
    """Object 2 of every chain of three or more objects replaced by the
    pulled-back object 1."""
    def crooked(ctx, c, theta):
        out = true_chain_reindex(ctx, c, theta)
        return out[:4] + out[2:3] + out[5:] if len(out) > 4 else out
    return crooked


FAULTS = {
    None: [],
    "filler": [(rt, "filler", crooked_filler),
               (oracles, "mu_simplex", crooked_oracle_filler)],
    "connector": [(rt, "connector", crooked_connector),
                  (oracles, "h_table", crooked_oracle_connector)],
    "object 2": [(rt, "chain_reindex", crooked_reindex),
                 (oracles, "chain_reindex", crooked_reindex)],
}


def both_reports(monkeypatch, fault, x, n, m, heads, **kw):
    """The batched and the oracle report, with ``fault`` in both.

    The oracle's head suite depends on the module, n and the fault alone,
    so ``heads`` keeps its failures by (n, fault) across m and seeds.  Its
    slots are compared within one run only, so a replay that interns them
    afresh reports the same failures."""
    true_head_suite = oracles._head_suite

    def head_suite(slots, n, obj_ids, w_ids):
        if (n, fault) not in heads:
            heads[(n, fault)] = true_head_suite(slots, n, obj_ids, w_ids)
        return list(heads[(n, fault)])

    try:
        for module, name, wrap in FAULTS[fault]:
            monkeypatch.setattr(module, name, wrap(getattr(module, name)))
        monkeypatch.setattr(oracles, "_head_suite", head_suite)
        return (rt.verify_appendix_retraction(x, n, m, **kw),
                oracles.slot_verify_appendix_retraction(x, n, m, **kw))
    finally:
        monkeypatch.undo()


ORACLE_MODULES = [("(C2->1)", lambda: xmod_abelian(make_cyclic(2)), None),
                  ("(C2->id)", lambda: xmod_identity(make_cyclic(2)), None),
                  ("(C3->1)", lambda: xmod_abelian(make_cyclic(3)), None),
                  ("(C3->id)", lambda: xmod_identity(make_cyclic(3)), None),
                  ("(S3->id)", lambda: xmod_identity(make_symmetric(3)),
                   [(1, 2)])]


@pytest.mark.parametrize("label,make,sizes", ORACLE_MODULES,
                         ids=[m[0] for m in ORACLE_MODULES])
def test_batched_verification_matches_the_slot_oracle(monkeypatch, label,
                                                      make, sizes):
    # S3->id is the one non-abelian action: its naturality squares over
    # [n+1] see the action term
    x = make()
    heads = {}
    for n, m in sizes or [(1, 1), (1, 2), (2, 1), (2, 2)]:
        total = rt.verify_appendix_retraction(x, n, m, sample=1).chains_total
        runs = [dict(sample=max(1, min(25, total // 2)), seed=seed)
                for seed in (3, 11)]
        if total <= 200:
            runs.append(dict(sample=200, seed=0))
        for fault in FAULTS:
            for kw in runs:
                batched, oracle = both_reports(monkeypatch, fault, x, n, m,
                                               heads, **kw)
                assert batched == oracle, (fault, n, m, kw)
                if fault in (None, "filler", "connector"):
                    assert batched.passed == (fault is None)


# ---------------------------------------------------------------------------
# blocks of heads and chains
# ---------------------------------------------------------------------------

def test_blocks_that_split_an_object_report_the_same(monkeypatch):
    # every preset has fewer heads than one block; at 7 rows a block ends
    # inside an object's morphisms, and each chain is a block of its own
    def report(x, fault, block):
        try:
            if block is not None:
                monkeypatch.setattr(nerves, "_BLOCK", block)
            if fault:
                monkeypatch.setattr(rt, "filler", crooked_filler(rt.filler))
            return rt.verify_appendix_retraction(x, 2, 2, sample=20, seed=5)
        finally:
            monkeypatch.undo()

    for x in (xmod_identity(make_cyclic(2)), xmod_abelian(make_cyclic(3))):
        for fault in (False, True):
            want = report(x, fault, None)
            assert want.morphisms_per_object % 7 and want.heads_checked > 7
            assert want.passed != fault
            assert report(x, fault, 7) == want


# ---------------------------------------------------------------------------
# a non-abelian action on triangle labels
# ---------------------------------------------------------------------------

def a3_in_s3():
    """(C3 -> S3): the alternating group included in S3, acted on by
    conjugation, whose action on H is not trivial."""
    s3 = make_symmetric(3)
    r = next(g for g in s3.elements() if g != s3.identity
             and s3.prod([g, g, g]) == s3.identity)
    powers = [s3.identity, r, s3.op(r, r)]
    action = tuple(tuple(powers.index(s3.conj(g, p)) for p in powers)
                   for g in s3.elements())
    return CrossedModule(make_cyclic(3), s3, tuple(powers), action,
                         "(C3->S3)")


def test_a_non_abelian_action_on_triangle_labels_verifies():
    # over [2] the transport conjugates the triangle label through the
    # action, which the abelian presets never exercise
    x = a3_in_s3()
    assert validate_xmod(x) == []
    assert any(x.act(g, a) != a for g in x.ggroup.elements()
               for a in x.hgroup.elements())
    rep = rt.verify_appendix_retraction(x, 2, 2, sample=100, seed=1)
    assert rep.passed
    assert (rep.objects, rep.morphisms_per_object) == (6 * 6 * 3, 27)
