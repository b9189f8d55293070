import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from linkhom import closure
from linkhom.braids import BraidError, CertificationError
from linkhom.claspers import ClaspVector, enumerate_comb_claspers
from linkhom.closure import (
    DISTINCT,
    EQUIVALENT,
    UNKNOWN,
    Move,
    MoveRow,
    OrbitVerdict,
    PartialConjugation,
    apply_table_move,
    closure_equivalent,
    get_row,
    move_tables,
    partial_conjugate,
    replay_witness,
    _certify,
    _degree_seqs,
    _increment_vector,
    _validate_row,
)
from linkhom.intlattice import IntegerLattice
from conftest import PAST_CAP_PAIRS, past_cap_pair, random_clasp_vector
from word_oracle import milnor_triplet, word_partial_conjugate

TABLES = move_tables()


# ---------------------------------------------------------------------------
# Table data and moves


def test_tables_present():
    assert set(TABLES) == {
        "n3-partial-conjugations",
        "n4-closure-moves",
        "n4-partial-conjugations",
        "n4-generating",
        "n5-split-generating",
        "n5-split-closure-moves",
    }
    assert [len(TABLES[t]) for t in (
        "n3-partial-conjugations", "n4-closure-moves", "n4-partial-conjugations",
        "n4-generating", "n5-split-generating", "n5-split-closure-moves",
    )] == [6, 6, 12, 8, 15, 20]


def test_apply_move_examples():
    row = get_row("n4-closure-moves", 1)
    v = ClaspVector(4, {(1, 2): 3})
    assert apply_table_move(v, row, 1).get((1, 2, 3, 4)) == 3
    assert apply_table_move(v, row, 0) == v

    row = get_row("n5-split-generating", 1)
    v = ClaspVector(5, {(1, 3, 4): 1, (1, 3, 5): 2, (1, 4, 5): 3,
                        (1, 3, 4, 5): 4, (1, 4, 3, 5): 5})
    out = apply_table_move(v, row, 1)
    assert out.get((1, 2, 3, 4)) == 1
    assert out.get((1, 2, 3, 5)) == 2
    assert out.get((1, 2, 4, 5)) == 3
    assert out.get((1, 2, 3, 4, 5)) == 4
    assert out.get((1, 2, 4, 3, 5)) == 5


def test_apply_move_multiplier_is_iteration(rng):
    for table in ("n4-generating", "n5-split-generating"):
        for row in TABLES[table]:
            v = random_clasp_vector(rng, row.n)
            k = rng.randint(-4, 4)
            once = apply_table_move(v, row, k)
            repeated = v
            for _ in range(abs(k)):
                repeated = apply_table_move(repeated, row, 1 if k > 0 else -1)
            assert once == repeated


def test_apply_move_refuses_a_float_multiplier():
    # 1.5 * 2 would have stored 3.0 as a clasp number, and 0.5 * 1 a zero entry
    row = get_row("n4-closure-moves", 1)
    for v, multiplier in ((ClaspVector(4, {(1, 2): 2}), 1.5), (ClaspVector(4, {(1, 2): 1}), 0.5)):
        with pytest.raises(BraidError, match="expected an integer"):
            apply_table_move(v, row, multiplier)


def test_apply_move_wrong_n():
    with pytest.raises(BraidError):
        apply_table_move(ClaspVector(5, {}), get_row("n4-generating", 1), 1)


def test_get_row_errors():
    with pytest.raises(BraidError):
        get_row("no-such-table", 1)
    with pytest.raises(BraidError):
        get_row("n4-generating", 99)
    with pytest.raises(BraidError):
        get_row("n4-generating", 1, n=5)


# ---------------------------------------------------------------------------
# Partial conjugation, word level


def test_pc_validation():
    with pytest.raises(BraidError):
        PartialConjugation(1, 1)
    with pytest.raises(BraidError):
        PartialConjugation(1, 2, 0)


def test_pc_two_strands_fixed(rng):
    v = ClaspVector(2, {(1, 2): rng.randint(-5, 5)})
    for i, j in ((1, 2), (2, 1)):
        for sign in (1, -1):
            assert partial_conjugate(v, PartialConjugation(i, j, sign)) == v


def test_pc_three_strands_row():
    # conjugating the loop of strand 1 by strand 2 adds nu_13 to nu_123
    v = ClaspVector(3, {(1, 2): 2, (1, 3): 5, (2, 3): -1, (1, 2, 3): 4})
    out = partial_conjugate(v, PartialConjugation(1, 2, 1))
    assert out == v.updated({(1, 2, 3): 9})
    back = partial_conjugate(out, PartialConjugation(1, 2, -1))
    assert back == v


def test_pc_degree_one_invariant(rng):
    for n in (3, 4):
        for _ in range(6):
            v = random_clasp_vector(rng, n)
            i = rng.randint(1, n)
            j = rng.choice([k for k in range(1, n + 1) if k != i])
            out = partial_conjugate(v, PartialConjugation(i, j, rng.choice((1, -1))))
            assert out.degree_part(1) == v.degree_part(1)


def test_n3_stored_rows_are_the_derived_partial_conjugations():
    # each stored row is partial_conjugate on the unit vectors of degree 1:
    # degree 1 stays, and the triple number moves by a unit multiple
    deg1 = ((1, 2), (1, 3), (2, 3))
    for row in TABLES["n3-partial-conjugations"]:
        pc = PartialConjugation(*row.pc)
        pairs = []
        for source in deg1:
            probe = ClaspVector(3, {source: 1})
            out = partial_conjugate(probe, pc)
            assert out.degree_part(1) == probe.degree_part(1)
            assert out.get((1, 2, 3)) in (-1, 0, 1)
            if out.get((1, 2, 3)):
                pairs.append((source, out.get((1, 2, 3))))
        assert row.increments == (((1, 2, 3), tuple(pairs)),)
    assert [row.pc for row in TABLES["n3-partial-conjugations"]] == [
        (1, 2, 1), (1, 3, 1), (2, 1, 1), (2, 3, 1), (3, 1, 1), (3, 2, 1)]


def test_n3_derived_rows_match_known_signs():
    # signs pinned by the worked three-strand conjugation: row (1 by 2) adds
    # +nu_13, and the remaining five follow the four-strand table pattern
    expected = {
        (1, 2): ((1, 3), 1),
        (1, 3): ((1, 2), -1),
        (2, 1): ((2, 3), -1),
        (2, 3): ((1, 2), 1),
        (3, 1): ((2, 3), 1),
        (3, 2): ((1, 3), -1),
    }
    for number in range(1, 7):
        row = get_row("n3-partial-conjugations", number)
        i, j, sign = row.pc
        assert sign == 1
        pairs = dict(row.increments)[(1, 2, 3)]
        assert pairs == (expected[(i, j)],)


def test_word_level_matches_table_n4(rng):
    # the embedded rows record closure-level variation: degrees one and two
    # match the word-level conjugation exactly, the top degree matches up
    # to the closure-move lattice (exactly, when that lattice is trivial)
    top = _degree_seqs(4, 3)
    for row in TABLES["n4-partial-conjugations"]:
        i, j, sign = row.pc
        for _ in range(3):
            v = random_clasp_vector(rng, 4)
            word = partial_conjugate(v, PartialConjugation(i, j, sign))
            table = apply_table_move(v, row, 1)
            assert word.degree_part(1) == table.degree_part(1)
            assert word.degree_part(2) == table.degree_part(2)
            free = IntegerLattice(
                len(top),
                [_increment_vector(r, top, v.get) for r in TABLES["n4-closure-moves"]],
            )
            diff = tuple(word.get(s) - table.get(s) for s in top)
            assert diff in free


def test_word_level_matches_table_exactly_when_no_junk():
    # with every closure-move source zero the two computations must agree
    # on the nose
    v = ClaspVector(4, {(1, 2, 3): 2, (1, 3, 4): -1, (1, 2, 3, 4): 1})
    # the same vector scaled by 10^6: a braid word would have ~10^7 letters
    big = ClaspVector(4, {seq: 10**6 * value for seq, value in v.nu.items()})
    for row in TABLES["n4-partial-conjugations"]:
        i, j, sign = row.pc
        for w in (v, big):
            moved = partial_conjugate(w, PartialConjugation(i, j, sign))
            assert moved == apply_table_move(w, row, 1)


def test_split_n5_large_band_matches_table():
    # clasp numbers near 10^6, far beyond what a braid word can hold
    rng = random.Random(0x5A1)
    for _ in range(5):
        v = random_clasp_vector(rng, 5, bound=10**6, min_degree=2)
        for row in TABLES["n5-split-generating"]:
            moved = partial_conjugate(v, PartialConjugation(*row.pc))
            table = apply_table_move(v, row, 1)
            for degree in (1, 2, 3):
                assert moved.degree_part(degree) == table.degree_part(degree)


@st.composite
def conjugations(draw):
    n = draw(st.integers(3, 5))
    nu = {
        c.sequence: draw(st.integers(-3, 3))
        for c in enumerate_comb_claspers(n)
    }
    i, j = draw(st.permutations(range(1, n + 1)))[:2]
    return ClaspVector(n, nu), PartialConjugation(i, j, draw(st.sampled_from((1, -1))))


@settings(max_examples=40, deadline=None)
@given(conjugations())
def test_partial_conjugate_matches_word_oracle(case):
    v, pc = case
    assert partial_conjugate(v, pc) == word_partial_conjugate(v, pc)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_partial_conjugation_matches_word_oracle(n):
    v = random_clasp_vector(random.Random(n), n, bound=3)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for sign in (1, -1):
                if i != j:
                    pc = PartialConjugation(i, j, sign)
                    assert partial_conjugate(v, pc) == word_partial_conjugate(v, pc)


def test_generating_rows_are_signed_pc_rows():
    # each generating row is a row of the full table or its negation
    full = {row.pc[:2]: row for row in TABLES["n4-partial-conjugations"]}
    for row in TABLES["n4-generating"]:
        i, j, sign = row.pc
        reference = dict(full[(i, j)].increments)
        mine = dict(row.increments)
        assert set(mine) == set(reference)
        for target, pairs in mine.items():
            expected = tuple((s, sign * coeff) for s, coeff in reference[target])
            assert sorted(pairs) == sorted(expected)


def test_generation_check_n4():
    # all twelve increment tensors lie in the integer span of the eight
    # generating ones
    def tensor(row):
        return {
            (target, source): coeff
            for target, pairs in row.increments
            for source, coeff in pairs
        }

    keys = sorted(
        {k for row in TABLES["n4-partial-conjugations"] for k in tensor(row)}
        | {k for row in TABLES["n4-generating"] for k in tensor(row)}
    )

    def flatten(row):
        t = tensor(row)
        return tuple(t.get(k, 0) for k in keys)

    lattice = IntegerLattice(len(keys), [flatten(r) for r in TABLES["n4-generating"]])
    for row in TABLES["n4-partial-conjugations"]:
        assert lattice.solve(flatten(row)) is not None


# ---------------------------------------------------------------------------
# Complete invariants for three strands


def test_milnor_triplet():
    assert milnor_triplet(ClaspVector(3, {})) == ((0, 0, 0), 0)
    v = ClaspVector(3, {(1, 2): 2, (1, 3): 4, (2, 3): 6, (1, 2, 3): 7})
    assert milnor_triplet(v) == ((2, 4, 6), 1)
    v = ClaspVector(3, {(1, 2, 3): -5})
    assert milnor_triplet(v) == ((0, 0, 0), -5)
    with pytest.raises(BraidError):
        milnor_triplet(ClaspVector(4, {}))


# ---------------------------------------------------------------------------
# Closure equivalence


def certify(v1, v2, expected_status):
    verdict = closure_equivalent(v1, v2)
    assert verdict.status == expected_status, (verdict.status, verdict.invariant)
    if verdict.status == EQUIVALENT:
        assert replay_witness(v1, verdict.witness) == v2
    if verdict.status == DISTINCT:
        assert verdict.invariant
    return verdict


def n3_pairs():
    """Two n = 3 vectors; the second shares the first's degree-1 values
    unless it draws its own."""
    degree1 = st.one_of(st.just((0, 0, 0)), st.tuples(*[st.integers(-4, 4)] * 3))
    return st.tuples(degree1, st.one_of(st.none(), degree1),
                     st.integers(-30, 30), st.integers(-30, 30))


@settings(max_examples=150, deadline=None)
@given(n3_pairs())
def test_n3_decision_matches_milnor_triplet(pair):
    d1, other_d1, t1, t2 = pair

    def vector(d, t):
        return ClaspVector(3, {(1, 2): d[0], (1, 3): d[1], (2, 3): d[2], (1, 2, 3): t})

    v1, v2 = vector(d1, t1), vector(d1 if other_d1 is None else other_d1, t2)
    expected = EQUIVALENT if milnor_triplet(v1) == milnor_triplet(v2) else DISTINCT
    certify(v1, v2, expected)
    certify(v2, v1, expected)


def test_two_component_linking_number():
    certify(ClaspVector(2, {(1, 2): 3}), ClaspVector(2, {(1, 2): 3}), EQUIVALENT)
    certify(ClaspVector(2, {(1, 2): 3}), ClaspVector(2, {(1, 2): 2}), DISTINCT)


def test_three_component_cases():
    certify(ClaspVector(3, {(1, 2, 3): 1}), ClaspVector(3, {}), DISTINCT)
    v1 = ClaspVector(3, {(1, 3): 1, (1, 2, 3): 5})
    v2 = ClaspVector(3, {(1, 3): 1})
    verdict = certify(v1, v2, EQUIVALENT)
    assert verdict.witness  # a real move sequence, not the empty one
    v1 = ClaspVector(3, {(1, 2): 2, (1, 3): 4, (2, 3): 6, (1, 2, 3): 7})
    v2 = ClaspVector(3, {(1, 2): 2, (1, 3): 4, (2, 3): 6, (1, 2, 3): 1})
    certify(v1, v2, EQUIVALENT)
    v2 = ClaspVector(3, {(1, 2): 2, (1, 3): 4, (2, 3): 6, (1, 2, 3): 2})
    certify(v1, v2, DISTINCT)


def test_equivalence_by_construction_n4(rng):
    for _ in range(15):
        v = random_clasp_vector(rng, 4)
        w = v
        for _ in range(rng.randint(1, 3)):
            row = rng.choice(TABLES["n4-generating"] + TABLES["n4-closure-moves"])
            w = apply_table_move(w, row, rng.randint(-3, 3))
        certify(v, w, EQUIVALENT)


def test_equivalence_by_construction_n5(rng):
    for _ in range(10):
        v = random_clasp_vector(rng, 5, min_degree=2)
        w = v
        for _ in range(rng.randint(1, 3)):
            row = rng.choice(
                TABLES["n5-split-generating"] + TABLES["n5-split-closure-moves"]
            )
            w = apply_table_move(w, row, rng.randint(-2, 2))
        certify(v, w, EQUIVALENT)


def test_degree_one_separates():
    certify(ClaspVector(4, {(1, 2): 1}), ClaspVector(4, {(1, 2): 2}), DISTINCT)


def test_split_n4_degree_two_separates():
    # with all linking numbers zero the degree-2 values cannot move
    certify(ClaspVector(4, {(1, 2, 3): 1}), ClaspVector(4, {}), DISTINCT)


def test_split_n5_cases():
    certify(ClaspVector(5, {(1, 2, 3): 1}), ClaspVector(5, {}), DISTINCT)
    verdict = certify(ClaspVector(5, {(1, 2, 3, 4, 5): 1}), ClaspVector(5, {}), DISTINCT)
    assert "lattice" in verdict.invariant


def test_n5_nonsplit_is_unknown():
    v = ClaspVector(5, {(1, 2): 1})
    w = ClaspVector(5, {(1, 2): 1, (1, 2, 3, 4, 5): 1})
    verdict = closure_equivalent(v, w)
    assert verdict.status == UNKNOWN
    assert verdict.note


def test_partial_conjugates_have_equivalent_closures(rng):
    for _ in range(5):
        v = random_clasp_vector(rng, 4)
        i = rng.randint(1, 4)
        j = rng.choice([k for k in range(1, 5) if k != i])
        w = partial_conjugate(v, PartialConjugation(i, j, rng.choice((1, -1))))
        certify(v, w, EQUIVALENT)


def test_reachable_states_are_all_certified(rng):
    # independent completeness oracle: enumerate states reachable by short
    # move paths (these accumulate path-dependent top-degree contributions)
    # and insist the lattice layers certify every one of them
    for n, tables in ((4, ("n4-generating", "n4-closure-moves")),
                      (5, ("n5-split-generating", "n5-split-closure-moves"))):
        rows = [row for name in tables for row in TABLES[name]]
        v = random_clasp_vector(rng, n, bound=1, min_degree=1 if n == 4 else 2)
        frontier = [v]
        seen = {v}
        for _ in range(3):
            nxt = []
            for state in frontier:
                for _ in range(4):
                    row = rng.choice(rows)
                    moved = apply_table_move(state, row, rng.choice((-2, -1, 1, 2)))
                    if moved not in seen:
                        seen.add(moved)
                        nxt.append(moved)
            frontier = nxt
        assert len(seen) > 10
        for w in seen:
            verdict = closure_equivalent(v, w)
            assert verdict.status == EQUIVALENT
            assert replay_witness(v, verdict.witness) == w


@pytest.mark.parametrize("label", sorted(PAST_CAP_PAIRS))
def test_witnesses_past_the_unrolling_cap(label):
    # the loop counts here are thousands of bits long: the witness writes
    # each loop once, with scaled multipliers and commutator corrections
    v1, v2 = past_cap_pair(label)
    verdict = certify(v1, v2, EQUIVALENT)
    assert len(verdict.witness) < 2000


@st.composite
def move_pairs(draw):
    n = draw(st.sampled_from((4, 5)))
    band = draw(st.sampled_from((1, 10**3)))
    names = (("n4-generating", "n4-partial-conjugations", "n4-closure-moves") if n == 4
             else ("n5-split-generating", "n5-split-closure-moves"))
    v = ClaspVector(n, {
        c.sequence: draw(st.integers(-band, band))
        for c in enumerate_comb_claspers(n)
        if c.degree >= (1 if n == 4 else 2)
    })
    rows = [row for name in names for row in TABLES[name]]
    moves = draw(st.lists(st.tuples(st.sampled_from(rows), st.sampled_from((-1, 1))),
                          min_size=1, max_size=6))
    w = v
    for row, sign in moves:
        w = apply_table_move(w, row, sign)
    return v, w


@settings(max_examples=30, deadline=None)
@given(move_pairs())
def test_decision_is_total_and_symmetric(pair):
    v, w = pair
    certify(v, w, EQUIVALENT)
    certify(w, v, EQUIVALENT)


@st.composite
def closure_triples(draw):
    """(v, w, u) at n = 4 or 5-split: w is v moved by replayed table moves,
    u is w with one mid- or top-degree clasp number shifted, so u may or
    may not be equivalent to v."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.choice((4, 5))
    names = (("n4-generating", "n4-partial-conjugations", "n4-closure-moves") if n == 4
             else ("n5-split-generating", "n5-split-closure-moves"))
    v = random_clasp_vector(rng, n, bound=rng.choice((1, 5, 100)),
                            min_degree=1 if n == 4 else 2)
    rows = [(name, row.row) for name in names for row in TABLES[name]]
    moves = [Move(name, row, rng.choice((-2, -1, 1, 2)))
             for name, row in rng.choices(rows, k=rng.randint(1, 4))]
    w = replay_witness(v, moves)
    seq = rng.choice([c.sequence for c in enumerate_comb_claspers(n)
                      if c.degree >= n - 2])
    u = w.updated({seq: w.get(seq) + rng.choice((-1, 1))})
    return v, w, u


@settings(max_examples=60, deadline=None, derandomize=True)
@given(closure_triples())
def test_verdicts_are_symmetric_transitive_and_certified(triple):
    v, w, u = triple
    forward, backward = closure_equivalent(v, u), closure_equivalent(u, v)
    assert forward.status == backward.status != UNKNOWN
    for a, b, verdict in ((v, u, forward), (u, v, backward)):
        if verdict.status == EQUIVALENT:
            assert replay_witness(a, verdict.witness) == b
        else:
            assert verdict.invariant
    # v and w are equivalent, so u is equivalent to both or to neither
    assert closure_equivalent(w, u).status == forward.status


def test_verdict_symmetry(rng):
    for _ in range(15):
        v = random_clasp_vector(rng, 4, bound=1)
        w = random_clasp_vector(rng, 4, bound=1)
        s1 = closure_equivalent(v, w).status
        s2 = closure_equivalent(w, v).status
        assert s1 == s2


def test_certify_refuses_a_witness_that_does_not_replay():
    v = ClaspVector(4, {(1, 2): 1})
    with pytest.raises(CertificationError, match="failed to replay"):
        _certify(v, v, [Move("n4-closure-moves", 1, 1)])


@pytest.mark.parametrize("c", [5, -3, 10**30])
def test_commutator_loop_enters_the_witness_once(c):
    # on these degree-2 values the top residual of the commutator of rows 1
    # and 3 lies outside the free moves and the kernel loops, so the
    # commutator loop carries it, with count c, as the one commutator
    # (1, c)(3, 1)(1, -c)(3, -1): four moves whatever c
    v1 = ClaspVector(5, {(1, 2, 5): 1, (1, 3, 5): 1, (1, 4, 5): 1, (2, 3, 4): -2})
    moves = [Move("n5-split-generating", r, m) for r, m in ((1, c), (3, 1), (1, -c), (3, -1))]
    v2 = replay_witness(v1, moves)
    assert v2 != v1
    verdict = closure_equivalent(v1, v2)
    assert verdict.status == EQUIVALENT and verdict.witness == moves
    assert replay_witness(v1, verdict.witness) == v2


def test_validate_row_refusals():
    def row(*increments):
        return MoveRow("test", 4, 1, None, increments)

    with pytest.raises(BraidError, match="not of lower degree"):
        _validate_row(row(((1, 2, 3), (((1, 2, 4), 1),))))
    with pytest.raises(BraidError, match="bad sign"):
        _validate_row(row(((1, 2, 3), (((1, 2), 2),))))
    with pytest.raises(BraidError, match="both source and target"):
        _validate_row(row(((1, 2, 3), (((1, 2), 1),)), ((1, 2, 3, 4), (((1, 2, 3), 1),))))
    _validate_row(row(((1, 2, 3), (((1, 2), 1),)), ((1, 2, 3, 4), (((1, 2), -1),))))


def test_wrong_mid_increments_are_refused(monkeypatch):
    # with only (1, 2) nonzero, row 2 alone moves degree-2 value 1.2.3; read
    # doubled, it reaches the target of (row 2, 2) once, so the replayed
    # path falls short and the mid certificate raises instead of a verdict
    v1 = ClaspVector(4, {(1, 2): 1})
    corrupted = get_row("n4-generating", 2)
    v2 = apply_table_move(v1, corrupted, 2)
    assert closure_equivalent(v1, v2).status == EQUIVALENT
    real = closure._increment_vector

    def doubled(row, seqs, lookup):
        out = real(row, seqs, lookup)
        return tuple(2 * x for x in out) if row is corrupted and seqs == _degree_seqs(4, 2) else out

    monkeypatch.setattr(closure, "_increment_vector", doubled)
    with pytest.raises(CertificationError, match="does not reach the target"):
        closure_equivalent(v1, v2)


def test_certificates_survive_optimized_mode():
    # python -O strips assert statements; the certificate must still raise
    code = (
        "from linkhom.closure import Move, _certify\n"
        "from linkhom.claspers import ClaspVector\n"
        "from linkhom.braids import CertificationError\n"
        "assert False, 'assert statements run'\n"
        "v = ClaspVector(4, {(1, 2): 1})\n"
        "try:\n"
        "    _certify(v, v, [Move('n4-closure-moves', 1, 1)])\n"
        "except CertificationError:\n"
        "    print('refused')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"


def test_errors():
    with pytest.raises(BraidError):
        closure_equivalent(ClaspVector(3, {}), ClaspVector(4, {}))
    with pytest.raises(BraidError):
        closure_equivalent(ClaspVector(6, {}), ClaspVector(6, {}))


@pytest.mark.parametrize("data", [
    {"table": "n4-generating", "row": 1, "multiplier": 1.5},
    {"table": "n4-generating", "row": True, "multiplier": 2},
    {"table": "n4-generating", "row": 1, "multiplier": True},
    {"table": "n4-generating", "row": 1},
])
def test_move_from_json_rejects_non_integers(data):
    with pytest.raises(BraidError, match="invalid move object"):
        Move.from_json(data)


def test_verdict_json_round_trip():
    verdict = OrbitVerdict(EQUIVALENT, [Move("n4-generating", 1, 2)], None)
    data = verdict.to_json()
    assert data == {
        "status": "equivalent",
        "witness": [{"table": "n4-generating", "row": 1, "multiplier": 2}],
        "invariant": None,
    }
    assert Move.from_json(data["witness"][0]) == Move("n4-generating", 1, 2)
    unknown = OrbitVerdict(UNKNOWN, note="budget spent")
    assert unknown.to_json()["note"] == "budget spent"
    assert json.dumps(unknown.to_json())
