"""Positive braid words, Garside normal form, isotopy searches."""

import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsify.braid import (
    Budget,
    DistinctByInvariant,
    Equivalent,
    NormalForm,
    Unknown,
    PositiveBraidWord,
    apply_conjugation,
    beta_of_fence_word,
    beta_of_scannable,
    canonical_word,
    compose,
    conjugation_neighbors,
    cycle_count,
    delta,
    delta_divisibility,
    finishing_set,
    format_braid_word,
    generator_perm,
    half_twist_perm,
    identity_perm,
    left_normal_form,
    markov_invariant,
    parse_braid_word,
    positive_equal,
    positive_isotopic,
    solid_torus_isotopic,
    starting_set,
    underlying_permutation,
    word,
    word_of_perm,
)
from morsify.braid import _rank


def artin_class(w: PositiveBraidWord, cap: int = 200000) -> set[tuple[int, ...]]:
    """Brute-force closure of a word under single Artin rewrites (oracle)."""
    seen = {w.letters}
    queue = [w.letters]
    while queue:
        cur = queue.pop()
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            if abs(a - b) >= 2:
                nxt = cur[:i] + (b, a) + cur[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        for i in range(len(cur) - 2):
            a, b, c = cur[i], cur[i + 1], cur[i + 2]
            if a == c and abs(a - b) == 1:
                nxt = cur[:i] + (b, a, b) + cur[i + 3 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if len(seen) > cap:
            raise RuntimeError("oracle blew up")
    return seen


# ---------------------------------------------------------------------------
# Reference: the normal form as a fixpoint of pair left-weighting, and the
# cyclic moves as quotient words of the canonical word (an oracle for the
# incremental normal form and the moves on factors)


def ref_left_weight_pair(a, b, k):
    changed = False
    while True:
        movable = starting_set(b) - finishing_set(a)
        if not movable:
            return a, b, changed
        j = min(movable)
        s = generator_perm(k, j)
        a, b, changed = compose(a, s), compose(s, b), True


def ref_left_normal_form(w):
    k = w.k
    factors = [generator_perm(k, a) for a in w.letters]
    stable = False
    while not stable:
        stable = True
        for i in range(len(factors) - 1):
            a, b, changed = ref_left_weight_pair(factors[i], factors[i + 1], k)
            if changed:
                factors[i], factors[i + 1] = a, b
                stable = False
        factors = [f for f in factors if f != identity_perm(k)]
    power = 0
    while factors and factors[0] == half_twist_perm(k):
        power += 1
        factors.pop(0)
    return NormalForm(k, power, tuple(factors))


def ref_word(nf, factors=None, power=None):
    power = nf.delta_power if power is None else power
    factors = nf.factors if factors is None else factors
    letters = delta(nf.k).letters * power
    return letters + tuple(a for f in factors for a in word_of_perm(f))


def ref_conjugation_neighbors(w):
    nf = ref_left_normal_form(w)
    k, p, fs = nf.k, nf.delta_power, nf.factors
    everything = set(range(1, k))
    left = everything if p else starting_set(fs[0]) if fs else set()
    for j in sorted(left):
        s = generator_perm(k, j)
        if p:
            q = compose(s, half_twist_perm(k))
            rest = word_of_perm(q) + ref_word(nf, power=p - 1)
        else:
            rest = word_of_perm(compose(s, fs[0])) + ref_word(nf, fs[1:], 0)
        yield ("L", j), word(k, rest + (j,))
    right = finishing_set(fs[-1]) if fs else everything if p else set()
    for j in sorted(right):
        s = generator_perm(k, j)
        if fs:
            rest = ref_word(nf, fs[:-1]) + word_of_perm(compose(fs[-1], s))
        else:
            rest = ref_word(nf, power=p - 1) + word_of_perm(compose(half_twist_perm(k), s))
        yield ("R", j), word(k, (j,) + rest)


def random_word(rng, k_max=4, n_max=7) -> PositiveBraidWord:
    k = rng.randint(2, k_max)
    n = rng.randint(0, n_max)
    return word(k, [rng.randint(1, k - 1) for _ in range(n)])


class TestNormalForm:
    def test_empty_word(self):
        nf = left_normal_form(word(3, []))
        assert nf.delta_power == 0
        assert nf.factors == ()

    def test_single_delta_absorbed(self):
        nf = left_normal_form(word(3, [1, 1, 2, 1]))
        assert nf.delta_power == 1
        assert nf.factors == (generator_perm(3, 2),)

    def test_three_delta_expressions_agree(self):
        d = delta(4)
        assert positive_equal(d, word(4, [1, 3, 2, 1, 3, 2]))
        assert positive_equal(d, word(4, [3, 2, 3, 1, 2, 3]))

    def test_delta_small(self):
        assert delta(2).letters == (1,)
        assert delta(3).letters == (1, 2, 1)
        assert positive_equal(delta(3), word(3, [2, 1, 2]))

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            u = random_word(rng)
            v = random_word(rng)
            if u.k != v.k:
                continue
            expected = v.letters in artin_class(u)
            assert positive_equal(u, v) == expected

    def test_canonical_word_is_in_artin_class(self):
        rng = random.Random(11)
        for _ in range(40):
            u = random_word(rng)
            cw = canonical_word(u)
            assert cw.letters in artin_class(u)
            assert canonical_word(cw) == cw

    @given(st.integers(2, 5), st.lists(st.integers(1, 4), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_nf_preserves_length_and_perm(self, k, raw):
        letters = [1 + (a % (k - 1)) for a in raw]
        u = word(k, letters)
        cw = canonical_word(u)
        assert len(cw) == len(u)
        assert underlying_permutation(cw) == underlying_permutation(u)

    def test_left_weightedness_of_output(self):
        rng = random.Random(3)
        for _ in range(50):
            u = random_word(rng, k_max=5, n_max=12)
            nf = left_normal_form(u)
            for a, b in zip(nf.factors, nf.factors[1:]):
                assert starting_set(b) <= finishing_set(a)

    @given(st.integers(1, 6), st.lists(st.integers(0, 4), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_fixpoint_reference(self, k, raw):
        u = word(k, [1 + a % (k - 1) for a in raw] if k > 1 else [])
        nf = left_normal_form(u)
        assert nf == ref_left_normal_form(u)
        assert list(conjugation_neighbors(u)) == list(ref_conjugation_neighbors(u))
        assert _rank(nf) == (k, len(ref_word(nf)))


class TestDeltaDivisibility:
    def test_delta_squared_times_s1s3(self):
        w = delta(4) * delta(4) * word(4, [1, 3])
        assert delta_divisibility(w) == 2

    def test_single_letter(self):
        assert delta_divisibility(word(3, [1])) == 0

    def test_delta_cubed(self):
        assert delta_divisibility(delta(3) ** 3) == 3

    def test_left_multiplication_monotone(self):
        rng = random.Random(5)
        for _ in range(30):
            u = random_word(rng, k_max=4, n_max=5)
            p = rng.randint(0, 2)
            w = (delta(u.k) ** p) * u
            assert delta_divisibility(w) >= p


class TestPermutation:
    def test_torus_braid_is_single_cycle(self):
        w = word(3, [2, 1] * 4)
        p = underlying_permutation(w)
        assert cycle_count(p) == 1

    def test_delta4_fourth_power_is_identity(self):
        w = delta(4) ** 4
        assert underlying_permutation(w) == (0, 1, 2, 3)
        assert cycle_count(underlying_permutation(w)) == 4

    def test_empty_word(self):
        assert underlying_permutation(word(5, [])) == (0, 1, 2, 3, 4)


class TestSolidTorus:
    def test_cyclic_shift_equivalent(self):
        u = word(3, [1, 2, 2, 1])
        v = word(3, [2, 2, 1, 1])
        res = solid_torus_isotopic(u, v)
        assert isinstance(res, Equivalent)

    def test_witness_replays(self):
        u = word(3, [1, 1, 2])
        v = word(3, [1, 2, 2])
        res = solid_torus_isotopic(u, v)
        assert isinstance(res, Equivalent)
        cur = canonical_word(u)
        for move in res.witness:
            cur = apply_conjugation(cur, move)
        assert positive_equal(cur, v)

    def test_length_mismatch(self):
        res = solid_torus_isotopic(word(3, [1]), word(3, [1, 1]))
        assert isinstance(res, DistinctByInvariant)

    def test_distinct_same_length(self):
        # sigma_1 sigma_1 vs sigma_1 sigma_2: different cycle types
        res = solid_torus_isotopic(word(3, [1, 1]), word(3, [1, 2]))
        assert isinstance(res, DistinctByInvariant)

    def test_strand_count_mismatch(self):
        # the strand count is the winding number about the solid torus core
        res = solid_torus_isotopic(word(3, [1, 2]), word(2, [1]))
        assert res == DistinctByInvariant("strand counts differ")

    def test_orbit_exhaustion_proof(self):
        # same length, same cycle type, but different closed braids
        u = word(3, [1, 1, 1, 2, 2])
        v = word(3, [1, 1, 2, 2, 2])
        res = solid_torus_isotopic(u, v)
        assert isinstance(res, (Equivalent, DistinctByInvariant))


class TestPositiveIsotopy:
    def test_one_destabilization(self):
        res = positive_isotopic(word(3, [1, 2]), word(2, [1]))
        assert isinstance(res, Equivalent)

    def test_markov_invariant_blocks(self):
        res = positive_isotopic(word(2, [1]), word(2, [1, 1, 1]))
        assert isinstance(res, DistinctByInvariant)

    def test_stabilized_word_equivalent(self):
        u = word(2, [1, 1, 1])
        v = word(3, [1, 1, 1, 2])
        res = positive_isotopic(u, v, Budget(max_states=200000, max_seconds=60))
        assert isinstance(res, Equivalent)

    def test_exhaustion_under_strand_cap_is_unknown(self):
        # T(3,4) and T(2,7) share the Markov invariant (5, 1); the search only
        # stabilizes up to 4 strands, so running out of states proves nothing
        res = positive_isotopic(word(3, [1, 2] * 4), word(2, [1] * 7))
        assert isinstance(res, Unknown)
        assert "strand cap 4" in res.reason

    @pytest.mark.parametrize(
        "u, v, budget",
        [
            (word(3, [1, 2]), word(2, [1]), Budget()),
            (word(2, [1, 1, 1]), word(3, [1, 1, 1, 2]), Budget(200000, 60)),
        ],
    )
    def test_witnesses_replay(self, u, v, budget):
        res = positive_isotopic(u, v, budget)
        assert isinstance(res, Equivalent)
        cur = u
        for move in res.witness:
            cur = apply_conjugation(cur, move)
        assert positive_equal(cur, v)

    def test_markov_moves_replay(self):
        assert apply_conjugation(word(3, [1, 2]), ("destab", 1)) == word(2, [1])
        assert apply_conjugation(word(2, [1, 1]), ("stab",)) == word(3, [1, 1, 2])
        with pytest.raises(ValueError):
            apply_conjugation(word(3, [2, 2]), ("destab", 0))

    def test_markov_invariant_values(self):
        assert markov_invariant(word(2, [1])) == (-1, 1)
        assert markov_invariant(word(2, [1, 1, 1])) == (1, 1)


class TestCompilers:
    def test_beta_of_scannable_reference_divide(self):
        s = types.SimpleNamespace(k=3, left_turns={2}, events=(1, 1, 2, 1), right_turns={1})
        assert beta_of_scannable(s).letters == (2, 1, 1, 2, 1, 1, 1, 2, 1, 1)

    def test_beta_length_law(self):
        rng = random.Random(2)
        for _ in range(20):
            k = rng.randint(2, 5)
            events = tuple(rng.randint(1, k - 1) for _ in range(rng.randint(0, 6)))
            lt = {1} if k >= 2 and rng.random() < 0.5 else set()
            rt = {1} if k >= 2 and rng.random() < 0.5 else set()
            s = types.SimpleNamespace(k=k, left_turns=lt, events=events, right_turns=rt)
            assert len(beta_of_scannable(s)) == 2 * len(events) + len(lt) + len(rt)

    def test_beta_of_fence_word_example(self):
        w = types.SimpleNamespace(k=5, letters=(("s", 1), ("t", 2), ("s", 3), ("t", 4)))
        assert beta_of_fence_word(w).letters == (1, 3, 4, 2)

    def test_beta_of_fence_word_all_sigma(self):
        w = types.SimpleNamespace(k=3, letters=(("s", 2), ("s", 1)))
        assert beta_of_fence_word(w).letters == (2, 1)


class TestTextFormat:
    def test_round_trip(self):
        w = word(4, [1, 3, 2])
        assert parse_braid_word(format_braid_word(w)) == w

    def test_parse(self):
        assert parse_braid_word("3 : 2 1 1") == word(3, [2, 1, 1])
        assert parse_braid_word("2 :") == word(2, [])

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_braid_word("x : 1")
