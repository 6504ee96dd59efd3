"""The propagation bound: each rule holds on random subspaces, the bound
never passes the exhaustive oracle, and it settles the fixtures that the
pairwise bound leaves open, before the closure."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebadim import subspace_search
from amoebadim.bounds import _Family, propagation_bound
from amoebadim.families import tropical_hyperplane
from amoebadim.polyhedral import SpanComplex, product
from amoebadim.rational_linalg import Subspace, canonicalize
from amoebadim.subspace_search import _pairwise_lower_bound, amoeba_dim

from conftest import coordinate_fan, open_fan, plucker, random_pure_complex, \
    random_subspace, reference_meet, span


def counts(family, sub):
    """x_W = dim(S ∩ W) for every member W, through `reference_meet`."""
    return [reference_meet(sub, w).dim for w in family.members]


def pair_of(family, sub):
    """(t, m) = (dim S, the least dim(S ∩ C) over the cells)."""
    x = counts(family, sub)
    return sub.dim, min(x[:family.cell_count])


def random_case(seed):
    """A random complex with two to five cells, its family, and a
    subspace S: a random one, or the sum of one or two members and a
    random subspace, so that some members lie in S."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    sigma = random_pure_complex(rng, n, num_cells=rng.randint(2, 5),
                                d=rng.randint(1, n - 1))
    family = _Family(sigma)
    sub = random_subspace(rng, n, max_dim=rng.randint(0, n))
    if rng.random() < 0.5:
        for w in rng.sample(family.members, min(2, len(family.members))):
            sub = sub.sum(w)
    return sigma, family, sub


def holds(rule, x):
    plus, minus, r = rule
    return sum(x[p] for p in plus) - sum(x[q] for q in minus) >= r


class TestRules:
    """Each rule holds on the counts of random subspaces."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_range_rule(self, seed):
        _, family, sub = random_case(seed)
        lo, hi = family.start(*pair_of(family, sub))
        for a, x, b in zip(lo, counts(family, sub), hi):
            assert a <= x <= b

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_inclusion_rule(self, seed):
        _, family, sub = random_case(seed)
        x = counts(family, sub)
        assert all(holds(rule, x) for rule in family.inclusions)
        # one pair of rules for each strict inclusion, found independently
        listed = {(minus[0], plus[0]) for plus, minus, r in family.inclusions
                  if r == 0}
        assert listed == {
            (u, w) for u, small in enumerate(family.members)
            for w, big in enumerate(family.members)
            if small.dim < big.dim and reference_meet(small, big) == small}

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_modular_rule(self, seed):
        sigma, family, sub = random_case(seed)
        x = counts(family, sub)
        assert all(holds(rule, x) for rule in family.modular)
        # one rule for each cell pair, on its join and its meet
        cells, members = sigma.cells, family.members
        assert sorted(minus for _, minus, _ in family.modular) == \
            list(combinations(range(len(cells)), 2))
        for (join, meet), (i, j), _ in family.modular:
            assert members[join] == canonicalize(
                sigma.ambient_dim, cells[i].rows + cells[j].rows)
            assert members[meet] == reference_meet(cells[i], cells[j])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_forced_containment(self, seed):
        # after every rule, forced containment included, the true counts
        # still lie within the bounds: the pair of a real S survives
        _, family, sub = random_case(seed)
        x = counts(family, sub)
        inside = [w for w, k in zip(family.members, x) if k == w.dim]
        forced = canonicalize(sub.ambient_dim,
                              [r for w in inside for r in w.rows])
        assert sub.sum_dim(forced.rows) == sub.dim
        bounds = family.propagate(*pair_of(family, sub))
        assert bounds is not None
        lo, hi = bounds
        for a, k, b, w in zip(lo, x, hi, family.members):
            assert max(a, reference_meet(w, forced).dim) <= k <= b

    def test_modular_rule_refutes_a_hyperplane_pair(self):
        # t = m = 2 in R^3: two cells (planes, join R^3, meet a line) hold
        # S whole, so the modular rule needs x_join >= 2 + 2 - 1 = 3, above
        # the range bound hi = 2: refuted before any forced sum
        assert _Family(tropical_hyperplane(3)).propagate(2, 2) is None

    def test_forced_containment_crosses_the_bounds(self):
        # t = 3, m = 2 in R^5: the rules leave x <= 2 on the fourth cell
        # C but force into S its meets with the other three, three lines
        # whose sum is C itself; so C lies in S and x_C = 3 crosses that
        # bound, which only forced containment reveals
        sigma = SpanComplex(5, [
            span(5, (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)),
            span(5, (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)),
            span(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)),
            span(5, (1, 0, 0, 2, 0), (0, 1, 0, 2, 1), (0, 0, 1, -1, 0)),
        ])
        assert _Family(sigma).propagate(3, 2) is None
        res = amoeba_dim(sigma)
        assert (res.value, res.lower_bound, res.certified) == (5, 5, True)

    def test_forced_sum_refutes_a_plucker_pair(self):
        # S inside every cell (t = m = 1): only the forced sum of the six
        # axes, R^6, shows that no line does it
        assert _Family(plucker()).propagate(1, 1) is None


class TestOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_below_the_exhaustive_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        if seed % 2:
            subsets = ["".join(map(str, c)) for c in
                       combinations(range(n), rng.randint(1, n))]
            sigma = coordinate_fan(n, *rng.sample(
                subsets, rng.randint(1, min(5, len(subsets)))))
        else:
            sigma = random_pure_complex(rng, n, num_cells=rng.randint(2, 6))
        d = sigma.dim
        pairwise = _pairwise_lower_bound(sigma)
        bound = propagation_bound(sigma, pairwise, min(2 * d, n) + 1)
        exact = amoeba_dim(sigma, f"exhaustive(height={2 if n <= 3 else 1})")
        assert pairwise <= bound <= exact.value


def generalized_plucker(k):
    """R^(k choose 2) with axes indexed by the pairs of {0..k−1}; cell i
    spans the k − 1 axes whose pair contains i."""
    pairs = list(combinations(range(k), 2))
    n = len(pairs)
    axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return SpanComplex(n, [canonicalize(n, [axes[j] for j, p in
                                            enumerate(pairs) if i in p])
                           for i in range(k)])


LINE = SpanComplex(1, [Subspace.full(1)])


class TestFixtures:
    @pytest.mark.parametrize("sigma,pairwise,value", [
        (plucker(), 5, 6),
        (product(plucker(), LINE), 6, 7),
        (generalized_plucker(5), 7, 8),
        (coordinate_fan(6, "012", "024", "034", "123", "234", "245"), 5, 6),
    ], ids=("plucker", "plucker_x_R1", "plucker_R10", "six_cells_R6"))
    def test_certified_before_the_closure(self, monkeypatch, sigma,
                                          pairwise, value):
        def refuse(*args):
            raise AssertionError("the closure was built")

        monkeypatch.setattr(subspace_search, "candidate_lattice", refuse)
        assert _pairwise_lower_bound(sigma) == pairwise
        res = amoeba_dim(sigma)
        assert (res.value, res.lower_bound, res.candidates_evaluated) == \
            (value, value, 2)

    def test_open_fan_stays_at_the_pairwise_bound(self):
        sigma = open_fan()
        assert propagation_bound(sigma, 5, 6) == 5
