import inspect
import json
import random
from functools import reduce
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amoebadim
from amoebadim import subspace_search
from amoebadim.bounds import propagation_bound
from amoebadim.families import torus_invariant, tropical_hyperplane
from amoebadim.polyhedral import SpanComplex, parse_complex, product
from amoebadim.rational_linalg import Subspace, canonicalize, direct_sum
from amoebadim.subspace_search import (
    DEFAULT_CAP,
    DEFAULT_STRATEGY,
    CandidateSet,
    ResourceLimitError,
    SearchResult,
    amoeba_dim,
    candidate_lattice,
    detect_near_action,
    exhaustive_candidates,
    objective,
    reduce_torus,
)

from conftest import DATA, curve_fan3, hyperplane, open_fan, plucker, \
    random_pure_complex, random_unimodular, reference_canonical, \
    reference_meet, seeded_case, seeded_complex, span, transform_complex, \
    transform_subspace


GOLDEN_FANS = sorted(p.name[:-len(".fan.json")]
                     for p in DATA.glob("*.fan.json"))


def two_planes_on_a_line():
    """Two planes in R^3 through the height-1 line (1, 0, 0): the line and
    R^3 both score 3, the bound."""
    return SpanComplex(
        3, [span(3, (1, 0, 0), (0, 1, 0)), span(3, (1, 0, 0), (0, 0, 1))]
    )


def two_planes_on_a_height_two_line():
    """Two planes in R^3 through the line (1, 2, 0), which no height-1
    vector spans: the line and R^3 both score 3, the bound."""
    return SpanComplex(
        3, [span(3, (1, 0, 0), (0, 1, 0)), span(3, (1, 2, 0), (0, 0, 1))]
    )


def three_coordinate_planes():
    """The planes e1e2, e2e3 and e1e3 in R^4.  {0} and R^4 score 4 and the
    meet is {0}; the join, the hyperplane x4 = 0, scores 3, the bound."""
    e1, e2, e3 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)
    return SpanComplex(4, [span(4, e1, e2), span(4, e2, e3), span(4, e1, e3)])


def single_cell(n, *gens):
    return SpanComplex(n, [span(n, *gens)])


def reference_pair(a, b):
    """Join and meet of two subspaces by their definitions, not through
    `Subspace.sum_intersect`: the join is the span of both bases, the meet
    is (a⊥ + b⊥)⊥."""
    n = a.ambient_dim
    return canonicalize(n, list(a.rows + b.rows)), reference_meet(a, b)


def reference_lattice(sigma, cap):
    """The closure by its definition: seeded with the cells, pairs in
    generation order, the join then the meet of each, stopping at the
    cap."""
    found = list(sigma.cells)
    seen = set(found)
    complete = True
    i = 1
    while complete and i < len(found):
        for j in range(i):
            for c in reference_pair(found[i], found[j]):
                if c in seen:
                    continue
                if len(found) >= cap:
                    complete = False
                    break
                seen.add(c)
                found.append(c)
            if not complete:
                break
        i += 1
    return tuple(sorted(found, key=Subspace.sort_key)), complete


def reference_lower_bound(sigma):
    """max(dim Σ, max over cell pairs of dim(C_i + C_j)), by its
    definition."""
    return max([sigma.dim] + [a.sum(b).dim
                              for a, b in combinations(sigma.cells, 2)])


def reference_best(sigma, family):
    """The least (objective, dim S, rows of S) over a family, each member
    scored with `objective`: the witness rule without `_score`'s
    pruning."""
    return min((objective(sigma, sub), sub.dim, sub.rows) for sub in family)


def reference_bound(sigma, value):
    """The search's lower bound: the propagation bound above the pairwise
    one, for a complex whose least value found is `value`."""
    return propagation_bound(sigma, reference_lower_bound(sigma), value)


def reference_search(sigma, cheap, cap):
    """The lattice search by its definition: the least triple over the
    cheap family, joined by the closure when that stays above the lower
    bound; also the size of the family scored, and the bound."""
    family = set(cheap)
    best = reference_best(sigma, family)
    lower = reference_bound(sigma, best[0])
    if best[0] > lower:
        family.update(candidate_lattice(sigma, cap))
    return reference_best(sigma, family), len(family), lower


def outcome(res):
    """A result's value and witness as the triple `reference_best` gives."""
    return res.value, res.witness_S.dim, res.witness_S.rows


class TestObjective:
    def test_zero_gives_twice_dim(self):
        assert objective(hyperplane(3), Subspace.zero(3)) == 4
        assert objective(curve_fan3(), Subspace.zero(3)) == 2

    def test_full_gives_ambient(self):
        assert objective(hyperplane(3), Subspace.full(3)) == 3
        assert objective(curve_fan3(), Subspace.full(3)) == 3

    def test_hyperplane_with_plane(self):
        assert objective(hyperplane(3), span(3, (1, 0, 0), (0, 1, 0))) == 4

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            objective(hyperplane(3), Subspace.zero(2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_lower_bound_and_intersection_identity(self, seed):
        # objective = dim S + 2d - 2m with m = min over cells of
        # dim(<C> ∩ S); m ≤ min(d, dim S) forces objective ≥ d either way.
        _, n, sigma, sub = seeded_case(seed, 5, cells=(1, 4))
        val = objective(sigma, sub)
        d = sigma.dim
        m = min(cell.intersect(sub).dim for cell in sigma.cells)
        assert val == sub.dim + 2 * d - 2 * m
        assert val >= d

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_every_cell_pair_bounds_the_objective(self, seed):
        # (S+C_i) + (S+C_j) holds C_i + C_j and (S+C_i) ∩ (S+C_j) holds S,
        # so dim(C_i + C_j) ≤ 2·dim(S+Σ) − dim S
        _, n, sigma, sub = seeded_case(seed, 5, cells=(2, 4))
        val = objective(sigma, sub)
        for a, b in combinations(sigma.cells, 2):
            assert val >= a.sum(b).dim


class TestCandidateLattice:
    def test_single_cell(self):
        # one cell has no pairs, so it is its own closure
        cs = candidate_lattice(single_cell(2, (1, 0)), cap=1)
        assert cs.complete
        assert cs.subspaces == (span(2, (1, 0)),)

    def test_cap_below_minimum(self):
        # six cells
        with pytest.raises(ValueError):
            candidate_lattice(hyperplane(3), cap=5)

    def test_hyperplane_contains_intersection_line(self):
        cs = candidate_lattice(hyperplane(3), cap=100)
        assert span(3, (1, 0, 0)) in set(cs.subspaces)

    def test_tropical_line_closure_complete(self):
        sigma = SpanComplex(
            2, [span(2, v) for v in [(1, 0), (0, 1), (-1, -1)]]
        )
        cs = candidate_lattice(sigma, cap=10)
        assert cs.complete
        assert [s.rows for s in cs.subspaces] == [
            (), ((0, 1),), ((1, 0),), ((1, 1),), ((1, 0), (0, 1)),
        ]

    def test_curve_fan_closure_has_no_fixpoint(self):
        # Four generic rays already generate an infinite lattice: pairwise
        # sums are six distinct planes, planes intersect in lines the fan
        # never had, and the process keeps feeding itself.  The cap is what
        # makes the search terminate, and the flag must say so.
        curve = curve_fan3()
        cs = candidate_lattice(curve, cap=200)
        assert not cs.complete
        assert len(cs) == 200
        subs = set(cs.subspaces)
        assert Subspace.zero(3) in subs
        assert Subspace.full(3) in subs
        for ray in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]:
            assert span(3, ray) in subs
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        for a, b in combinations(rays, 2):
            assert span(3, a, b) in subs
        # a line born from intersecting two summed planes
        assert span(3, (1, 1, 0)) in subs

    def test_deterministic(self):
        a = candidate_lattice(curve_fan3(), cap=150)
        b = candidate_lattice(curve_fan3(), cap=150)
        assert a.subspaces == b.subspaces
        assert a.complete is b.complete

    def test_candidates_are_canonical_and_sorted(self):
        cs = candidate_lattice(hyperplane(3), cap=60)
        keys = [s.sort_key() for s in cs.subspaces]
        assert keys == sorted(keys)
        for sub in cs.subspaces:
            assert canonicalize(3, list(sub.rows)) == sub

    @pytest.mark.parametrize("cap", [50, 500, 2000])
    @pytest.mark.parametrize("name", GOLDEN_FANS)
    def test_matches_reference_on_golden_fans(self, name, cap):
        sigma = parse_complex((DATA / f"{name}.fan.json").read_text())
        cs = candidate_lattice(sigma, cap=cap)
        assert (cs.subspaces, cs.complete) == reference_lattice(sigma, cap)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_random_complexes(self, seed):
        rng, _, sigma = seeded_complex(seed, 4, cells=(1, 5))
        cap = rng.randint(len(sigma.cells), 300)
        cs = candidate_lattice(sigma, cap=cap)
        assert (cs.subspaces, cs.complete) == reference_lattice(sigma, cap)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_three_generators_always_reach_fixpoint(self, seed):
        # The sum/intersection lattice generated by three subspaces is
        # finite (modularity), so with at most three cells the closure
        # must report completeness long before a generous cap.
        _, n, sigma = seeded_complex(seed, 4, cells=(1, 3))
        cs = candidate_lattice(sigma, cap=10000)
        assert cs.complete
        assert len(cs) <= 40

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_closed_under_pair_ops_when_complete(self, seed):
        rng = random.Random(seed)
        sigma = random_pure_complex(rng, rng.randint(1, 3), num_cells=2)
        cs = candidate_lattice(sigma, cap=10000)
        assert cs.complete
        subs = set(cs.subspaces)
        for a in subs:
            for b in subs:
                assert a.sum(b) in subs
                assert a.intersect(b) in subs


class TestExhaustiveCandidates:
    def test_degenerate_height_zero(self):
        assert set(exhaustive_candidates(2, 0)) == {Subspace.zero(2)}

    def test_height_zero_admitted_in_any_dimension(self):
        # the family is {0} whatever n is, so no size refusal applies
        assert exhaustive_candidates(7, 0) == (Subspace.zero(7),)

    def test_line_n1(self):
        assert set(exhaustive_candidates(1, 1)) == {
            Subspace.zero(1), Subspace.full(1)
        }

    def test_n2_height1_exact_set(self):
        got = {s.rows for s in exhaustive_candidates(2, 1)}
        assert got == {
            (),
            ((0, 1),),
            ((1, -1),),
            ((1, 0),),
            ((1, 1),),
            ((1, 0), (0, 1)),
        }

    @pytest.mark.parametrize("height", [1, 2])
    def test_n3_members_are_spans_of_at_most_two_vectors(self, height):
        # in R^3 a member is {0}, R^3, or the span of one or two vectors;
        # the reference elimination gives each span's canonical rows
        r = range(-height, height + 1)
        vectors = [(a, b, c) for a in r for b in r for c in r
                   if gcd(a, b, c) == 1]
        family = {(), Subspace.full(3).rows}
        family.update(reference_canonical([v], 3) for v in vectors)
        family.update(reference_canonical([v, w], 3)
                      for v, w in combinations(vectors, 2))
        want = sorted(family, key=lambda rows: (len(rows), rows))
        assert [s.rows for s in exhaustive_candidates(3, height)] == want

    # the sizes the `exhaustive_candidates` docstring records; (5, 1),
    # 190,264 members, takes minutes and is left out
    @pytest.mark.parametrize("n,height,count", [
        (1, 3, 2), (2, 1, 6), (2, 2, 10), (2, 3, 18), (3, 1, 40),
        (3, 2, 400), (3, 3, 3364), (4, 1, 1084),
    ])
    def test_counts(self, n, height, count):
        assert len(exhaustive_candidates(n, height)) == count

    def test_refuses_large_requests(self, monkeypatch):
        # every refused pair with n ≤ 7 and height ≤ 3, and one height
        # above 3; a refusal builds nothing
        forbid(monkeypatch, "sum_rows", "_primitive_vectors")
        refused = [(4, 2), (4, 3), (5, 2), (5, 3),
                   *((n, h) for n in (6, 7) for h in (1, 2, 3)), (3, 4)]
        for n, height in refused:
            with pytest.raises(ResourceLimitError,
                               match=f"refused for n={n}, height={height} "):
                exhaustive_candidates(n, height)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ends_are_the_shared_instances(self, n):
        family = exhaustive_candidates(n, 1)
        assert family[0] is Subspace.zero(n)
        assert family[-1] is Subspace.full(n)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            exhaustive_candidates(-1, 1)
        with pytest.raises(ValueError):
            exhaustive_candidates(2, -1)

    def test_closed_under_subsets_of_generators(self):
        # every member is spanned by primitive height-1 vectors, and adding
        # any further height-1 vector lands back in the family
        family = set(exhaustive_candidates(2, 1))
        vectors = [(0, 1), (1, -1), (1, 0), (1, 1)]
        for sub in family:
            for v in vectors:
                assert sub.sum(canonicalize(2, [v])) in family


class TestAmoebaDim:
    def test_hyperplane3(self):
        res = amoeba_dim(hyperplane(3))
        assert res.value == 3
        assert res.witness_S == Subspace.full(3)
        assert res.witness_T == span(3, (1, 0, 0))
        # two of the six coordinate planes already sum to R^3
        assert res.lower_bound == 3
        assert res.upper_bound == 3
        assert res.certified

    def test_hyperplane2(self):
        res = amoeba_dim(hyperplane(2))
        assert res.value == 2
        assert res.witness_S.dim == 0

    @pytest.mark.parametrize("n,gens", [
        (2, [(1, 2)]),
        (3, [(1, 0, 1), (0, 1, 1)]),
        (4, [(1, 0, 1, 0), (0, 1, 1, 1)]),
    ])
    def test_single_subspace_certified(self, n, gens):
        cell = span(n, *gens)
        res = amoeba_dim(single_cell(n, *gens))
        assert res.value == cell.dim
        assert res.certified
        assert res.witness_S == cell
        assert res.witness_T.dim == 0

    def test_curve_fan(self):
        res = amoeba_dim(curve_fan3())
        assert res.value == 2
        assert res.witness_S.dim == 0
        # two rays span a plane
        assert res.lower_bound == 2
        assert res.certified

    def test_tie_break_prefers_small_dimension(self):
        # two planes through a common line: the line and the full space
        # both score 3; the line has smaller dimension and must win
        sigma = two_planes_on_a_line()
        res = amoeba_dim(sigma)
        assert res.value == 3
        assert res.witness_S == span(3, (1, 0, 0))
        assert objective(sigma, Subspace.full(3)) == 3

    def test_tie_break_finds_a_line_of_height_two(self):
        # the meet of the cells is scored first, so the line wins even
        # though no height-1 vector spans it
        res = amoeba_dim(two_planes_on_a_height_two_line())
        assert (res.value, res.lower_bound, res.certified) == (3, 3, True)
        assert res.witness_S == span(3, (1, 2, 0))

    def test_strategy_descriptor_normalized(self):
        res = amoeba_dim(curve_fan3(), strategy="lattice( cap = 500 )")
        assert res.strategy == "lattice(cap=500)"
        res = amoeba_dim(curve_fan3(), strategy="exhaustive")
        assert res.strategy == "exhaustive(height=1)"

    @pytest.mark.parametrize("bad", [
        "annealing", "lattice(cap=0)", "lattice(height=2)", "combined(",
        "exhaustive(height=-1)", "lattice(cap=ten)", "lattice()extra",
        "lattice(cap=5,cap=7)", "exhaustive(cap=5)", "lattice(height=500)",
        "lattice(cap=5,)", "lattice(,cap=5)", "lattice(cap=+5)",
        "lattice(cap=1_000)", "exhaustive(height=\u0663)", "lattice()",
        5, b"lattice", ["lattice"],
    ])
    def test_invalid_strategy(self, bad):
        with pytest.raises(ValueError):
            subspace_search._parse_strategy(bad)
        with pytest.raises(ValueError):
            amoeba_dim(curve_fan3(), strategy=bad)

    @pytest.mark.parametrize("gone", ["combined",
                                      "combined(cap=2000,height=1)"])
    def test_combined_is_not_a_strategy(self, gone):
        with pytest.raises(ValueError, match="invalid strategy"):
            amoeba_dim(curve_fan3(), strategy=gone)

    def test_zero_and_full_witnesses_are_shared(self):
        # results kept in bulk do not each hold their own {0} or R^n
        zero = amoeba_dim(curve_fan3())
        full = amoeba_dim(hyperplane(3), strategy="exhaustive(height=1)")
        assert zero.witness_S is zero.witness_T is Subspace.zero(3)
        assert full.witness_S is Subspace.full(3)
        assert zero.strategy is amoeba_dim(curve_fan3()).strategy

    @pytest.mark.parametrize("strategy", [None, "exhaustive(height=2)"])
    def test_cell_witness_is_the_cell_itself(self, strategy):
        sigma = single_cell(2, (1, 2))
        res = amoeba_dim(sigma, strategy)
        assert res.witness_S is sigma.cells[0]

    def test_candidates_evaluated_counts_merged_set(self):
        res = amoeba_dim(hyperplane(2), strategy="exhaustive(height=1)")
        # six exhaustive subspaces already include {0} and R^2
        assert res.candidates_evaluated == 6

    def test_json_fields_and_order(self):
        res = amoeba_dim(single_cell(2, (1, 2)))
        doc = res.to_json_dict()
        assert list(doc) == [
            "value", "lower_bound", "upper_bound", "certified",
            "witness_S", "witness_T", "strategy", "candidates_evaluated",
        ]
        assert doc["witness_S"] == [[1, 2]]
        assert doc["witness_T"] == []
        assert json.loads(json.dumps(doc)) == doc

    def test_upper_bound_and_certified_are_derived(self):
        # only the value and the lower bound are stored, so no result can
        # claim `certified` while the two differ
        stored = list(inspect.signature(SearchResult).parameters)
        assert stored == [
            "value", "lower_bound", "witness_S", "witness_T", "strategy",
            "candidates_evaluated",
        ]
        res = amoeba_dim(plucker())
        fields = {name: getattr(res, name) for name in stored}
        keys = list(res.to_json_dict())
        for value in range(res.lower_bound - 1, res.lower_bound + 2):
            moved = SearchResult(**{**fields, "value": value})
            assert moved.upper_bound == value
            assert moved.certified == (value == res.lower_bound)
            assert list(moved.to_json_dict()) == keys

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_result_invariants(self, seed):
        _, n, sigma = seeded_complex(seed, 4, cells=(1, 4))
        res = amoeba_dim(sigma, strategy="lattice(cap=300)")
        d = sigma.dim
        assert d <= res.lower_bound <= res.value == res.upper_bound
        assert res.lower_bound == reference_bound(sigma, res.value)
        assert res.value <= min(2 * d, n)
        assert objective(sigma, res.witness_S) == res.value
        assert res.witness_S.sum_dim(res.witness_T.rows) \
            == res.witness_S.dim
        assert 2 * d + 2 * res.witness_T.dim - res.witness_S.dim == res.value
        assert res.certified == (res.value == res.lower_bound)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_value_is_true_minimum_over_candidates(self, seed):
        _, n, sigma = seeded_complex(seed, 3, cells=(1, 3))
        res = amoeba_dim(sigma, strategy="exhaustive(height=1)")
        family = list(exhaustive_candidates(n, 1))
        best = min(objective(sigma, s) for s in family)
        assert res.value == best
        achievers = [s for s in family if objective(sigma, s) == res.value]
        achievers.sort(key=Subspace.sort_key)
        assert res.witness_S == achievers[0]


def forbid(monkeypatch, *names):
    def refuse(*args, **kwargs):
        raise AssertionError("this search must not build its candidates")

    for name in names:
        monkeypatch.setattr(subspace_search, name, refuse)


def count_calls(monkeypatch, name):
    """The argument tuples of every call to `subspace_search.<name>`."""
    calls = []
    real = getattr(subspace_search, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(subspace_search, name, counted)
    return calls


class TestPairwiseLowerBound:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_below_the_exhaustive_oracle(self, seed):
        _, n, sigma = seeded_complex(seed, 3, cells=(1, 4))
        res = amoeba_dim(sigma, strategy="lattice(cap=300)")
        oracle = amoeba_dim(sigma, strategy="exhaustive(height=2)")
        assert res.lower_bound == oracle.lower_bound <= oracle.value

    def test_open_fan_stays_uncertified(self):
        res = amoeba_dim(open_fan())
        assert (res.value, res.lower_bound, res.certified) == (6, 5, False)

    @pytest.mark.parametrize("sigma,value", [
        (tropical_hyperplane(5), 5), (curve_fan3(), 2),
    ])
    def test_closure_skipped_when_cheap_candidates_reach_it(
            self, monkeypatch, sigma, value):
        forbid(monkeypatch, "candidate_lattice")
        res = amoeba_dim(sigma)
        assert (res.value, res.lower_bound, res.certified) == \
            (value, value, True)

    def test_closure_built_when_cheap_candidates_miss_it(self, monkeypatch):
        calls = count_calls(monkeypatch, "candidate_lattice")
        res = amoeba_dim(open_fan())
        assert len(calls) == 1
        assert res.candidates_evaluated == len(candidate_lattice(open_fan()))

    @pytest.mark.parametrize("strategy,n,cells", [
        ("lattice(cap=3)", 5, 15), ("lattice(cap=5)", 3, 6),
    ])
    def test_cap_below_cells_refused_without_closure(self, monkeypatch,
                                                     strategy, n, cells):
        forbid(monkeypatch, "candidate_lattice")
        with pytest.raises(ValueError,
                           match=f"below number of cells = {cells}"):
            amoeba_dim(tropical_hyperplane(n), strategy=strategy)


def reference_cell_meet(sigma):
    """The intersection of all cells, through `reference_pair`."""
    return reduce(lambda a, b: reference_pair(a, b)[1], sigma.cells)


def reference_cell_join(sigma):
    """The sum of all cells: the span of all their rows."""
    return canonicalize(sigma.ambient_dim,
                        [r for cell in sigma.cells for r in cell.rows])


def coordinate_complex(rng):
    """3 to 6 coordinate 3-spaces of R^6 as cells.  About a quarter of
    these need the closure, which stays finite: every sum and meet of
    coordinate subspaces is one."""
    axes = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    picked = rng.sample(list(combinations(axes, 3)), rng.randint(3, 6))
    return SpanComplex(6, [span(6, *gens) for gens in picked])


class TestIncrementalMerge:
    """Scoring the closure after the cheap candidates picks the same value
    and witness as one scan over their union."""

    @staticmethod
    def check_one_scan(sigma):
        res = amoeba_dim(sigma, strategy="lattice(cap=300)")
        # `lattice` scores the meet and join of the cells first
        best, scored, lower = reference_search(
            sigma, [reference_cell_meet(sigma), reference_cell_join(sigma)],
            300)
        assert outcome(res) == best
        assert res.lower_bound == lower
        assert res.witness_T == reduce_torus(
            sigma, Subspace(sigma.ambient_dim, best[2]))
        assert res.candidates_evaluated == scored

    @given(seed=st.integers(0, 2**32 - 1), coordinate=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_one_scan_over_the_union(self, seed, coordinate):
        sigma = coordinate_complex(random.Random(seed)) if coordinate else \
            seeded_complex(seed, 4, cells=(1, 4))[2]
        self.check_one_scan(sigma)

    def test_closure_runs_match_one_scan_over_the_union(self, monkeypatch):
        # the random complexes above almost never need the closure; a
        # fixed batch of coordinate ones does, often enough to count
        calls = count_calls(monkeypatch, "candidate_lattice")
        for seed in range(240):
            self.check_one_scan(coordinate_complex(random.Random(seed)))
        assert len(calls) >= 30

    @pytest.mark.parametrize("left", [True, False])
    def test_closure_tie_beats_the_full_space(self, left):
        # the open fan times R^1 scores 7 on R^7 and on the extra axis,
        # above its bound 6: the axis must beat R^7, and the closure
        # scored after them must keep it
        line = SpanComplex(1, [Subspace.full(1)])
        sigma = product(line, open_fan()) if left else \
            product(open_fan(), line)
        res = amoeba_dim(sigma, strategy="lattice(cap=300)")
        axis = [0] * 7
        axis[0 if left else 6] = 1
        assert (res.value, res.lower_bound) == (7, 6)
        assert res.witness_S == span(7, axis)
        union = {reference_cell_meet(sigma), reference_cell_join(sigma),
                 *candidate_lattice(sigma, 300)}
        assert res.candidates_evaluated == len(union)
        assert min(union, key=lambda sub: (objective(sigma, sub),
                                           sub.sort_key())) == res.witness_S

    def test_height_zero_runs_above_the_enumeration_limit(self):
        # the propagation bound certifies the Plücker fan times R^1 under
        # `exhaustive` too
        line = SpanComplex(1, [Subspace.full(1)])
        res = amoeba_dim(product(plucker(), line), "exhaustive(height=0)")
        assert (res.value, res.lower_bound) == (7, 7)
        assert res.witness_S == Subspace.full(7)


class TestMeetAndJoin:
    """The lemma of the module docstring: S + L and S ∩ J never score more
    than S, so every minimizer lies between the meet L and the join J of
    the cells."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_moving_into_the_interval_lowers_the_objective(self, seed):
        _, n, sigma, sub = seeded_case(seed, 5, cells=(1, 4))
        val = objective(sigma, sub)
        up = sub.sum(reference_cell_meet(sigma))
        down = sub.intersect(reference_cell_join(sigma))
        assert objective(sigma, up) == val - (up.dim - sub.dim)
        assert objective(sigma, down) == val - (sub.dim - down.dim)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_minimizer_lies_between_meet_and_join(self, seed):
        rng, n, sigma = seeded_complex(seed, 3, cells=(1, 4))
        if n < 3 and rng.random() < 0.5:
            # one more axis, in every cell (so in L) or in none (so not in J)
            axis = Subspace.full(1) if rng.random() < 0.5 else \
                Subspace.zero(1)
            sigma = product(sigma, SpanComplex(1, [axis]))
        meet, join = reference_cell_meet(sigma), reference_cell_join(sigma)
        # L and J can have entries above height 2, so they join the family
        family = {meet, join, *exhaustive_candidates(sigma.ambient_dim, 2)}
        scores = {sub: objective(sigma, sub) for sub in family}
        best = min(scores.values())
        for sub, val in scores.items():
            if val == best:
                assert sub.sum_dim(meet.rows) == sub.dim
                assert join.sum_dim(sub.rows) == join.dim


class TestCheapStage:
    """The two inequalities of the module docstring: L scores no more than
    {0} and J no more than R^n, each strictly unless the two are equal.
    So the search scans L and J, not {0} and R^n, and finds what a scan
    of all four finds."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_meet_and_join_dominate_zero_and_full(self, seed, coordinate):
        rng = random.Random(seed)
        if coordinate:
            sigma = coordinate_complex(rng)
        else:
            sigma = random_pure_complex(rng, rng.randint(0, 5),
                                        num_cells=rng.randint(1, 4))
        n, d = sigma.ambient_dim, sigma.dim
        meet, join = reference_cell_meet(sigma), reference_cell_join(sigma)
        assert objective(sigma, meet) <= 2 * d
        assert (objective(sigma, meet) == 2 * d) == (meet.dim == 0)
        assert objective(sigma, join) <= n
        assert (objective(sigma, join) == n) == (join.dim == n)
        ends = [Subspace.zero(n), Subspace.full(n)]
        best, _, _ = reference_search(sigma, [*ends, meet, join], 300)
        assert outcome(amoeba_dim(sigma, "lattice(cap=300)")) == best
        if n <= 3:
            for height in (0, 1):
                family = [*ends, *exhaustive_candidates(n, height)]
                res = amoeba_dim(sigma, f"exhaustive(height={height})")
                assert outcome(res) == reference_best(sigma, family)


class TestEnumerationOnRequest:
    """Only `exhaustive` enumerates, and it scores its whole family; the
    default search never does, in any dimension."""

    @pytest.mark.parametrize("sigma,value,witness", [
        # bound 4 = 2d: {0}, the only subspace of dimension 0
        (product(hyperplane(2), hyperplane(2)), 4, Subspace.zero(4)),
        # bound 4 = n, planes of R^4 meeting in {0}: only R^4 scores 4
        (tropical_hyperplane(4), 4, Subspace.full(4)),
        # bound 3 = n, the cells meet in a line that ties with R^3
        (two_planes_on_a_line(), 3, span(3, (1, 0, 0))),
        (two_planes_on_a_height_two_line(), 3, span(3, (1, 2, 0))),
        # bound 3 = dim J < n: only the join of the cells reaches it
        (three_coordinate_planes(), 3,
         span(4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))),
    ])
    def test_cheap_stage_settles_without_closure(self, monkeypatch, sigma,
                                                 value, witness):
        forbid(monkeypatch, "exhaustive_candidates", "candidate_lattice")
        res = amoeba_dim(sigma)
        assert res.strategy == DEFAULT_STRATEGY
        assert (res.value, res.lower_bound, res.certified) == \
            (value, value, True)
        assert res.witness_S == witness
        # the meet and join of the cells, without repeats
        assert res.candidates_evaluated == \
            len({reference_cell_meet(sigma), reference_cell_join(sigma)})

    @pytest.mark.parametrize("sigma", [
        hyperplane(2), curve_fan3(), tropical_hyperplane(5), plucker(),
        product(SpanComplex(1, [Subspace.full(1)]), plucker()), open_fan(),
    ])
    def test_default_search_never_enumerates(self, monkeypatch, sigma):
        calls = count_calls(monkeypatch, "exhaustive_candidates")
        assert amoeba_dim(sigma).strategy == "lattice(cap=10000)"
        assert calls == []

    def test_exhaustive_scores_its_whole_family(self, monkeypatch):
        calls = count_calls(monkeypatch, "exhaustive_candidates")
        res = amoeba_dim(hyperplane(3), strategy="exhaustive(height=1)")
        assert calls == [(3, 1)]
        assert res.witness_S == Subspace.full(3)
        assert res.candidates_evaluated == 40

    @pytest.mark.parametrize("name", GOLDEN_FANS + [
        f"seed{seed}" for seed in range(60)])
    def test_golden_fans_match_the_enumerating_search(self, name):
        # the height-1 enumeration added to the default search's cheap
        # stage changes no outcome, on the golden fans and on seeded
        # random ones
        if name.startswith("seed"):
            _, _, sigma = seeded_complex(int(name[4:]), 4, cells=(1, 6))
        else:
            sigma = parse_complex((DATA / f"{name}.fan.json").read_text())
        n = sigma.ambient_dim
        cheap = [reference_cell_meet(sigma),
                 *(exhaustive_candidates(n, 1) if n <= 4 else ())]
        best, _, _ = reference_search(sigma, cheap, DEFAULT_CAP)
        assert outcome(amoeba_dim(sigma)) == best

    @pytest.mark.parametrize("height,sigma", [
        (4, hyperplane(3)), (1, tropical_hyperplane(7)),
    ])
    def test_refused_height_raises_before_scoring(self, monkeypatch, height,
                                                  sigma):
        forbid(monkeypatch, "candidate_lattice", "_score")
        n = sigma.ambient_dim
        with pytest.raises(ResourceLimitError,
                           match=f"refused for n={n}, height={height}"):
            amoeba_dim(sigma, strategy=f"exhaustive(height={height})")


class TestHugeAmbient:
    """A small fan in a large ambient space settles without R^n's
    identity: the cheap stage never builds it, nor an n-fold product of
    coordinates, and the closure starts from the cells alone."""

    @staticmethod
    def refuse_large_full(monkeypatch):
        full = Subspace.full

        def small_full(cls, n):
            if n > 10:
                raise AssertionError(f"R^{n} built")
            return full(n)

        monkeypatch.setattr(Subspace, "full", classmethod(small_full))

    @pytest.mark.parametrize("strategy", [None, "exhaustive(height=0)"])
    def test_zero_fan_in_a_million_dimensions(self, monkeypatch, strategy):
        real_product = subspace_search.product

        def small_product(*args, repeat=1):
            if repeat > 10:
                raise AssertionError(f"{repeat}-fold product built")
            return real_product(*args, repeat=repeat)

        self.refuse_large_full(monkeypatch)
        monkeypatch.setattr(subspace_search, "product", small_product)
        n = 10 ** 6
        res = amoeba_dim(SpanComplex(n, [Subspace.zero(n)]), strategy)
        assert (res.value, res.certified) == (0, True)
        assert res.candidates_evaluated == 1

    def test_closure_in_a_large_ambient_space(self, monkeypatch):
        # the open fan needs the closure; a 0-dimensional fan in R^40
        # beside it makes the ambient space R^46
        self.refuse_large_full(monkeypatch)
        calls = count_calls(monkeypatch, "candidate_lattice")
        point = SpanComplex(40, [Subspace.zero(40)])
        res = amoeba_dim(product(open_fan(), point))
        assert (res.value, res.lower_bound) == (6, 5)
        assert len(calls) == 1

    def test_bound_in_a_large_ambient_space(self, monkeypatch):
        # the propagation bound settles the Plücker fan beside the same
        # point without building R^46 or the closure
        self.refuse_large_full(monkeypatch)
        forbid(monkeypatch, "candidate_lattice")
        point = SpanComplex(40, [Subspace.zero(40)])
        res = amoeba_dim(product(plucker(), point))
        assert (res.value, res.lower_bound, res.candidates_evaluated) == \
            (6, 6, 2)


class TestReduceTorus:
    def test_base_case(self):
        sigma = curve_fan3()
        assert reduce_torus(sigma, Subspace.zero(3)).dim == 0

    def test_single_cell_plane(self):
        t = reduce_torus(single_cell(2, (1, 0)), Subspace.full(2))
        assert t == span(2, (0, 1))

    def test_hyperplane_full_space(self):
        t = reduce_torus(hyperplane(3), Subspace.full(3))
        assert t == span(3, (1, 0, 0))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            reduce_torus(hyperplane(3), Subspace.zero(4))

    def test_no_overshoot_when_cells_disagree(self):
        # A vector of S can be missing from one cell yet already absorbed
        # by the cell that realizes the maximum; growing T against all
        # cells at once would add three vectors here instead of two.
        sigma = SpanComplex(5, [
            span(5, (1, 0, 0, 0, 0), (0, 0, 0, 1, 0)),
            span(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
            span(5, (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)),
        ])
        sub = span(5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
        t = reduce_torus(sigma, sub)
        assert t == span(5, (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
        assert t.dim == 2

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_contract(self, seed):
        from amoebadim.polyhedral import dim_sum_with_subspace

        _, n, sigma, sub = seeded_case(seed, 4, cells=(1, 4))
        t = reduce_torus(sigma, sub)
        target = dim_sum_with_subspace(sigma, sub)
        assert sub.sum_dim(t.rows) == sub.dim
        assert t.dim == target - sigma.dim
        assert dim_sum_with_subspace(sigma, t) == target


class TestWitnessPair:
    def test_hyperplane3(self):
        res = amoeba_dim(hyperplane(3))
        t, s = res.witness_T, res.witness_S
        assert (t, s, res.value) == (span(3, (1, 0, 0)), Subspace.full(3), 3)
        assert 2 * 2 + 2 * t.dim - s.dim == res.value

    def test_single_subspace(self):
        res = amoeba_dim(single_cell(3, (1, 0, 1), (0, 1, 1)))
        assert res.witness_T.dim == 0
        assert res.witness_S == span(3, (1, 0, 1), (0, 1, 1))
        assert res.value == 2

    def test_curve_fan(self):
        res = amoeba_dim(curve_fan3())
        assert res.witness_T.dim == 0 and res.witness_S.dim == 0
        assert res.value == 2

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_formula_identity(self, seed):
        _, n, sigma = seeded_complex(seed, 4, cells=(1, 3))
        res = amoeba_dim(sigma, strategy="lattice(cap=300)")
        assert 2 * sigma.dim + 2 * res.witness_T.dim - res.witness_S.dim \
            == res.value


class TestDetectNearAction:
    def test_only_amoeba_dim_takes_a_strategy(self):
        # the drop test runs the default search; a caller that wants
        # another strategy calls `amoeba_dim` itself
        assert list(inspect.signature(detect_near_action).parameters) == \
            ["sigma"]
        takes = [name for name in amoebadim.__all__
                 if inspect.isfunction(getattr(amoebadim, name))
                 and "strategy" in inspect.signature(
                     getattr(amoebadim, name)).parameters]
        assert takes == ["amoeba_dim"]

    def test_hyperplane3_has_none(self):
        report = detect_near_action(hyperplane(3))
        assert not report.drop
        assert report.value == 3
        assert report.threshold == 3
        assert report.witness is None
        assert report.proven

    def test_open_fan_no_drop_is_unproven(self):
        # the search returns 6, the threshold, but the bound stops at 5
        # (the minimum is 5, at span(e0, e3, e4), outside the closure)
        report = detect_near_action(open_fan())
        assert (report.drop, report.value, report.threshold) == \
            (False, 6, 6)
        assert not report.proven

    def test_plucker_no_drop_is_proven(self):
        # the propagation bound reaches the threshold 6
        report = detect_near_action(plucker())
        assert (report.drop, report.value, report.threshold) == \
            (False, 6, 6)
        assert report.proven

    def test_h2_squared_no_drop_is_proven(self):
        report = detect_near_action(product(hyperplane(2), hyperplane(2)))
        assert (report.drop, report.value, report.threshold) == \
            (False, 4, 4)
        assert report.proven

    def test_drop_is_proven_by_its_witness(self):
        report = detect_near_action(single_cell(3, (1, 0, 0)))
        assert report.drop
        assert report.proven

    def test_stable_curve_fan_in_r4(self):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        sigma0 = SpanComplex(
            4, [span(4, (0,) + r) for r in rays]
        )
        sigma = torus_invariant(sigma0, span(4, (1, 0, 0, 0)))
        report = detect_near_action(sigma)
        assert report.drop
        assert report.value == 3
        assert report.threshold == 4
        assert report.witness == span(4, (1, 0, 0, 0))

    def test_single_line_orbit(self):
        report = detect_near_action(single_cell(3, (1, 0, 0)))
        assert report.drop
        assert report.value == 1
        assert report.threshold == 2
        assert report.witness == span(3, (1, 0, 0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_witness_is_proper_and_verifies(self, seed):
        _, n, sigma = seeded_complex(seed, 4, cells=(1, 3))
        report = detect_near_action(sigma)
        if not report.drop:
            assert report.witness is None
            return
        w = report.witness
        assert w.dim != 0 and w != Subspace.full(n)
        val = objective(sigma, w)
        assert val == report.value
        assert 2 * sigma.dim > val and sigma.ambient_dim > val


class TestOrbitIndicator:
    def test_single_plane_in_r4(self):
        sigma = single_cell(4, (1, 0, 1, 0), (0, 1, 0, 1))
        assert len(sigma.cells) == 1
        assert amoeba_dim(sigma).value == sigma.dim == 2

    def test_hyperplane3(self):
        sigma = hyperplane(3)
        assert len(sigma.cells) == 6
        assert amoeba_dim(sigma).value == 3 != sigma.dim

    def test_two_lines(self):
        sigma = SpanComplex(2, [span(2, (1, 0)), span(2, (0, 1))])
        assert len(sigma.cells) == 2
        assert amoeba_dim(sigma).value == 2


class TestOracleAgreement:
    def test_lattice_matches_exhaustive_on_small_instances(self):
        rng = random.Random(20240814)
        exhaustive_by_n = {}
        for _ in range(15):
            n = rng.randint(1, 3)
            d = rng.randint(0, min(n, 2))
            sigma = random_pure_complex(rng, n, num_cells=rng.randint(1, 4),
                                        d=d, bound=1)
            lat = amoeba_dim(sigma, strategy="lattice(cap=500)").value
            if n not in exhaustive_by_n:
                exhaustive_by_n[n] = list(exhaustive_candidates(n, 2))
            exact = min(objective(sigma, s) for s in exhaustive_by_n[n])
            assert lat >= exact, "capped search reported an impossible value"
            assert lat == exact


class TestUnimodularInvariance:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_lattice_value_invariant(self, seed):
        rng, n, sigma = seeded_complex(seed, 4, cells=(1, 3))
        assert candidate_lattice(sigma, cap=10000).complete
        base = amoeba_dim(sigma, strategy="lattice(cap=10000)").value
        for _ in range(3):
            mat = random_unimodular(rng, n)
            moved = amoeba_dim(transform_complex(sigma, mat),
                               strategy="lattice(cap=10000)").value
            assert moved == base

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_objective_equivariant(self, seed):
        rng, n, sigma, sub = seeded_case(seed, 4, cells=(1, 3))
        mat = random_unimodular(rng, n)
        assert objective(transform_complex(sigma, mat),
                         transform_subspace(sub, mat)) == objective(sigma, sub)


class TestProductCandidates:
    def test_orbit_times_orbit_is_additive(self):
        from amoebadim.polyhedral import product

        left = single_cell(2, (1, 2))
        right = single_cell(3, (1, 0, 1), (0, 1, 1))
        both = product(left, right)
        extras = [direct_sum(a, b) for a in candidate_lattice(left, 100)
                  for b in candidate_lattice(right, 100)]
        # the direct sums alone reach the proven bound
        assert reference_best(both, extras)[0] == 1 + 2 == \
            reference_lower_bound(both)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_subadditive(self, seed):
        from amoebadim.polyhedral import product

        rng = random.Random(seed)
        left = random_pure_complex(rng, rng.randint(1, 3),
                                   num_cells=rng.randint(1, 2))
        right = random_pure_complex(rng, rng.randint(1, 3),
                                    num_cells=rng.randint(1, 2))
        v1 = amoeba_dim(left, strategy="lattice(cap=200)").value
        v2 = amoeba_dim(right, strategy="lattice(cap=200)").value
        extras = [direct_sum(a, b) for a in candidate_lattice(left, 200)
                  for b in candidate_lattice(right, 200)]
        assert reference_best(product(left, right), extras)[0] <= v1 + v2


class TestCandidateSetType:
    def test_container_protocol(self):
        lines = [span(2, v) for v in [(0, 1), (1, -1), (1, 0), (1, 1)]]
        cs = candidate_lattice(SpanComplex(2, lines))
        assert isinstance(cs, CandidateSet)
        assert cs.complete and len(cs) == 6
        assert Subspace.zero(2) in cs
        assert span(2, (1, 2)) not in cs
        assert sorted(s.dim for s in cs) == [0, 1, 1, 1, 1, 2]

