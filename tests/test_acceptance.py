"""Acceptance suite: the eight checks the package has to pass, one test
per check, each printing a single PASS line with the measured numbers
(visible with -s; pytest -v shows the per-check verdicts either way).

These deliberately go through the public entry points (the CLI where a
check is about command behavior, the library API elsewhere) and repeat
a handful of values the unit tests also pin down; this file is the
contract, the unit tests are the debugging aid.
"""

import json
import random
import time

from amoebadim.estimator import (
    ImplicitHypersurface,
    Parametrization,
    estimate_rank,
    estimate_rank_implicit,
)
from amoebadim.families import (
    curve_fan,
    orbit_subspace,
    torus_invariant,
    tropical_hyperplane,
)
from amoebadim.polyhedral import parse_complex
from amoebadim.rational_linalg import Subspace, canonicalize
from amoebadim.subspace_search import (
    amoeba_dim,
    candidate_lattice,
    detect_near_action,
    exhaustive_candidates,
    objective,
    reduce_torus,
)

from conftest import LINE2_DOC, MOMENT_DOC, PLANE3_DOC, implicit_doc, \
    random_pure_complex, random_subspace, random_unimodular, run_cli, \
    transform_complex


SURFACE_DOC = json.dumps({
    "domain_dim": 2, "ambient_dim": 3,
    "components": [
        {"terms": [{"coeff": ["1", "0"], "exponents": [1, 0]}]},
        {"terms": [{"coeff": ["1", "0"], "exponents": [0, 1]}]},
        {"terms": [{"coeff": ["1", "0"], "exponents": [1, 1]}]},
    ],
})


HYPERBOLA_DOC = implicit_doc(2, ("1", (1, 1)), ("-1", (0, 0)))


def test_a1_hypersurface_values(capsys, tmp_path):
    worst = 0.0
    for n, expected in ((2, 2), (3, 3), (4, 4), (5, 5)):
        fan = str(tmp_path / f"h{n}.json")
        assert run_cli(capsys, "gen", "hyperplane", str(n),
                       "--output", fan)[0] == 0
        started = time.perf_counter()
        code, out, _ = run_cli(capsys, "dim", fan)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert code == 0
        assert json.loads(out)["value"] == expected
        assert elapsed < 5.0, f"dim on the n={n} hypersurface: {elapsed:.2f}s"
    print(f"check 1 PASS: hypersurface values 2,3,4,5 exact, "
          f"slowest run {worst:.2f}s (budget 5s each)")


def test_a2_orbit_values(capsys, tmp_path):
    cases = (
        (2, 1, "1,2"),
        (3, 2, "1,0,1;0,1,1"),
        (4, 2, "1,0,1,0;0,1,1,1"),
    )
    for n, k, vectors in cases:
        fan = str(tmp_path / f"orbit{n}{k}.json")
        assert run_cli(capsys, "gen", "orbit", str(n), vectors,
                       "--output", fan)[0] == 0
        code, out, _ = run_cli(capsys, "dim", fan)
        doc = json.loads(out)
        assert code == 0
        assert doc["value"] == k, (n, k)
        assert doc["certified"] is True, (n, k)
    print("check 2 PASS: orbit values (2,1), (3,2), (4,2) exact and "
          "certified")


def test_a3_torus_invariant_additivity(capsys, tmp_path):
    curve = str(tmp_path / "curve4.json")
    shifted = str(tmp_path / "shifted4.json")
    assert run_cli(capsys, "gen", "curve", "4", "e2;e3;e4;0,-1,-1,-1",
                   "--output", curve)[0] == 0
    assert run_cli(capsys, "gen", "torus_invariant", curve, "e1",
                   "--output", shifted)[0] == 0
    code, out, _ = run_cli(capsys, "dim", shifted)
    assert code == 0
    assert json.loads(out)["value"] == 1 + 2

    sigma = parse_complex((tmp_path / "shifted4.json").read_text())
    report = detect_near_action(sigma)
    assert report.drop
    assert report.witness is not None
    assert report.witness.dim != 0
    assert report.witness != Subspace.full(sigma.ambient_dim)

    oracle = min(objective(sigma, sub)
                 for sub in exhaustive_candidates(4, 1))
    assert oracle == 3
    print("check 3 PASS: invariant complex scores 1+2=3, matches the "
          "height-1 exhaustive oracle, near-action witness "
          f"{report.witness.rows}")


def test_a4_oracle_equivalence():
    rng = random.Random(41)
    started = time.perf_counter()
    instances = 0
    while instances < 50:
        n = rng.randint(1, 3)
        d = rng.randint(0, min(n, 2))
        sigma = random_pure_complex(rng, n, num_cells=rng.randint(1, 4),
                                    d=d, bound=2)
        lattice = amoeba_dim(sigma, strategy="lattice(cap=10000)").value
        exact = amoeba_dim(sigma, strategy="exhaustive(height=2)").value
        assert lattice >= exact, \
            f"capped search undercut the exhaustive oracle on {sigma.cells}"
        assert lattice == exact, \
            f"lattice {lattice} != exhaustive {exact} on {sigma.cells}"
        instances += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    print(f"check 4 PASS: {instances} random complexes, lattice equals the "
          f"height-2 oracle every time, {elapsed:.1f}s (budget 60s)")


def test_a5_verify_agreement(capsys, tmp_path):
    h2 = str(tmp_path / "h2.json")
    h3 = str(tmp_path / "h3.json")
    orb12 = str(tmp_path / "orb12.json")
    orbsurf = str(tmp_path / "orbsurf.json")
    orbhyp = str(tmp_path / "orbhyp.json")
    assert run_cli(capsys, "gen", "hyperplane", "2", "--output", h2)[0] == 0
    assert run_cli(capsys, "gen", "hyperplane", "3", "--output", h3)[0] == 0
    assert run_cli(capsys, "gen", "orbit", "2", "1,2",
                   "--output", orb12)[0] == 0
    assert run_cli(capsys, "gen", "orbit", "3", "1,0,1;0,1,1",
                   "--output", orbsurf)[0] == 0
    assert run_cli(capsys, "gen", "orbit", "2", "1,-1",
                   "--output", orbhyp)[0] == 0

    line2 = tmp_path / "line2.json"
    line2.write_text(LINE2_DOC)
    plane3 = tmp_path / "plane3.json"
    plane3.write_text(PLANE3_DOC)
    hyperbola = tmp_path / "hyperbola.json"
    hyperbola.write_text(HYPERBOLA_DOC)
    moment = tmp_path / "moment.json"
    moment.write_text(MOMENT_DOC)
    surface = tmp_path / "surface.json"
    surface.write_text(SURFACE_DOC)

    pairs = (
        (h2, str(line2), "implicit"),
        (h3, str(plane3), "implicit"),
        (orb12, str(moment), "param"),
        (orbsurf, str(surface), "param"),
        (orbhyp, str(hyperbola), "implicit"),
    )
    started = time.perf_counter()
    for fan, variety, kind in pairs:
        for seed in ("1", "2", "3"):
            code, out, _ = run_cli(capsys, "verify", fan, variety,
                                   "--kind", kind, "--seed", seed)
            assert code == 0, (fan, variety, seed)
            assert json.loads(out)["verdict"] == "agree", (fan, variety,
                                                           seed)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"verification took {elapsed:.1f}s"
    print(f"check 5 PASS: five pairs agree for seeds 1..3 "
          f"({elapsed:.1f}s, budget 10s)")


def test_a6_reduce_torus_contract():
    from amoebadim.polyhedral import dim_sum_with_subspace

    rng = random.Random(61)
    failures = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        sigma = random_pure_complex(rng, n, num_cells=rng.randint(1, 4))
        sub = random_subspace(rng, n)
        t = reduce_torus(sigma, sub)
        target = dim_sum_with_subspace(sigma, sub)
        ok = (sub.sum_dim(t.rows) == sub.dim
              and t.dim == target - sigma.dim
              and dim_sum_with_subspace(sigma, t) == target)
        failures += not ok
    assert failures == 0
    print("check 6 PASS: torus reduction contract held on 120 random "
          "pairs, zero failures")


def test_a7_invariance_suite():
    rng = random.Random(71)

    fixed = [
        tropical_hyperplane(2),
        tropical_hyperplane(3),
        tropical_hyperplane(4),
        curve_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]),
        orbit_subspace(2, [(1, 2)]),
        orbit_subspace(4, [(1, 0, 1, 0), (0, 1, 1, 1)]),
        torus_invariant(
            curve_fan(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                          (0, -1, -1, -1)]),
            canonicalize(4, [(1, 0, 0, 0)]),
        ),
    ]
    randoms = [
        random_pure_complex(rng, rng.randint(1, 4),
                            num_cells=rng.randint(1, 4))
        for _ in range(12)
    ]
    for sigma in fixed + randoms:
        n, d = sigma.ambient_dim, sigma.dim
        assert objective(sigma, Subspace.zero(n)) == 2 * d
        assert objective(sigma, Subspace.full(n)) == n

    # transforms can only be trusted to preserve the reported value when
    # the candidate closure is finite, which three generators guarantee
    bases = [tropical_hyperplane(2), orbit_subspace(2, [(1, 2)])]
    while len(bases) < 12:
        sigma = random_pure_complex(rng, rng.randint(1, 4),
                                    num_cells=rng.randint(1, 3))
        bases.append(sigma)
    checked = 0
    for sigma in bases:
        assert candidate_lattice(sigma, cap=10000).complete
        base = amoeba_dim(sigma, strategy="lattice(cap=10000)").value
        n = sigma.ambient_dim
        for _ in range(10):
            mat = random_unimodular(rng, n)
            moved = amoeba_dim(transform_complex(sigma, mat),
                               strategy="lattice(cap=10000)").value
            assert moved == base, (sigma.cells, mat)
            checked += 1
    print(f"check 7 PASS: objective endpoints exact on "
          f"{len(fixed) + len(randoms)} complexes, lattice value invariant "
          f"under {checked} unimodular transforms")


def test_a8_estimator_robustness():
    moment = Parametrization(1, 2, (((1, (1,)),), ((1, (2,)),)))
    surface = Parametrization(
        2, 3, (((1, (1, 0)),), ((1, (0, 1)),), ((1, (1, 1)),))
    )
    line2 = ImplicitHypersurface(2, ((1, (1, 0)), (1, (0, 1)), (1, (0, 0))))
    plane3 = ImplicitHypersurface(
        3, ((1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1)), (1, (0, 0, 0)))
    )
    hyperbola = ImplicitHypersurface(2, ((1, (1, 1)), (-1, (0, 0))))

    pairs = (
        ("x+y+1", lambda s: estimate_rank_implicit(line2, seed=s)),
        ("x+y+z+1", lambda s: estimate_rank_implicit(plane3, seed=s)),
        ("moment curve", lambda s: estimate_rank(moment, seed=s)),
        ("torus surface", lambda s: estimate_rank(surface, seed=s)),
        ("hyperbola", lambda s: estimate_rank_implicit(hyperbola, seed=s)),
    )
    worst_fraction = 1.0
    for label, runner in pairs:
        ranks = set()
        for seed in (1, 2, 3, 4, 5):
            est = runner(seed)
            ranks.add(est.rank)
            wide = sum(1 for g in est.per_sample_gaps if g > 1e4)
            fraction = wide / len(est.per_sample_gaps)
            worst_fraction = min(worst_fraction, fraction)
            assert fraction >= 0.9, (label, seed, fraction)
        assert len(ranks) == 1, (label, ranks)
    print(f"check 8 PASS: ranks stable across seeds 1..5 on all five "
          f"pairs, worst wide-gap fraction {worst_fraction:.2f} "
          f"(threshold 0.90)")
