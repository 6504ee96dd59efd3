import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from amoebadim.cli import build_parser, main, parse_vector_list
from amoebadim.families import torus_invariant, tropical_hyperplane
from amoebadim.polyhedral import parse_complex, product
from amoebadim.rational_linalg import canonicalize, parse_rational

from conftest import DATA, LINE2_DOC, MOMENT_DOC, PLANE3_DOC, \
    RATIONAL_STRINGS, child_env, implicit_doc, run_cli, short_id

LINE_DOC = json.dumps({
    "domain_dim": 1, "ambient_dim": 2,
    "components": [
        {"terms": [{"coeff": ["1", "0"], "exponents": [1]}]},
        {"terms": [{"coeff": ["1", "0"], "exponents": [0]},
                   {"coeff": ["-1", "0"], "exponents": [1]}]},
    ],
})

# a zero coordinate: every sample leaves the torus
ZERO_DOC = json.dumps({
    "domain_dim": 1, "ambient_dim": 1,
    "components": [{"terms": [{"coeff": ["0", "0"], "exponents": [1]}]}],
})

# y^1000000 - 1: a degree the implicit path refuses before any work
HUGE_DEGREE_DOC = implicit_doc(2, ("1", (0, 10 ** 6)), ("-1", (0, 0)))

# x - 2 in C*: one point, an amoeba of dimension 0
POINT_DOC = implicit_doc(1, ("1", (1,)), ("-2", (0,)))

# (t, t^2, t^3)
MOMENT3_DOC = json.dumps({
    "domain_dim": 1, "ambient_dim": 3,
    "components": [
        {"terms": [{"coeff": ["1", "0"], "exponents": [e]}]}
        for e in (1, 2, 3)
    ],
})


def plane_doc_with(coeff=None, exponent=None):
    """PLANE3_DOC with its first term's real coefficient or first exponent
    replaced."""
    doc = json.loads(PLANE3_DOC)
    term = doc["polynomial"]["terms"][0]
    if coeff is not None:
        term["coeff"][0] = coeff
    if exponent is not None:
        term["exponents"][0] = exponent
    return json.dumps(doc)


# numbers that parse as JSON but fit neither a float nor an int64
OUT_OF_RANGE_DOCS = {
    "int_coeff": plane_doc_with(coeff=10**400),
    "str_coeff": plane_doc_with(coeff="1" + "0" * 400),
    "exponent": plane_doc_with(exponent=10**30),
}

# Fan files under tests/data, written by `gen` (the Plücker fan by hand),
# each with the exact `dim` output it gave when it was recorded.
GOLDEN = ("hyperplane3", "hyperplane4", "curve3", "orbit4", "h2xh2",
          "curve4_e1", "plucker")

# The `gen` calls that wrote those fan files, in order; "{k}" stands for
# the file that call k wrote.
GOLDEN_GEN = {
    "hyperplane3": [("hyperplane", "3")],
    "hyperplane4": [("hyperplane", "4")],
    "curve3": [("curve", "3", "e1;e2;e3;-1,-1,-1")],
    "orbit4": [("orbit", "4", "1,0,1,0;0,1,1,1")],
    "h2xh2": [("hyperplane", "2"), ("product", "{0}", "{0}")],
    "curve4_e1": [("curve", "4", "e2;e3;e4;0,-1,-1,-1"),
                  ("torus_invariant", "{0}", "e1")],
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def hyperplane_file(tmp_path, n) -> str:
    """`gen hyperplane n` written to h<n>.json in tmp_path; its path."""
    path = str(tmp_path / f"h{n}.json")
    assert main(["gen", "hyperplane", str(n), "--output", path]) == 0
    return path


@pytest.fixture
def h3_file(tmp_path):
    return hyperplane_file(tmp_path, 3)


class TestParseVectorList:
    def test_unit_shorthand(self):
        assert parse_vector_list("e1;e3", 3) == (
            (1, 0, 0), (0, 0, 1),
        )

    def test_negated_unit(self):
        assert parse_vector_list("-e2", 2) == ((0, -1),)

    def test_rational_coordinates(self):
        assert parse_vector_list("1/2,-3", 2) == ((Fraction(1, 2), -3),)

    def test_mixed(self):
        got = parse_vector_list(" e1 ; 0,1,1 ", 3)
        assert got == ((1, 0, 0), (0, 1, 1))

    def test_unit_out_of_range(self):
        with pytest.raises(ValueError, match="e4"):
            parse_vector_list("e4", 3)
        with pytest.raises(ValueError):
            parse_vector_list("e0", 3)

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="coordinates"):
            parse_vector_list("1,2,3", 2)
        # an empty list still splits into chunks, each of which is read
        for text in ("", ";"):
            with pytest.raises(ValueError,
                               match="vector '' has 1 coordinates, expected 2"):
                parse_vector_list(text, 2)

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_vector_list("one,two", 2)
        with pytest.raises(ValueError):
            parse_vector_list("1/0,1", 2)
        with pytest.raises(ValueError, match="cannot read '' as a rational"):
            parse_vector_list("", 1)

    @pytest.mark.parametrize("text", RATIONAL_STRINGS, ids=short_id)
    def test_entries_read_what_fraction_reads(self, text):
        try:
            expected = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError) as refused:
                parse_vector_list(text, 1)
            assert str(refused.value) == \
                f"cannot read {text.strip()!r} as a rational vector"
            return
        ((got,),) = parse_vector_list(text, 1)
        assert got == expected
        assert type(got) is type(parse_rational(text))


class TestFlagChecks:
    """Flag checks exit 2, and they run before any input file is read."""

    def test_range_validation(self, capsys, tmp_path):
        absent = str(tmp_path / "absent.json")
        for argv in (
            ("estimate", absent, "--kind", "param", "--trials", "0"),
            ("estimate", absent, "--kind", "param", "--tol", "1.5"),
            ("verify", absent, absent, "--kind", "param", "--tol", "0"),
            ("estimate", absent, "--kind", "param", "--seed", "-1"),
            ("verify", absent, absent, "--kind", "implicit", "--seed", "-5"),
            ("dim", absent, "--strategy", "lattice", "--cap", "0"),
            ("dim", absent, "--strategy", "exhaustive", "--height", "-1"),
            ("dim", absent, "--strategy", "combined"),
            ("verify", absent, absent, "--kind", "param",
             "--strategy", "lattice", "--cap", "0"),
            ("verify", absent, absent, "--kind", "param", "--cap", "3"),
            # the estimator flags are checked before the strategy flags
            ("verify", absent, absent, "--kind", "param", "--trials", "0",
             "--strategy", "lattice", "--cap", "0"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert "cannot read" not in err
            if "--seed" in argv:
                assert "seed" in err
            if "--trials" in argv:
                assert "trials" in err and "cap" not in err

    def test_flags_need_strategy(self, capsys, h3_file):
        code, out, err = run_cli(capsys, "dim", h3_file, "--cap", "10")
        assert (code, out) == (2, "")
        assert "--strategy" in err

    def test_kind_specific_flags(self, capsys, h3_file):
        code, out, err = run_cli(capsys, "dim", h3_file, "--strategy",
                                 "lattice", "--height", "2")
        assert (code, out) == (2, "")
        assert "height" in err
        code, out, err = run_cli(capsys, "dim", h3_file, "--strategy",
                                 "exhaustive", "--cap", "10")
        assert (code, out) == (2, "")
        assert "cap" in err


class TestGen:
    def test_hyperplane(self, capsys):
        code, out, err = run_cli(capsys, "gen", "hyperplane", "3")
        assert code == 0
        assert parse_complex(out) == tropical_hyperplane(3)

    def test_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "orbit", "2", "1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"ambient_dim": 2, "cells": [{"span": [["1", "2"]]}]}

    def test_curve_with_unit_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "curve", "3",
                               "e1;e2;e3;-1,-1,-1")
        assert code == 0
        assert len(json.loads(out)["cells"]) == 4

    def test_torus_invariant(self, capsys, tmp_path):
        fan = write(tmp_path, "c.json", json.dumps({
            "ambient_dim": 4,
            "cells": [{"span": [["0", "1", "0", "0"]]},
                      {"span": [["0", "0", "1", "0"]]},
                      {"span": [["0", "0", "0", "1"]]},
                      {"span": [["0", "-1", "-1", "-1"]]}],
        }))
        code, out, _ = run_cli(capsys, "gen", "torus_invariant", fan, "e1")
        assert code == 0
        expected = torus_invariant(
            parse_complex((tmp_path / "c.json").read_text()),
            canonicalize(4, [(1, 0, 0, 0)]),
        )
        assert parse_complex(out) == expected

    def test_product(self, capsys, tmp_path, h3_file):
        code, out, _ = run_cli(capsys, "gen", "product", h3_file, h3_file)
        assert code == 0
        h3 = tropical_hyperplane(3)
        assert parse_complex(out) == product(h3, h3)

    def test_output_file(self, capsys, tmp_path):
        path = str(tmp_path / "out.json")
        code, out, _ = run_cli(capsys, "gen", "hyperplane", "2",
                               "--output", path)
        assert code == 0
        assert out == ""
        assert parse_complex((tmp_path / "out.json").read_text()) == \
            tropical_hyperplane(2)

    @pytest.mark.parametrize("command", ["gen", "dim"])
    def test_unwritable_output(self, capsys, tmp_path, h3_file, command):
        path = str(tmp_path / "missing" / "out.json")
        argv = ["gen", "hyperplane", "2"] if command == "gen" \
            else ["dim", h3_file]
        code, out, err = run_cli(capsys, *argv, "--output", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

    def test_deterministic(self, capsys):
        a = run_cli(capsys, "gen", "hyperplane", "4")
        b = run_cli(capsys, "gen", "hyperplane", "4")
        assert a == b

    @pytest.mark.parametrize("argv", [
        ("gen", "mystery", "3"),
        ("gen", "hyperplane"),
        ("gen", "hyperplane", "3", "4"),
        ("gen", "hyperplane", "x"),
        ("gen", "hyperplane", "1"),
        ("gen", "orbit", "2", "1,2;2,4"),
        ("gen", "curve", "2", "0,0"),
        ("gen", "curve", "2", "e5"),
        ("gen", "orbit", "0", "1"),
    ])
    def test_bad_parameters(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("name", GOLDEN_GEN)
    def test_golden_fan_files(self, capsys, tmp_path, name):
        paths = []
        for k, (family, *params) in enumerate(GOLDEN_GEN[name]):
            path = str(tmp_path / f"gen{k}.json")
            params = [p.format(*paths) for p in params]
            assert main(["gen", family, *params, "--output", path]) == 0
            paths.append(path)
        capsys.readouterr()
        assert Path(paths[-1]).read_bytes() == \
            (DATA / f"{name}.fan.json").read_bytes()

    def test_torus_invariant_purity_failure(self, capsys, h3_file):
        code, out, err = run_cli(capsys, "gen", "torus_invariant", h3_file,
                                 "1,1,1")
        assert code == 2
        assert out == ""
        assert "impure" in err


class TestDim:
    def test_hyperplane_file(self, capsys, h3_file):
        code, out, _ = run_cli(capsys, "dim", h3_file)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "value", "lower_bound", "upper_bound", "certified",
            "witness_S", "witness_T", "strategy", "candidates_evaluated",
        ]
        assert doc["value"] == 3
        assert doc["certified"] is True
        assert doc["witness_S"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_single_cell_certified(self, capsys, tmp_path):
        fan = write(tmp_path, "one.json", json.dumps({
            "ambient_dim": 3,
            "cells": [{"span": [["1", "0", "1"], ["0", "1", "1"]]}],
        }))
        code, out, _ = run_cli(capsys, "dim", fan)
        doc = json.loads(out)
        assert (code, doc["value"], doc["certified"]) == (0, 2, True)

    def test_strategy_flags_reach_the_search(self, capsys, h3_file):
        code, out, _ = run_cli(capsys, "dim", h3_file, "--strategy",
                               "exhaustive", "--height", "2")
        assert code == 0
        assert json.loads(out)["strategy"] == "exhaustive(height=2)"
        code, out, _ = run_cli(capsys, "dim", h3_file, "--strategy", "lattice",
                               "--cap", "50")
        assert json.loads(out)["strategy"] == "lattice(cap=50)"

    def test_byte_identical_reruns(self, capsys, h3_file):
        a = run_cli(capsys, "dim", h3_file)
        b = run_cli(capsys, "dim", h3_file)
        assert a == b

    def test_impure_file_rejected(self, capsys, tmp_path):
        fan = write(tmp_path, "impure.json", json.dumps({
            "ambient_dim": 2,
            "cells": [{"span": [["1", "0"]]},
                      {"span": [["1", "0"], ["0", "1"]]}],
        }))
        code, out, err = run_cli(capsys, "dim", fan)
        assert (code, out) == (2, "")
        assert err != ""

    def test_missing_file(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "dim", str(tmp_path / "absent.json"))
        assert (code, out) == (2, "")

    def test_boolean_entries_rejected(self, capsys, tmp_path):
        fan = write(tmp_path, "bool.json",
                    '{"ambient_dim": 2, "cells": [{"span": [[true, false]]}]}')
        code, out, err = run_cli(capsys, "dim", fan)
        assert (code, out) == (2, "")
        assert "rational" in err

    def test_resource_limit_exit(self, capsys, tmp_path):
        path = hyperplane_file(tmp_path, 7)
        code, out, _ = run_cli(capsys, "dim", path, "--strategy", "exhaustive")
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("n,height", [(7, "1"), (3, "4")])
    def test_refused_height_exits_3(self, capsys, tmp_path, n, height):
        path = hyperplane_file(tmp_path, n)
        code, out, err = run_cli(capsys, "dim", path, "--strategy",
                                 "exhaustive", "--height", height)
        assert (code, out) == (3, "")
        assert f"refused for n={n}, height={height}" in err

    def test_exhaustive_height_zero_above_the_limit(self, capsys, tmp_path):
        path = hyperplane_file(tmp_path, 7)
        code, out, _ = run_cli(capsys, "dim", path, "--strategy", "exhaustive",
                               "--height", "0")
        assert code == 0
        assert json.loads(out)["value"] == 7

    def test_cap_below_cell_count_refused(self, capsys, tmp_path):
        # the search never needs the closure on h5, but the cap is still
        # checked against its 15 cells
        path = hyperplane_file(tmp_path, 5)
        code, out, err = run_cli(capsys, "dim", path, "--strategy", "lattice",
                                 "--cap", "3")
        assert (code, out) == (2, "")
        assert "cap 3 below number of cells = 15" in err

    def test_cap_without_strategy(self, capsys, h3_file):
        code, out, _ = run_cli(capsys, "dim", h3_file, "--cap", "10")
        assert (code, out) == (2, "")

    def test_readme_example(self, capsys, h3_file):
        # the README's `amoebadim dim h3.json` block is this program's answer
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("$ amoebadim dim h3.json\n", 1)[1]
        code, out, _ = run_cli(capsys, "dim", h3_file)
        assert code == 0
        assert json.loads(out) == json.loads(block.split("```", 1)[0])

    def test_readme_verify_example(self, capsys, tmp_path):
        # the README's `amoebadim verify h2.json line2.json` block is this
        # program's answer on `gen hyperplane 2` and x + y + 1, with the
        # README's own flags
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        command, block = readme.split("$ amoebadim verify ", 1)[1].split(
            "\n", 1)
        args = command.split()
        assert args[:2] == ["h2.json", "line2.json"]
        fan = hyperplane_file(tmp_path, 2)
        variety = write(tmp_path, "line2.json", LINE2_DOC)
        code, out, _ = run_cli(capsys, "verify", fan, variety, *args[2:])
        assert code == 0
        assert json.loads(out) == json.loads(block.split("```", 1)[0])

    @pytest.mark.parametrize("name", GOLDEN)
    def test_golden_output(self, capsys, name):
        code, out, _ = run_cli(capsys, "dim", str(DATA / f"{name}.fan.json"))
        assert code == 0
        assert out == (DATA / f"{name}.dim.json").read_text()


class TestEstimate:
    def test_param(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        code, out, _ = run_cli(capsys, "estimate", path, "--kind", "param",
                               "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "rank", "samples_used", "singular_value_gap", "per_sample_ranks",
        ]
        assert doc["rank"] == 1
        assert doc["samples_used"] == 20

    def test_implicit_with_null_gap(self, capsys, tmp_path):
        path = write(tmp_path, "p.json", PLANE3_DOC)
        code, out, _ = run_cli(capsys, "estimate", path, "--kind", "implicit",
                               "--seed", "1")
        doc = json.loads(out)
        assert (code, doc["rank"]) == (0, 3)
        assert doc["singular_value_gap"] is None

    def test_seed_changes_samples_not_rank(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        outs = set()
        for seed in ("1", "2", "3"):
            code, out, _ = run_cli(capsys, "estimate", path, "--kind", "param",
                                   "--seed", seed)
            assert code == 0
            outs.add(out)
            assert json.loads(out)["rank"] == 1
        assert len(outs) == 3  # gaps differ even when ranks agree

    def test_deterministic(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        a = run_cli(capsys, "estimate", path, "--kind", "param", "--seed", "9")
        b = run_cli(capsys, "estimate", path, "--kind", "param", "--seed", "9")
        assert a == b

    def test_kind_is_required(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        code, out, _ = run_cli(capsys, "estimate", path)
        assert (code, out) == (2, "")

    def test_parameter_validation(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        assert run_cli(capsys, "estimate", path, "--kind", "param",
                       "--trials", "0")[0] == 2
        assert run_cli(capsys, "estimate", path, "--kind", "param",
                       "--tol", "2")[0] == 2

    def test_all_samples_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "z.json", ZERO_DOC)
        code, out, err = run_cli(capsys, "estimate", path, "--kind", "param")
        assert (code, out) == (4, "")
        assert "rejected" in err

    def test_all_implicit_samples_rejected(self, capsys, tmp_path):
        # 2xy + 3xy is 5xy: no zeros in the torus
        path = write(tmp_path, "c.json", json.dumps({
            "ambient_dim": 2, "polynomial": {"terms": [
                {"coeff": ["2", "0"], "exponents": [1, 1]},
                {"coeff": ["3", "0"], "exponents": [1, 1]},
            ]},
        }))
        code, out, err = run_cli(capsys, "estimate", path,
                                 "--kind", "implicit")
        assert (code, out) == (4, "")
        assert "rejected" in err

    def test_implicit_without_last_variable(self, capsys, tmp_path):
        # x + 1 in (C*)^2: the line x = -1, an amoeba of dimension 1
        path = write(tmp_path, "x.json", json.dumps({
            "ambient_dim": 2, "polynomial": {"terms": [
                {"coeff": ["1", "0"], "exponents": [1, 0]},
                {"coeff": ["1", "0"], "exponents": [0, 0]},
            ]},
        }))
        code, out, _ = run_cli(capsys, "estimate", path, "--kind", "implicit",
                               "--seed", "1")
        assert code == 0
        assert json.loads(out)["per_sample_ranks"] == [1] * 20

    def test_wrong_kind_for_file(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        code, out, _ = run_cli(capsys, "estimate", path, "--kind", "implicit")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_DOCS))
    def test_out_of_range_numbers(self, capsys, tmp_path, case):
        path = write(tmp_path, "p.json", OUT_OF_RANGE_DOCS[case])
        code, out, err = run_cli(capsys, "estimate", path,
                                 "--kind", "implicit")
        assert (code, out) == (2, "")
        assert "out of the" in err


class TestVerify:
    def test_agreeing_pair(self, capsys, tmp_path, h3_file):
        variety = write(tmp_path, "p.json", PLANE3_DOC)
        code, out, _ = run_cli(capsys, "verify", h3_file, variety,
                               "--kind", "implicit", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "combinatorial", "numerical", "certified", "verdict",
        ]
        assert doc == {"combinatorial": 3, "numerical": 3,
                       "certified": True, "verdict": "agree"}

    def test_mismatch_still_prints_json(self, capsys, tmp_path, h3_file):
        variety = write(tmp_path, "m.json", MOMENT3_DOC)
        code, out, _ = run_cli(capsys, "verify", h3_file, variety,
                               "--kind", "param", "--seed", "1")
        assert code == 5
        doc = json.loads(out)
        assert doc["verdict"] == "mismatch"
        assert (doc["combinatorial"], doc["numerical"]) == (3, 1)

    def test_strategy_flag_applies(self, capsys, tmp_path):
        fan = write(tmp_path, "h2.json", json.dumps({
            "ambient_dim": 2,
            "cells": [{"span": [["1", "0"]]}, {"span": [["0", "1"]]},
                      {"span": [["1", "1"]]}],
        }))
        variety = write(tmp_path, "l.json", LINE_DOC)
        code, out, _ = run_cli(capsys, "verify", fan, variety,
                               "--kind", "param", "--strategy", "exhaustive",
                               "--height", "1", "--seed", "2")
        assert code == 0
        assert json.loads(out)["verdict"] == "agree"

    @pytest.mark.parametrize("kind,doc", [("param", MOMENT_DOC),
                                          ("implicit", PLANE3_DOC)])
    def test_ambient_dimensions_must_match(self, capsys, tmp_path, kind,
                                           doc):
        # a fan in R^1 against a variety in (C*)^2 or (C*)^3
        fan = write(tmp_path, "r1.json", json.dumps({
            "ambient_dim": 1, "cells": [{"span": [["1"]]}],
        }))
        variety = write(tmp_path, "v.json", doc)
        ambient = json.loads(doc)["ambient_dim"]
        code, out, err = run_cli(capsys, "verify", fan, variety,
                                 "--kind", kind, "--seed", "1")
        assert (code, out) == (2, "")
        assert "R^1" in err and f"(C*)^{ambient}" in err

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_DOCS))
    def test_out_of_range_numbers(self, capsys, tmp_path, h3_file, case):
        variety = write(tmp_path, "p.json", OUT_OF_RANGE_DOCS[case])
        code, out, err = run_cli(capsys, "verify", h3_file, variety,
                                 "--kind", "implicit")
        assert (code, out) == (2, "")
        assert "out of the" in err

    def test_stable_across_seeds(self, capsys, tmp_path, h3_file):
        variety = write(tmp_path, "p.json", PLANE3_DOC)
        for seed in ("1", "2", "3"):
            code, out, _ = run_cli(capsys, "verify", h3_file, variety,
                                   "--kind", "implicit", "--seed", seed)
            assert code == 0
            assert json.loads(out)["verdict"] == "agree"


class TestSmallAmbient:
    """What n = 0 and n = 1 give; `gen hyperplane 1` exiting 2 is in
    `TestGen.test_bad_parameters`."""

    def test_dim_in_r0(self, capsys, tmp_path):
        fan = write(tmp_path, "r0.json", json.dumps({
            "ambient_dim": 0, "cells": [{"span": []}],
        }))
        code, out, _ = run_cli(capsys, "dim", fan)
        assert (code, json.loads(out)["value"]) == (0, 0)

    @pytest.mark.parametrize("strategy", ["lattice", "exhaustive"])
    def test_dim_of_r1(self, capsys, tmp_path, strategy):
        fan = write(tmp_path, "r1.json", json.dumps({
            "ambient_dim": 1, "cells": [{"span": [["1"]]}],
        }))
        code, out, _ = run_cli(capsys, "dim", fan, "--strategy", strategy)
        assert (code, json.loads(out)["value"]) == (0, 1)

    def test_estimate_of_a_point(self, capsys, tmp_path):
        path = write(tmp_path, "x.json", POINT_DOC)
        code, out, _ = run_cli(capsys, "estimate", path, "--kind", "implicit",
                               "--seed", "1")
        assert (code, json.loads(out)["rank"]) == (0, 0)

    def test_verify_a_point(self, capsys, tmp_path):
        zero = write(tmp_path, "zero.json", json.dumps({
            "ambient_dim": 1, "cells": [{"span": []}],
        }))
        line = str(tmp_path / "line.json")
        assert main(["gen", "orbit", "1", "1", "--output", line]) == 0
        variety = write(tmp_path, "x.json", POINT_DOC)
        verdicts = []
        for fan in (zero, line):
            code, out, _ = run_cli(capsys, "verify", fan, variety,
                                   "--kind", "implicit", "--seed", "1")
            verdicts.append((code, json.loads(out)["verdict"]))
        assert verdicts == [(0, "agree"), (5, "mismatch")]


NUMERICAL_SIDE = {"amoebadim.estimator", "amoebadim.roots", "numpy"}
EXACT_SIDE = {"amoebadim.rational_linalg", "amoebadim.polyhedral",
              "amoebadim.subspace_search", "amoebadim.families"}
# standard modules a command loads only where it uses them
STARTUP_WATCHED = ("fractions", "decimal", "dataclasses")

# One call of each kind that `main` answers, with its exit code: the four
# commands, a usage error, --help and a refusal, in an order that puts
# each failure between two successes.
SHARED_PARSER_CALLS = (
    (("gen", "hyperplane", "3"), 0),
    (("dim",), 2),
    (("dim", "h3.json"), 0),
    (("--help",), 0),
    (("estimate", "moment.json", "--kind", "param"), 0),
    (("dim", "h3.json", "--strategy", "exhaustive", "--height", "4"), 3),
    (("verify", "h2.json", "line2.json", "--kind", "implicit",
      "--seed", "1"), 0),
)


class TestEntryPoint:
    def test_module_execution_round_trip(self, tmp_path):
        fan = tmp_path / "h3.json"
        gen = subprocess.run(
            [sys.executable, "-m", "amoebadim.cli", "gen", "hyperplane",
             "3", "--output", str(fan)],
            capture_output=True, text=True, env=child_env(),
        )
        assert gen.returncode == 0
        dim = subprocess.run(
            [sys.executable, "-m", "amoebadim.cli", "dim", str(fan)],
            capture_output=True, text=True, env=child_env(),
        )
        assert dim.returncode == 0
        assert json.loads(dim.stdout)["value"] == 3

    def test_package_runs_the_cli(self, tmp_path):
        hyperplane_file(tmp_path, 3)

        def run_module(*argv):
            return subprocess.run([sys.executable, "-m", *argv], cwd=tmp_path,
                                  capture_output=True, text=True,
                                  env=child_env())

        package = run_module("amoebadim", "dim", "h3.json")
        cli = run_module("amoebadim.cli", "dim", "h3.json")
        assert package.returncode == cli.returncode == 0
        assert package.stdout == cli.stdout
        assert run_module("amoebadim").returncode == 2

    @staticmethod
    def loaded_by(tmp_path, script):
        """The `amoebadim.*` submodules, numpy and the `STARTUP_WATCHED`
        modules that a fresh interpreter has loaded after running
        `script`."""
        script += f"""
import sys
print(*sorted(m for m in sys.modules
              if m in ("numpy", *{STARTUP_WATCHED!r})
              or m.startswith("amoebadim.")))
"""
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def command_loads(self, tmp_path, *argv):
        script = f"""
from amoebadim.cli import main
assert main({[*argv, "--output", "out.json"]!r}) == 0
"""
        return self.loaded_by(tmp_path, script)

    def test_import_loads_no_submodule(self, tmp_path):
        assert self.loaded_by(tmp_path, "import amoebadim") == set()

    @pytest.mark.parametrize("argv", [("gen", "hyperplane", "3"),
                                      ("dim", "h3.json")])
    def test_exact_commands_do_not_load_the_estimator(self, tmp_path, argv):
        hyperplane_file(tmp_path, 3)
        loaded = self.command_loads(tmp_path, *argv)
        assert "amoebadim.polyhedral" in loaded
        assert loaded.isdisjoint(NUMERICAL_SIDE)

    # what a bare interpreter loads already cannot count against a command
    def startup_loads(self, tmp_path, *argv):
        return self.command_loads(tmp_path, *argv) - \
            self.loaded_by(tmp_path, "")

    def test_dim_loads_neither_fractions_nor_the_bound(self, tmp_path):
        loaded = self.startup_loads(tmp_path, "dim",
                                    str(DATA / "hyperplane3.fan.json"))
        assert "amoebadim.subspace_search" in loaded
        assert loaded.isdisjoint({"fractions", "decimal", "amoebadim.bounds"})

    def test_dim_loads_the_bound_where_cell_pairs_fall_short(self, tmp_path):
        loaded = self.startup_loads(tmp_path, "dim",
                                    str(DATA / "plucker.fan.json"))
        assert "amoebadim.bounds" in loaded
        assert loaded.isdisjoint({"fractions", "decimal"})

    @pytest.mark.parametrize("argv", [
        ("gen", "orbit", "4", "1,0,1,0;0,1,1,1"),
        ("gen", "torus_invariant", "curve4.json", "e1"),
    ], ids=("orbit", "torus_invariant"))
    def test_integer_gen_loads_neither_fractions_nor_decimal(self, tmp_path,
                                                             argv):
        assert main(["gen", "curve", "4", "e2;e3;e4;0,-1,-1,-1",
                     "--output", str(tmp_path / "curve4.json")]) == 0
        loaded = self.startup_loads(tmp_path, *argv)
        assert "amoebadim.families" in loaded
        assert loaded.isdisjoint({"fractions", "decimal"})

    def test_gen_loads_fractions_for_a_fraction_entry(self, tmp_path):
        loaded = self.startup_loads(tmp_path, "gen", "orbit", "2", "1/2,1")
        assert "fractions" in loaded

    def test_estimate_loads_neither_dataclasses_nor_fractions(self, tmp_path):
        write(tmp_path, "moment.json", MOMENT_DOC)
        loaded = self.startup_loads(tmp_path, "estimate", "moment.json",
                                    "--kind", "param")
        assert "amoebadim.estimator" in loaded
        assert loaded.isdisjoint({"dataclasses", "fractions", "decimal"})

    def test_estimate_does_not_load_the_exact_search(self, tmp_path):
        write(tmp_path, "moment.json", MOMENT_DOC)
        loaded = self.command_loads(tmp_path, "estimate", "moment.json",
                                    "--kind", "param")
        assert "numpy" in loaded
        assert loaded.isdisjoint(EXACT_SIDE)

    @pytest.mark.parametrize("argv", [
        ("estimate", "huge.json", "--kind", "implicit"),
        ("verify", "h2.json", "huge.json", "--kind", "implicit"),
    ], ids=("estimate", "verify"))
    def test_degree_refusal_loads_no_numpy(self, tmp_path, argv):
        hyperplane_file(tmp_path, 2)
        write(tmp_path, "huge.json", HUGE_DEGREE_DOC)
        script = f"""
from amoebadim.cli import main
assert main({list(argv)!r}) == 3
"""
        loaded = self.loaded_by(tmp_path, script)
        assert "amoebadim.estimator" in loaded
        assert loaded.isdisjoint({"amoebadim.roots", "numpy"})

    @pytest.mark.parametrize("flags,code", [
        (("--strategy", "exhaustive", "--height", "4"), 3),
        (("--strategy", "lattice", "--cap", "1"), 2),
    ], ids=("height", "cap"))
    def test_strategy_refusal_loads_no_numpy(self, tmp_path, flags, code):
        # verify refuses what `dim` refuses, before any sampling
        hyperplane_file(tmp_path, 2)
        write(tmp_path, "line2.json", LINE2_DOC)
        argv = ["verify", "h2.json", "line2.json", "--kind", "implicit", *flags]
        script = f"""
from amoebadim.cli import main
assert main({argv!r}) == {code}
"""
        loaded = self.loaded_by(tmp_path, script)
        assert "amoebadim.subspace_search" in loaded
        assert "numpy" not in loaded

    @pytest.mark.parametrize("call", [
        "estimate_rank(parse_parametrization(MOMENT), trials=0)",
        "estimate_rank_implicit(parse_implicit(LINE2), seed=-1)",
        "estimate_rank_implicit(parse_implicit(LINE2), tol='x')",
    ], ids=("trials", "seed", "tol"))
    def test_parameter_refusal_loads_no_numpy(self, tmp_path, call):
        # the library estimators refuse a bad parameter before any work
        script = f"""
from amoebadim.estimator import estimate_rank, estimate_rank_implicit, \\
    parse_implicit, parse_parametrization
MOMENT, LINE2 = {MOMENT_DOC!r}, {LINE2_DOC!r}
try:
    {call}
except ValueError:
    pass
else:
    raise AssertionError("not refused")
"""
        loaded = self.loaded_by(tmp_path, script)
        assert "amoebadim.estimator" in loaded
        assert loaded.isdisjoint({"amoebadim.roots", "numpy"})

    def test_dir_imports_no_submodule(self, monkeypatch):
        # in-process, with the submodules hidden from sys.modules, so a
        # `dir` that resolved an export would import one afresh
        import amoebadim

        for name in [m for m in sys.modules if m.startswith("amoebadim.")]:
            monkeypatch.delitem(sys.modules, name)
        assert set(amoebadim.__all__) <= set(dir(amoebadim))
        assert not [m for m in sys.modules if m.startswith("amoebadim.")]

    def test_every_export_resolves(self, tmp_path):
        script = """
import sys
import amoebadim
assert set(amoebadim.__all__) <= set(dir(amoebadim))
from amoebadim import *
assert amoebadim.__all__ == sorted(set(amoebadim.__all__))
for name in amoebadim.__all__:
    value = globals()[name]
    assert value is getattr(sys.modules[value.__module__], name), name
try:
    amoebadim.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""
        assert "numpy" not in self.loaded_by(tmp_path, script)

    # Run by `python -m`, so nothing but the command's own imports has
    # loaded the module whose exception picks the exit code.
    @pytest.mark.parametrize("argv,code,error", [
        (("dim", "h3.json", "--strategy", "exhaustive", "--height", "4"), 3,
         "exhaustive enumeration refused for n=3, height=4 "
         "(R^3 admits height ≤ 3)"),
        (("estimate", "zero.json", "--kind", "param"), 4,
         "all 20 samples were rejected"),
        (("verify", "line.json", "zero.json", "--kind", "param"), 4,
         "all 20 samples were rejected"),
        (("estimate", "huge.json", "--kind", "implicit"), 3,
         "implicit input refused: degree 1000000 in x2 "
         "(at most 64 is solved for)"),
    ], ids=("dim", "estimate", "verify", "degree"))
    def test_refusal_exit_codes_in_a_fresh_process(self, tmp_path, argv,
                                                   code, error):
        hyperplane_file(tmp_path, 3)
        assert main(["gen", "orbit", "1", "e1",
                     "--output", str(tmp_path / "line.json")]) == 0
        write(tmp_path, "zero.json", ZERO_DOC)
        write(tmp_path, "huge.json", HUGE_DEGREE_DOC)
        proc = subprocess.run(
            [sys.executable, "-m", "amoebadim.cli", *argv], cwd=tmp_path,
            capture_output=True, encoding="utf-8", env=child_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (code, "", f"error: {error}\n")

    def test_runtime_error_without_exit_code_propagates(self, monkeypatch,
                                                        capsys, h3_file):
        # only a refusal carries an exit code; `cmd_dim` imports
        # `amoeba_dim` at call time, so the cached parser sees the patch
        def boom(sigma, strategy=None):
            raise RuntimeError("boom")

        monkeypatch.setattr("amoebadim.subspace_search.amoeba_dim", boom)
        with pytest.raises(RuntimeError, match="^boom$"):
            main(["dim", h3_file])
        assert capsys.readouterr() == ("", "")

    @staticmethod
    def main_in_one_interpreter(tmp_path, calls):
        """(exit code, stdout, stderr) of `main` on each argv in `calls`,
        one after another in one fresh interpreter."""
        script = f"""
import contextlib, io, json
from amoebadim.cli import main
results = []
for argv in {list(calls)!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    results.append((code, out.getvalue(), err.getvalue()))
print(json.dumps(results))
"""
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        return [tuple(result) for result in json.loads(proc.stdout)]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_sharing_the_parser_answer_as_alone(self, tmp_path):
        hyperplane_file(tmp_path, 2)
        hyperplane_file(tmp_path, 3)
        write(tmp_path, "moment.json", MOMENT_DOC)
        write(tmp_path, "line2.json", LINE2_DOC)
        calls = [argv for argv, _ in SHARED_PARSER_CALLS]
        shared = self.main_in_one_interpreter(tmp_path, calls)
        alone = [self.main_in_one_interpreter(tmp_path, [argv])[0]
                 for argv in calls]
        assert shared == alone
        assert [code for code, _, _ in shared] == \
            [code for _, code in SHARED_PARSER_CALLS]

    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
