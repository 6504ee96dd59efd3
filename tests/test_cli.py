import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from amoebadim.cli import main, parse_vector_list
from amoebadim.families import torus_invariant, tropical_hyperplane
from amoebadim.polyhedral import parse_complex, product
from amoebadim.rational_linalg import canonicalize

from conftest import child_env

MOMENT_DOC = json.dumps({
    "domain_dim": 1, "ambient_dim": 2,
    "components": [
        {"terms": [{"coeff": ["1", "0"], "exponents": [1]}]},
        {"terms": [{"coeff": ["1", "0"], "exponents": [2]}]},
    ],
})

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

# (t, t^2, t^3)
MOMENT3_DOC = json.dumps({
    "domain_dim": 1, "ambient_dim": 3,
    "components": [
        {"terms": [{"coeff": ["1", "0"], "exponents": [e]}]}
        for e in (1, 2, 3)
    ],
})

PLANE_DOC = json.dumps({
    "ambient_dim": 3,
    "polynomial": {"terms": [
        {"coeff": ["1", "0"], "exponents": [1, 0, 0]},
        {"coeff": ["1", "0"], "exponents": [0, 1, 0]},
        {"coeff": ["1", "0"], "exponents": [0, 0, 1]},
        {"coeff": ["1", "0"], "exponents": [0, 0, 0]},
    ]},
})


def plane_doc_with(coeff=None, exponent=None):
    """PLANE_DOC with its first term's real coefficient or first exponent
    replaced."""
    doc = json.loads(PLANE_DOC)
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

DATA = Path(__file__).parent / "data"

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def h3_file(tmp_path, capsys):
    path = str(tmp_path / "h3.json")
    assert main(["gen", "hyperplane", "3", "--output", path]) == 0
    capsys.readouterr()
    return path


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

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_vector_list("one,two", 2)
        with pytest.raises(ValueError):
            parse_vector_list("1/0,1", 2)


class TestRunConfig:
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
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "cannot read" not in err
            if "--seed" in argv:
                assert "seed" in err

    def test_flags_need_strategy(self, capsys, h3_file):
        code, out, err = run(capsys, "dim", h3_file, "--cap", "10")
        assert (code, out) == (2, "")
        assert "--strategy" in err

    def test_kind_specific_flags(self, capsys, h3_file):
        code, out, err = run(capsys, "dim", h3_file, "--strategy", "lattice",
                             "--height", "2")
        assert (code, out) == (2, "")
        assert "height" in err
        code, out, err = run(capsys, "dim", h3_file, "--strategy",
                             "exhaustive", "--cap", "10")
        assert (code, out) == (2, "")
        assert "cap" in err


class TestGen:
    def test_hyperplane(self, capsys):
        code, out, err = run(capsys, "gen", "hyperplane", "3")
        assert code == 0
        assert parse_complex(out) == tropical_hyperplane(3)

    def test_orbit(self, capsys):
        code, out, _ = run(capsys, "gen", "orbit", "2", "1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"ambient_dim": 2, "cells": [{"span": [["1", "2"]]}]}

    def test_curve_with_unit_syntax(self, capsys):
        code, out, _ = run(capsys, "gen", "curve", "3", "e1;e2;e3;-1,-1,-1")
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
        code, out, _ = run(capsys, "gen", "torus_invariant", fan, "e1")
        assert code == 0
        expected = torus_invariant(
            parse_complex((tmp_path / "c.json").read_text()),
            canonicalize(4, [(1, 0, 0, 0)]),
        )
        assert parse_complex(out) == expected

    def test_product(self, capsys, tmp_path, h3_file):
        code, out, _ = run(capsys, "gen", "product", h3_file, h3_file)
        assert code == 0
        h3 = tropical_hyperplane(3)
        assert parse_complex(out) == product(h3, h3)

    def test_output_file(self, capsys, tmp_path):
        path = str(tmp_path / "out.json")
        code, out, _ = run(capsys, "gen", "hyperplane", "2", "--output", path)
        assert code == 0
        assert out == ""
        assert parse_complex((tmp_path / "out.json").read_text()) == \
            tropical_hyperplane(2)

    @pytest.mark.parametrize("command", ["gen", "dim"])
    def test_unwritable_output(self, capsys, tmp_path, h3_file, command):
        path = str(tmp_path / "missing" / "out.json")
        argv = ["gen", "hyperplane", "2"] if command == "gen" \
            else ["dim", h3_file]
        code, out, err = run(capsys, *argv, "--output", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

    def test_deterministic(self, capsys):
        a = run(capsys, "gen", "hyperplane", "4")
        b = run(capsys, "gen", "hyperplane", "4")
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
        code, out, err = run(capsys, *argv)
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
        code, out, err = run(capsys, "gen", "torus_invariant", h3_file,
                             "1,1,1")
        assert code == 2
        assert out == ""
        assert "impure" in err


class TestDim:
    def test_hyperplane_file(self, capsys, h3_file):
        code, out, _ = run(capsys, "dim", h3_file)
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
        code, out, _ = run(capsys, "dim", fan)
        doc = json.loads(out)
        assert (code, doc["value"], doc["certified"]) == (0, 2, True)

    def test_strategy_flags_reach_the_search(self, capsys, h3_file):
        code, out, _ = run(capsys, "dim", h3_file, "--strategy",
                           "exhaustive", "--height", "2")
        assert code == 0
        assert json.loads(out)["strategy"] == "exhaustive(height=2)"
        code, out, _ = run(capsys, "dim", h3_file, "--strategy", "lattice",
                           "--cap", "50")
        assert json.loads(out)["strategy"] == "lattice(cap=50)"

    def test_byte_identical_reruns(self, capsys, h3_file):
        a = run(capsys, "dim", h3_file)
        b = run(capsys, "dim", h3_file)
        assert a == b

    def test_impure_file_rejected(self, capsys, tmp_path):
        fan = write(tmp_path, "impure.json", json.dumps({
            "ambient_dim": 2,
            "cells": [{"span": [["1", "0"]]},
                      {"span": [["1", "0"], ["0", "1"]]}],
        }))
        code, out, err = run(capsys, "dim", fan)
        assert (code, out) == (2, "")
        assert err != ""

    def test_missing_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "dim", str(tmp_path / "absent.json"))
        assert (code, out) == (2, "")

    def test_boolean_entries_rejected(self, capsys, tmp_path):
        fan = write(tmp_path, "bool.json",
                    '{"ambient_dim": 2, "cells": [{"span": [[true, false]]}]}')
        code, out, err = run(capsys, "dim", fan)
        assert (code, out) == (2, "")
        assert "rational" in err

    def test_resource_limit_exit(self, capsys, tmp_path):
        path = str(tmp_path / "h7.json")
        assert main(["gen", "hyperplane", "7", "--output", path]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "dim", path, "--strategy", "exhaustive")
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("n,height", [(7, "1"), (3, "4")])
    def test_refused_height_exits_3(self, capsys, tmp_path, n, height):
        path = str(tmp_path / "h.json")
        assert main(["gen", "hyperplane", str(n), "--output", path]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "dim", path, "--strategy", "exhaustive",
                             "--height", height)
        assert (code, out) == (3, "")
        assert f"refused for n={n}, height={height}" in err

    def test_exhaustive_height_zero_above_the_limit(self, capsys, tmp_path):
        path = str(tmp_path / "h7.json")
        assert main(["gen", "hyperplane", "7", "--output", path]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "dim", path, "--strategy", "exhaustive",
                           "--height", "0")
        assert code == 0
        assert json.loads(out)["value"] == 7

    def test_cap_below_cell_count_refused(self, capsys, tmp_path):
        # the search never needs the closure on h5, but the cap is still
        # checked against its 15 cells
        path = str(tmp_path / "h5.json")
        assert main(["gen", "hyperplane", "5", "--output", path]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "dim", path, "--strategy", "lattice",
                             "--cap", "3")
        assert (code, out) == (2, "")
        assert "cap 3 below number of cells + 2 = 17" in err

    def test_cap_without_strategy(self, capsys, h3_file):
        code, out, _ = run(capsys, "dim", h3_file, "--cap", "10")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("name", GOLDEN)
    def test_golden_output(self, capsys, name):
        code, out, _ = run(capsys, "dim", str(DATA / f"{name}.fan.json"))
        assert code == 0
        assert out == (DATA / f"{name}.dim.json").read_text()


class TestEstimate:
    def test_param(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        code, out, _ = run(capsys, "estimate", path, "--kind", "param",
                           "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "rank", "samples_used", "singular_value_gap", "per_sample_ranks",
        ]
        assert doc["rank"] == 1
        assert doc["samples_used"] == 20

    def test_implicit_with_null_gap(self, capsys, tmp_path):
        path = write(tmp_path, "p.json", PLANE_DOC)
        code, out, _ = run(capsys, "estimate", path, "--kind", "implicit",
                           "--seed", "1")
        doc = json.loads(out)
        assert (code, doc["rank"]) == (0, 3)
        assert doc["singular_value_gap"] is None

    def test_seed_changes_samples_not_rank(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        outs = set()
        for seed in ("1", "2", "3"):
            code, out, _ = run(capsys, "estimate", path, "--kind", "param",
                               "--seed", seed)
            assert code == 0
            outs.add(out)
            assert json.loads(out)["rank"] == 1
        assert len(outs) == 3  # gaps differ even when ranks agree

    def test_deterministic(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        a = run(capsys, "estimate", path, "--kind", "param", "--seed", "9")
        b = run(capsys, "estimate", path, "--kind", "param", "--seed", "9")
        assert a == b

    def test_kind_is_required(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        code, out, _ = run(capsys, "estimate", path)
        assert (code, out) == (2, "")

    def test_parameter_validation(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        assert run(capsys, "estimate", path, "--kind", "param",
                   "--trials", "0")[0] == 2
        assert run(capsys, "estimate", path, "--kind", "param",
                   "--tol", "2")[0] == 2

    def test_all_samples_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "z.json", ZERO_DOC)
        code, out, err = run(capsys, "estimate", path, "--kind", "param")
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
        code, out, err = run(capsys, "estimate", path, "--kind", "implicit")
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
        code, out, _ = run(capsys, "estimate", path, "--kind", "implicit",
                           "--seed", "1")
        assert code == 0
        assert json.loads(out)["per_sample_ranks"] == [1] * 20

    def test_wrong_kind_for_file(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", MOMENT_DOC)
        code, out, _ = run(capsys, "estimate", path, "--kind", "implicit")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_DOCS))
    def test_out_of_range_numbers(self, capsys, tmp_path, case):
        path = write(tmp_path, "p.json", OUT_OF_RANGE_DOCS[case])
        code, out, err = run(capsys, "estimate", path, "--kind", "implicit")
        assert (code, out) == (2, "")
        assert "out of the" in err


class TestVerify:
    def test_agreeing_pair(self, capsys, tmp_path, h3_file):
        variety = write(tmp_path, "p.json", PLANE_DOC)
        code, out, _ = run(capsys, "verify", h3_file, variety,
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
        code, out, _ = run(capsys, "verify", h3_file, variety,
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
        code, out, _ = run(capsys, "verify", fan, variety, "--kind", "param",
                           "--strategy", "exhaustive", "--height", "1",
                           "--seed", "2")
        assert code == 0
        assert json.loads(out)["verdict"] == "agree"

    @pytest.mark.parametrize("kind,doc", [("param", MOMENT_DOC),
                                          ("implicit", PLANE_DOC)])
    def test_ambient_dimensions_must_match(self, capsys, tmp_path, kind,
                                           doc):
        # a fan in R^1 against a variety in (C*)^2 or (C*)^3
        fan = write(tmp_path, "r1.json", json.dumps({
            "ambient_dim": 1, "cells": [{"span": [["1"]]}],
        }))
        variety = write(tmp_path, "v.json", doc)
        ambient = json.loads(doc)["ambient_dim"]
        code, out, err = run(capsys, "verify", fan, variety, "--kind", kind,
                             "--seed", "1")
        assert (code, out) == (2, "")
        assert "R^1" in err and f"(C*)^{ambient}" in err

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_DOCS))
    def test_out_of_range_numbers(self, capsys, tmp_path, h3_file, case):
        variety = write(tmp_path, "p.json", OUT_OF_RANGE_DOCS[case])
        code, out, err = run(capsys, "verify", h3_file, variety,
                             "--kind", "implicit")
        assert (code, out) == (2, "")
        assert "out of the" in err

    def test_stable_across_seeds(self, capsys, tmp_path, h3_file):
        variety = write(tmp_path, "p.json", PLANE_DOC)
        for seed in ("1", "2", "3"):
            code, out, _ = run(capsys, "verify", h3_file, variety,
                               "--kind", "implicit", "--seed", seed)
            assert code == 0
            assert json.loads(out)["verdict"] == "agree"


NUMERICAL_SIDE = {"amoebadim.estimator", "amoebadim.roots", "numpy"}
EXACT_SIDE = {"amoebadim.rational_linalg", "amoebadim.polyhedral",
              "amoebadim.subspace_search", "amoebadim.families"}


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

    @staticmethod
    def loaded_by(tmp_path, script):
        """The `amoebadim.*` submodules and numpy that a fresh interpreter
        has loaded after running `script`."""
        script += """
import sys
print(*sorted(m for m in sys.modules
              if m == "numpy" or m.startswith("amoebadim.")))
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
        assert main(["gen", "hyperplane", "3",
                     "--output", str(tmp_path / "h3.json")]) == 0
        loaded = self.command_loads(tmp_path, *argv)
        assert "amoebadim.polyhedral" in loaded
        assert loaded.isdisjoint(NUMERICAL_SIDE)

    def test_estimate_does_not_load_the_exact_search(self, tmp_path):
        write(tmp_path, "moment.json", MOMENT_DOC)
        loaded = self.command_loads(tmp_path, "estimate", "moment.json",
                                    "--kind", "param")
        assert "numpy" in loaded
        assert loaded.isdisjoint(EXACT_SIDE)

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
         "(supported: n ≤ 6, height ≤ 3)"),
        (("estimate", "zero.json", "--kind", "param"), 4,
         "all 20 samples were rejected"),
        (("verify", "line.json", "zero.json", "--kind", "param"), 4,
         "all 20 samples were rejected"),
    ], ids=("dim", "estimate", "verify"))
    def test_refusal_exit_codes_in_a_fresh_process(self, tmp_path, argv,
                                                   code, error):
        assert main(["gen", "hyperplane", "3",
                     "--output", str(tmp_path / "h3.json")]) == 0
        assert main(["gen", "orbit", "1", "e1",
                     "--output", str(tmp_path / "line.json")]) == 0
        write(tmp_path, "zero.json", ZERO_DOC)
        proc = subprocess.run(
            [sys.executable, "-m", "amoebadim.cli", *argv], cwd=tmp_path,
            capture_output=True, encoding="utf-8", env=child_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (code, "", f"error: {error}\n")

    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
