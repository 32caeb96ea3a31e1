import argparse
import ast
import inspect
import json
import os
import resource
import subprocess
import sys

import pytest

import fatpointlab

from fatpointlab import bounds, cli, exact, partition, schemes
from fatpointlab.cli import (
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SKIPPED,
    EXIT_USAGE,
    REPRODUCE_OPTIONS,
    build_parser,
    main,
)
from fatpointlab.exact import ExactMatrix, ScalarField
from fatpointlab.generators import (
    collinear_points,
    generic_vectors_matroid,
    random_points,
    rng_from_seed,
)
from fatpointlab.instances import (
    InstanceError,
    canonical_json,
    field_from_descriptor,
    scheme_from_dict,
    scheme_to_dict,
    vectors_to_dict,
)
from fatpointlab.matroid import VectorMatroid
from fatpointlab.partition import PartitionCertificate
from fatpointlab.schemes import FatPointScheme
from oracles import general_position_exhaustive

QQ = ScalarField.rational()


def write_json(path, data):
    path.write_text(canonical_json(data))
    return str(path)


class TestInstances:
    def test_field_descriptors(self):
        assert field_from_descriptor("rational").is_rational
        assert field_from_descriptor("prime:10007").p == 10007
        for bad in ("prime:10", "prime:x", "float", 7):
            with pytest.raises(InstanceError):
                field_from_descriptor(bad)

    def test_scheme_round_trip(self):
        x = FatPointScheme(QQ, 2, [(("1/2", 1, 0), 2), ((0, 0, 1), 1)])
        d = scheme_to_dict(x, seed=7, generator="test")
        y = scheme_from_dict(d)
        assert y.points == x.points and y.n == x.n
        assert scheme_to_dict(y, seed=7, generator="test") == d

    def test_malformed_rejected(self):
        with pytest.raises(InstanceError):
            scheme_from_dict({"field": "rational", "ambient_dim": 2, "points": [
                {"coords": ["1", "oops", "0"], "mult": 1}]})
        with pytest.raises(InstanceError):
            scheme_from_dict({"field": "rational", "ambient_dim": 2, "points": [
                {"coords": ["0", "0", "0"], "mult": 1}]})

    def test_scheme_point_written_as_string_is_usage_error(self, tmp_path):
        data = {"kind": "scheme", "field": "rational", "ambient_dim": 1,
                "points": [{"coords": "12", "mult": 1}]}
        inst = write_json(tmp_path / "x.json", data)
        proc = run_python("-m", "fatpointlab.cli", "verify", inst)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == ("error: malformed scheme instance: coords of point 0 "
                               "must be a list, got '12'\n")
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("field", ["rational", "prime:101"])
    @pytest.mark.parametrize("coords, mult, dim, message", [
        ('[1e400, "0", "1"]', '2', '2', "coordinate 0 of point 0 must be an integer or a "
                                        "string, got inf"),
        ('["1", 0.5, "1"]', '2', '2', "coordinate 1 of point 0 must be an integer or a "
                                      "string, got 0.5"),
        ('["1", "0", "1"]', '2.7', '2', "mult of point 0 must be an integer or a string, "
                                        "got 2.7"),
        ('["1", "0", "1"]', 'true', '2', "mult of point 0 must be an integer or a string, "
                                         "got True"),
        ('["1", "0", "1"]', '2', '2.9', "ambient_dim must be an integer or a string, got 2.9"),
    ], ids=["inf-coordinate", "float-coordinate", "float-mult", "bool-mult", "float-dim"])
    def test_scheme_floats_and_booleans_are_usage_errors(self, tmp_path, field, coords, mult,
                                                         dim, message):
        # JSON floats are rounded in binary (1e400 reads as inf) and booleans
        # are ints in Python: refused, never coerced
        path = tmp_path / "x.json"
        path.write_text('{"kind": "scheme", "field": "%s", "ambient_dim": %s, "points": '
                        '[{"coords": %s, "mult": %s}]}' % (field, dim, coords, mult))
        proc = run_python("-m", "fatpointlab.cli", "verify", str(path))
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: malformed scheme instance: %s\n" % message
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("field", ["rational", "prime:101"])
    @pytest.mark.parametrize("vectors, message", [
        ('[["1", "2"], ["3", 1e400]]', "coordinate 1 of vector 1 must be an integer or a "
                                       "string, got inf"),
        ('[[true, "2"], ["3", "4"]]', "coordinate 0 of vector 0 must be an integer or a "
                                      "string, got True"),
    ], ids=["inf-coordinate", "bool-coordinate"])
    def test_vectors_floats_and_booleans_are_usage_errors(self, tmp_path, field, vectors,
                                                          message):
        path = tmp_path / "v.json"
        path.write_text('{"kind": "vectors", "field": "%s", "dim": 2, "vectors": %s}'
                        % (field, vectors))
        proc = run_python("-m", "fatpointlab.cli", "partition", str(path), "--k", "1")
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: malformed vector instance: %s\n" % message
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_strings_and_integers_are_read(self):
        x = scheme_from_dict({"field": "prime:101", "ambient_dim": "2", "points": [
            {"coords": [1, "1/2", "0"], "mult": "2"}, {"coords": ["0", 1, 0], "mult": 3}]})
        assert x.n == 2 and x.mults == (2, 3)
        assert x.points[0][0] == (1, 51, 0)


class TestGenVerify:
    def test_round_trip_and_determinism(self, tmp_path):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = ["gen", "--kind", "generic", "--n", "2", "--s", "4", "--seed", "5"]
        assert main(args + ["--out", out1]) == EXIT_OK
        assert main(args + ["--out", out2]) == EXIT_OK
        assert open(out1).read() == open(out2).read()
        report = str(tmp_path / "report.json")
        code = main(["verify", out1, "--checks", "main-theorem,cardinality",
                     "--out", report])
        assert code == EXIT_OK
        data = json.loads(open(report).read())
        assert data["failed"] == 0 and data["passed"] == 2

    def test_verify_skips_guarded_checks(self, tmp_path):
        # 13 support points trip the modified bound's subset guard; nothing fails
        x = FatPointScheme(QQ, 2, [(p, 1) for p in collinear_points(2, 13)])
        inst = write_json(tmp_path / "big.json", scheme_to_dict(x))
        report = str(tmp_path / "report.json")
        code = main(["verify", inst, "--checks", "main-theorem,modified",
                     "--out", report])
        assert code == EXIT_SKIPPED
        data = json.loads(open(report).read())
        assert "skipped" in data["checks"]["modified"]
        assert data["checks"]["main-theorem"]["pass"] is True

    def test_verify_cardinality_on_15_copies(self, tmp_path):
        # total multiplicity 15 once tripped a size guard; it is checked now
        pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
        x = FatPointScheme(QQ, 2, [(p, 3) for p in pts])
        inst = write_json(tmp_path / "big.json", scheme_to_dict(x))
        report = str(tmp_path / "report.json")
        code = main(["verify", inst, "--checks", "main-theorem,cardinality",
                     "--out", report])
        assert code == EXIT_OK
        data = json.loads(open(report).read())
        assert data["checks"]["cardinality"] == {"pass": True, "segre": 7}
        assert data["checks"]["main-theorem"]["pass"] is True

    def test_verify_enumerates_flats_once(self, tmp_path, monkeypatch):
        # the regularity search's heaviest line, main-theorem's Segre bound
        # and cardinality's read one walk of the scheme's flats
        calls = []
        enumerate_flats = schemes.flat_levels

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_flats(*args, **kwargs)

        monkeypatch.setattr(schemes, "flat_levels", counting)
        pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
        x = FatPointScheme(QQ, 2, [(p, 2) for p in pts])
        inst = write_json(tmp_path / "x.json", scheme_to_dict(x))
        assert main(["verify", inst, "--checks", "main-theorem,cardinality",
                     "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert len(calls) == 1

    def test_main_theorem_past_the_flat_guard_is_skipped(self, tmp_path):
        x = FatPointScheme(QQ, 2, [(p, 1) for p in collinear_points(2, 25)])
        inst = write_json(tmp_path / "x.json", scheme_to_dict(x))
        report = str(tmp_path / "report.json")
        assert main(["verify", inst, "--checks", "main-theorem", "--out", report]) == EXIT_SKIPPED
        data = json.loads(open(report).read())
        assert data["checks"] == {
            "main-theorem": {"skipped": "ground set too large for exhaustive flat enumeration"}}
        assert (data["passed"], data["failed"], data["skipped"]) == (0, 0, 1)

    @pytest.mark.parametrize("mult, check, size", [
        (300, "main-theorem", "45150 x 45150 = 2038522500 cells in degree 299"),
        (3000, "main-theorem", "4501500 x 4501500 = 20263502250000 cells in degree 2999"),
        (20, "veronese", "42504 x 42504 = 1806590016 cells in degree 19"),
    ], ids=["m300-main-theorem", "m3000-main-theorem", "m20-veronese"])
    def test_conditions_matrix_past_its_guard_is_skipped(self, tmp_path, mult, check, size):
        # one fat point of P^2 whose climb (for veronese: its lift's climb)
        # would build a matrix of gigabytes: the guard trips before any of
        # it is built.  The process is capped at 3 GiB, so a missing guard
        # ends in a MemoryError (exit 1) and not in swapping
        x = FatPointScheme(QQ, 2, [((1, 2, 3), mult)])
        inst = write_json(tmp_path / "x.json", scheme_to_dict(x))
        proc = run_python("-m", "fatpointlab.cli", "verify", inst, "--checks", check, "--d", "2",
                          address_space=3 * 2**30)
        assert proc.returncode == EXIT_SKIPPED, proc.stderr
        assert json.loads(proc.stdout)["checks"] == {check: {"skipped": (
            "conditions matrix too large: %s (CONDITIONS_MATRIX_GUARD = %d)"
            % (size, schemes.CONDITIONS_MATRIX_GUARD))}}

    def test_main_theorem_on_a_point_of_p1500(self, tmp_path):
        # monomials in 1501 variables once recursed once per variable
        x = FatPointScheme(QQ, 1500, [(range(1, 1502), 1)])
        inst = write_json(tmp_path / "x.json", scheme_to_dict(x))
        report = str(tmp_path / "report.json")
        proc = run_python("-m", "fatpointlab.cli", "verify", inst, "--checks", "main-theorem",
                          "--out", report)
        assert proc.returncode == EXIT_OK, proc.stderr
        data = json.loads(open(report).read())
        assert data["checks"]["main-theorem"]["reg_index"] == 0

    def test_single_point_skips_two_point_checks(self, tmp_path):
        x = FatPointScheme(QQ, 2, [((1, 2, 3), 2)])
        inst = write_json(tmp_path / "one.json", scheme_to_dict(x))
        report = str(tmp_path / "report.json")
        assert main(["verify", inst, "--out", report]) == EXIT_SKIPPED
        data = json.loads(open(report).read())
        assert data["failed"] == 0 and data["skipped"] == 2
        assert set(data["checks"]["ctv"]) == set(data["checks"]["modified"]) == {"skipped"}

    def test_invalid_input_is_not_skipped(self, tmp_path):
        # derivative conditions of order 3 at degree >= 5 need p > 5: a
        # precondition violation, reported as an error instead of a skip
        x = FatPointScheme(ScalarField.prime(5), 2, [((1, 0, 0), 4), ((0, 1, 0), 4)])
        inst = write_json(tmp_path / "f5.json", scheme_to_dict(x))
        proc = run_python("-m", "fatpointlab.cli", "verify", inst, "--checks", "main-theorem")
        assert proc.returncode == EXIT_USAGE
        # the degree an ascending search meets first, although the search
        # starts at the line bound 7
        assert proc.stderr == "error: prime field too small for derivative conditions at degree 5\n"
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_scheme_without_points_is_usage_error(self, tmp_path):
        data = {"kind": "scheme", "field": "rational", "ambient_dim": 2, "points": []}
        inst = write_json(tmp_path / "empty.json", data)
        proc = run_python("-m", "fatpointlab.cli", "verify", inst, "--checks", "veronese")
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: scheme must have at least one point\n"
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_verify_all_default_checks(self, tmp_path):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 1), ((1, 1, 1), 1)])
        inst = write_json(tmp_path / "x.json", scheme_to_dict(x))
        report = str(tmp_path / "r.json")
        code = main(["verify", inst, "--out", report])
        assert code == EXIT_OK
        data = json.loads(open(report).read())
        assert data["failed"] == 0 and data["passed"] == 5

    def test_veronese_on_a_100_digit_coordinate(self, tmp_path, monkeypatch):
        # every rank over Q from _NUMPY_MIN_CELLS cells on is certified from
        # modular data, however many primes its kernel entries need
        bareiss = exact._bareiss_echelon

        def small_only(rows, p=None):
            if len(rows) * len(rows[0]) >= exact._NUMPY_MIN_CELLS:
                raise AssertionError("fraction-free echelon of %d x %d" % (len(rows), len(rows[0])))
            return bareiss(rows, p)

        monkeypatch.setattr(exact, "_bareiss_echelon", small_only)
        x = FatPointScheme(QQ, 2, [((10**100, 7, 1), 3), ((1, 1, 1), 2)])
        inst = write_json(tmp_path / "x.json", scheme_to_dict(x))
        report = str(tmp_path / "r.json")
        assert main(["verify", inst, "--checks", "veronese", "--out", report]) == EXIT_OK
        data = json.loads(open(report).read())
        assert data["checks"]["veronese"] == {"lifted_reg_index": 4, "pass": True, "reg_index": 4}

    def test_unknown_check_is_usage_error(self, tmp_path):
        x = FatPointScheme(QQ, 1, [((1, 0), 1), ((0, 1), 1)])
        inst = write_json(tmp_path / "x.json", scheme_to_dict(x))
        assert main(["verify", inst, "--checks", "nope"]) == EXIT_USAGE

    def test_malformed_instance_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", str(bad)]) == EXIT_USAGE

    def test_csv_and_table_formats(self, tmp_path):
        x = FatPointScheme(QQ, 1, [((1, 0), 1), ((0, 1), 1)])
        inst = write_json(tmp_path / "x.json", scheme_to_dict(x))
        csv_out = str(tmp_path / "r.csv")
        main(["verify", inst, "--checks", "main-theorem", "--format", "csv",
              "--out", csv_out])
        text = open(csv_out).read()
        assert text.startswith("key,value")
        assert "checks.main-theorem.pass" in text
        table_out = str(tmp_path / "r.txt")
        main(["verify", inst, "--checks", "main-theorem", "--format", "table",
              "--out", table_out])
        assert "checks.main-theorem.pass" in open(table_out).read()


class TestPartitionCommand:
    def test_scheme_instance_feasible(self, tmp_path):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 2)])
        inst = write_json(tmp_path / "x.json", scheme_to_dict(x))
        out = str(tmp_path / "cert.json")
        code = main(["partition", inst, "--k", "2", "--out", out])
        assert code == EXIT_OK
        data = json.loads(open(out).read())
        assert data["infeasible"] is False and len(data["blocks"]) == 2

    def test_vectors_instance_infeasible(self, tmp_path):
        d = vectors_to_dict(QQ, [(1, 1), (2, 2), (3, 3)])
        inst = write_json(tmp_path / "v.json", d)
        out = str(tmp_path / "w.json")
        code = main(["partition", inst, "--k", "2", "--out", out])
        assert code == EXIT_INFEASIBLE
        data = json.loads(open(out).read())
        assert data["infeasible"] is True and data["subset"] == [0, 1, 2]

    @pytest.mark.parametrize("vectors", [[["1", "2"], ["3"]], [["1"], ["2", "3"]], [[], []]],
                             ids=["short-last", "short-first", "empty"])
    def test_ragged_vectors_are_usage_errors(self, tmp_path, vectors):
        data = {"kind": "vectors", "field": "rational", "dim": 2, "vectors": vectors}
        inst = write_json(tmp_path / "v.json", data)
        proc = run_python("-m", "fatpointlab.cli", "partition", inst, "--k", "1")
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == ("error: malformed vector instance: columns must be nonempty "
                               "and of equal length\n")
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("vectors, message", [
        ([["1", "2"], "34"], "vector 1 must be a list, got '34'"),
        ("12", "vectors must be a list, got '12'"),
    ], ids=["string-vector", "string-list"])
    def test_string_vectors_are_usage_errors(self, tmp_path, vectors, message):
        # a string is iterable, but its characters are no coordinates
        data = {"kind": "vectors", "field": "rational", "vectors": vectors}
        inst = write_json(tmp_path / "v.json", data)
        proc = run_python("-m", "fatpointlab.cli", "partition", inst, "--k", "1")
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: malformed vector instance: %s\n" % message
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_avoidance_mode(self, tmp_path):
        d = vectors_to_dict(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                                 (1, 2, 3), (1, 4, 9)])
        inst = write_json(tmp_path / "v.json", d)
        out = str(tmp_path / "cert.json")
        code = main(["partition", inst, "--mode", "avoidance", "--k", "3",
                     "--p", "1", "--tail", "0", "--out", out])
        assert code == EXIT_OK
        data = json.loads(open(out).read())
        assert data["avoidance"] == [{"element": 0, "block": 0}]

    def test_avoidance_on_18_vectors(self, tmp_path):
        # above the old 16-element limit of the hypothesis check
        m = generic_vectors_matroid(rng_from_seed(7), 4, 18)
        vectors = [m.matrix.column(j) for j in range(len(m))]
        inst = write_json(tmp_path / "v.json", vectors_to_dict(QQ, vectors))
        out = str(tmp_path / "cert.json")
        code = main(["partition", inst, "--mode", "avoidance", "--k", "5", "--p", "2",
                     "--tail", "3,11", "--out", out])
        assert code == EXIT_OK
        data = json.loads(open(out).read())
        cert = PartitionCertificate(
            tuple(frozenset(b) for b in data["blocks"]), [m] * 5, frozenset(m.elements),
            ambient=m, avoidance=tuple((a["element"], a["block"]) for a in data["avoidance"]),
        )
        assert cert.verify() and cert.avoidance == ((3, 0), (11, 1))

    def test_avoidance_hypothesis_violation_is_usage_error(self, tmp_path, capsys):
        d = vectors_to_dict(QQ, [(1, 1), (2, 2), (3, 3), (0, 1)])
        inst = write_json(tmp_path / "v.json", d)
        code = main(["partition", inst, "--mode", "avoidance", "--k", "2", "--p", "1",
                     "--tail", "3"])
        assert code == EXIT_USAGE
        assert "hypothesis" in capsys.readouterr().err


class TestReproduce:
    def test_example_28(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["reproduce", "2.8", "--out", out]) == EXIT_OK
        data = json.loads(open(out).read())
        assert data["pass"] is True
        assert data["results"]["hypothesis_holds"] is True
        assert data["results"]["qualifying_set_exists"] is False

    def test_sharpness(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["reproduce", "4.6-sharpness", "--out", out]) == EXIT_OK
        data = json.loads(open(out).read())
        for entry in data["results"].values():
            assert entry["reg_index"] == entry["segre"]

    def test_veronese_scenario(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["reproduce", "5.4-veronese", "--out", out]) == EXIT_OK
        data = json.loads(open(out).read())
        assert data["results"]["lifted_reg_index"] == 1

    def test_generic_scenario(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["reproduce", "5.6-generic", "--seed", "1", "--out", out]) == EXIT_OK
        data = json.loads(open(out).read())
        assert data["pass"] is True


class TestGenKinds:
    def test_rational_normal_curve(self, tmp_path):
        out = str(tmp_path / "x.json")
        code = main(["gen", "--kind", "rational-normal-curve", "--n", "3",
                     "--s", "4", "--mult", "2", "--out", out])
        assert code == EXIT_OK
        data = json.loads(open(out).read())
        assert data["kind"] == "scheme" and len(data["points"]) == 4
        assert all(p["mult"] == 2 for p in data["points"])

    def test_example_28_vectors(self, tmp_path):
        out = str(tmp_path / "v.json")
        code = main(["gen", "--kind", "example-2.8", "--t", "4", "--k", "3",
                     "--p", "1", "--out", out])
        assert code == EXIT_OK
        data = json.loads(open(out).read())
        assert data["kind"] == "vectors" and len(data["vectors"]) == 8

    @pytest.mark.parametrize("argv, message", [
        (["--t", "0"], "needs t >= 2 lines, got t = 0"),
        (["--t", "1"], "needs t >= 2 lines, got t = 1"),
        (["--k", "2", "--p", "2"], "needs copies_per_line >= 1, got 0"),
    ], ids=["t0", "t1", "no-copies"])
    def test_example_28_parameters_are_checked(self, argv, message):
        proc = run_python("-m", "fatpointlab.cli", "gen", "--kind", "example-2.8", *argv)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: generic_line_configuration %s\n" % message
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "rational-normal-curve", "--s", "0"], "scheme must have at least one point"),
        (["--kind", "collinear-cluster", "--s", "0"], "scheme must have at least one point"),
        (["--kind", "example-5.6-scaled", "--n", "1"],
         "five_plus_generic_scheme needs n >= 2, got n = 1"),
        (["--kind", "generic", "--s", "0"], "generic_points needs s >= 1 points, got s = 0"),
        (["--kind", "generic", "--n", "0", "--s", "3"], "generic_points needs n >= 1, got n = 0"),
        (["--kind", "generic", "--n", "-1", "--s", "1"], "generic_points needs n >= 1, got n = -1"),
        (["--kind", "example-5.6-scaled", "--d", "-1"],
         "five_plus_generic_scheme needs d >= 0, got d = -1"),
        (["--kind", "example-5.6-scaled", "--n", "2", "--d", "60"],
         "five_plus_generic_scheme would draw binom(n + d, n) = 1891 generic points of P^2, "
         "more than MAX_GENERIC_SETS = 10000000 sets of 3 of them to test"),
        (["--kind", "example-5.6-scaled", "--n", "4", "--d", "5"],
         "five_plus_generic_scheme would draw binom(n + d, n) = 126 generic points of P^4, "
         "more than MAX_GENERIC_SETS = 10000000 sets of 5 of them to test"),
        (["--kind", "collinear-cluster", "--s", "3", "--extra", "-1"],
         "collinear_cluster_points needs extra >= 0, got extra = -1"),
        (["--kind", "collinear-cluster", "--s", "-1", "--extra", "2"],
         "collinear_points needs s >= 0, got s = -1"),
    ], ids=["curve-s0", "cluster-s0", "example-5.6-n1", "generic-s0", "generic-n0", "generic-n-1",
            "example-5.6-d-1", "example-5.6-d60", "example-5.6-p4-d5", "cluster-extra-1",
            "cluster-s-1"])
    def test_unplaceable_parameters_are_usage_errors(self, argv, message):
        proc = run_python("-m", "fatpointlab.cli", "gen", *argv)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: %s\n" % message
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("kind, function", [
        ("collinear-cluster", "collinear_points"),
        ("rational-normal-curve", "rational_normal_curve_points"),
    ])
    def test_more_points_than_the_prime_field_has_parameters(self, kind, function):
        # the parameters t = 0..s-1 repeat modulo p, and so would the points
        proc = run_python("-m", "fatpointlab.cli", "gen", "--kind", kind, "--n", "2",
                          "--s", "4", "--field", "prime:3")
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: %s needs s <= p over F_p, got s = 4 > p = 3\n" % function
        assert proc.stdout == ""

    def test_generator_failure_is_usage_error(self):
        # an arc of P^2 over F_7 has at most 8 points, so 9 points are never
        # in general position, at any coordinate range
        proc = run_python("-m", "fatpointlab.cli", "gen", "--kind", "generic", "--n", "2",
                          "--s", "9", "--field", "prime:7")
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: could not certify linearly general position")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n, s", [(2, 20), (1, 70)])
    def test_generic_points_widen_their_range(self, n, s, tmp_path):
        # coordinates in 0..9 cannot put 20 points of P^2 in general
        # position, nor give 70 distinct points of P^1; the sampler goes on
        # at 0..99
        out = tmp_path / "x.json"
        code = main(["gen", "--kind", "generic", "--n", str(n), "--s", str(s),
                     "--out", str(out)])
        assert code == EXIT_OK
        x = scheme_from_dict(json.loads(out.read_text()))
        assert x.support_size == s
        assert max(max(map(int, key)) for key in x.keys) > 9
        m = VectorMatroid(ExactMatrix.from_columns(x.field, x.keys))
        assert general_position_exhaustive(m, m.elements, n + 1)

    def test_collinear_cluster_extras_are_off_the_line(self, tmp_path, capsys):
        # the former rule (the first three pool points that are not equal
        # tuples of a line point) is recomputed below; on the 29 seeds where
        # it already gave points off the line the file must not change
        changed = []
        for seed in range(41):
            out = tmp_path / ("%d.json" % seed)
            code = main(["gen", "--kind", "collinear-cluster", "--n", "2", "--s", "4",
                         "--extra", "3", "--seed", str(seed), "--out", str(out)])
            assert code == EXIT_OK, capsys.readouterr().err
            x = scheme_from_dict(json.loads(out.read_text()))
            line = collinear_points(2, 4)
            assert x.support_size == 7 and [c for c, _ in x.points[:4]] == line
            assert all(c[2] != 0 for c, _ in x.points[4:])
            pool = random_points(rng_from_seed(seed), 2, 7)
            earlier = [p for p in pool if p not in line][:3]
            if len(earlier) == 3 and all(p[2] != 0 for p in earlier):
                expected = FatPointScheme(QQ, 2, [(p, 1) for p in line + earlier])
                assert out.read_text() == canonical_json(
                    scheme_to_dict(expected, seed=seed, generator="collinear-cluster"))
            else:
                changed.append(seed)
        assert changed == [0, 6, 8, 10, 22, 23, 25, 26, 31, 34, 36, 39]

    def test_collinear_cluster_extras_need_a_plane(self, capsys):
        code = main(["gen", "--kind", "collinear-cluster", "--n", "1", "--s", "3",
                     "--extra", "1"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: could not place 1 distinct points off the line")

    def test_prime_field_gen(self, tmp_path):
        out = str(tmp_path / "x.json")
        code = main(["gen", "--kind", "generic", "--n", "2", "--s", "3",
                     "--field", "prime:10007", "--out", out])
        assert code == EXIT_OK
        data = json.loads(open(out).read())
        assert data["field"] == "prime:10007"


class TestOptions:
    def test_every_option_is_read_by_its_command(self):
        # an option that its cmd_* handler never reads as args.<dest> is
        # accepted and silently ignored
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        unread = []
        for name, sub in commands.choices.items():
            tree = ast.parse(inspect.getsource(sub.get_default("func")))
            read = {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"}
            dests = [a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            unread += ["%s %s" % (name, dest) for dest in dests if dest not in read]
        assert len(commands.choices) == 4
        assert unread == []

    @pytest.mark.parametrize("command, option", [
        ("verify", ["--field", "prime:7"]),
        ("verify", ["--seed", "3"]),
        ("partition", ["--k", "2", "--field", "prime:7"]),
        ("partition", ["--k", "2", "--seed", "3"]),
    ], ids=["verify-field", "verify-seed", "partition-field", "partition-seed"])
    def test_instance_commands_refuse_seed_and_field(self, command, option, tmp_path):
        # the instance file fixes the field, and these commands draw nothing
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 1), ((0, 1, 0), 1)])
        path = write_json(tmp_path / "x.json", scheme_to_dict(x, seed=0, generator="test"))
        proc = run_python("-m", "fatpointlab.cli", command, path, *option)
        assert proc.returncode == EXIT_USAGE
        assert "unrecognized arguments: %s" % " ".join(option[-2:]) in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("scenario, option", [
        (scenario, option) for scenario in REPRODUCE_OPTIONS for option in ("seed", "field")])
    def test_each_scenario_reads_or_refuses_seed_and_field(self, scenario, option,
                                                           monkeypatch, capsys):
        # the handler reads both options, but each scenario must read an
        # option it is given or refuse it, never run as if it were not given
        # the handlers import these at call time, so the spies sit on the
        # modules that define them
        seen = []
        readers = {
            (partition, "verify_partition_optimality_example"): lambda *args, seed: seed,
            (schemes, "veronese_inequality_check"): lambda x, d: x.field.p,
            (bounds, "reproduce_generic_example"): lambda seed: seed,
        }
        for (module, name), read in readers.items():
            def spy(*args, _run=getattr(module, name), _read=read, **kwargs):
                seen.append(_read(*args, **kwargs))
                return _run(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        value = {"seed": "3", "field": "prime:7"}[option]
        code = main(["reproduce", scenario, "--" + option, value])
        out, err = capsys.readouterr()
        if option in REPRODUCE_OPTIONS[scenario]:
            assert code == EXIT_OK
            assert seen == [{"seed": 3, "field": 7}[option]]
            assert json.loads(out)["seed"] == (3 if option == "seed" else 0)
        else:
            assert (code, out, seen) == (EXIT_USAGE, "", [])
            assert "error: reproduce %s does not take --%s" % (scenario, option) in err


def run_python(*args, address_space=None):
    """`python args` in a fresh interpreter that imports this checkout's package,
    its address space capped at ``address_space`` bytes if given."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fatpointlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120, preexec_fn=cap if address_space else None)


def run_cli_plain_and_optimized(argv):
    """(exit code, stdout) of `python -m fatpointlab.cli argv`, plain and under -O."""
    runs = []
    for flags in ([], ["-O"]):
        proc = run_python(*flags, "-m", "fatpointlab.cli", *argv)
        runs.append((proc.returncode, proc.stdout))
    return runs


class TestOptimizedInterpreter:
    def test_avoidance_same_under_python_O(self, tmp_path):
        # the partition re-checks raise InternalError instead of asserting
        m = generic_vectors_matroid(rng_from_seed(8), 3, 9)
        vectors = [m.matrix.column(j) for j in range(len(m))]
        path = write_json(tmp_path / "v.json", vectors_to_dict(QQ, vectors))
        runs = run_cli_plain_and_optimized(
            ["partition", path, "--mode", "avoidance", "--k", "4", "--p", "2", "--tail", "0,5"])
        assert runs[0] == runs[1]
        code, out = runs[0]
        assert code == EXIT_OK
        assert json.loads(out)["avoidance"] == [{"element": 0, "block": 0},
                                                {"element": 5, "block": 1}]

    def test_verify_same_under_python_O(self, tmp_path):
        # the rank certificates are checked by explicit code, so stripping
        # asserts must change neither the report nor the exit code
        line = [(1, 0, 0), (1, 1, 0), (1, 2, 0)]
        x = FatPointScheme(QQ, 2, [(p, 3) for p in line + [(3, 7, 1), (5, 2, 1)]])
        path = write_json(tmp_path / "collinear.json", scheme_to_dict(x, seed=0, generator="test"))
        runs = run_cli_plain_and_optimized(["verify", path, "--checks", "main-theorem,ctv"])
        assert runs[0] == runs[1]
        code, out = runs[0]
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["checks"]["main-theorem"]["reg_index"] == 8
        assert report["passed"] == 2

    def test_verify_veronese_same_under_python_O(self, tmp_path):
        # n = 1 runs the principal-ideal re-check of the veronese check and
        # the Segre value's floor/ceiling re-check
        x = FatPointScheme(QQ, 1, [((1, 0), 2), ((0, 1), 3), ((1, 1), 1)])
        path = write_json(tmp_path / "line.json", scheme_to_dict(x, seed=0, generator="test"))
        runs = run_cli_plain_and_optimized(["verify", path, "--checks", "main-theorem,veronese"])
        assert runs[0] == runs[1]
        code, out = runs[0]
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["checks"]["veronese"]["reg_index"] == 5
        assert report["passed"] == 2

    def test_verify_cardinality_same_under_python_O(self, tmp_path):
        # five collinear triple points: 15 copies, checked through the
        # partitioner, whose witnesses are re-checked by explicit code
        x = FatPointScheme(QQ, 2, [(p, 3) for p in collinear_points(2, 5)])
        path = write_json(tmp_path / "line.json", scheme_to_dict(x, seed=0, generator="test"))
        runs = run_cli_plain_and_optimized(["verify", path, "--checks", "cardinality"])
        assert runs[0] == runs[1]
        code, out = runs[0]
        assert code == EXIT_OK
        assert json.loads(out)["checks"]["cardinality"] == {"pass": True, "segre": 14}

    def test_sharpness_same_under_python_O(self):
        runs = run_cli_plain_and_optimized(["reproduce", "4.6-sharpness"])
        assert runs[0] == runs[1]
        code, out = runs[0]
        assert code == EXIT_OK
        assert json.loads(out)["pass"] is True


class TestNumpyLoadedOnDemand:
    """numpy is imported on the first mod-p elimination of _NUMPY_MIN_CELLS
    cells or more, not by importing the package."""

    def run_then_report_numpy(self, code):
        """stdout words of `code` in a fresh interpreter, then whether numpy is loaded."""
        proc = run_python("-c", code + "\nimport sys\nprint('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_package_import(self):
        assert self.run_then_report_numpy("import fatpointlab, fatpointlab.cli") == ["False"]

    def test_avoidance_partition_command(self, tmp_path):
        d = vectors_to_dict(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                                 (1, 2, 3), (1, 4, 9)])
        path = write_json(tmp_path / "v.json", d)
        code = (
            "import io, contextlib\n"
            "from fatpointlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['partition', %r, '--mode', 'avoidance', '--k', '3',"
            " '--p', '1', '--tail', '0'])\n"
            "print(code)" % path
        )
        assert self.run_then_report_numpy(code) == [str(EXIT_OK), "False"]

    def test_verify_with_small_conditions_matrices(self, tmp_path):
        # three simple points of P^2: every check's conditions matrices,
        # also those of the Veronese lift and the modified bound's subsets,
        # have fewer than _NUMPY_MIN_CELLS cells
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 1), ((0, 1, 0), 1), ((1, 1, 1), 1)])
        path = write_json(tmp_path / "x.json", scheme_to_dict(x))
        code = (
            "import io, contextlib\n"
            "from fatpointlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', %r])\n"
            "print(code)" % path
        )
        assert self.run_then_report_numpy(code) == [str(EXIT_OK), "False"]

    def test_large_rank_loads_numpy(self):
        # 9 x 9 of rank 8: the rank mod p is deficient, so a kernel certificate is lifted
        code = (
            "from fatpointlab.exact import ExactMatrix, ScalarField, _NUMPY_MIN_CELLS,"
            " _bareiss_echelon\n"
            "rows = [[(i + 1) ** j + (i * j) % 5 for j in range(9)] for i in range(8)]\n"
            "rows.append([a + b for a, b in zip(rows[0], rows[1])])\n"
            "m = ExactMatrix(ScalarField.rational(), rows)\n"
            "print(9 * 9 >= _NUMPY_MIN_CELLS, m.rank(), len(_bareiss_echelon(rows)[1]))"
        )
        assert self.run_then_report_numpy(code) == ["True", "8", "8", "True"]


class TestCommandsLoadOnlyTheirModules:
    """A fresh process imports only the modules its subcommand runs: the
    package namespace is lazy, each handler imports its own dependencies,
    and no library module imports ``dataclasses``."""

    def added_by(self, argv):
        """(exit code, modules added) for ``cli.main(argv)`` in a fresh
        interpreter, counted from before ``fatpointlab.cli`` is imported."""
        code = (
            "import contextlib, io, json, sys\n"
            "before = set(sys.modules)\n"
            "from fatpointlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(%r)\n"
            "print(json.dumps([code, sorted(set(sys.modules) - before)]))" % (argv,)
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        code, added = json.loads(proc.stdout)
        return code, set(added)

    def vectors_file(self, tmp_path):
        d = vectors_to_dict(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                                 (1, 2, 3), (1, 4, 9)])
        return write_json(tmp_path / "v.json", d)

    @pytest.mark.parametrize("mode", [[], ["--mode", "avoidance", "--p", "1", "--tail", "0"]],
                             ids=["edmonds", "avoidance"])
    def test_partition(self, mode, tmp_path):
        code, added = self.added_by(["partition", self.vectors_file(tmp_path), "--k", "3", *mode])
        assert code == EXIT_OK
        assert {"fatpointlab.cli", "fatpointlab.partition"} <= added
        unwanted = {"fatpointlab.schemes", "fatpointlab.bounds", "fatpointlab.generators",
                    "dataclasses"}
        assert added & unwanted == set()

    def test_verify_main_theorem(self, tmp_path):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 1), ((1, 1, 1), 1)])
        path = write_json(tmp_path / "x.json", scheme_to_dict(x))
        code, added = self.added_by(["verify", path, "--checks", "main-theorem"])
        assert code == EXIT_OK
        assert {"fatpointlab.bounds", "fatpointlab.schemes"} <= added
        unwanted = {"fatpointlab.generators", "fatpointlab.partition",
                    "fatpointlab.constructions", "dataclasses"}
        assert added & unwanted == set()

    def test_package_import_loads_no_submodule(self):
        proc = run_python("-c", "import sys\nbefore = set(sys.modules)\nimport fatpointlab\n"
                                "print(sorted(set(sys.modules) - before))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["['fatpointlab']"]

    def test_namespace(self):
        # in a fresh interpreter, so each name goes through the lazy lookup
        code = (
            "import json, sys\n"
            "import fatpointlab\n"
            "wrong = [name for name in fatpointlab.__all__\n"
            "         if getattr(sys.modules[getattr(fatpointlab, name).__module__], name)\n"
            "         is not getattr(fatpointlab, name)\n"
            "         or not getattr(fatpointlab, name).__module__.startswith('fatpointlab.')]\n"
            "star = {}\n"
            "exec('from fatpointlab import *', star)\n"
            "unbound = [name for name in fatpointlab.__all__\n"
            "           if star.get(name) is not getattr(fatpointlab, name)]\n"
            "try:\n"
            "    fatpointlab.no_such_name\n"
            "    missing = 'no error'\n"
            "except AttributeError as exc:\n"
            "    missing = str(exc)\n"
            "print(json.dumps([len(fatpointlab.__all__), wrong, unbound, missing]))"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        count, wrong, unbound, missing = json.loads(proc.stdout)
        assert count == len(set(fatpointlab.__all__)) > 30
        assert (wrong, unbound) == ([], [])
        assert "no_such_name" in missing
