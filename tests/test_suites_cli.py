import json

import pytest

from nclp.cli import main
from nclp.errors import ConfigInvalid, UnknownSuite
from nclp.samples import random_isometry_data
from nclp.suites import SUITES, SuiteConfig, run_suite


def _small_config(name):
    overrides = {
        "clarkson": {"sample_count": 60},
        "yeadon_roundtrip": {"sample_count": 4},
        "dichotomy": {"sample_count": 4},
        "classify_roundtrip": {"sample_count": 4},
        "state_restriction": {"sample_count": 4},
        "interpolation": {"sample_count": 120},
        "duality": {"sample_count": 4},
        "extrapolation": {"sample_count": 3},
        "lemma41": {"sample_count": 40},
        "expectation_detect": {"sample_count": 4},
    }
    return SuiteConfig(suite=name, seed=1, **overrides[name])


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes(name):
    report = run_suite(_small_config(name))
    assert report.passed, report.cases
    assert report.to_json()["schema"] == "nclp/1"
    assert all("pass" in case for case in report.cases)
    assert report.wall_time_s < 60.0


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_reports_deterministic(name):
    a = run_suite(_small_config(name)).dumps(include_timing=False)
    b = run_suite(_small_config(name)).dumps(include_timing=False)
    assert a == b


def test_unknown_suite_and_bad_config(tmp_path):
    with pytest.raises(UnknownSuite):
        run_suite(SuiteConfig(suite="nope"))
    with pytest.raises(ConfigInvalid):
        run_suite(SuiteConfig(suite="clarkson", exponents=[2.0]))
    with pytest.raises(ConfigInvalid):
        run_suite(SuiteConfig(suite="clarkson", sample_count=0))
    with pytest.raises(ConfigInvalid):
        run_suite(SuiteConfig(suite="duality", exponents=[0.5]))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigInvalid, match="exponents must be finite"):
            run_suite(SuiteConfig(suite="duality", exponents=[3.0, bad]))
        with pytest.raises(ConfigInvalid, match="tolerances must be finite"):
            run_suite(SuiteConfig(suite="duality", tolerances={"identity": bad}))
    # a misspelt key must not leave the default in force unseen
    with pytest.raises(ConfigInvalid, match=r"no tolerance \['identiy'\]"):
        run_suite(SuiteConfig(suite="duality", tolerances={"identiy": 1e-3}))
    # the CLI refuses each with exit code 2 and writes no report
    report = tmp_path / "report.json"
    for flags in (
        ["--p-list", "nan"],
        ["--p-list", "3,inf"],
        ["--tol", "identiy=1e-3"],
        ["--tol", "identity=nan"],
    ):
        command = ["verify", "--suite", "duality", "--samples", "2", "-o", str(report)]
        assert main([*command, *flags]) == 2
        assert not report.exists()


def test_cli_gen_and_norm(tmp_path, capsys):
    alg_file = tmp_path / "alg.json"
    assert main(["gen", "algebra", "--blocks", "2,3", "-o", str(alg_file)]) == 0
    assert json.loads(alg_file.read_text())["blocks"] == [2, 3]

    state_file = tmp_path / "state.json"
    assert main(["gen", "state", "--blocks", "2", "--seed", "7", "-o", str(state_file)]) == 0

    # norm of rho^(1/3) prints one
    from nclp import serialize as ser
    from nclp.lp import state_power

    state = ser.state_from_json(ser.load(str(state_file)))
    vec_file = tmp_path / "vec.json"
    ser.dump(ser.lp_vector_to_json(state_power(state, 1 / 3)), str(vec_file))
    capsys.readouterr()
    assert main(["norm", str(vec_file), "--p", "3"]) == 0
    printed = capsys.readouterr().out.strip()
    assert abs(float(printed) - 1.0) < 1e-12



def test_cli_norm_p_overrides_file_exponent(tmp_path, capsys):
    # diag(1, 2): the 1.5-norm is (1 + 2^1.5)^(1/1.5), the 3-norm differs
    vec_file = tmp_path / "vec.json"
    blocks = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]]
    vec_file.write_text(json.dumps({"blocks": blocks, "p": 3}))
    capsys.readouterr()
    assert main(["norm", str(vec_file), "--p", "1.5"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx((1 + 2**1.5) ** (1 / 1.5), rel=1e-12)
    assert main(["norm", str(vec_file)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx((1 + 2**3) ** (1 / 3), rel=1e-12)


def test_cli_norm_without_exponent_exits_two(tmp_path, capsys):
    vec_file = tmp_path / "vec.json"
    vec_file.write_text(json.dumps({"blocks": [[[[1.0, 0.0]]]]}))
    assert main(["norm", str(vec_file)]) == 2
    assert "no exponent" in capsys.readouterr().err

def test_cli_classify_roundtrip(tmp_path):
    data_file = tmp_path / "data.json"
    map_file = tmp_path / "map.json"
    report_file = tmp_path / "report.json"
    assert (
        main(
            [
                "gen",
                "isometry",
                "--seed",
                "4",
                "--p",
                "3",
                "-o",
                str(data_file),
                "--map-out",
                str(map_file),
            ]
        )
        == 0
    )
    from nclp import serialize as ser

    data = ser.isometry_data_from_json(ser.load(str(data_file)))
    state_file = tmp_path / "refstate.json"
    ser.dump(ser.state_to_json(data.reference_state), str(state_file))
    code = main(
        ["classify", str(map_file), "--state", str(state_file), "--p", "3", "-o", str(report_file)]
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["verdict"] == "accept"
    assert set(report["defects"]) >= {
        "isometry",
        "two_isometry",
        "multiplicativity",
        "state_restriction",
        "reconstruction",
    }


def test_cli_classify_p_overrides_file_exponent(tmp_path):
    # the file says "p": 3, but the matrix is the canonical map at p = 4
    from nclp import serialize as ser

    data_file, map_file = tmp_path / "data.json", tmp_path / "map.json"
    args = ["gen", "isometry", "--seed", "1", "--p", "4", "-o", str(data_file)]
    assert main(args + ["--map-out", str(map_file)]) == 0
    ser.dump({**ser.load(str(map_file)), "p": 3.0}, str(map_file))
    data = ser.isometry_data_from_json(ser.load(str(data_file)))
    state_file = tmp_path / "refstate.json"
    ser.dump(ser.state_to_json(data.reference_state), str(state_file))
    assert main(["classify", str(map_file), "--state", str(state_file), "--p", "4"]) == 0


def test_cli_classify_rejection_exits_one(tmp_path):
    # a halved identity is not an isometry
    import numpy as np

    from nclp import serialize as ser
    from nclp.algebra import make_algebra, random_faithful_state
    from nclp.lp import LpMap

    alg = make_algebra([2])
    map_file = tmp_path / "map.json"
    state_file = tmp_path / "state.json"
    ser.dump(ser.lp_map_to_json(LpMap(alg, alg, 3.0, 0.5 * np.eye(4))), str(map_file))
    ser.dump(ser.state_to_json(random_faithful_state(alg, 1)), str(state_file))
    assert main(["classify", str(map_file), "--state", str(state_file)]) == 1


def test_cli_classify_non_finite_map_exits_two(tmp_path, capsys):
    from nclp import serialize as ser
    from nclp.algebra import make_algebra, random_faithful_state

    alg = make_algebra([2])
    obj = {
        "p": 3.0,
        "source": ser.algebra_to_json(alg),
        "target": ser.algebra_to_json(alg),
        "matrix": [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    obj["matrix"][2][1] = [float("nan"), 0.0]
    map_file = tmp_path / "nan_map.json"
    map_file.write_text(json.dumps(obj))
    state_file = tmp_path / "state.json"
    ser.dump(ser.state_to_json(random_faithful_state(alg, 1)), str(state_file))
    capsys.readouterr()
    assert main(["classify", str(map_file), "--state", str(state_file)]) == 2
    assert "error: map matrix has a NaN or infinite entry" in capsys.readouterr().err


def test_cli_classify_malformed_map_exits_two(tmp_path, capsys):
    from nclp import serialize as ser
    from nclp.algebra import make_algebra, random_faithful_state

    alg = make_algebra([1])
    obj = {"p": 3.0, "source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [[["1", 0]]]}
    map_file = tmp_path / "string_map.json"
    map_file.write_text(json.dumps(obj))
    state_file = tmp_path / "state.json"
    ser.dump(ser.state_to_json(random_faithful_state(alg, 1)), str(state_file))
    capsys.readouterr()
    assert main(["classify", str(map_file), "--state", str(state_file)]) == 2
    assert capsys.readouterr().err.startswith("error: a matrix must be a list of equal rows")


def test_cli_files_parse_to_the_serialized_values(tmp_path):
    # the writer changes whitespace only: each file reads back as the dict
    # the serialize functions return
    from nclp import serialize as ser
    from nclp.isometry import build_isometry, classify

    data_file, map_file = tmp_path / "data.json", tmp_path / "map.json"
    args = ["gen", "isometry", "--seed", "2", "--p", "1.5", "-o", str(data_file)]
    assert main(args + ["--map-out", str(map_file)]) == 0
    data = random_isometry_data(2)
    T = build_isometry(data, 1.5)
    assert json.loads(data_file.read_text()) == ser.isometry_data_to_json(data)
    assert json.loads(map_file.read_text()) == ser.lp_map_to_json(T)
    # compact: one line, as the C encoder writes it
    assert map_file.read_text() == json.dumps(ser.lp_map_to_json(T)) + "\n"

    state_file, report_file = tmp_path / "state.json", tmp_path / "report.json"
    ser.dump(ser.state_to_json(data.reference_state), str(state_file))
    args = ["classify", str(map_file), "--state", str(state_file), "-o", str(report_file)]
    assert main(args) == 0
    T = ser.lp_map_from_json(ser.load(str(map_file)))
    report = classify(T, ser.state_from_json(ser.load(str(state_file)), T.source), T.p)
    assert json.loads(report_file.read_text()) == ser.classification_report_to_json(report)

    verify_file = tmp_path / "verify.json"
    args = ["verify", "--suite", "duality", "--seed", "1", "--samples", "2"]
    assert main(args + ["-o", str(verify_file)]) == 0
    written = json.loads(verify_file.read_text())
    want = run_suite(SuiteConfig("duality", seed=1, sample_count=2)).to_json()
    written.pop("wall_time_s")
    want.pop("wall_time_s")
    assert written == want


def test_cli_error_paths_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["norm", str(bad), "--p", "3"]) == 2
    assert main(["norm", str(tmp_path / "missing.json"), "--p", "3"]) == 2
    assert main([]) == 2
    assert main(["verify", "--suite", "does-not-exist"]) == 2

    # p = 2 is rejected for classification
    import numpy as np

    from nclp import serialize as ser
    from nclp.algebra import make_algebra, random_faithful_state
    from nclp.lp import LpMap

    alg = make_algebra([2])
    map_file = tmp_path / "map2.json"
    state_file = tmp_path / "state2.json"
    ser.dump(ser.lp_map_to_json(LpMap(alg, alg, 2.0, np.eye(4))), str(map_file))
    ser.dump(ser.state_to_json(random_faithful_state(alg, 1)), str(state_file))
    assert main(["classify", str(map_file), "--state", str(state_file), "--p", "2"]) == 2


def test_cli_verify_pass_fail_and_determinism(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    args = ["verify", "--suite", "duality", "--seed", "1", "--samples", "3"]
    assert main(args + ["-o", str(r1)]) == 0
    assert main(args + ["-o", str(r2)]) == 0
    a = json.loads(r1.read_text())
    b = json.loads(r2.read_text())
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b

    # an absurd tolerance forces a failing verdict, exit code 1
    fail = main(
        [
            "verify",
            "--suite",
            "duality",
            "--seed",
            "1",
            "--samples",
            "2",
            "--tol",
            "identity=1e-30",
        ]
    )
    assert fail == 1


@pytest.mark.parametrize("seed", [986608, 356880, 515664, 887616, 1001952])
def test_state_restriction_perturbed_control_detected(seed):
    # seeds where a drift with nonzero trace nearly cancelled on renormalization
    report = run_suite(SuiteConfig("state_restriction", seed=seed))
    assert report.passed, report.cases


def test_expectation_detect_finds_noninvariant_inclusion_past_eight_attempts():
    # case 11 at this seed needs a ninth draw of random_noninvariant_inclusion
    assert run_suite(SuiteConfig("expectation_detect", seed=129200)).passed


def test_a_raising_case_is_recorded_as_a_failure():
    # at p = 49 the absolute tolerance of the trace condition fails a correct
    # triple; the suite records those cases instead of raising
    report = run_suite(SuiteConfig("yeadon_roundtrip", seed=0, exponents=[49.0]))
    failed = [case for case in report.cases if "error" in case]
    assert failed and not report.passed
    assert all(not case["pass"] for case in failed)
    assert {case["error"] for case in failed} == {"TraceConditionViolated"}
    assert all(case["message"].startswith("tau and Tr(B^p J(.))") for case in failed)
    assert all(case["pass"] for case in report.cases if "error" not in case)
    assert json.loads(report.dumps())["cases"][failed[0]["case"]]["error"] == "TraceConditionViolated"


def test_an_empty_sizes_or_exponents_list_is_refused(tmp_path):
    # an empty list leaves the suite nothing to cycle through: a config
    # error, not a traceback or a failing verdict
    for suite, name in (
        ("clarkson", "sizes"),
        ("clarkson", "exponents"),
        ("classify_roundtrip", "exponents"),
        ("interpolation", "exponents"),
    ):
        with pytest.raises(ConfigInvalid, match=f"{name} must not be empty"):
            run_suite(SuiteConfig(suite, **{name: []}))
    # the CLI refuses with exit code 2 and writes no report
    report = tmp_path / "report.json"
    for sizes in (";", " ; ;"):
        command = ["verify", "--suite", "clarkson", "--sizes", sizes, "--samples", "2"]
        assert main([*command, "-o", str(report)]) == 2
        assert not report.exists()


def test_a_suite_refuses_the_options_it_does_not_read(tmp_path):
    # lemma41 and expectation_detect read no exponents and only clarkson
    # reads sizes: their rows in SUITES have no default for it
    refused = (
        ("lemma41", "exponents", [3.0, 5.0]),
        ("expectation_detect", "exponents", [3.0]),
        ("duality", "sizes", [[2], [3]]),
    )
    for suite, name, value in refused:
        with pytest.raises(ConfigInvalid, match=f"suite '{suite}' takes no {name}"):
            run_suite(SuiteConfig(suite=suite, **{name: value}))
    # the CLI refuses each with exit code 2 and writes no report
    report = tmp_path / "report.json"
    for suite, flags in (("lemma41", ["--p-list", "3,5"]), ("duality", ["--sizes", "2;3"])):
        command = ["verify", "--suite", suite, "--samples", "2", "-o", str(report)]
        assert main([*command, *flags]) == 2
        assert not report.exists()
    # a suite that reads the option still takes it
    assert run_suite(SuiteConfig("clarkson", sizes=[[2]], sample_count=4)).config.sizes == [[2]]


def test_duality_refuses_p_one(tmp_path, capsys):
    # the companion map is taken at p / (p - 1): a config error at p = 1,
    # not a ZeroDivisionError traceback with the failing-verdict exit code
    with pytest.raises(ConfigInvalid, match="suite 'duality' needs exponents p > 1"):
        run_suite(SuiteConfig("duality", exponents=[3.0, 1.0]))
    report = tmp_path / "report.json"
    capsys.readouterr()
    command = ["verify", "--suite", "duality", "--p-list", "1", "-o", str(report)]
    assert main(command) == 2
    assert not report.exists()
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: suite 'duality' needs exponents p > 1"]


# one exponent outside each domain, and the refusal it meets
OUTSIDE = {
    "p >= 1": (0.5, "exponents must be >= 1"),
    "p > 1": (1.0, "needs exponents p > 1"),
    "p >= 2": (1.5, "needs exponents p >= 2"),
    "p >= 1, p != 2": (2.0, "excludes p = 2"),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_the_cli_keeps_each_row_of_the_suite_table(name, tmp_path, capsys):
    # each row's report carries the row's property; each row that takes
    # exponents refuses one outside its domain with one error line
    row, report = SUITES[name], tmp_path / "report.json"
    assert main(["verify", "--suite", name, "--samples", "1", "-o", str(report)]) in (0, 1)
    assert json.loads(report.read_text())["property"] == row.property
    if row.exponents is None:
        return
    p, message = OUTSIDE[row.domain]
    report.unlink()
    capsys.readouterr()
    command = ["verify", "--suite", name, "--p-list", str(p), "--samples", "1"]
    assert main([*command, "-o", str(report)]) == 2
    assert not report.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
