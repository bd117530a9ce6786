"""CSV parsing, the four subcommands, serialization, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from nerm.cli import (
    EXIT_FAIL,
    EXIT_FLAGGED,
    EXIT_OK,
    RunConfig,
    main,
    read_dataset_csv,
    write_dataset_csv,
)
from nerm.errors import InvalidConfig, ParseError
from nerm.model import Cluster, ClusteredDataset, ParameterVector, SufficientStats
from nerm.simulation import SimConfig, run_replications

from .helpers import make_dataset, random_dataset


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD_CSV = """cluster,y,b_1,w_1
a,0.73,3.1,0.31
a,0.83,3.1,-0.24
a,0.16,3.1,0.55
b,2.18,1.6,0.64
b,1.23,1.6,0.45
b,0.92,1.6,-0.3
c,2.92,3.9,0.38
c,1.6,3.9,0.93
c,0.0,3.9,0.07
d,3.93,4.1,0.04
d,4.5,4.1,-0.67
d,3.07,4.1,-0.87
e,2.41,2.5,-0.97
e,2.68,2.5,0.18
e,2.22,2.5,0.52
f,2.74,5.0,0.24
f,3.29,5.0,0.72
f,3.13,5.0,-0.93
"""

# Four observations, four mean parameters: y == 10 w exactly, so the
# likelihood climbs the variance floor and the fit must come back flagged.
SATURATED_CSV = """cluster,y,b_1,w_1
a,1.0,2.0,0.1
a,2.0,2.0,0.2
b,3.0,4.0,0.3
b,4.0,4.0,0.4
"""


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

def test_read_csv_basic(tmp_path):
    ds = read_dataset_csv(_write(tmp_path, GOOD_CSV))
    assert ds.g == 6 and ds.n == 18 and ds.p_b == 1 and ds.p_w == 1
    assert [c.id for c in ds.clusters] == list("abcdef")
    assert ds.clusters[0].y.tolist() == [0.73, 0.83, 0.16]
    assert ds.clusters[1].x_b.tolist() == [1.6]
    assert ds.clusters[1].x_w.tolist() == [[0.64], [0.45], [-0.3]]


def test_read_csv_groups_by_first_appearance(tmp_path):
    text = ("cluster,y\n"
            "north,1\n"
            "south,2\n"
            "north,3\n"
            "south,4\n")
    ds = read_dataset_csv(_write(tmp_path, text))
    assert [c.id for c in ds.clusters] == ["north", "south"]
    assert ds.clusters[0].y.tolist() == [1.0, 3.0]


def test_read_csv_free_column_order(tmp_path):
    text = ("w_1,cluster,b_1,y\n"
            "0.1,a,9,1\n"
            "0.2,a,9,2\n"
            "0.3,b,8,3\n")
    ds = read_dataset_csv(_write(tmp_path, text))
    assert ds.clusters[0].x_b.tolist() == [9.0]
    assert ds.clusters[0].x_w.tolist() == [[0.1], [0.2]]


@pytest.mark.parametrize("text,fragment", [
    ("x,y\na,1\n", "cluster"),
    ("cluster,y\n", "no data rows"),
    ("cluster,y,b_2\na,1,2\n", "contiguously"),
    ("cluster,y,potato\na,1,2\n", "unrecognized"),
    ("cluster,y\na,one\n", "non-numeric"),
    ("cluster,y\n,1\n", "empty cluster label"),
    ("cluster,y,b_1\na,1,5\na,2,6\n", "between covariate changes"),
    ("cluster,y,b_1\na,1,5\nb,2,6\nb,3,6\nb,4,7\n", ":5: between covariate changes"),
    ("cluster, y, w_1\na, one, 0.1\n", "non-numeric"),
    ("cluster,y\na,1\na,2,3\n", ":3: 3 fields, the header has 2"),
    ("cluster,y,w_1\na,1,0.5\na,2\n", ":3: 2 fields, the header has 3"),
])
def test_read_csv_rejects_malformed(tmp_path, text, fragment):
    with pytest.raises(ParseError, match=fragment):
        read_dataset_csv(_write(tmp_path, text))


def test_read_csv_spaced_header(tmp_path):
    text = ("cluster, y, b_1, w_1\n"
            "a, 1.0, 9, 0.1\n"
            "a, 2.0, 9, 0.2\n"
            "b, 3.0, 8, 0.3\n")
    ds = read_dataset_csv(_write(tmp_path, text))
    assert ds.ids.tolist() == ["a", "b"]
    assert ds.y.tolist() == [1.0, 2.0, 3.0]
    assert ds.x_b.tolist() == [[9.0], [8.0]]
    assert ds.x_w.tolist() == [[0.1], [0.2], [0.3]]


def test_read_csv_missing_file(tmp_path):
    with pytest.raises(ParseError):
        read_dataset_csv(str(tmp_path / "nowhere.csv"))


def test_csv_round_trip_is_exact(tmp_path):
    # 17 significant digits reproduce doubles exactly
    awkward = [math.pi, 1.0 / 3.0, 6.02214076e23, 5e-324, -0.1]
    ds = ClusteredDataset.from_clusters(
        (Cluster("a", awkward[:3], [awkward[3]], [[v] for v in awkward[:3]]),
         Cluster("b", awkward[3:], [awkward[4]], [[v] for v in awkward[3:]])),
        p_b=1, p_w=1)
    path = str(tmp_path / "round.csv")
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    for c1, c2 in zip(ds.clusters, back.clusters):
        assert np.array_equal(c1.y, c2.y)
        assert np.array_equal(c1.x_b, c2.x_b)
        assert np.array_equal(c1.x_w, c2.x_w)


def test_round_trip_random_dataset(tmp_path):
    rng = np.random.default_rng(55)
    ds, _ = random_dataset(rng, g=5, m_max=6, p_b=2, p_w=2, m_min=2)
    path = str(tmp_path / "r.csv")
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert back.g == ds.g and back.p_b == 2 and back.p_w == 2
    for c1, c2 in zip(ds.clusters, back.clusters):
        assert np.array_equal(c1.y, c2.y)
        assert np.array_equal(c1.x_w, c2.x_w)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

def test_run_config_validation():
    with pytest.raises(InvalidConfig):
        RunConfig(command="fit", method="bogus")
    with pytest.raises(InvalidConfig):
        RunConfig(command="ci", gamma=0.0)
    with pytest.raises(InvalidConfig):
        RunConfig(command="fit", contextual=True, center=False)


# ---------------------------------------------------------------------------
# fit and ci
# ---------------------------------------------------------------------------

def test_fit_both_methods(tmp_path, capsys):
    path = _write(tmp_path, GOOD_CSV)
    assert main(["fit", "--input", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "fit"
    assert set(report["fits"]) == {"ml", "reml"}
    ml = report["fits"]["ml"]
    assert ml["converged"] is True
    assert set(ml["estimates"]) == {"beta0", "beta1[0]", "sigma_alpha_sq",
                                    "beta2[0]", "sigma_e_sq"}
    assert ml["estimates"]["sigma_e_sq"] > 0


def test_fit_single_method_to_file(tmp_path):
    path = _write(tmp_path, GOOD_CSV)
    out = str(tmp_path / "fit.json")
    assert main(["fit", "--input", path, "--method", "ml",
                 "--output", out]) == EXIT_OK
    report = json.loads(open(out).read())
    assert list(report["fits"]) == ["ml"]


def test_fit_json_floats_round_trip(tmp_path):
    from nerm.estimation import fit_ml
    path = _write(tmp_path, GOOD_CSV)
    out = str(tmp_path / "fit.json")
    main(["fit", "--input", path, "--method", "ml", "--output", out])
    report = json.loads(open(out).read())
    direct = fit_ml(read_dataset_csv(path))
    assert report["fits"]["ml"]["omega"] == direct.omega_hat.flatten().tolist()
    assert report["fits"]["ml"]["loglik_at_opt"] == direct.loglik_at_opt


def test_fit_flags_boundary_with_exit_2(tmp_path):
    # identical cluster means force the between variance onto the floor
    text = ("cluster,y\n"
            "a,-1\na,1\n"
            "b,-2\nb,2\n"
            "c,-3\nc,3\n")
    assert main(["fit", "--input", _write(tmp_path, text),
                 "--method", "ml"]) == EXIT_FLAGGED


def test_fit_flags_saturated_design_with_exit_2(tmp_path):
    assert main(["fit", "--input", _write(tmp_path, SATURATED_CSV),
                 "--method", "ml"]) == EXIT_FLAGGED


def test_ci_reports_intervals(tmp_path, capsys):
    rng = np.random.default_rng(56)
    ds, _ = random_dataset(rng, g=20, m_max=6, p_b=1, p_w=1, m_min=2)
    path = str(tmp_path / "d.csv")
    write_dataset_csv(ds, path)
    assert main(["ci", "--input", path, "--method", "ml",
                 "--gamma", "0.1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["gamma"] == 0.1
    intervals = report["results"]["ml"]["intervals"]
    assert [iv["name"] for iv in intervals] == [
        "beta0", "beta1[0]", "sigma_alpha_sq", "beta2[0]", "sigma_e_sq"]
    for iv in intervals:
        assert iv["lower"] <= iv["estimate"] <= iv["upper"]
        assert iv["level"] == 0.9


def test_statistics_are_computed_once_per_dataset(tmp_path, monkeypatch, capsys):
    # count computations (each builds one SufficientStats), not calls
    computed = []
    post_init = SufficientStats.__post_init__

    def counting(self):
        computed.append(self)
        post_init(self)

    monkeypatch.setattr(SufficientStats, "__post_init__", counting)
    path = _write(tmp_path, GOOD_CSV)
    assert main(["ci", "--input", path, "--method", "both"]) in (EXIT_OK, EXIT_FLAGGED)
    assert set(json.loads(capsys.readouterr().out)["results"]) == {"ml", "reml"}
    assert len(computed) == 1
    computed.clear()
    run_replications(SimConfig(g=12, cluster_sizes=4, seed=99,
                               true_omega=ParameterVector(0.3, [], 1.0, [], 1.0)))
    assert len(computed) == 1    # one replicate, one dataset


def test_ci_center_and_contextual(tmp_path, capsys):
    rng = np.random.default_rng(57)
    ds, _ = random_dataset(rng, g=10, m_max=5, p_b=1, p_w=1, m_min=2)
    path = str(tmp_path / "d.csv")
    write_dataset_csv(ds, path)
    assert main(["fit", "--input", path, "--method", "ml", "--center",
                 "--contextual"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    names = set(report["fits"]["ml"]["estimates"])
    # the contextual mean enters as a second between covariate
    assert "beta1[1]" in names


def test_contextual_without_center_fails(tmp_path, capsys):
    path = _write(tmp_path, GOOD_CSV)
    assert main(["fit", "--input", path, "--contextual"]) == EXIT_FAIL
    assert "error:" in capsys.readouterr().err


def test_fit_missing_input_fails(tmp_path, capsys):
    assert main(["fit", "--input", str(tmp_path / "none.csv")]) == EXIT_FAIL
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_summary_and_replicates(tmp_path):
    out = str(tmp_path / "sim.json")
    rc = main(["simulate", "--g", "15", "--m", "4", "--reps", "10",
               "--seed", "2", "--output", out])
    assert rc == EXIT_OK
    report = json.loads(open(out).read())
    assert report["command"] == "simulate"
    assert report["n_replications"] == 10
    assert report["n_failed"] == 0
    csv_path = report["replicates_csv"]
    assert csv_path == str(tmp_path / "sim.replicates.csv")
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 10
    assert rows[0]["ok"] == "1"
    assert float(rows[3]["ml_beta0"]) == pytest.approx(
        report and float(rows[3]["ml_beta0"]))  # parseable full-precision float


def test_simulate_is_reproducible(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["simulate", "--g", "12", "--m", "3", "--reps", "6", "--seed", "9"]
    main(args + ["--output", a])
    main(args + ["--output", b])
    ra, rb = json.load(open(a)), json.load(open(b))
    assert ra["empirical_covariance"] == rb["empirical_covariance"]
    assert ra["coverage"] == rb["coverage"]


def test_simulate_flags_boundary_runs(tmp_path):
    # degenerate residuals leave no within variation, so sigma_e_sq lands
    # on the floor in every replicate
    out = str(tmp_path / "sim.json")
    rc = main(["simulate", "--g", "10", "--m", "4", "--reps", "3",
               "--e-dist", "zero", "--seed", "4", "--output", out])
    assert rc == EXIT_FLAGGED
    report = json.loads(open(out).read())
    assert report["n_boundary"] == 3


def test_simulate_rejects_bad_flags(tmp_path, capsys):
    assert main(["simulate", "--reps", "0"]) == EXIT_FAIL
    assert main(["simulate", "--e-dist", "cauchy"]) == EXIT_FAIL
    assert main(["simulate", "--g", "1"]) == EXIT_FAIL
    assert capsys.readouterr().err.count("error:") == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_runs_all_checks(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) >= 5
    assert all(ln.startswith("[PASS]") for ln in lines)
    assert any("likelihood_oracle" in ln for ln in lines)
    assert any("coverage_smoke" in ln for ln in lines)
