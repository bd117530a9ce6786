"""CSV parsing, the three subcommands, serialization, exit codes."""

import csv
import json
import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerm.cli import (
    EXIT_FAIL,
    EXIT_FLAGGED,
    EXIT_OK,
    RunConfig,
    _build_parser,
    _read_rows,
    _run_config,
    _san,
    _sim_config,
    main,
    read_dataset_csv,
    write_dataset_csv,
)
from nerm.errors import InvalidConfig, ParseError
from nerm.model import ClusteredDataset, ParameterVector, SufficientStats
from nerm.simulation import SimConfig, generate_dataset, run_replications

from .helpers import Cluster, clusters, make_dataset, pack, random_dataset


def _write(tmp_path, text, name="data.csv"):
    # UTF-8, with a lone surrogate such as "\udcff" written as its raw byte
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
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
    assert [c.id for c in clusters(ds)] == list("abcdef")
    assert clusters(ds)[0].y.tolist() == [0.73, 0.83, 0.16]
    assert clusters(ds)[1].x_b.tolist() == [1.6]
    assert clusters(ds)[1].x_w.tolist() == [[0.64], [0.45], [-0.3]]


def test_read_csv_groups_by_first_appearance(tmp_path):
    text = ("cluster,y\n"
            "north,1\n"
            "south,2\n"
            "north,3\n"
            "south,4\n")
    ds = read_dataset_csv(_write(tmp_path, text))
    assert [c.id for c in clusters(ds)] == ["north", "south"]
    assert clusters(ds)[0].y.tolist() == [1.0, 3.0]


def test_read_csv_free_column_order(tmp_path):
    text = ("w_1,cluster,b_1,y\n"
            "0.1,a,9,1\n"
            "0.2,a,9,2\n"
            "0.3,b,8,3\n")
    ds = read_dataset_csv(_write(tmp_path, text))
    assert clusters(ds)[0].x_b.tolist() == [9.0]
    assert clusters(ds)[0].x_w.tolist() == [[0.1], [0.2]]


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
    ("cluster,y,y\na,1,1\nb,2,2\n", r"columns named more than once: \['y'\]"),
    ("cluster,y,w_1,w_1\na,1,1,2\na,2,2,3\nb,3,1,1\nb,4,3,1\n",
     r"columns named more than once: \['w_1'\]"),
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


_LABELS = ["a", "b", " a ", "a ", "\ta", "a b", "c#", "#"]
_NUMBERS = ["1", "-2.5", " 1.5 ", "+0.5", "1.", ".5", "1e3", "0"]
_QUOTED_LABELS = ['"a"', 'b"', '" c"']
_EMPTY_LABELS = ["", " "]
_ODD_NUMBERS = ["nan", "-Infinity", "inf", "1_000", "0x10", "", " ", "1 5",
                '"4"', "#3"]


@st.composite
def _csv_texts(draw):
    """Small dataset CSVs in the schema.  Labels, numbers and lines are
    each either well formed or drawn with the cases that the bulk parse
    and the row reader might read differently."""
    labels = _LABELS + draw(st.sampled_from([[], _QUOTED_LABELS, _EMPTY_LABELS]))
    numbers = _NUMBERS + (_ODD_NUMBERS if draw(st.booleans()) else [])
    kinds = ["row"] * 8 + ["blank"] \
        + (["spaces", "short", "long"] if draw(st.booleans()) else [])
    ragged = draw(st.sampled_from([None] * 4 + ["short", "long"]))
    names = draw(st.permutations(["cluster", "y", "b_1", "w_1"][
        :draw(st.integers(2, 4))]))
    between = {label: draw(st.sampled_from(_NUMBERS)) for label in labels}
    lines = [",".join(draw(st.sampled_from([n, f" {n}"])) for n in names)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            label = draw(st.sampled_from(labels))
            fields = []
            for name in names:
                if name == "cluster":
                    fields.append(label)
                elif name == "b_1" and draw(st.integers(0, 2)):
                    fields.append(between[label])   # constant in the cluster
                else:
                    fields.append(draw(st.sampled_from(numbers)))
            if "short" in (kind, ragged):
                fields.pop()
            if "long" in (kind, ragged):
                fields.append("1")
            lines.append(",".join(fields))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))   # as spreadsheets write it
    return bom + end.join(lines) + draw(st.sampled_from(["", end]))


def _row_reader(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return _read_rows(fh, path)


def _outcome(read, path):
    """The arrays and labels a reader returns, or its error."""
    try:
        ds = read(path)
    except Exception as exc:   # both readers must fail alike, whatever it is
        return type(exc), str(exc)
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (ds.y, ds.x_w, ds.x_b, ds.offsets)] + [ds.ids.tolist()]


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts())
@example(text='cluster,y\n"a",1\nb,2\n')   # each label rule, every run
@example(text="cluster,y\n,1\nb,2\n")
@example(text="cluster,y\na,1\na ,2\n\ta,3\na b,4\n")
def test_read_csv_bulk_parse_matches_the_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "bulk-parse.csv"
    path.write_bytes(text.encode())
    assert _outcome(read_dataset_csv, str(path)) == _outcome(_row_reader, str(path))


def _through_a_pipe(text: bytes):
    """The pipe's name and the :func:`_outcome` of reading ``text`` from
    it, fed by a thread."""
    r, w = os.pipe()

    def feed():
        try:
            with open(w, "wb") as fh:
                fh.write(text)
        except BrokenPipeError:   # the reader stopped early
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    pipe = f"/dev/fd/{r}"
    try:
        return pipe, _outcome(read_dataset_csv, pipe)
    finally:
        os.close(r)
        writer.join(timeout=10)


_NEEDS_FD = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")


@_NEEDS_FD
@pytest.mark.parametrize("tail", ["", "z,1,2\n"])   # well formed, or ragged
def test_read_csv_from_a_pipe_reads_every_row(tmp_path, tail):
    # input that cannot be rewound is read once, from its first line
    ds, _ = random_dataset(np.random.default_rng(59), g=400)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, str(path))
    text = path.read_bytes() + tail.encode()
    assert len(text) > 64 * 1024   # more than one pipe buffer
    path.write_bytes(text)
    pipe, outcome = _through_a_pipe(text)
    if tail:   # the same error, on the same line
        assert outcome[1] == _outcome(read_dataset_csv, str(path))[1].replace(
            str(path), pipe)
    else:
        assert outcome == _outcome(read_dataset_csv, str(path))
        assert read_dataset_csv(str(path)).n == ds.n


@pytest.mark.parametrize("through", ["path", pytest.param("pipe", marks=_NEEDS_FD)])
def test_read_csv_skips_a_byte_order_mark(tmp_path, through):
    # a UTF-8 BOM before the header, as spreadsheet exports write it
    text = ("\ufeff" + GOOD_CSV).encode()
    if through == "pipe":
        outcome = _through_a_pipe(text)[1]
    else:
        path = tmp_path / "bom.csv"
        path.write_bytes(text)
        outcome = _outcome(read_dataset_csv, str(path))
    assert outcome == _outcome(read_dataset_csv, _write(tmp_path, GOOD_CSV))


def test_read_csv_calls_no_python_code_per_row(tmp_path):
    # labels are coded in C inside the bulk pass: four times the rows of
    # the same 4,000 clusters add no Python call per row
    rng = np.random.default_rng(60)

    def calls(m):
        path = tmp_path / f"rows-{m}.csv"
        with open(path, "w") as fh:
            fh.write("cluster,y,w_1\n")
            fh.writelines(f"k{i},{rng.normal()!r},{rng.normal()!r}\n"
                          for _ in range(m) for i in range(4000))
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            ds = read_dataset_csv(str(path))
        finally:
            sys.setprofile(None)
        assert ds.g == 4000 and ds.n == 4000 * m
        return events.count("call")

    assert calls(8) <= calls(2) + 500


def test_read_csv_by_content_not_file_name(tmp_path):
    # a plain CSV whose name ends in .gz is read as the text it holds
    plain = read_dataset_csv(_write(tmp_path, GOOD_CSV))
    named = read_dataset_csv(_write(tmp_path, GOOD_CSV, name="data.csv.gz"))
    assert named.ids.tolist() == plain.ids.tolist()
    assert np.array_equal(named.y, plain.y) and np.array_equal(named.x_w, plain.x_w)


def test_read_csv_memory_stays_near_the_arrays(tmp_path):
    # the parse may not hold the file's text at once: its peak stays
    # within 10x the arrays it returns (both readers take about 7x)
    rng = np.random.default_rng(58)
    sizes = rng.integers(2, 9, size=4000)
    n = int(sizes.sum())
    assert n >= 20_000
    labels = np.repeat([f"k{i}" for i in range(sizes.size)], sizes)
    x_b = np.repeat(rng.normal(size=sizes.size), sizes)
    path = tmp_path / "wide.csv"
    with open(path, "w") as fh:
        fh.write("cluster,y,b_1,w_1\n")
        fh.writelines(f"{c},{a!r},{b!r},{d!r}\n" for c, a, b, d in zip(
            labels, rng.normal(size=n).tolist(), x_b.tolist(),
            rng.normal(size=n).tolist()))
    tracemalloc.start()
    try:
        ds = read_dataset_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n == n and ds.g == sizes.size
    arrays = sum(a.nbytes for a in (ds.y, ds.x_w, ds.x_b, ds.offsets))
    assert peak < 10 * arrays


def test_csv_round_trip_is_exact(tmp_path):
    # 17 significant digits reproduce doubles exactly
    awkward = [math.pi, 1.0 / 3.0, 6.02214076e23, 5e-324, -0.1]
    ds = pack(
        (Cluster("a", awkward[:3], [awkward[3]], [[v] for v in awkward[:3]]),
         Cluster("b", awkward[3:], [awkward[4]], [[v] for v in awkward[3:]])),
        p_b=1, p_w=1)
    path = str(tmp_path / "round.csv")
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    for c1, c2 in zip(clusters(ds), clusters(back)):
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
    for c1, c2 in zip(clusters(ds), clusters(back)):
        assert np.array_equal(c1.y, c2.y)
        assert np.array_equal(c1.x_w, c2.x_w)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

def test_run_config_validation(tmp_path, capsys):
    # the parser passes on only the flags given; RunConfig holds the defaults
    assert _run_config(_build_parser().parse_args(["simulate"])) \
        == RunConfig(command="simulate")
    with pytest.raises(InvalidConfig):
        RunConfig(command="fit", method="bogus")
    with pytest.raises(InvalidConfig):
        RunConfig(command="ci", gamma=0.0)
    # a gamma so small that 1 - gamma/2 rounds to 1 fails when the flag is
    # read, naming it, before the input is read (here it does not exist)
    path = _write(tmp_path, GOOD_CSV)
    for argv in (["ci", "--input", str(tmp_path / "none.csv")],
                 ["fit", "--input", path]):
        assert main([*argv, "--gamma", "1e-300"]) == EXIT_FAIL
        assert capsys.readouterr().err.startswith("error: gamma must lie in (0, 1)")
    with pytest.raises(InvalidConfig):
        RunConfig(command="fit", contextual=True, center=False)


def test_the_parser_is_built_once_and_keeps_no_state(monkeypatch):
    # main reuses one parser; a call sees its own flags and the defaults,
    # never a flag an earlier call gave
    assert _build_parser() is _build_parser()
    seen = []
    for name in ("cmd_fit", "cmd_ci", "cmd_simulate"):
        monkeypatch.setattr(f"nerm.cli.{name}", lambda cfg: seen.append(cfg) or 0)
    calls = [["simulate", "--seed", "5", "--reps", "3", "--workers", "2",
              "--gamma", "0.1", "--e-dist", "t(7)", "--p-w", "0"],
             ["fit", "--input", "a.csv", "--method", "ml", "--center"],
             ["simulate"],
             ["ci", "--input", "b.csv"],
             ["fit", "--input", "a.csv"]]
    for argv in calls:
        assert main(argv) == 0
    assert seen == [
        RunConfig(command="simulate", seed=5, reps=3, workers=2, gamma=0.1,
                  e_dist="t(7)", p_w=0),
        RunConfig(command="fit", input="a.csv", method="ml", center=True),
        RunConfig(command="simulate"),
        RunConfig(command="ci", input="b.csv"),
        RunConfig(command="fit", input="a.csv")]


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


@pytest.mark.parametrize("command", ["fit", "ci"])
@pytest.mark.parametrize("text,line", [
    ("cluster,y,w_1\na,1,0.1\na,2,0.3\na,4,0.2\n",
     "error: need at least 2 clusters, got 1"),
    ("cluster,y,w_1\na,1,0.1\nb,2,0.3\nc,4,0.2\n",
     "error: every cluster is a singleton (n == g); the residual variance "
     "is not identified"),
    ("cluster,y,w_1\na,1,0.1\na,2,0.3\nb,nan,0.2\nb,5,0.7\n",
     "error: cluster 'b': non-finite response"),
    ("cluster,y,w_1\na,1,0.1\na,2,0.3\nb,3,inf\nb,5,0.7\n",
     "error: cluster 'b': non-finite covariate"),
    ("cluster,y,b_1\na,1,nan\na,2,nan\nb,3,1\nb,4,1\nc,5,2\n",
     "error: cluster 'a': non-finite covariate"),
    # a quoted label over csv's field size limit, read by the row reader
    ('cluster,y,w_1\na,1,0.1\n"' + "a" * 140_000 + '",2,0.3\n',
     "error: {path}:3: field larger than field limit (131072)"),
    # a byte that is not UTF-8, in a label or in the header
    ("cluster,y,w_1\na,1,0.1\na,2,0.3\n\udcff,3,0.2\n\udcff,5,0.7\n",
     "error: {path}: not UTF-8 text (invalid start byte)"),
    ("cluster,y,w_1\udcff\na,1,0.1\na,2,0.3\nb,3,0.2\nb,5,0.7\n",
     "error: {path}: not UTF-8 text (invalid start byte)"),
], ids=["one-cluster", "all-singletons", "nan-response", "inf-within",
        "nan-between", "long-label", "undecodable-label", "undecodable-header"])
def test_bad_input_fails_with_its_error_line(tmp_path, capsys, command, text, line):
    path = _write(tmp_path, text)
    assert main([command, "--input", path]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line.format(path=path) + "\n"


@pytest.mark.parametrize("command", ["fit", "ci"])
@pytest.mark.parametrize("method", ["ml", "reml"])
def test_tiny_response_units_end_without_a_traceback(tmp_path, capsys,
                                                     command, method):
    # y in units of 1e-150: sigma_e_sq is about 1e-300, so its square is 0;
    # in units of 1e150 it is about 1e300, so a fourth moment of the data
    # is no double.  The intervals are formed in units of the fit, so
    # nerm ci gives them at both scales; nerm fit's converged rule still
    # depends on units (ROADMAP item 3), so the tiny fit comes back flagged
    cfg = _sim_config(_run_config(_build_parser().parse_args(
        ["simulate", "--g", "60", "--m", "8", "--seed", "1"])))
    ds = generate_dataset(cfg, 0)
    for scale in (1e-150, 1e150):
        path = str(tmp_path / f"scaled-{scale}.csv")
        write_dataset_csv(ClusteredDataset(y=ds.y * scale, x_w=ds.x_w, x_b=ds.x_b,
                                           offsets=ds.offsets, ids=ds.ids), path)
        flagged = command == "fit" and scale < 1.0
        assert main([command, "--input", path, "--method", method]) \
            == (EXIT_FLAGGED if flagged else EXIT_OK)
        assert capsys.readouterr().err == ""


def test_a_shifted_response_fits_off_the_floor(tmp_path, capsys):
    # y + 1e12: the within deviations are still resolved to about 1e-4, so
    # sigma_e_sq must not be read as collapsed; the fit matches the
    # unshifted one within the resolution the shift leaves
    cfg = _sim_config(_run_config(_build_parser().parse_args(
        ["simulate", "--g", "60", "--m", "8", "--seed", "1"])))
    ds = generate_dataset(cfg, 0)
    reports = []
    for shift in (0.0, 1e12):
        path = str(tmp_path / f"shifted-{shift}.csv")
        write_dataset_csv(ClusteredDataset(y=ds.y + shift, x_w=ds.x_w, x_b=ds.x_b,
                                           offsets=ds.offsets, ids=ds.ids), path)
        main(["fit", "--input", path])
        reports.append(json.loads(capsys.readouterr().out)["fits"])
    for method in ("ml", "reml"):
        plain, shifted = (r[method] for r in reports)
        assert shifted["boundary_flag"] is False
        for name in ("sigma_alpha_sq", "sigma_e_sq"):
            assert shifted["estimates"][name] == pytest.approx(
                plain["estimates"][name], rel=1e-3)


def _strict_json(path):
    def reject(token):
        raise ValueError(f"bare {token} in {path}")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_json_output_writes_non_finite_numbers_as_null(tmp_path):
    # zero errors put every replicate on the floor: coverage and the
    # covariance are NaN, written as null
    out = str(tmp_path / "sim.json")
    assert main(["simulate", "--g", "10", "--m", "4", "--reps", "3",
                 "--e-dist", "zero", "--seed", "4",
                 "--output", out]) == EXIT_FLAGGED
    report = _strict_json(out)
    assert set(report["coverage"].values()) == {None}
    # a floor-pinned sigma_alpha_sq with spread cluster means: its interval
    # runs up to infinity
    text = "cluster,y\na,-10\na,10.1\nb,-10\nb,10\nc,-10\nc,9.9\n"
    out = str(tmp_path / "ci.json")
    assert main(["ci", "--input", _write(tmp_path, text), "--method", "ml",
                 "--output", out]) == EXIT_FLAGGED
    ml = _strict_json(out)["results"]["ml"]
    assert ml["fit"]["boundary_flag"] is True
    sa = [iv for iv in ml["intervals"] if iv["name"] == "sigma_alpha_sq"][0]
    assert sa["lower"] >= 0.0 and sa["upper"] is None


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_summary_and_replicates(tmp_path):
    # small clusters and a small effect variance: many boundary replicates
    args = ["simulate", "--g", "10", "--m", "3", "--sigma-alpha-sq", "0.05",
            "--reps", "15", "--seed", "3"]
    out = str(tmp_path / "sim.json")
    assert main(args + ["--output", out]) == EXIT_FLAGGED
    report = json.loads(open(out).read())
    assert report["command"] == "simulate"
    assert report["n_replications"] == 15
    csv_path = report["replicates_csv"]
    assert csv_path == str(tmp_path / "sim.replicates.csv")
    rows = list(csv.DictReader(open(csv_path)))
    assert [int(r["index"]) for r in rows] == list(range(15))
    # the JSON counts and coverage are readings of the CSV rows
    ok = [r for r in rows if r["ok"] == "1"]
    interior = [r for r in ok if r["boundary"] == "0"]
    assert report["n_ok"] == len(ok)
    assert report["n_failed"] == sum(r["ok"] == "0" for r in rows)
    assert report["n_boundary"] == len(ok) - len(interior) > 0
    names = report["parameter_names"]
    for name in names:
        hits = [int(r[f"hit_{_san(name)}"]) for r in interior]
        assert report["coverage"][name] == pytest.approx(
            sum(hits) / len(hits), abs=1e-12, rel=0)
    # every estimate in the CSV parses back to the library's bits
    summary = run_replications(_sim_config(_run_config(
        _build_parser().parse_args(args))))
    for i, r in enumerate(rows):
        assert r["error"] == summary.error[i]
        for prefix, est in (("ml", summary.omega_ml[i]),
                            ("reml", summary.omega_reml[i])):
            cells = [r[f"{prefix}_{_san(n)}"] for n in names]
            if r["ok"] == "1":
                assert [float(c) for c in cells] == est.tolist()
            else:
                assert cells == [""] * len(names) and np.isnan(est).all()


def test_simulate_is_reproducible(tmp_path, monkeypatch):
    args = ["simulate", "--g", "12", "--m", "3", "--reps", "6", "--seed", "9",
            "--output", "sim.json"]   # relative, so the JSON names one CSV path
    files = {}
    for run, extra in (("a", []), ("b", []), ("one", ["--workers", "1"]),
                       ("two", ["--workers", "2"])):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        main(args + extra)
        files[run] = [(tmp_path / run / name).read_bytes()
                      for name in ("sim.json", "sim.replicates.csv")]
    assert files["a"] == files["b"]
    assert files["one"] == files["two"] == files["a"]


def test_simulate_flags_boundary_runs(tmp_path):
    # degenerate residuals leave no within variation, so sigma_e_sq lands
    # on the floor in every replicate
    out = str(tmp_path / "sim.json")
    rc = main(["simulate", "--g", "10", "--m", "4", "--reps", "3",
               "--e-dist", "zero", "--seed", "4", "--output", out])
    assert rc == EXIT_FLAGGED
    report = json.loads(open(out).read())
    assert report["n_boundary"] == 3


@pytest.mark.parametrize("sigma_e_sq", ["1e100", "1e150"])
def test_cluster_mean_diagnostics_stay_finite_at_a_huge_scale(tmp_path, sigma_e_sq):
    # the law's moments are finite doubles here, but eighth powers of the
    # cluster-mean errors are not: the diagnostics must not form them raw
    out = str(tmp_path / "sim.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--g", "10", "--m", "3", "--reps", "5",
                     "--seed", "4", "--sigma-e-sq", sigma_e_sq,
                     "--output", out]) == EXIT_FLAGGED
    cells = _strict_json(out)["ebar_moments"]["3"].values()
    assert len(cells) == 4
    for cell in cells:
        assert all(isinstance(cell[k], float) and math.isfinite(cell[k])
                   for k in ("mc_se", "zscore"))
        assert cell["mc_se"] > 0.0


def test_the_three_subcommands_are_all_there_is(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{fit,ci,simulate}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2   # argparse's usage error
    assert "invalid choice: 'verify'" in capsys.readouterr().err


def test_simulate_rejects_bad_flags(tmp_path, capsys):
    assert main(["simulate", "--reps", "0"]) == EXIT_FAIL
    assert main(["simulate", "--e-dist", "cauchy"]) == EXIT_FAIL
    assert main(["simulate", "--g", "1"]) == EXIT_FAIL
    assert main(["simulate", "--p-b", "-1"]) == EXIT_FAIL
    assert main(["simulate", "--p-w", "-1"]) == EXIT_FAIL
    assert main(["simulate", "--workers", "0"]) == EXIT_FAIL
    assert main(["simulate", "--workers", "-1"]) == EXIT_FAIL
    assert main(["simulate", "--gamma", "1e-300", "--reps", "40"]) == EXIT_FAIL
    # laws whose variance, third or fourth moment overflows a double at
    # the requested variance fail before any draw, without a traceback
    for flags in (["--sigma-e-sq", "1e250", "--e-dist", "lognormal(13.3)"],
                  ["--sigma-e-sq", "1e200", "--e-dist", "lognormal(13.3)"],
                  ["--sigma-e-sq", "1e160"],
                  ["--sigma-alpha-sq", "1e160", "--alpha-dist", "gamma(2)"]):
        assert main(["simulate", "--g", "10", "--m", "3", "--reps", "20",
                     "--seed", "4", *flags]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.count("error:") == len(err.splitlines()) == 12
    assert err.count("error: gamma must lie in (0, 1)") == 1   # before any draw
    assert err.count("is not a finite double") == 4
