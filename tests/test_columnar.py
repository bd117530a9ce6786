"""The array-backed dataset layers against per-cluster loop oracles.

The dataset stores flat arrays plus cluster offsets; every layer that
reduces over clusters works on the whole arrays at once.  These tests pin
those layers to the pure-loop oracles in ``helpers`` on awkward designs:
unequal sizes with singletons, no between covariates, zero or two within
covariates.
"""

import numpy as np
import pytest

from nerm.asymptotics import estimate_moments
from nerm.cli import read_dataset_csv
from nerm.errors import NonFiniteValue
from nerm.estimation import FitResult
from nerm.model import center_within_covariates, sufficient_stats, validate_dataset

from .helpers import (
    close,
    make_dataset,
    naive_center,
    naive_first_nonfinite,
    naive_moments,
    naive_sufficient_stats,
    random_omega,
)

SIZES = [1, 4, 1, 2, 7, 1, 3, 1]
DESIGNS = [(0, 0), (0, 2), (1, 0), (1, 2), (2, 2)]


def _ragged_dataset(rng, p_b, p_w, sizes=SIZES):
    ys = [rng.normal(size=m) for m in sizes]
    xbs = [rng.normal(size=p_b) for _ in sizes]
    xws = [rng.normal(size=(m, p_w)) for m in sizes]
    return make_dataset(ys, xbs, xws, p_b=p_b, p_w=p_w)


@pytest.mark.parametrize("p_b,p_w", DESIGNS)
def test_sufficient_stats_match_loops_with_singletons(p_b, p_w):
    rng = np.random.default_rng(100 + 10 * p_b + p_w)
    ds = _ragged_dataset(rng, p_b, p_w)
    st = sufficient_stats(ds)
    m, ybar, xbar, swy, swxy, swx = naive_sufficient_stats(ds)
    assert np.array_equal(st.m, m) and st.n == m.sum() and st.g == len(SIZES)
    assert close(st.ybar, ybar, 1e-13)
    assert st.xbar_w.shape == (len(SIZES), p_w) and close(st.xbar_w, xbar, 1e-13)
    assert close(st.S_w_y, swy, 1e-12)
    assert close(st.S_w_xy, swxy, 1e-12)
    assert close(st.S_w_x, swx, 1e-12)


@pytest.mark.parametrize("p_b,p_w", DESIGNS)
def test_validate_matches_loop_oracle(p_b, p_w):
    rng = np.random.default_rng(200 + 10 * p_b + p_w)
    ds = _ragged_dataset(rng, p_b, p_w)
    assert naive_first_nonfinite(ds) is None
    assert validate_dataset(ds) is ds
    # Plant bad values: a covariate in the fifth cluster (a within one
    # where there is one) and a response in the seventh.
    ys = [c.y.copy() for c in ds.clusters]
    xbs = [c.x_b.copy() for c in ds.clusters]
    xws = [c.x_w.copy() for c in ds.clusters]
    ys[6][1] = np.nan
    if p_w:
        xws[4][3, p_w - 1] = np.inf
    elif p_b:
        xbs[4][0] = -np.inf
    bad = make_dataset(ys, xbs, xws, p_b=p_b, p_w=p_w)
    cid, what = naive_first_nonfinite(bad)
    with pytest.raises(NonFiniteValue, match=f"cluster '{cid}': non-finite {what}"):
        validate_dataset(bad)


@pytest.mark.parametrize("p_b", [0, 2])
@pytest.mark.parametrize("add_contextual", [False, True])
def test_centering_matches_loop_oracle(p_b, add_contextual):
    rng = np.random.default_rng(300 + p_b + add_contextual)
    ds = _ragged_dataset(rng, p_b, 2)
    out = center_within_covariates(ds, add_contextual=add_contextual)
    want = naive_center(ds, add_contextual)
    assert out.p_b == p_b + (2 if add_contextual else 0) and out.p_w == 2
    assert np.array_equal(out.y, ds.y)
    assert np.array_equal(out.offsets, ds.offsets)
    for c, (x_b, x_w) in zip(out.clusters, want):
        assert close(c.x_b, x_b, 1e-13)
        assert close(c.x_w, x_w, 1e-13)


@pytest.mark.parametrize("p_b,p_w", DESIGNS)
def test_estimate_moments_matches_loop_oracle(p_b, p_w):
    rng = np.random.default_rng(400 + 10 * p_b + p_w)
    ds = _ragged_dataset(rng, p_b, p_w)
    om = random_omega(rng, p_b, p_w)
    fit = FitResult(omega_hat=om, method="ml", converged=True, iterations=1,
                    score_norm=0.0, boundary_flag=False, loglik_at_opt=0.0,
                    g=ds.g, n=ds.n)
    mom = estimate_moments(ds, sufficient_stats(ds), fit)
    got = (mom.mu3_alpha, mom.mu4_alpha, mom.mu3_e, mom.mu4_e)
    assert close(got, naive_moments(ds, om), 1e-12)


def test_read_csv_interleaved_labels(tmp_path):
    text = ("cluster,w_1,y,b_1\n"
            "b,0.1,1,5\n"
            "a,0.2,2,6\n"
            "b,0.3,3,5\n"
            "c,0.4,4,7\n"
            "a,0.5,5,6\n"
            "b,0.6,6,5\n")
    path = tmp_path / "mixed.csv"
    path.write_text(text)
    ds = read_dataset_csv(str(path))
    assert ds.ids.tolist() == ["b", "a", "c"]
    assert ds.offsets.tolist() == [0, 3, 5, 6]
    assert ds.y.tolist() == [1.0, 3.0, 6.0, 2.0, 5.0, 4.0]
    assert ds.x_w.tolist() == [[0.1], [0.3], [0.6], [0.2], [0.5], [0.4]]
    assert ds.x_b.tolist() == [[5.0], [6.0], [7.0]]
    assert [c.y.tolist() for c in ds.clusters] == [[1.0, 3.0, 6.0], [2.0, 5.0], [4.0]]
